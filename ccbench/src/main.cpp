/**
 * @file
 * One run of one benchmark workload in this process, so peak RSS and
 * set-up belong to that workload alone. Prints one JSON object (the
 * result record) on stdout and exits non-zero when a correctness check
 * failed.
 *
 *   ccbench --workload l2_campaign|remote_rank|chaos_domains
 *           [--seed N] [--workers T] [--trace-out PATH] [--git-sha SHA]
 *
 * With --trace-out the run records spans around every timed call and
 * writes them to PATH as Chrome trace events; per-layer self times are
 * added to the record.
 */
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "sim/logging.hpp"

#ifndef CCBENCH_BUILD_TYPE
#define CCBENCH_BUILD_TYPE "unknown"
#endif

int
main(int argc, char **argv)
{
    using namespace ccbench;
    const Clock::time_point start = Clock::now();
    std::string workload, traceOut, gitSha = "unknown";
    std::uint64_t seed = 1;
    int workers = 1;
    for (int i = 1; i < argc; ++i) {
        const bool hasValue = i + 1 < argc;
        if (std::strcmp(argv[i], "--workload") == 0 && hasValue)
            workload = argv[++i];
        else if (std::strcmp(argv[i], "--seed") == 0 && hasValue)
            seed = std::stoull(argv[++i]);
        else if (std::strcmp(argv[i], "--workers") == 0 && hasValue)
            workers = std::stoi(argv[++i]);
        else if (std::strcmp(argv[i], "--trace-out") == 0 && hasValue)
            traceOut = argv[++i];
        else if (std::strcmp(argv[i], "--git-sha") == 0 && hasValue)
            gitSha = argv[++i];
        else
            sim::fatalf("ccbench: unknown argument ", argv[i]);
    }
    void (*body)(Run &) = nullptr;
    if (workload == "l2_campaign")
        body = runL2Campaign;
    else if (workload == "remote_rank")
        body = runRemoteRank;
    else if (workload == "chaos_domains")
        body = runChaosDomains;
    else
        sim::fatalf("ccbench: unknown workload '", workload,
                    "' (l2_campaign|remote_rank|chaos_domains)");
    if (workers < 1)
        sim::fatal("ccbench: --workers must be >= 1");

    Tracer tracer(!traceOut.empty());
    Result result;
    result.workload = workload;
    result.seed = seed;
    // Only l2_campaign runs on the sharded kernel.
    result.workers = workload == "l2_campaign" ? workers : 0;
    Run run{seed, result.workers, tracer, result, start, start};
    {
        Span root(tracer, "bench.other");
        body(run);
    }
    result.wallS = secondsSince(start);
    result.peakRssMb = peakRssMb();

    if (tracer.enabled()) {
        for (const auto &[name, self] : tracer.selfSeconds())
            result.times[name + "_s"] = self;
        result.spans = tracer.size();
        tracer.writeChromeJson(traceOut);
    }
    result.writeJson(std::cout, CCBENCH_BUILD_TYPE, gitSha);
    for (const std::string &f : result.failures)
        std::fprintf(stderr, "ccbench: check failed: %s\n", f.c_str());
    return result.failures.empty() ? 0 : 2;
}
