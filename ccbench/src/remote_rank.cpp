/**
 * @file
 * remote_rank: the fig11 remote-FPGA path on an 8-host, 1-pod fabric on
 * the sequential kernel. An open-loop Poisson stream of ranking queries
 * near the knee goes host -> PCIe -> ER -> LTL -> TOR -> remote ER ->
 * ranking role and back. The same seeded arrivals then run against a
 * locally attached FPGA: fig11's claim is that the two tails nearly
 * overlay.
 */
#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "host/load_generator.hpp"
#include "host/ranking_server.hpp"
#include "roles/ranking/ranking_role.hpp"
#include "sim/logging.hpp"

namespace ccbench {

namespace {

constexpr double kRateQps = 5500.0;  // near the remote curve's knee
constexpr sim::TimePs kWarmup = 500 * sim::kMillisecond;
constexpr sim::TimePs kMeasure = 2500 * sim::kMillisecond;
constexpr sim::TimePs kDrain = 200 * sim::kMillisecond;
/** The timed span runs in slices of this length, one lap each. */
constexpr sim::TimePs kSlice = 5 * sim::kMillisecond;

enum : std::uint64_t { kSaltHosts = 11, kSaltArrivals, kSaltService };

/** Simulation objects, destroyed in reverse order at teardown. */
struct State {
    Kernel k;
    std::unique_ptr<roles::RankingRole> role;
    std::unique_ptr<roles::ForwarderRole> forwarder;
    core::LtlChannel reqCh, repCh;
    std::unique_ptr<roles::RemoteRankingClient> client;
    std::unique_ptr<host::RankingServer> server;
    std::unique_ptr<host::PoissonLoadGenerator> gen;
};

/** Run @p eq for @p d; with @p laps, one lap per kSlice of it. */
void
runFor(Run &run, sim::EventQueue &eq, sim::TimePs d, bool laps)
{
    if (!laps) {
        eq.runFor(d);
        return;
    }
    for (sim::TimePs t = 0; t < d; t += kSlice) {
        eq.runFor(std::min(kSlice, d - t));
        run.lap();
    }
}

/**
 * Drive @p server with the seeded open-loop stream: warm up, measure,
 * stop arrivals, drain. Returns the number of submitted queries. With
 * @p laps the span is timed in slices (Run::lap).
 */
std::uint64_t
drive(Run &run, sim::EventQueue &eq, host::RankingServer &server,
      std::unique_ptr<host::PoissonLoadGenerator> &gen, const char *run_span,
      const char *submit_span, bool laps)
{
    Tracer &tr = run.tracer;
    std::uint64_t submitted = 0;
    gen = std::make_unique<host::PoissonLoadGenerator>(
        eq, kRateQps,
        [&, submit_span] {
            Span s(tr, submit_span, static_cast<std::int64_t>(submitted));
            if (server.submitQuery())
                ++submitted;
        },
        run.draw(kSaltArrivals, 0));
    gen->start();
    {
        Span s(tr, run_span, 0);
        runFor(run, eq, kWarmup, laps);
    }
    server.clearStats();
    {
        Span s(tr, run_span, 1);
        runFor(run, eq, kMeasure, laps);
    }
    gen->stop();
    Span s(tr, run_span, 2);
    runFor(run, eq, kDrain, laps);
    return submitted;
}

}  // namespace

void
runRemoteRank(Run &run)
{
    Tracer &tr = run.tracer;
    Result &r = run.result;
    auto st = std::make_unique<State>();
    Kernel &k = st->k;
    core::CloudConfig cfg;
    cfg.topology.hostsPerRack = 4;
    cfg.topology.racksPerPod = 2;
    cfg.topology.l1PerPod = 2;
    cfg.topology.pods = 1;
    cfg.topology.l2Count = 1;
    cfg.shellTemplate.ltl.maxConnections = 16;
    k.build(cfg, /*workers=*/0, /*telemetry=*/false, tr);
    sim::EventQueue &eq = *k.eq;
    r.hosts = k.cloud->numServers();

    // Client in rack 0, ranking FPGA in rack 1: the path crosses the TOR.
    const int client = static_cast<int>(run.draw(kSaltHosts, 0) % 4);
    const int remote = 4 + static_cast<int>(run.draw(kSaltHosts, 1) % 4);
    roles::RankingRoleParams rp;
    rp.occupancyPerDoc = 300 * sim::kNanosecond;  // match the local engine
    rp.fixedLatency = 40 * sim::kMicrosecond;
    st->role = std::make_unique<roles::RankingRole>(eq, rp);
    st->forwarder = std::make_unique<roles::ForwarderRole>();
    {
        Span s(tr, "core.open_ltl");
        if (k.cloud->shell(remote).addRole(st->role.get()) < 0 ||
            k.cloud->shell(client).addRole(st->forwarder.get()) < 0)
            sim::fatal("remote_rank: roles do not fit");
        st->reqCh = k.cloud->openLtl(client, remote, fpga::kErPortRole0);
        st->repCh = k.cloud->openLtl(remote, client, st->forwarder->port());
    }
    st->client = std::make_unique<roles::RemoteRankingClient>(
        eq, k.cloud->shell(client), *st->forwarder, st->reqCh.sendConn(),
        st->repCh.sendConn());
    st->server = std::make_unique<host::RankingServer>(
        eq, host::RankingServiceParams{}, st->client.get(),
        run.draw(kSaltService, 0));
    run.setupDone();

    const std::uint64_t submitted =
        drive(run, eq, *st->server, st->gen, "sim.run", "host.submit",
              /*laps=*/true);
    host::RankingServer &server = *st->server;
    const sim::SampleStats &lat = server.latencyMs();
    const double remoteP999 = lat.percentile(99.9);
    r.simSpanUs = sim::toMicros(eq.now());
    r.counts["core.open_ltl_calls"] = 2;
    r.counts["host.submitted"] = static_cast<double>(submitted);
    r.counts["host.completed"] = static_cast<double>(server.completed());
    r.counts["host.latency_ms.p50"] = lat.percentile(50.0);
    r.counts["host.latency_ms.p999"] = remoteP999;
    r.counts["host.latency_ms.samples"] = static_cast<double>(lat.count());
    r.attempted = submitted;
    r.failed = submitted - std::min(submitted, server.completed());
    r.check("queries_completed", r.failed == 0 && server.inFlight() == 0,
            std::to_string(server.completed()) + " of " +
                std::to_string(submitted) + " submitted queries completed, " +
                std::to_string(server.inFlight()) + " in flight after drain");
    harvest(k, r, tr);
    run.runDone();

    // The same arrivals and service times against a local FPGA. Its host
    // time counts in wall_s only, not in run_s.
    double localP999 = 0;
    {
        sim::EventQueue leq;
        host::LocalFpgaAccelerator local(leq);
        host::RankingServer lserver(leq, host::RankingServiceParams{}, &local,
                                    run.draw(kSaltService, 0));
        std::unique_ptr<host::PoissonLoadGenerator> lgen;
        const std::uint64_t lsub = drive(run, leq, lserver, lgen,
                                         "sim.run_reference",
                                         "host.submit_reference",
                                         /*laps=*/false);
        localP999 = lserver.latencyMs().percentile(99.9);
        r.check("local_reference_completed", lserver.completed() == lsub,
                std::to_string(lserver.completed()) + " of " +
                    std::to_string(lsub) + " local queries completed");
        r.counts["fidelity.local_p999_ms"] = localP999;
    }

    const double ratio = localP999 > 0 ? remoteP999 / localP999 : 0.0;
    r.fidelityPct = 100.0 * (1.0 - std::fabs(ratio - 1.0));
    r.counts["fidelity.remote_over_local_p999"] = ratio;
    r.check("latency_samples", lat.count() >= 10000,
            std::to_string(lat.count()) +
                " remote samples (p99.9 needs >= 10 beyond it)");

    Span s(tr, "core.teardown");
    st.reset();
}

}  // namespace ccbench
