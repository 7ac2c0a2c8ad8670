/**
 * @file
 * Shared plumbing of the ccsim benchmark: the span recorder, the one
 * kernel-construction helper, the registry harvest, the result record
 * every workload fills in, the seeded probe and flow inputs, and the
 * three workloads. Why each workload exists is in ccbench/README.md.
 *
 * The benchmark drives ccsim only through its public API. Host time is
 * read around the benchmark's own calls into each layer; simulated
 * counts come from the obs registry after the run.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "core/cloud.hpp"
#include "fpga/role.hpp"
#include "net/fluid.hpp"
#include "obs/metrics.hpp"
#include "obs/sharded_obs.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_queue.hpp"
#include "sim/stats.hpp"

namespace ccbench {

using namespace ccsim;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);

/** SplitMix64 finalizer: every seeded input is mix64(seed ^ salt ^ i). */
std::uint64_t mix64(std::uint64_t x);

/**
 * In-memory span recorder. Spans nest by call order on the thread that
 * owns the recorder; calls from other threads (sharded workers) are not
 * recorded. Disabled recorders cost one branch per span.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return on; }
    int open(const char *name, std::int64_t tag);
    void close(int id);
    std::size_t size() const { return spans.size(); }

    /** Self time (duration minus direct children) summed per span name. */
    std::map<std::string, double> selfSeconds() const;

    /** Chrome trace-event JSON: one complete event per span. */
    void writeChromeJson(const std::string &path) const;

  private:
    struct Rec {
        const char *name;
        int parent;
        std::int64_t tag;
        double start;
        double end;
    };
    bool on;
    int top = -1;
    Clock::time_point origin;
    std::thread::id owner;
    std::vector<Rec> spans;
};

/** RAII span; @p tag is a window or query id (-1 = none). */
class Span
{
  public:
    Span(Tracer &t, const char *name, std::int64_t tag = -1)
        : tracer(t), id(t.enabled() ? t.open(name, tag) : -1)
    {
    }
    ~Span()
    {
        if (id >= 0)
            tracer.close(id);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer;
    int id;
};

/** Everything one workload run reports. */
struct Result {
    std::string workload;
    std::uint64_t seed = 0;
    int hosts = 0;
    int partitions = 1;
    int workers = 0;  ///< 0 = sequential kernel
    double simSpanUs = 0;

    double setupS = 0;
    double runS = 0;
    double wallS = 0;
    double peakRssMb = 0;
    /** Host s of each timed slice of the run phase, in order. */
    std::vector<double> laps;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double fidelityPct = 0;
    /** Deterministic per-layer counts and simulated statistics. */
    std::map<std::string, double> counts;
    /** Per-layer host time from the trace (traced runs only). */
    std::map<std::string, double> times;
    std::size_t spans = 0;
    /** Correctness checks: name -> detail; failed ones set ok = false. */
    std::vector<std::pair<std::string, std::string>> checks;
    std::vector<std::string> failures;

    void check(const std::string &name, bool pass, const std::string &detail);
    void writeJson(std::ostream &os, const std::string &build_type,
                   const std::string &git_sha) const;
};

/** Byte-counting sink: the time-series stream goes here, not to disk. */
class CountingBuf : public std::streambuf
{
  public:
    std::uint64_t bytes = 0;

  protected:
    int_type overflow(int_type c) override
    {
        if (c != traits_type::eof())
            ++bytes;
        return traits_type::not_eof(c);
    }
    std::streamsize xsputn(const char *, std::streamsize n) override
    {
        bytes += static_cast<std::uint64_t>(n);
        return n;
    }
};

/** Deliveries counted at a destination port (probe sinks). */
struct CountingRole : fpga::Role {
    int port = -1;
    std::uint64_t received = 0;
    std::string name() const override { return "bench-sink"; }
    std::uint32_t areaAlms() const override { return 100; }
    void attach(fpga::Shell &, int p) override { port = p; }
    void onMessage(const router::ErMessagePtr &) override { ++received; }
};

/**
 * The simulated cloud on either kernel, plus the optional live
 * telemetry. Kernel construction sits here only, so a change to how the
 * kernel is built touches one place. Members are declared in the order
 * the simulator needs them destroyed in reverse.
 */
class Kernel
{
  public:
    Kernel() : tsOut(&tsSink) {}
    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /**
     * Build the cloud on the sequential kernel (@p workers == 0) or on the
     * sharded kernel, one partition per pod plus the spine partition.
     * With @p telemetry, a TimeSeriesHub rolls 250 us windows into a
     * counting sink and fleet SLOs run over the RTT and retransmit
     * aggregates.
     */
    void build(core::CloudConfig cfg, int workers, bool telemetry,
               Tracer &tracer);

    void runFor(sim::TimePs d);
    std::uint64_t events() const;
    sim::TimePs now() const;
    int partitions() const { return sq ? sq->partitionCount() : 1; }
    /** Hub holding the metrics of @p host's partition. */
    obs::Observability &hubFor(int host);
    /** Hub of the control plane (spine partition when sharded). */
    obs::Observability &control();
    std::vector<const obs::MetricsRegistry *> registries() const;

    std::unique_ptr<obs::TimeSeriesHub> ts;
    CountingBuf tsSink;
    std::ostream tsOut;
    std::unique_ptr<obs::SloEngine> slo;
    std::unique_ptr<sim::EventQueue> eq;
    std::unique_ptr<sim::ShardedEventQueue> sq;
    std::unique_ptr<obs::Observability> hub;
    std::unique_ptr<obs::ShardedObservability> shardHubs;
    std::unique_ptr<core::ConfigurableCloud> cloud;
};

/** The 249,600-host L2 fabric both L2 workloads run on. */
core::CloudConfig l2FabricConfig();

/**
 * Sum the registry's counters into @p r.counts (ltl, switch, router,
 * fpga families; merged LTL RTT percentiles; kernel counts), check LTL
 * frame accounting, and count registry paths.
 */
void harvest(Kernel &k, Result &r, Tracer &tracer);

/** Peak resident set of this process in MB (VmHWM), -1 if unknown. */
double peakRssMb();

/**
 * Phase clock and seed of one workload run. Each workload builds its
 * simulation from the seed, calls setupDone() before the first simulated
 * event and runDone() after the result harvest, then tears down.
 */
struct Run {
    std::uint64_t seed = 1;
    int workers = 0;  ///< sharded-kernel worker threads (l2_campaign only)
    Tracer &tracer;
    Result &result;
    Clock::time_point start;
    Clock::time_point runStart;
    Clock::time_point lapStart;

    void setupDone()
    {
        runStart = lapStart = Clock::now();
        result.setupS = std::chrono::duration<double>(runStart - start).count();
    }
    /** Close the current slice of the run phase. */
    void lap()
    {
        const Clock::time_point t = Clock::now();
        result.laps.push_back(
            std::chrono::duration<double>(t - lapStart).count());
        lapStart = t;
    }
    void runDone()
    {
        lap();
        result.runS = secondsSince(runStart);
    }
    /** Seeded 64-bit value for input @p i of the stream named by @p salt. */
    std::uint64_t draw(std::uint64_t salt, std::uint64_t i) const
    {
        return mix64(mix64(seed ^ salt) + i);
    }
};

/** Paper LTL round trip between pods through the L2 tier (us). */
constexpr double kPaperL2RttUs = 18.71;

/** The pods [@p first, @p last) in seeded order. */
std::vector<int> seededPods(const Run &run, int first, int last);

/** One cross-pod LTL probe pair; deliveries are counted at the sink. */
struct Probe {
    int src = 0;
    int dst = 0;
    std::unique_ptr<CountingRole> role;
    core::LtlChannel channel;
};

/**
 * @p pairs probe pairs from pod @p pods[i] to pod @p pods[pairs + i], on
 * seeded racks and hosts. Distinct source pods give every source engine,
 * and its RTT histogram, to exactly one pair.
 */
std::vector<Probe> openProbes(const Run &run, Kernel &k,
                              const std::vector<int> &pods, int pairs);

/** Schedule @p pings 64-byte messages on every probe, 20 us apart. */
void schedulePings(Kernel &k, std::vector<Probe> &probes, int pings);

/** Merged probe RTTs (us) and messages delivered to the probe sinks. */
struct ProbeResult {
    sim::LogHistogram rtt{obs::kDefaultHistMinValue,
                          obs::kDefaultHistBinsPerOctave};
    std::uint64_t delivered = 0;
};
ProbeResult probeResult(Kernel &k, const std::vector<Probe> &probes);

/** 100 x (1 - |mean RTT - paper| / paper) for the L2 workloads. */
double l2FidelityPct(const ProbeResult &p);

/** Add @p n fluid flows of @p bps between seeded distinct hosts. */
std::vector<std::uint64_t> addFlows(const Run &run,
                                    net::FluidTrafficModel &fluid, int n,
                                    std::uint64_t bps);

void runL2Campaign(Run &run);
void runRemoteRank(Run &run);
void runChaosDomains(Run &run);

}  // namespace ccbench
