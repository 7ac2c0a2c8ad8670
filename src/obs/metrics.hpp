/**
 * @file
 * Hierarchical metrics registry.
 *
 * Components register named metrics under dotted paths
 * (`ltl.node3.retransmits`, `switch.tor.0.0.q3.depth`). Four metric
 * kinds are supported:
 *
 *  - **counters**   — monotonically increasing event counts;
 *  - **histograms** — memory-bounded log-binned sample distributions;
 *  - **gauges**     — time-weighted piecewise-constant signals set
 *                     explicitly by the component;
 *  - **probes**     — callback gauges that *read* a live component value
 *                     on demand (snapshot or periodic sampling), so
 *                     existing component statistics can be exported
 *                     without duplicating bookkeeping in hot paths.
 *
 * The registry offers a deterministic JSON snapshot (paths emitted in
 * sorted order, fixed number formatting) and a periodic sampling hook
 * driven by the simulation EventQueue: every period the sampler reads
 * all probes, folds the values into time-weighted averages, and (when a
 * TraceWriter is attached) emits Chrome counter events — on the first
 * tick for every probe, afterwards only for probes whose value changed.
 *
 * Observability is strictly read-only with respect to simulation state:
 * attaching a registry, sampling, or exporting never changes component
 * behaviour, so instrumented and bare runs are bit-identical.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "obs/flow_trace.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"

namespace ccsim::obs {

/**
 * A time-weighted gauge: set(t, v) records that the signal holds value
 * @p v from simulated time @p t onward.
 */
class Gauge
{
  public:
    void set(sim::TimePs t_ps, double v)
    {
        tw.update(t_ps, v);
        current = v;
    }

    /** Most recently set value. */
    double value() const { return current; }
    /** Time-weighted mean over the updates seen so far. */
    double timeAverage() const { return tw.average(); }
    /** Peak value seen. */
    double peak() const { return tw.peak(); }

  private:
    sim::TimeWeighted tw;
    double current = 0.0;
};

/** Defaults for registry histograms (sub-1% relative quantile error). */
inline constexpr double kDefaultHistMinValue = 0.5;
inline constexpr int kDefaultHistBinsPerOctave = 96;

/**
 * The hierarchical metrics registry. Not thread-safe, lookups included
 * (they update a one-entry memo): one registry per simulation or shard,
 * used by one thread at a time, like the EventQueue.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;
    ~MetricsRegistry();

    // --- registration / lookup (get-or-create; references are stable) ---

    /** The counter at @p path, created on first use. */
    sim::Counter &counter(const std::string &path);

    /** The gauge at @p path, created on first use. */
    Gauge &gauge(const std::string &path);

    /**
     * The histogram at @p path, created on first use with the given
     * binning. Later calls for an existing path ignore the binning
     * arguments and return the original instance.
     */
    sim::LogHistogram &
    histogram(const std::string &path,
              double min_value = kDefaultHistMinValue,
              int bins_per_octave = kDefaultHistBinsPerOctave);

    /**
     * Register a callback gauge: @p fn is invoked at snapshot time and on
     * every sampling tick. Re-registering a path replaces the callback
     * (components attached to a fresh prefix never collide; replacement
     * supports re-attachment).
     */
    void registerProbe(const std::string &path, std::function<double()> fn);

    /**
     * Register a probe for state created on first use (a server's first
     * impairment, a switch's first packet): the caller guarantees it
     * would have read 0 at every sampling tick so far. Its time-average
     * and trace counter continue as if it had been registered before
     * sampling began; the trace only lacks the initial 0 sample.
     * Re-registering a path only replaces its callback, as
     * registerProbe() does.
     */
    void registerLateProbe(const std::string &path,
                           std::function<double()> fn);

    // --- lookup without creation ---

    const sim::Counter *findCounter(const std::string &path) const;
    const Gauge *findGauge(const std::string &path) const;
    const sim::LogHistogram *findHistogram(const std::string &path) const;
    bool hasProbe(const std::string &path) const;

    /**
     * The callback of the probe at @p path, or null. The pointer stays
     * valid for the registry's lifetime and always reads the current
     * callback: re-registering the path replaces it in place. A watcher
     * (the time-series hub) keeps it instead of looking the path up on
     * every read.
     */
    const std::function<double()> *findProbe(const std::string &path) const;

    /** Invoke the probe at @p path now. Panics if no such probe. */
    double probeValue(const std::string &path) const;

    /**
     * Time-weighted average of a probe as accumulated by the periodic
     * sampler (0 before the first tick).
     */
    double probeTimeAverage(const std::string &path) const;

    // --- hierarchy ---

    /** Every registered path across all kinds, sorted. */
    std::vector<std::string> paths() const;

    /** What one registered path holds: exactly one member is non-null. */
    struct MetricRef {
        const sim::Counter *counter = nullptr;
        const Gauge *gauge = nullptr;
        const sim::LogHistogram *histogram = nullptr;
        const std::function<double()> *probe = nullptr;  ///< as findProbe()
    };

    /**
     * Call @p fn(path, metric) for every registered path, sorted. The
     * path views the registry's own storage, so nothing is copied; @p fn
     * must not register metrics.
     */
    void forEachMetric(
        const std::function<void(std::string_view, const MetricRef &)> &fn)
        const;

    /**
     * Mutation counter, bumped whenever a new metric is registered.
     * Watchers (the time-series hub) cache it to skip path re-discovery
     * on every window when the registry hasn't changed.
     */
    std::uint64_t version() const { return mutations; }

    /**
     * Direct child segments under a dotted prefix ("" for the roots),
     * sorted and deduplicated: with `ltl.node0.rtt` and `ltl.node1.rtt`
     * registered, children("ltl") is {"node0", "node1"}.
     */
    std::vector<std::string> children(const std::string &prefix) const;

    // --- snapshot export ---

    /**
     * Serialize every metric as JSON, deterministically (sorted paths,
     * fixed formatting): byte-identical runs produce byte-identical
     * snapshots.
     */
    void writeSnapshot(std::ostream &os) const;

    /** writeSnapshot() to a string. */
    std::string snapshotJson() const;

    /**
     * Serialize several registries as one combined snapshot, in exactly
     * writeSnapshot()'s format (a single-element list is byte-identical
     * to that registry's own snapshot). Paths must be disjoint across
     * the registries — in a sharded simulation every component registers
     * under its own shard, so a duplicate path is a partitioning bug and
     * panics.
     */
    static void
    writeMergedSnapshot(std::ostream &os,
                        const std::vector<const MetricsRegistry *> &regs);

    /** writeMergedSnapshot() to a string. */
    static std::string
    mergedSnapshotJson(const std::vector<const MetricsRegistry *> &regs);

    // --- periodic sampling -------------------------------------------------

    /**
     * Start sampling all probes every @p period of simulated time, with
     * the first tick one period from now. When @p trace is non-null,
     * each tick emits Chrome counter events (first tick: all probes;
     * later ticks: probes whose value changed). Restarting replaces the
     * previous schedule.
     */
    void startSampling(sim::EventQueue &eq, sim::TimePs period,
                       TraceWriter *trace = nullptr);

    /**
     * Cancel the sampling schedule. Must be called before draining the
     * queue with runAll(), since the sampler perpetually reschedules.
     */
    void stopSampling();

    bool samplingActive() const { return samplerEvent != sim::kNoEvent; }

    /** Number of sampling ticks executed. */
    std::uint64_t samplesTaken() const { return samplerTicks; }

    /**
     * Take one sampling tick at simulated time @p now without an event
     * schedule: reads every probe and folds it into the time-weighted
     * averages (and the Chrome trace, when one was attached via
     * startSampling). The periodic sampler calls this from its event;
     * a sharded simulation calls it from a barrier hook so probes are
     * read at deterministic sync points rather than mid-window.
     */
    void sampleAt(sim::TimePs now);

  private:
    struct Probe {
        std::function<double()> fn;
        sim::TimeWeighted tw;
        double lastEmitted = 0.0;
        bool everEmitted = false;
    };

    using Metric = std::variant<sim::Counter, Gauge, sim::LogHistogram, Probe>;
    /** Every metric of every kind, ordered by path. Keys view the arena. */
    using Index = std::map<std::string_view, Metric>;

    /** Append-only path bytes; chunks never move, sizes double. */
    std::vector<std::unique_ptr<char[]>> arena;
    char *arenaNext = nullptr;
    std::size_t arenaLeft = 0;
    std::size_t arenaChunk = 0;  ///< size of the newest chunk
    Index index;
    /** The entry the last lookup found: classifying one path through
     * findCounter(), findGauge(), ... walks the tree once. */
    mutable const Index::value_type *lastFound = nullptr;
    std::uint64_t mutations = 0;

    sim::EventQueue *samplerQueue = nullptr;
    sim::EventId samplerEvent = sim::kNoEvent;
    sim::TimePs samplerPeriod = 0;
    TraceWriter *samplerTrace = nullptr;
    std::uint64_t samplerTicks = 0;
    sim::TimePs firstSampleAt = 0;  ///< time of the first sampling tick

    /** A copy of @p path in the arena. */
    std::string_view intern(std::string_view path);
    /** The @p T metric at @p path, or null. */
    template <typename T>
    const T *findAs(std::string_view path) const;
    /**
     * The @p T metric at @p path, created from @p args if the path is
     * new (then `.second` is true); panics if the path holds another
     * kind.
     */
    template <typename T, typename... Args>
    std::pair<T *, bool> obtain(std::string_view path, Args &&...args);
    /** registerProbe(); `.second` is true for a new path. */
    std::pair<Probe *, bool> setProbe(const std::string &path,
                                      std::function<double()> fn);
    /** The @p T metrics of @p regs as one path-sorted list; panics on a
     * path held by more than one registry. */
    template <typename T>
    static std::vector<std::pair<std::string_view, const T *>>
    mergeKind(const std::vector<const MetricsRegistry *> &regs,
              const char *kind);
    void scheduleTick();
    void sampleTick();
};

/**
 * The observability bundle handed to components: one registry plus one
 * trace writer per simulation. Components take it by pointer; null means
 * "not observed" and costs nothing.
 */
struct Observability {
    MetricsRegistry registry;
    TraceWriter trace;
    FlightRecorder flows;
};

/**
 * Export DES-kernel health probes for @p eq under `sim.queue.*`:
 *
 *  - `sim.queue.events_per_sec` — events executed per *simulated* second
 *    (wall-clock rates would differ run to run and break byte-identical
 *    same-seed snapshots);
 *  - `sim.queue.live` — currently scheduled, uncancelled events;
 *  - `sim.queue.cancelled` — total cancellations;
 *  - `sim.queue.wheel_overflow` — events parked in the far-future
 *    overflow heap (0 on the reference binary-heap backend).
 *
 * @p eq must outlive @p registry (or probe re-registration).
 */
void registerEventQueueProbes(MetricsRegistry &registry,
                              const sim::EventQueue &eq);

}  // namespace ccsim::obs
