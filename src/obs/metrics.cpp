#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>
#include <string_view>

#include "obs/json_util.hpp"
#include "sim/logging.hpp"

namespace ccsim::obs {

MetricsRegistry::~MetricsRegistry()
{
    // Safe as long as the EventQueue outlives the registry (declare the
    // queue first; see Observability usage in the benches/tests).
    stopSampling();
}

std::string_view
MetricsRegistry::intern(std::string_view path)
{
    if (path.size() > arenaLeft) {
        // Chunks double from a small first one: few allocations for a
        // large registry, little slack for the many small ones.
        arenaChunk = std::max({std::size_t{256}, 2 * arenaChunk, path.size()});
        arena.push_back(std::make_unique_for_overwrite<char[]>(arenaChunk));
        arenaNext = arena.back().get();
        arenaLeft = arenaChunk;
    }
    const std::string_view copy(arenaNext, path.size());
    std::copy(path.begin(), path.end(), arenaNext);
    arenaNext += path.size();
    arenaLeft -= path.size();
    return copy;
}

template <typename T>
const T *
MetricsRegistry::findAs(std::string_view path) const
{
    if (lastFound == nullptr || lastFound->first != path) {
        const auto it = index.find(path);
        if (it == index.end())
            return nullptr;
        lastFound = &*it;
    }
    return std::get_if<T>(&lastFound->second);
}

template <typename T, typename... Args>
std::pair<T *, bool>
MetricsRegistry::obtain(std::string_view path, Args &&...args)
{
    if (path.empty())
        sim::panic("MetricsRegistry: empty metric path");
    auto it = index.lower_bound(path);
    const bool fresh = it == index.end() || it->first != path;
    if (fresh) {
        it = index.emplace_hint(
            it, std::piecewise_construct, std::forward_as_tuple(intern(path)),
            std::forward_as_tuple(std::in_place_type<T>,
                                  std::forward<Args>(args)...));
        ++mutations;
    }
    T *metric = std::get_if<T>(&it->second);
    if (metric == nullptr)
        sim::panicf("MetricsRegistry: path '", path,
                    "' already registered as a different metric kind");
    lastFound = &*it;
    return {metric, fresh};
}

sim::Counter &
MetricsRegistry::counter(const std::string &path)
{
    return *obtain<sim::Counter>(path).first;
}

Gauge &
MetricsRegistry::gauge(const std::string &path)
{
    return *obtain<Gauge>(path).first;
}

sim::LogHistogram &
MetricsRegistry::histogram(const std::string &path, double min_value,
                           int bins_per_octave)
{
    return *obtain<sim::LogHistogram>(path, min_value, bins_per_octave).first;
}

std::pair<MetricsRegistry::Probe *, bool>
MetricsRegistry::setProbe(const std::string &path, std::function<double()> fn)
{
    if (!fn)
        sim::panicf("MetricsRegistry: null probe for '", path, "'");
    const auto [probe, fresh] = obtain<Probe>(path);
    if (!fresh)
        ++mutations;  // a replaced callback counts as a change too
    probe->fn = std::move(fn);
    return {probe, fresh};
}

void
MetricsRegistry::registerProbe(const std::string &path,
                               std::function<double()> fn)
{
    setProbe(path, std::move(fn));
}

void
MetricsRegistry::registerLateProbe(const std::string &path,
                                   std::function<double()> fn)
{
    const auto [probe, fresh] = setProbe(path, std::move(fn));
    if (!fresh || samplerTicks == 0)
        return;
    // Replay the zeros the sampler would have read: the time-average
    // then spans the same window, and the trace counter treats 0 as
    // already emitted.
    probe->tw.update(firstSampleAt, 0.0);
    probe->everEmitted = samplerTrace != nullptr && samplerTrace->enabled();
    probe->lastEmitted = 0.0;
}

const sim::Counter *
MetricsRegistry::findCounter(const std::string &path) const
{
    return findAs<sim::Counter>(path);
}

const Gauge *
MetricsRegistry::findGauge(const std::string &path) const
{
    return findAs<Gauge>(path);
}

const sim::LogHistogram *
MetricsRegistry::findHistogram(const std::string &path) const
{
    return findAs<sim::LogHistogram>(path);
}

bool
MetricsRegistry::hasProbe(const std::string &path) const
{
    return findAs<Probe>(path) != nullptr;
}

const std::function<double()> *
MetricsRegistry::findProbe(const std::string &path) const
{
    const Probe *probe = findAs<Probe>(path);
    return probe == nullptr ? nullptr : &probe->fn;
}

double
MetricsRegistry::probeValue(const std::string &path) const
{
    const Probe *probe = findAs<Probe>(path);
    if (probe == nullptr)
        sim::panicf("MetricsRegistry: no probe at '", path, "'");
    return probe->fn();
}

double
MetricsRegistry::probeTimeAverage(const std::string &path) const
{
    const Probe *probe = findAs<Probe>(path);
    if (probe == nullptr)
        sim::panicf("MetricsRegistry: no probe at '", path, "'");
    return probe->tw.average();
}

std::vector<std::string>
MetricsRegistry::paths() const
{
    std::vector<std::string> all;
    all.reserve(index.size());
    for (const auto &[path, metric] : index)
        all.emplace_back(path);
    return all;
}

void
MetricsRegistry::forEachMetric(
    const std::function<void(std::string_view, const MetricRef &)> &fn) const
{
    for (const auto &[path, metric] : index) {
        MetricRef ref;
        ref.counter = std::get_if<sim::Counter>(&metric);
        ref.gauge = std::get_if<Gauge>(&metric);
        ref.histogram = std::get_if<sim::LogHistogram>(&metric);
        if (const Probe *probe = std::get_if<Probe>(&metric))
            ref.probe = &probe->fn;
        fn(path, ref);
    }
}

std::vector<std::string>
MetricsRegistry::children(const std::string &prefix) const
{
    const std::string want = prefix.empty() ? "" : prefix + ".";
    std::vector<std::string> kids;
    for (auto it = index.upper_bound(want);
         it != index.end() && it->first.starts_with(want); ++it) {
        const std::string_view rest = it->first.substr(want.size());
        kids.emplace_back(rest.substr(0, rest.find('.')));
    }
    std::sort(kids.begin(), kids.end());
    kids.erase(std::unique(kids.begin(), kids.end()), kids.end());
    return kids;
}

void
MetricsRegistry::writeSnapshot(std::ostream &os) const
{
    writeMergedSnapshot(os, {this});
}

template <typename T>
std::vector<std::pair<std::string_view, const T *>>
MetricsRegistry::mergeKind(const std::vector<const MetricsRegistry *> &regs,
                           const char *kind)
{
    std::vector<std::pair<std::string_view, const T *>> merged;
    for (const MetricsRegistry *r : regs) {
        for (const auto &[path, metric] : r->index) {
            if (const T *m = std::get_if<T>(&metric))
                merged.emplace_back(path, m);
        }
    }
    // Each registry's run is already sorted; one registry needs no sort.
    if (regs.size() > 1) {
        const auto byPath = [](const auto &a, const auto &b) {
            return a.first < b.first;
        };
        std::sort(merged.begin(), merged.end(), byPath);
        const auto dup = std::adjacent_find(
            merged.begin(), merged.end(),
            [](const auto &a, const auto &b) { return a.first == b.first; });
        if (dup != merged.end())
            sim::panicf("MetricsRegistry: ", kind, " path '", dup->first,
                        "' registered in more than one shard");
    }
    return merged;
}

void
MetricsRegistry::writeMergedSnapshot(
    std::ostream &os, const std::vector<const MetricsRegistry *> &regs)
{
    using detail::jsonEscape;
    using detail::jsonNumber;

    auto key = [&os](std::string_view path, bool &first) {
        if (!first)
            os << ",";
        first = false;
        os << "\"";
        jsonEscape(os, path);
        os << "\":";
    };

    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[path, c] : mergeKind<sim::Counter>(regs, "counter")) {
        key(path, first);
        os << c->get();
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[path, g] : mergeKind<Gauge>(regs, "gauge")) {
        key(path, first);
        os << "{\"value\":";
        jsonNumber(os, g->value());
        os << ",\"avg\":";
        jsonNumber(os, g->timeAverage());
        os << ",\"peak\":";
        jsonNumber(os, g->peak());
        os << "}";
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[path, h] :
         mergeKind<sim::LogHistogram>(regs, "histogram")) {
        key(path, first);
        os << "{\"count\":" << h->count();
        if (h->count() > 0) {
            os << ",\"mean\":";
            jsonNumber(os, h->mean());
            os << ",\"min\":";
            jsonNumber(os, h->min());
            os << ",\"max\":";
            jsonNumber(os, h->max());
            for (auto [label, p] :
                 {std::pair<const char *, double>{"p50", 50.0},
                  {"p90", 90.0},
                  {"p99", 99.0},
                  {"p999", 99.9}}) {
                os << ",\"" << label << "\":";
                jsonNumber(os, h->percentile(p));
            }
        }
        os << "}";
    }
    os << "},\"probes\":{";
    first = true;
    for (const auto &[path, pr] : mergeKind<Probe>(regs, "probe")) {
        key(path, first);
        os << "{\"value\":";
        jsonNumber(os, pr->fn());
        os << ",\"avg\":";
        jsonNumber(os, pr->tw.average());
        os << "}";
    }
    os << "}}";
}

std::string
MetricsRegistry::mergedSnapshotJson(
    const std::vector<const MetricsRegistry *> &regs)
{
    std::ostringstream oss;
    writeMergedSnapshot(oss, regs);
    return oss.str();
}

std::string
MetricsRegistry::snapshotJson() const
{
    std::ostringstream oss;
    writeSnapshot(oss);
    return oss.str();
}

void
MetricsRegistry::startSampling(sim::EventQueue &eq, sim::TimePs period,
                               TraceWriter *trace)
{
    if (period <= 0)
        sim::fatal("MetricsRegistry::startSampling: period must be > 0");
    stopSampling();
    samplerQueue = &eq;
    samplerPeriod = period;
    samplerTrace = trace;
    scheduleTick();
}

void
MetricsRegistry::stopSampling()
{
    if (samplerEvent != sim::kNoEvent) {
        samplerQueue->cancel(samplerEvent);
        samplerEvent = sim::kNoEvent;
    }
    samplerQueue = nullptr;
}

void
MetricsRegistry::scheduleTick()
{
    samplerEvent = samplerQueue->scheduleAfter(samplerPeriod, [this] {
        samplerEvent = sim::kNoEvent;
        sampleTick();
        scheduleTick();
    });
}

void
MetricsRegistry::sampleTick()
{
    sampleAt(samplerQueue->now());
}

void
MetricsRegistry::sampleAt(sim::TimePs now)
{
    if (samplerTicks++ == 0)
        firstSampleAt = now;
    const bool tracing = samplerTrace != nullptr && samplerTrace->enabled();
    for (auto &[path, metric] : index) {
        Probe *probe = std::get_if<Probe>(&metric);
        if (probe == nullptr)
            continue;
        const double v = probe->fn();
        probe->tw.update(now, v);
        if (tracing && (!probe->everEmitted || v != probe->lastEmitted)) {
            // Category = first dotted segment (component family).
            const auto dot = path.find('.');
            samplerTrace->counter(path.substr(0, dot), path, now, v);
            probe->everEmitted = true;
            probe->lastEmitted = v;
        }
    }
}

void
registerEventQueueProbes(MetricsRegistry &registry, const sim::EventQueue &eq)
{
    const sim::EventQueue *q = &eq;
    registry.registerProbe("sim.queue.events_per_sec", [q] {
        // Rate over *simulated* time, so same-seed runs snapshot
        // byte-identically regardless of host speed.
        if (q->now() <= 0)
            return 0.0;
        return static_cast<double>(q->eventsExecuted()) /
               (static_cast<double>(q->now()) * 1e-12);
    });
    registry.registerProbe("sim.queue.live", [q] {
        return static_cast<double>(q->size());
    });
    registry.registerProbe("sim.queue.cancelled", [q] {
        return static_cast<double>(q->eventsCancelled());
    });
    registry.registerProbe("sim.queue.wheel_overflow", [q] {
        return static_cast<double>(q->wheelOverflows());
    });
}

}  // namespace ccsim::obs
