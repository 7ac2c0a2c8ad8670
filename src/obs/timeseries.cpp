#include "obs/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "obs/json_util.hpp"
#include "sim/logging.hpp"
#include "sim/sharded_queue.hpp"

namespace ccsim::obs {

// ---------------------------------------------------------------------
// HistogramSketch
// ---------------------------------------------------------------------

HistogramSketch
HistogramSketch::diff(sim::LogHistogram::Binning binning,
                      const std::vector<std::uint64_t> &cur_bins,
                      const std::vector<std::uint64_t> &prev_bins,
                      double sum_delta)
{
    HistogramSketch s(binning.minValue, binning.binsPerOctave);
    s.bins.resize(cur_bins.size(), 0);
    for (std::size_t i = 0; i < cur_bins.size(); ++i) {
        const std::uint64_t before = i < prev_bins.size() ? prev_bins[i] : 0;
        if (cur_bins[i] < before)
            sim::panic("HistogramSketch::diff: bin count decreased "
                       "(histogram was cleared mid-window?)");
        s.bins[i] = cur_bins[i] - before;
        s.total += s.bins[i];
    }
    s.sumVal = sum_delta;
    return s;
}

HistogramSketch
HistogramSketch::since(const sim::LogHistogram &cur,
                       const std::vector<std::uint64_t> &prev_bins,
                       double prev_sum)
{
    return diff(cur.binning(), cur.binCounts(), prev_bins,
                cur.sum() - prev_sum);
}

void
HistogramSketch::merge(const HistogramSketch &other)
{
    if (minVal != other.minVal || octave != other.octave)
        sim::panic("HistogramSketch::merge: binning parameters differ");
    if (other.bins.size() > bins.size())
        bins.resize(other.bins.size(), 0);
    for (std::size_t i = 0; i < other.bins.size(); ++i)
        bins[i] += other.bins[i];
    total += other.total;
    sumVal += other.sumVal;
}

double
HistogramSketch::binLowerEdge(std::size_t idx) const
{
    if (idx == 0)
        return 0.0;
    return minVal * std::exp2(static_cast<double>(idx - 1) / octave);
}

double
HistogramSketch::percentile(double p) const
{
    if (total == 0)
        return 0.0;
    if (p < 0.0 || p > 100.0)
        sim::panicf("HistogramSketch::percentile: p=", p, " out of [0,100]");
    const auto target = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(total)));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < bins.size(); ++i) {
        cum += bins[i];
        if (cum >= target && bins[i] > 0) {
            // Same geometric-midpoint rule as LogHistogram::percentile;
            // a delta sketch cannot clamp to the window's exact
            // min/max, so the bin width bounds the error instead.
            const double lo = binLowerEdge(i);
            const double hi = binLowerEdge(i + 1);
            return lo > 0.0 ? std::sqrt(lo * hi) : hi * 0.5;
        }
    }
    return binLowerEdge(bins.size());
}

void
HistogramSketch::clear()
{
    bins.clear();
    total = 0;
    sumVal = 0.0;
}

// ---------------------------------------------------------------------
// TimeSeriesHub
// ---------------------------------------------------------------------

namespace {

/** Seconds spanned by @p n base windows of width @p w. */
double
spanSeconds(int n, sim::TimePs w)
{
    return static_cast<double>(n) * static_cast<double>(w) / 1e12;
}

/** Same glob semantics as metric_names.hpp (`*` matches >= 1 chars). */
bool
globMatch(std::string_view pattern, std::string_view path)
{
    std::size_t p = 0, s = 0;
    std::size_t starP = std::string_view::npos, starS = 0;
    while (s < path.size()) {
        if (p < pattern.size() && pattern[p] == '*') {
            starP = p++;
            starS = s + 1;
            ++s;
        } else if (p < pattern.size() && pattern[p] == path[s]) {
            ++p;
            ++s;
        } else if (starP != std::string_view::npos) {
            p = starP + 1;
            s = ++starS;
        } else {
            return false;
        }
    }
    return p == pattern.size();
}

}  // namespace

void
TimeSeriesHub::Ring::push(const TsPoint &p, bool histogram)
{
    const ScalarPoint sp{p.t, p.value, p.delta};
    const HistogramStats hs{p.count, p.mean, p.p50, p.p90, p.p99, p.p999};
    if (used < cap) {
        // Grow by an eighth rather than doubling: a run that stops short
        // of the capacity then leaves little unused space in each ring.
        if (used == scalar.capacity()) {
            const std::size_t grown = std::min(cap, used + used / 8 + 4);
            scalar.reserve(grown);
            if (histogram)
                hist.reserve(grown);
        }
        scalar.push_back(sp);
        if (histogram)
            hist.push_back(hs);
        head = ++used % cap;
        return;
    }
    scalar[head] = sp;
    if (histogram)
        hist[head] = hs;
    head = (head + 1) % cap;
}

TsPoint
TimeSeriesHub::Ring::at(std::size_t i) const
{
    const std::size_t k = (used < cap ? i : head + i) % cap;
    TsPoint p;
    p.t = scalar[k].t;
    p.value = scalar[k].value;
    p.delta = scalar[k].delta;
    if (!hist.empty()) {
        p.count = hist[k].count;
        p.mean = hist[k].mean;
        p.p50 = hist[k].p50;
        p.p90 = hist[k].p90;
        p.p99 = hist[k].p99;
        p.p999 = hist[k].p999;
    }
    return p;
}

TimeSeriesHub::TimeSeriesHub(TimeSeriesConfig c) : cfg(std::move(c))
{
    if (cfg.window <= 0)
        sim::fatal("TimeSeriesHub: window must be > 0");
    if (cfg.levels.empty())
        sim::fatal("TimeSeriesHub: at least one retention level required");
    if (cfg.levels.front().stride != 1)
        sim::fatal("TimeSeriesHub: first level must have stride 1");
    int prev = 0;
    for (const auto &lv : cfg.levels) {
        if (lv.stride <= prev)
            sim::fatal("TimeSeriesHub: level strides must be strictly "
                       "increasing");
        if (lv.capacity < 2)
            sim::fatal("TimeSeriesHub: level capacity must be >= 2");
        prev = lv.stride;
    }
    for (const auto &g : cfg.include) {
        if (g.empty())
            sim::fatal("TimeSeriesHub: empty include pattern");
    }
}

void
TimeSeriesHub::watchRegistry(const MetricsRegistry *reg)
{
    if (reg == nullptr)
        sim::fatal("TimeSeriesHub::watchRegistry: null registry");
    if (std::find(regs.begin(), regs.end(), reg) != regs.end())
        sim::fatal("TimeSeriesHub::watchRegistry: registry already watched");
    regs.push_back(reg);
    // ~0 forces a first discover() even on a registry that is still empty.
    regVersions.push_back(~std::uint64_t{0});
}

void
TimeSeriesHub::defineAggregate(const std::string &name,
                               const std::string &pattern)
{
    if (name.empty() || pattern.empty())
        sim::fatal("TimeSeriesHub::defineAggregate: empty name or pattern");
    if (aggregates.count(name))
        sim::fatal("TimeSeriesHub::defineAggregate: duplicate aggregate");
    Aggregate agg;
    agg.pattern = pattern;
    initLevels(agg);
    aggregates.emplace(name, std::move(agg));
}

void
TimeSeriesHub::initLevels(Track &track) const
{
    track.levels.resize(cfg.levels.size());
    for (std::size_t i = 0; i < cfg.levels.size(); ++i)
        track.levels[i].ring.cap = cfg.levels[i].capacity;
}

void
TimeSeriesHub::exportTo(std::ostream *os)
{
    out = os;
    if (out == nullptr)
        return;
    std::ostringstream meta;
    meta << "{\"type\":\"meta\",\"window_us\":";
    detail::jsonNumber(meta, static_cast<double>(cfg.window) / 1e6);
    meta << ",\"levels\":[";
    for (std::size_t i = 0; i < cfg.levels.size(); ++i) {
        if (i)
            meta << ",";
        meta << "{\"stride\":" << cfg.levels[i].stride
             << ",\"capacity\":" << cfg.levels[i].capacity << "}";
    }
    meta << "]}";
    exportLine(meta.str());
}

void
TimeSeriesHub::registerSelfProbes(MetricsRegistry &reg)
{
    reg.registerProbe("ts.windows", [this] {
        return static_cast<double>(windowSeq);
    });
    reg.registerProbe("ts.series", [this] {
        return static_cast<double>(seriesCount());
    });
    reg.registerProbe("ts.points", [this] {
        return static_cast<double>(pointsRetained());
    });
    reg.registerProbe("ts.exported_lines", [this] {
        return static_cast<double>(linesOut);
    });
}

void
TimeSeriesHub::addWindowObserver(WindowObserver fn)
{
    if (!fn)
        sim::fatal("TimeSeriesHub::addWindowObserver: empty observer");
    observers.push_back(std::move(fn));
}

bool
TimeSeriesHub::includes(std::string_view path) const
{
    if (cfg.include.empty())
        return true;
    for (const auto &g : cfg.include) {
        if (globMatch(g, path))
            return true;
    }
    return false;
}

void
TimeSeriesHub::announceSeries(const std::string &name, SeriesKind kind)
{
    if (out == nullptr)
        return;
    std::ostringstream line;
    line << "{\"type\":\"series\",\"name\":\"";
    detail::jsonEscape(line, name);
    line << "\",\"kind\":\"" << kindName(kind) << "\"}";
    exportLine(line.str());
}

void
TimeSeriesHub::discover()
{
    for (std::size_t ri = 0; ri < regs.size(); ++ri) {
        const MetricsRegistry *reg = regs[ri];
        // Path discovery walks every registered metric; skip it on the
        // (overwhelmingly common) windows where nothing new appeared.
        if (regVersions[ri] == reg->version())
            continue;
        regVersions[ri] = reg->version();
        reg->forEachMetric([this](std::string_view path,
                                  const MetricsRegistry::MetricRef &m) {
            if (!includes(path) || series.contains(path))
                return;
            if (aggregates.contains(path))
                sim::panicf("TimeSeriesHub: registry path ", path,
                            " collides with an aggregate series");
            Series s;
            s.counter = m.counter;
            s.gauge = m.gauge;
            s.hist = m.histogram;
            s.probe = m.probe;
            s.kind = m.counter     ? SeriesKind::kCounter
                     : m.gauge     ? SeriesKind::kGauge
                     : m.histogram ? SeriesKind::kHistogram
                                   : SeriesKind::kProbe;
            initLevels(s);
            const std::string name(path);
            announceSeries(name, s.kind);
            series.emplace(name, std::move(s));
        });
    }
}

void
TimeSeriesHub::refreshAggregate(const std::string &name, Aggregate &agg)
{
    if (agg.seenSeries == series.size())
        return;
    agg.seenSeries = series.size();
    agg.members.clear();
    for (const auto &[path, s] : series) {
        if (!globMatch(agg.pattern, path))
            continue;
        if (agg.members.empty()) {
            agg.kind = s.kind;
        } else if (s.kind != agg.kind) {
            sim::panicf("TimeSeriesHub: aggregate ", name,
                        " mixes metric kinds (", kindName(agg.kind), " vs ",
                        kindName(s.kind), " at ", path, ")");
        }
        if (s.kind == SeriesKind::kHistogram && !agg.members.empty()) {
            const auto a = agg.members.front()->hist->binning();
            const auto b = s.hist->binning();
            if (a.minValue != b.minValue ||
                a.binsPerOctave != b.binsPerOctave)
                sim::panicf("TimeSeriesHub: aggregate ", name,
                            " mixes histogram binnings at ", path);
        }
        agg.members.push_back(&s);
    }
    if (!agg.members.empty() && !agg.announced) {
        announceSeries(name, agg.kind);
        agg.announced = true;
    }
}

namespace {

/** True when a cumulative histogram shrank — the component was cleared. */
bool
binsDecreased(const std::vector<std::uint64_t> &cur,
              const std::vector<std::uint64_t> &prev)
{
    if (cur.size() < prev.size())
        return true;
    for (std::size_t i = 0; i < prev.size(); ++i)
        if (cur[i] < prev[i])
            return true;
    return false;
}

}  // namespace

TsPoint
TimeSeriesHub::scalarPoint(sim::TimePs now, double cur, LevelState &lv) const
{
    TsPoint p;
    p.t = now;
    p.value = cur;
    p.delta = cur - lv.prevValue;
    lv.prevValue = cur;
    return p;
}

void
TimeSeriesHub::rollSeries(Series &s, sim::TimePs now)
{
    for (std::size_t i = 0; i < cfg.levels.size(); ++i) {
        const int stride = cfg.levels[i].stride;
        if (windowSeq % static_cast<std::uint64_t>(stride) != 0)
            continue;
        LevelState &lv = s.levels[i];
        const double span = spanSeconds(stride, cfg.window);
        TsPoint p;
        switch (s.kind) {
        case SeriesKind::kCounter:
            p = scalarPoint(now, static_cast<double>(s.counter->get()), lv);
            // Counter-reset rule: a monotonic count that decreased means
            // the component restarted; the window's delta is everything
            // accumulated since the reset.
            if (p.delta < 0.0)
                p.delta = p.value;
            p.rate = p.delta / span;
            break;
        case SeriesKind::kGauge:
            p = scalarPoint(now, s.gauge->value(), lv);
            break;
        case SeriesKind::kProbe:
            p = scalarPoint(now, (*s.probe)(), lv);
            p.rate = p.delta / span;
            break;
        case SeriesKind::kHistogram: {
            std::vector<std::uint64_t> cur = s.hist->binCounts();
            // Same reset rule for histograms: a component clearing its
            // stats mid-run (fig08 does per-load-step clearStats) must
            // restart the window delta from zero, not panic.
            if (binsDecreased(cur, lv.prevBins)) {
                lv.prevBins.clear();
                lv.prevSum = 0.0;
            }
            const HistogramSketch sk = HistogramSketch::diff(
                s.hist->binning(), cur, lv.prevBins,
                s.hist->sum() - lv.prevSum);
            lv.prevBins = std::move(cur);
            lv.prevSum = s.hist->sum();
            p.t = now;
            p.value = static_cast<double>(s.hist->count());
            p.count = sk.count();
            p.delta = static_cast<double>(sk.count());
            p.rate = p.delta / span;
            p.mean = sk.mean();
            p.p50 = sk.percentile(50.0);
            p.p90 = sk.percentile(90.0);
            p.p99 = sk.percentile(99.0);
            p.p999 = sk.percentile(99.9);
            break;
        }
        }
        keep(s, i, p);
    }
}

void
TimeSeriesHub::rollAggregate(Aggregate &agg, sim::TimePs now)
{
    if (agg.members.empty())
        return;
    for (std::size_t i = 0; i < cfg.levels.size(); ++i) {
        const int stride = cfg.levels[i].stride;
        if (windowSeq % static_cast<std::uint64_t>(stride) != 0)
            continue;
        LevelState &lv = agg.levels[i];
        const double span = spanSeconds(stride, cfg.window);
        TsPoint p;
        if (agg.kind == SeriesKind::kHistogram) {
            // Merged cumulative bins across members; the diff against the
            // aggregate's own previous snapshot is exactly the sum of the
            // members' windowed sketches (bin counts are integers).
            std::vector<std::uint64_t> bins;
            std::uint64_t cum = 0;
            double sum = 0.0;
            for (const Series *m : agg.members) {
                const auto &mb = m->hist->binCounts();
                if (mb.size() > bins.size())
                    bins.resize(mb.size(), 0);
                for (std::size_t b = 0; b < mb.size(); ++b)
                    bins[b] += mb[b];
                cum += m->hist->count();
                sum += m->hist->sum();
            }
            if (binsDecreased(bins, lv.prevBins)) {
                lv.prevBins.clear();  // member reset: restart the delta
                lv.prevSum = 0.0;
            }
            HistogramSketch sk = HistogramSketch::diff(
                agg.members.front()->hist->binning(), bins, lv.prevBins,
                sum - lv.prevSum);
            lv.prevBins = std::move(bins);
            lv.prevSum = sum;
            p.t = now;
            p.value = static_cast<double>(cum);
            p.count = sk.count();
            p.delta = static_cast<double>(sk.count());
            p.rate = p.delta / span;
            p.mean = sk.mean();
            p.p50 = sk.percentile(50.0);
            p.p90 = sk.percentile(90.0);
            p.p99 = sk.percentile(99.0);
            p.p999 = sk.percentile(99.9);
        } else {
            double cur = 0.0;
            for (const Series *s : agg.members) {
                switch (agg.kind) {
                case SeriesKind::kCounter:
                    cur += static_cast<double>(s->counter->get());
                    break;
                case SeriesKind::kGauge:
                    cur += s->gauge->value();
                    break;
                case SeriesKind::kProbe:
                    cur += (*s->probe)();
                    break;
                case SeriesKind::kHistogram:
                    break;  // handled above
                }
            }
            p = scalarPoint(now, cur, lv);
            if (agg.kind == SeriesKind::kCounter && p.delta < 0.0)
                p.delta = p.value;  // member reset (see rollSeries)
            if (agg.kind != SeriesKind::kGauge)
                p.rate = p.delta / span;
        }
        keep(agg, i, p);
    }
}

void
TimeSeriesHub::keep(Track &track, std::size_t level, const TsPoint &p)
{
    if (level == 0)
        track.newest = p;
    track.levels[level].ring.push(p, track.kind == SeriesKind::kHistogram);
}

void
TimeSeriesHub::rollAt(sim::TimePs now)
{
    ++windowSeq;
    discover();
    for (auto &[name, agg] : aggregates)
        refreshAggregate(name, agg);
    for (auto &[name, s] : series)
        rollSeries(s, now);
    for (auto &[name, agg] : aggregates)
        rollAggregate(agg, now);
    exportWindow(now);
    traceWindow(now);
    for (const auto &fn : observers)
        fn(now, windowSeq);
    if (out != nullptr)
        out->flush();
}

namespace {

/** Serialize one base-window point according to the series kind. */
void
pointTo(std::ostream &os, SeriesKind kind, const TsPoint &p)
{
    using detail::jsonNumber;
    os << "{";
    if (kind == SeriesKind::kHistogram) {
        os << "\"n\":" << p.count << ",\"v\":";
        jsonNumber(os, p.value);
        os << ",\"r\":";
        jsonNumber(os, p.rate);
        os << ",\"mean\":";
        jsonNumber(os, p.mean);
        os << ",\"p50\":";
        jsonNumber(os, p.p50);
        os << ",\"p90\":";
        jsonNumber(os, p.p90);
        os << ",\"p99\":";
        jsonNumber(os, p.p99);
        os << ",\"p999\":";
        jsonNumber(os, p.p999);
    } else {
        os << "\"v\":";
        jsonNumber(os, p.value);
        os << ",\"d\":";
        jsonNumber(os, p.delta);
        if (kind != SeriesKind::kGauge) {
            os << ",\"r\":";
            jsonNumber(os, p.rate);
        }
    }
    os << "}";
}

}  // namespace

void
TimeSeriesHub::exportWindow(sim::TimePs now)
{
    if (out == nullptr)
        return;
    std::ostringstream line;
    line << "{\"type\":\"window\",\"seq\":" << windowSeq << ",\"t_us\":";
    detail::jsonNumber(line, static_cast<double>(now) / 1e6);
    line << ",\"series\":{";
    bool first = true;
    // Two-pointer merge over the sorted concrete and aggregate maps so
    // series appear in one global sorted order.
    auto si = series.cbegin();
    auto ai = aggregates.cbegin();
    auto emit = [&](const std::string &name, const Track &track) {
        const TsPoint *p = track.newestPoint();
        if (p == nullptr || p->t != now)
            return;
        if (!first)
            line << ",";
        first = false;
        line << "\"";
        detail::jsonEscape(line, name);
        line << "\":";
        pointTo(line, track.kind, *p);
    };
    while (si != series.cend() || ai != aggregates.cend()) {
        if (ai == aggregates.cend() ||
            (si != series.cend() && si->first < ai->first)) {
            emit(si->first, si->second);
            ++si;
        } else {
            if (!ai->second.members.empty())
                emit(ai->first, ai->second);
            ++ai;
        }
    }
    line << "}}";
    exportLine(line.str());
}

void
TimeSeriesHub::traceWindow(sim::TimePs now)
{
    if (trace == nullptr || !trace->enabled())
        return;
    auto emit = [&](const std::string &name, const Track &track) {
        const TsPoint *lp = track.newestPoint();
        if (lp == nullptr || lp->t != now)
            return;
        const TsPoint p = *lp;
        switch (track.kind) {
        case SeriesKind::kGauge:
            trace->counter("ts", "ts." + name, now, p.value);
            break;
        case SeriesKind::kCounter:
        case SeriesKind::kProbe:
            trace->counter("ts", "ts." + name, now, p.rate);
            break;
        case SeriesKind::kHistogram:
            trace->counterMulti("ts", "ts." + name, now,
                                {{"p50", p.p50}, {"p99", p.p99}});
            break;
        }
    };
    for (const auto &[name, s] : series)
        emit(name, s);
    for (const auto &[name, agg] : aggregates) {
        if (!agg.members.empty())
            emit(name, agg);
    }
}

void
TimeSeriesHub::startSampling(sim::EventQueue &eq)
{
    stopSampling();
    samplerQueue = &eq;
    scheduleTick();
}

void
TimeSeriesHub::scheduleTick()
{
    samplerEvent = samplerQueue->scheduleAfter(cfg.window, [this] {
        samplerEvent = sim::kNoEvent;
        rollAt(samplerQueue->now());
        scheduleTick();
    });
}

void
TimeSeriesHub::stopSampling()
{
    if (samplerEvent != sim::kNoEvent) {
        samplerQueue->cancel(samplerEvent);
        samplerEvent = sim::kNoEvent;
    }
    samplerQueue = nullptr;
}

void
TimeSeriesHub::startSampling(sim::ShardedEventQueue &sq)
{
    const sim::TimePs first = sq.now() + cfg.window;
    sq.atBarrier(
        [this, w = cfg.window, due = first](sim::TimePs e) mutable
        -> sim::TimePs {
            // Deadlines guarantee a barrier lands exactly on each
            // window end (the ShardedObservability mechanism).
            if (e == due) {
                rollAt(e);
                due += w;
            }
            return due;
        },
        first);
}

std::size_t
TimeSeriesHub::seriesCount() const
{
    std::size_t n = series.size();
    for (const auto &[name, agg] : aggregates) {
        if (!agg.members.empty())
            ++n;
    }
    return n;
}

std::vector<std::string>
TimeSeriesHub::seriesNames() const
{
    std::vector<std::string> names;
    names.reserve(seriesCount());
    for (const auto &[name, s] : series)
        names.push_back(name);
    for (const auto &[name, agg] : aggregates) {
        if (!agg.members.empty())
            names.push_back(name);
    }
    return names;
}

SeriesKind
TimeSeriesHub::kindOf(const std::string &name) const
{
    if (auto it = series.find(name); it != series.end())
        return it->second.kind;
    if (auto it = aggregates.find(name);
        it != aggregates.end() && !it->second.members.empty())
        return it->second.kind;
    sim::panicf("TimeSeriesHub::kindOf: unknown series ", name);
}

const TsPoint *
TimeSeriesHub::latest(const std::string &name) const
{
    if (auto it = series.find(name); it != series.end())
        return it->second.newestPoint();
    if (auto ia = aggregates.find(name); ia != aggregates.end())
        return ia->second.newestPoint();
    return nullptr;
}

std::vector<TsPoint>
TimeSeriesHub::history(const std::string &name, int level) const
{
    if (level < 0 || static_cast<std::size_t>(level) >= cfg.levels.size())
        sim::panicf("TimeSeriesHub::history: level ", level, " out of range");
    const Track *track = nullptr;
    if (auto it = series.find(name); it != series.end())
        track = &it->second;
    else if (auto ia = aggregates.find(name); ia != aggregates.end())
        track = &ia->second;
    else
        sim::panicf("TimeSeriesHub::history: unknown series ", name);
    const auto lv = static_cast<std::size_t>(level);
    const Ring &r = track->levels[lv].ring;
    // Every kind but a gauge has rate = delta per second of the level's
    // window (rollSeries, rollAggregate), so rings do not store it.
    const double span = spanSeconds(cfg.levels[lv].stride, cfg.window);
    std::vector<TsPoint> outv;
    outv.reserve(r.used);
    for (std::size_t i = 0; i < r.used; ++i) {
        TsPoint p = r.at(i);
        if (track->kind != SeriesKind::kGauge)
            p.rate = p.delta / span;
        outv.push_back(p);
    }
    return outv;
}

std::uint64_t
TimeSeriesHub::pointsRetained() const
{
    std::uint64_t n = 0;
    for (const auto &[name, s] : series) {
        for (const auto &lv : s.levels)
            n += lv.ring.used;
    }
    for (const auto &[name, agg] : aggregates) {
        for (const auto &lv : agg.levels)
            n += lv.ring.used;
    }
    return n;
}

void
TimeSeriesHub::exportLine(const std::string &json)
{
    if (out == nullptr)
        return;
    *out << json << '\n';
    ++linesOut;
}

std::string
TimeSeriesHub::envPath()
{
    const char *p = std::getenv("CCSIM_TS");
    return p ? std::string(p) : std::string();
}

const char *
TimeSeriesHub::kindName(SeriesKind k)
{
    switch (k) {
    case SeriesKind::kCounter:
        return "counter";
    case SeriesKind::kGauge:
        return "gauge";
    case SeriesKind::kProbe:
        return "probe";
    case SeriesKind::kHistogram:
        return "histogram";
    }
    return "?";
}

}  // namespace ccsim::obs
