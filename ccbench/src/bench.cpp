#include "bench.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>

#include "obs/json_util.hpp"
#include "sim/logging.hpp"

namespace ccbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

// --- Tracer -----------------------------------------------------------------

Tracer::Tracer(bool enabled)
    : on(enabled), origin(Clock::now()), owner(std::this_thread::get_id())
{
    if (on)
        spans.reserve(1 << 16);
}

int
Tracer::open(const char *name, std::int64_t tag)
{
    if (std::this_thread::get_id() != owner)
        return -1;
    const double t = secondsSince(origin);
    spans.push_back({name, top, tag, t, -1.0});
    top = static_cast<int>(spans.size()) - 1;
    return top;
}

void
Tracer::close(int id)
{
    spans[static_cast<std::size_t>(id)].end = secondsSince(origin);
    top = spans[static_cast<std::size_t>(id)].parent;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].end - spans[i].start;
    for (const Rec &s : spans)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += self[i];
    return out;
}

void
Tracer::writeChromeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        sim::fatalf("ccbench: cannot write trace ", path);
    os << "{\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Rec &s = spans[i];
        const char *dot = std::strchr(s.name, '.');
        const std::string layer =
            dot ? std::string(s.name, static_cast<std::size_t>(dot - s.name))
                : std::string(s.name);
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%zu,\"parent\":%d,\"tag\":%" PRId64
                      "}}",
                      i ? "," : "", s.name, layer.c_str(), s.start * 1e6,
                      (s.end - s.start) * 1e6, i, s.parent, s.tag);
        os << buf;
    }
    os << "\n]}\n";
}

// --- Result -----------------------------------------------------------------

void
Result::check(const std::string &name, bool pass, const std::string &detail)
{
    checks.emplace_back(name, (pass ? "OK: " : "FAIL: ") + detail);
    if (!pass)
        failures.push_back(name + ": " + detail);
}

namespace {

using obs::detail::jsonNumber;

void
jsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    obs::detail::jsonEscape(os, s);
    os << '"';
}

void
writeMap(std::ostream &os, const std::map<std::string, double> &m)
{
    os << "{";
    bool first = true;
    for (const auto &[k, v] : m) {
        os << (first ? "" : ",");
        jsonString(os, k);
        os << ":";
        jsonNumber(os, v);
        first = false;
    }
    os << "}";
}

}  // namespace

void
Result::writeJson(std::ostream &os, const std::string &build_type,
                  const std::string &git_sha) const
{
    os << "{\"workload\":";
    jsonString(os, workload);
    os << ",\"fingerprint\":{\"hosts\":" << hosts
       << ",\"partitions\":" << partitions << ",\"workers\":" << workers
       << ",\"sim_span_us\":";
    jsonNumber(os, simSpanUs);
    os << ",\"seed\":" << seed << ",\"build_type\":";
    jsonString(os, build_type);
    os << ",\"optimized\":"
#ifdef NDEBUG
       << "true"
#else
       << "false"
#endif
       << ",\"git_sha\":";
    jsonString(os, git_sha);
    os << "},\"ok\":" << (failures.empty() ? "true" : "false")
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"host\":{\"setup_s\":";
    jsonNumber(os, setupS);
    os << ",\"run_s\":";
    jsonNumber(os, runS);
    os << ",\"wall_s\":";
    jsonNumber(os, wallS);
    os << ",\"peak_rss_mb\":";
    jsonNumber(os, peakRssMb);
    os << ",\"laps\":[";
    for (std::size_t i = 0; i < laps.size(); ++i) {
        os << (i ? "," : "");
        jsonNumber(os, laps[i]);
    }
    os << "]},\"fidelity_pct\":";
    jsonNumber(os, fidelityPct);
    os << ",\"counts\":";
    writeMap(os, counts);
    os << ",\"times\":";
    writeMap(os, times);
    os << ",\"spans\":" << spans << ",\"checks\":{";
    for (std::size_t i = 0; i < checks.size(); ++i) {
        os << (i ? "," : "");
        jsonString(os, checks[i].first);
        os << ":";
        jsonString(os, checks[i].second);
    }
    os << "}}\n";
}

// --- Kernel -----------------------------------------------------------------

void
Kernel::build(core::CloudConfig cfg, int workers, bool telemetry,
              Tracer &tracer)
{
    if (telemetry) {
        Span s(tracer, "obs.attach");
        ts = std::make_unique<obs::TimeSeriesHub>(
            obs::TimeSeriesConfig{}
                .withWindow(250 * sim::kMicrosecond)
                .withInclude({"ltl.*", "sim.*", "haas.*", "ts.*", "slo.*"}));
        ts->defineAggregate("fleet.rtt_us", "ltl.*.rtt_us");
        ts->defineAggregate("fleet.retransmits", "ltl.*.retransmits");
        ts->exportTo(&tsOut);
        cfg.timeSeries = ts.get();
    }
    {
        Span s(tracer, "core.build");
        if (workers > 0) {
            cfg.shards = workers;
            shardHubs = std::make_unique<obs::ShardedObservability>(
                cfg.topology.pods + 1);
            cfg.shardObs = shardHubs.get();
            sq = std::make_unique<sim::ShardedEventQueue>(
                core::ConfigurableCloud::shardPlan(cfg));
            cloud = std::make_unique<core::ConfigurableCloud>(*sq, cfg);
        } else {
            hub = std::make_unique<obs::Observability>();
            cfg.obs = hub.get();
            eq = std::make_unique<sim::EventQueue>();
            cloud = std::make_unique<core::ConfigurableCloud>(*eq, cfg);
        }
    }
    if (telemetry) {
        Span s(tracer, "obs.attach");
        slo = std::make_unique<obs::SloEngine>(*ts);
        obs::SloObjective rtt;
        rtt.name = "fleet_rtt_p99";
        slo->addObjective(rtt.on("fleet.rtt_us")
                              .where(obs::SloStat::kP99, obs::SloCmp::kLt,
                                     100.0)
                              .withBudget(0.10)
                              .withWindows(40, 5)
                              .withBurnThreshold(2.0));
        obs::SloObjective rtx;
        rtx.name = "fleet_retransmits";
        slo->addObjective(rtx.on("fleet.retransmits")
                              .where(obs::SloStat::kDelta, obs::SloCmp::kLt,
                                     200.0)
                              .withBudget(0.10)
                              .withWindows(40, 5)
                              .withBurnThreshold(2.0));
        slo->attachObservability(control().registry);
    }
}

void
Kernel::runFor(sim::TimePs d)
{
    if (sq)
        sq->runFor(d);
    else
        eq->runFor(d);
}

std::uint64_t
Kernel::events() const
{
    return sq ? sq->eventsExecuted() : eq->eventsExecuted();
}

sim::TimePs
Kernel::now() const
{
    return sq ? sq->now() : eq->now();
}

obs::Observability &
Kernel::hubFor(int host)
{
    return sq ? shardHubs->shard(cloud->partitionOf(host)) : *hub;
}

obs::Observability &
Kernel::control()
{
    return sq ? shardHubs->shard(0) : *hub;
}

std::vector<const obs::MetricsRegistry *>
Kernel::registries() const
{
    std::vector<const obs::MetricsRegistry *> out;
    if (sq)
        for (int s = 0; s < shardHubs->shardCount(); ++s)
            out.push_back(&shardHubs->shard(s).registry);
    else
        out.push_back(&hub->registry);
    return out;
}

core::CloudConfig
l2FabricConfig()
{
    core::CloudConfig cfg;
    cfg.topology.hostsPerRack = 24;  // 24 x 40 x 260 = 249,600 hosts
    cfg.topology.racksPerPod = 40;
    cfg.topology.l1PerPod = 2;
    cfg.topology.pods = 260;
    cfg.topology.l2Count = 4;
    cfg.createNics = false;  // pure-LTL traffic: no host NICs
    cfg.lazyHosts = true;
    cfg.shellTemplate.ltl.maxConnections = 64;
    cfg.shellTemplate.roleSlots = 8;
    return cfg;
}

// --- harvest ----------------------------------------------------------------

namespace {

double
valueAt(const obs::MetricsRegistry &reg, const std::string &path)
{
    if (const auto *c = reg.findCounter(path))
        return static_cast<double>(c->get());
    if (const auto *g = reg.findGauge(path))
        return g->value();
    if (reg.hasProbe(path))
        return reg.probeValue(path);
    return 0.0;
}

}  // namespace

void
harvest(Kernel &k, Result &r, Tracer &tracer)
{
    Span span(tracer, "obs.harvest");
    // Metric families summed over every instance: "<family>.<last segment>".
    static const char *const kFamilies[] = {"ltl", "switch", "router",
                                            "fpga"};
    std::map<std::string, double> sums;
    sim::LogHistogram rtt(obs::kDefaultHistMinValue,
                          obs::kDefaultHistBinsPerOctave);
    std::size_t paths = 0;
    for (const obs::MetricsRegistry *reg : k.registries()) {
        for (const std::string &p : reg->paths()) {
            ++paths;
            const std::size_t dot = p.find('.');
            const std::string family = p.substr(0, dot);
            if (std::find(std::begin(kFamilies), std::end(kFamilies),
                          family) == std::end(kFamilies))
                continue;
            const std::string leaf = p.substr(p.rfind('.') + 1);
            if (family == "ltl" && leaf == "rtt_us") {
                if (const auto *h = reg->findHistogram(p))
                    rtt.merge(*h);
                continue;
            }
            sums[family + "." + leaf] += valueAt(*reg, p);
        }
    }
    r.counts["obs.registry_paths"] = static_cast<double>(paths);

    const double sent = sums["ltl.frames_sent"];
    const double acked = sums["ltl.frames_acked"];
    r.counts["ltl.frames_sent"] = sent;
    r.counts["ltl.ack_ratio"] = sent > 0 ? acked / sent : 0.0;
    r.counts["ltl.retransmits"] = sums["ltl.retransmits"];
    r.counts["ltl.messages_delivered"] = sums["ltl.messages_delivered"];
    r.counts["ltl.rtt_us.p50"] = rtt.count() ? rtt.percentile(50.0) : 0.0;
    r.counts["ltl.rtt_us.p99"] = rtt.count() ? rtt.percentile(99.0) : 0.0;
    r.counts["ltl.rtt_us.samples"] = static_cast<double>(rtt.count());
    const double abandoned = sums["ltl.frames_abandoned"];
    const double inFlight = sums["ltl.frames_in_flight"];
    const auto str = [](double v) {
        return std::to_string(static_cast<long long>(v));
    };
    r.check("ltl_frame_accounting", sent == acked + abandoned + inFlight,
            "sent " + str(sent) + " == acked " + str(acked) +
                " + abandoned " + str(abandoned) + " + in flight " +
                str(inFlight));

    r.counts["net.switch.forwarded"] = sums["switch.forwarded"];
    r.counts["net.switch.dropped"] = sums["switch.dropped"];
    const double flits = sums["router.flits_routed"];
    r.counts["router.flits_routed"] = flits;
    r.counts["router.messages_routed"] = sums["router.messages_routed"];
    r.counts["router.busy_cycles"] = sums["router.busy_cycles"];
    r.counts["router.credit_stalls"] = sums["router.credit_stalls"];
    r.counts["fpga.pcie_transfers"] = sums["fpga.pcie_transfers"];
    r.counts["fpga.pcie_bytes"] = sums["fpga.pcie_bytes"];

    // Kernel counts come from the queue itself: deterministic on both
    // kernels and independent of the worker count.
    const double events = static_cast<double>(k.events());
    r.counts["sim.events"] = events;
    r.counts["router.events_per_flit"] = flits > 0 ? events / flits : 0.0;
    double imbalance = 1.0;
    if (k.sq) {
        r.counts["sim.windows"] = static_cast<double>(k.sq->windowsRun());
        r.counts["sim.cross_messages"] =
            static_cast<double>(k.sq->crossMessages());
        double mx = 0;
        for (int p = 0; p < k.sq->partitionCount(); ++p)
            mx = std::max(mx, static_cast<double>(
                                  k.sq->partition(p).eventsExecuted()));
        const double mean = events / k.sq->partitionCount();
        imbalance = mean > 0 ? mx / mean : 1.0;
    } else {
        r.counts["sim.windows"] = 0;
        r.counts["sim.cross_messages"] = 0;
    }
    r.counts["sim.partition_imbalance"] = imbalance;
    r.counts["core.materialized_hosts"] =
        static_cast<double>(k.cloud->materializedServers());
    r.counts["obs.ts_windows"] =
        k.ts ? static_cast<double>(k.ts->windowsClosed()) : 0.0;
    r.counts["obs.ts_lines"] =
        k.ts ? static_cast<double>(k.ts->exportedLines()) : 0.0;
    r.counts["obs.ts_bytes"] = static_cast<double>(k.tsSink.bytes);
}

// --- seeded inputs of the L2 workloads ---------------------------------------

namespace {

enum : std::uint64_t { kSaltPods = 101, kSaltProbe, kSaltFlow };

}  // namespace

std::vector<int>
seededPods(const Run &run, int first, int last)
{
    std::vector<int> pods(static_cast<std::size_t>(last - first));
    std::iota(pods.begin(), pods.end(), first);
    for (std::size_t i = pods.size() - 1; i > 0; --i)
        std::swap(pods[i], pods[run.draw(kSaltPods, i) % (i + 1)]);
    return pods;
}

std::vector<Probe>
openProbes(const Run &run, Kernel &k, const std::vector<int> &pods,
           int pairs)
{
    const net::TopologyConfig geo = l2FabricConfig().topology;
    net::Topology &topo = k.cloud->topology();
    const auto seededHost = [&](int pod, std::uint64_t i) {
        return topo.hostIndex(
            pod,
            static_cast<int>(run.draw(kSaltProbe, 2 * i) %
                             static_cast<std::uint64_t>(geo.racksPerPod)),
            static_cast<int>(run.draw(kSaltProbe, 2 * i + 1) %
                             static_cast<std::uint64_t>(geo.hostsPerRack)));
    };
    std::vector<Probe> probes;
    for (int p = 0; p < pairs; ++p) {
        const auto u = static_cast<std::uint64_t>(p);
        Probe pr;
        pr.src = seededHost(pods[u], 2 * u);
        pr.dst = seededHost(pods[static_cast<std::size_t>(pairs) + u],
                            2 * u + 1);
        pr.role = std::make_unique<CountingRole>();
        Span s(run.tracer, "core.open_ltl");
        if (k.cloud->shell(pr.dst).addRole(pr.role.get()) < 0)
            sim::fatal("ccbench: no role slot on a probe destination");
        pr.channel = k.cloud->openLtl(pr.src, pr.dst, pr.role->port);
        probes.push_back(std::move(pr));
    }
    return probes;
}

void
schedulePings(Kernel &k, std::vector<Probe> &probes, int pings)
{
    for (Probe &pr : probes) {
        auto *engine = k.cloud->shell(pr.src).ltlEngine();
        auto &q = k.cloud->queueFor(pr.src);
        for (int i = 0; i < pings; ++i)
            q.scheduleAfter(i * 20 * sim::kMicrosecond,
                            [engine, conn = pr.channel.sendConn()] {
                                engine->sendMessage(conn, 64);
                            });
    }
}

ProbeResult
probeResult(Kernel &k, const std::vector<Probe> &probes)
{
    ProbeResult out;
    for (const Probe &pr : probes) {
        out.rtt.merge(k.hubFor(pr.src).registry.histogram(
            "ltl.node" + std::to_string(pr.src) + ".rtt_us"));
        out.delivered += pr.role->received;
    }
    return out;
}

double
l2FidelityPct(const ProbeResult &p)
{
    return 100.0 *
           (1.0 - std::fabs(p.rtt.mean() - kPaperL2RttUs) / kPaperL2RttUs);
}

std::vector<std::uint64_t>
addFlows(const Run &run, net::FluidTrafficModel &fluid, int n,
         std::uint64_t bps)
{
    const net::TopologyConfig geo = l2FabricConfig().topology;
    const auto hosts = static_cast<std::uint64_t>(
        geo.pods * geo.racksPerPod * geo.hostsPerRack);
    std::vector<std::uint64_t> ids;
    ids.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        const auto u = static_cast<std::uint64_t>(i);
        const auto src = static_cast<int>(run.draw(kSaltFlow, 2 * u) % hosts);
        auto dst = static_cast<int>(run.draw(kSaltFlow, 2 * u + 1) % hosts);
        if (dst == src)
            dst = static_cast<int>((static_cast<std::uint64_t>(dst) + 1) %
                                   hosts);
        ids.push_back(fluid.addFlow(src, dst, bps));
    }
    return ids;
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return -1.0;
}

}  // namespace ccbench
