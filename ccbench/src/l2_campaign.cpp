/**
 * @file
 * l2_campaign: the fig07 `--fabric l2 --quick` campaign shape on the
 * sharded kernel. A lazy 249,600-host fabric, cross-pod LTL probe pairs,
 * a diurnal fluid background retuned each window with packet promotion on
 * the probed trunks, HaaS lease churn through the stub resolver, and the
 * time-series hub plus SLO engine exporting to a counting sink.
 */
#include "bench.hpp"
#include "host/load_generator.hpp"
#include "sim/logging.hpp"

namespace ccbench {

namespace {

constexpr int kWindows = 6;
constexpr sim::TimePs kWindowLen = 2 * sim::kMillisecond;
/**
 * Simulated time runs in slices of this length, one lap each. It is a
 * multiple of the 250 us time-series window, whose hook already ends a
 * kernel window there, so slicing adds no barrier.
 */
constexpr sim::TimePs kSlice = 500 * sim::kMicrosecond;
constexpr int kPairs = 12;
constexpr int kPingsPerWindow = 40;
constexpr int kFlows = 5000;
constexpr int kPromotePerWindow = 8;
constexpr int kLeasesPerWindow = 4;
constexpr int kHostsPerLease = 8;
constexpr std::uint64_t kBaseFlowBps = 400ull * 1000 * 1000;
constexpr std::uint32_t kPromotedMsgBytes = 1024;

enum : std::uint64_t { kSaltRate = 1, kSaltLease, kSaltTrace };

struct Promoted {
    std::uint64_t id = 0;
    int dstHost = 0;
    std::unique_ptr<CountingRole> role;
    core::LtlChannel channel;
    std::uint64_t bytesSent = 0;
};

/** Simulation objects, destroyed in reverse order at teardown. */
struct State {
    Kernel k;
    std::unique_ptr<net::FluidTrafficModel> fluid;
    std::vector<Probe> probes;
};

/** Run @p k for @p d, one lap per kSlice of it. */
void
runSliced(Run &run, Kernel &k, sim::TimePs d)
{
    for (sim::TimePs t = 0; t < d; t += kSlice) {
        k.runFor(kSlice);
        run.lap();
    }
}

}  // namespace

void
runL2Campaign(Run &run)
{
    Tracer &tr = run.tracer;
    Result &r = run.result;
    auto st = std::make_unique<State>();
    Kernel &k = st->k;
    const core::CloudConfig cfg = l2FabricConfig();
    k.build(cfg, run.workers, /*telemetry=*/true, tr);
    net::Topology &topo = k.cloud->topology();
    const int pods = cfg.topology.pods;
    r.hosts = k.cloud->numServers();
    r.partitions = k.partitions();

    st->probes = openProbes(run, k, seededPods(run, 0, pods), kPairs);
    std::uint64_t openCalls = kPairs;
    std::vector<std::uint64_t> flowIds;
    {
        Span s(tr, "net.fluid.add");
        st->fluid = k.sq
            ? std::make_unique<net::FluidTrafficModel>(*k.sq, topo)
            : std::make_unique<net::FluidTrafficModel>(*k.eq, topo);
        // Background flows sharing a probe trunk get promoted.
        for (const Probe &pr : st->probes)
            for (net::Channel *c : topo.fluidPath(pr.src, pr.dst))
                st->fluid->setMonitored(c, true);
        flowIds = addFlows(run, *st->fluid, kFlows, kBaseFlowBps);
    }
    net::FluidTrafficModel &fluid = *st->fluid;

    host::DiurnalTraceParams tp;
    tp.days = 1;
    tp.windowsPerDay = kWindows;
    tp.seed = run.draw(kSaltTrace, 0);
    const std::vector<double> trace = host::makeDiurnalTrace(tp);
    // Diurnal multiplier times a seeded per-pod imbalance in [0.5, 1.5).
    const auto flowRate = [&](std::uint64_t id, int w) {
        const int pod = topo.host(fluid.flow(id)->srcHost).pod;
        const std::uint64_t h = run.draw(
            kSaltRate, (static_cast<std::uint64_t>(pod) << 20) ^
                           static_cast<std::uint64_t>(w));
        const double imbalance = 0.5 + static_cast<double>(h % 1000) / 1000.0;
        return static_cast<std::uint64_t>(static_cast<double>(kBaseFlowBps) *
                                          trace[static_cast<std::size_t>(w)] *
                                          imbalance);
    };

    haas::ResourceManager &rm = k.cloud->resourceManager();
    std::uint64_t leases = 0, promotedTotal = 0;
    run.setupDone();

    for (int w = 0; w < kWindows; ++w) {
        {
            Span s(tr, "net.fluid.retune", w);
            for (std::uint64_t id : flowIds)
                fluid.setRate(id, flowRate(id, w));
        }
        run.lap();
        std::vector<Promoted> promoted;
        {
            Span s(tr, "net.fluid.promote", w);
            for (std::uint64_t id : fluid.flowsCrossingMonitored()) {
                if (static_cast<int>(promoted.size()) >= kPromotePerWindow)
                    break;
                const net::FluidFlow *f = fluid.flow(id);
                Promoted pf;
                pf.id = id;
                pf.dstHost = f->dstHost;
                pf.role = std::make_unique<CountingRole>();
                Span o(tr, "core.open_ltl", w);
                if (k.cloud->shell(f->dstHost).addRole(pf.role.get()) < 0)
                    continue;  // destination role slots exhausted
                fluid.promote(id);
                pf.channel =
                    k.cloud->openLtl(f->srcHost, f->dstHost, pf.role->port);
                ++openCalls;
                promoted.push_back(std::move(pf));
            }
        }
        promotedTotal += promoted.size();
        run.lap();
        {
            // Probe pings 20 us apart; promoted flows as 1 KiB messages at
            // their rate over the first 60% of the window.
            Span s(tr, "sim.schedule", w);
            schedulePings(k, st->probes, kPingsPerWindow);
            for (Promoted &pf : promoted) {
                const net::FluidFlow *f = fluid.flow(pf.id);
                const auto gap = static_cast<sim::TimePs>(
                    8.0 * kPromotedMsgBytes /
                    static_cast<double>(flowRate(pf.id, w)) *
                    static_cast<double>(sim::kSecond));
                auto *engine = k.cloud->shell(f->srcHost).ltlEngine();
                auto &q = k.cloud->queueFor(f->srcHost);
                const auto budget = static_cast<sim::TimePs>(0.6 * kWindowLen);
                for (sim::TimePs t = gap; t < budget; t += gap) {
                    q.scheduleAfter(t, [engine, conn = pf.channel.sendConn()] {
                        engine->sendMessage(conn, kPromotedMsgBytes);
                    });
                    pf.bytesSent += kPromotedMsgBytes;
                }
            }
        }
        {
            Span s(tr, "sim.run", w);
            runSliced(run, k, kWindowLen);
        }
        {
            Span s(tr, "net.fluid.promote", w);
            for (Promoted &pf : promoted) {
                fluid.creditPacketBytes(pf.id, pf.bytesSent);
                fluid.demote(pf.id, flowRate(pf.id, w));
                k.cloud->shell(pf.dstHost).removeRole(pf.role->port);
            }
            promoted.clear();  // closes the promoted channels
        }
        run.lap();
        // Lease churn against flyweight stubs: each manager() touch
        // materializes the leased server through the resolver.
        for (int j = 0; j < kLeasesPerWindow; ++j) {
            haas::LeaseConstraints lc;
            lc.requirePod = static_cast<int>(
                run.draw(kSaltLease, static_cast<std::uint64_t>(
                                         w * kLeasesPerWindow + j)) %
                static_cast<std::uint64_t>(pods));
            std::optional<haas::Lease> lease;
            {
                Span s(tr, "haas.acquire", w);
                lease = rm.acquire("bench.l2", kHostsPerLease, lc);
                if (!lease)
                    sim::fatal("l2_campaign: lease acquisition failed");
                for (int h : lease->hosts)
                    if (rm.manager(h) == nullptr)
                        sim::fatal("l2_campaign: stub resolver returned null");
            }
            ++leases;
            Span s(tr, "haas.release", w);
            rm.release(lease->id);
        }
        run.lap();
    }
    {
        Span s(tr, "sim.run", kWindows);
        runSliced(run, k, 2 * kWindowLen);  // drain in-flight frames
    }
    r.simSpanUs = sim::toMicros(k.now());

    const ProbeResult probes = probeResult(k, st->probes);
    net::FluidConservation c;
    {
        Span s(tr, "net.fluid.fold");
        fluid.foldAll();
        c = fluid.verify();
    }
    harvest(k, r, tr);
    run.runDone();

    r.attempted = static_cast<std::uint64_t>(kPairs) * kPingsPerWindow *
                  kWindows;
    r.failed = r.attempted - std::min(r.attempted, probes.delivered);
    r.check("fluid_conservation", c.ok,
            "channel credits " + std::to_string(c.channelCredits) +
                " == expected " + std::to_string(c.expectedChannelCredits));
    r.check("probes_delivered", r.failed == 0,
            std::to_string(probes.delivered) + " of " +
                std::to_string(r.attempted) +
                " probe messages delivered");
    r.check("probe_rtt_samples", probes.rtt.count() > 0,
            std::to_string(probes.rtt.count()) + " RTT samples");
    r.fidelityPct = l2FidelityPct(probes);
    r.counts["fidelity.rtt_mean_us"] = probes.rtt.mean();
    r.counts["fidelity.rtt_samples"] = static_cast<double>(probes.rtt.count());
    r.counts["core.open_ltl_calls"] = static_cast<double>(openCalls);
    r.counts["net.fluid.flows"] = static_cast<double>(c.flows);
    r.counts["net.fluid.promotions"] = static_cast<double>(promotedTotal);
    r.counts["haas.leases"] = static_cast<double>(leases);
    r.counts["haas.affinity_skips"] = static_cast<double>(rm.affinitySkips());

    Span s(tr, "core.teardown");
    st.reset();
}

}  // namespace ccbench
