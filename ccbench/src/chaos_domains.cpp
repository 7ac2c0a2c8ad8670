/**
 * @file
 * chaos_domains: the fig07 `--chaos --quick` drill on the 249,600-host
 * L2 fabric, sequential kernel. An anti-affinity ranking service,
 * HealthMonitor domain conviction, a TOR death, a gray spine and a
 * rolling maintenance drain, with live queries accounted exactly once by
 * id at the receiver. Set-up (fabric build, registration, deploy, watch)
 * dominates this workload's host time and memory.
 */
#include <set>

#include "bench.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "fpga/shell.hpp"
#include "haas/health_monitor.hpp"
#include "sim/logging.hpp"

namespace ccbench {

namespace {

constexpr int kWindows = 10;
constexpr sim::TimePs kWindowLen = 2 * sim::kMillisecond;
constexpr int kDrainWindows = 20;  // extra windows to flush re-sent queries
constexpr int kInstances = 8;
constexpr int kMaxPerRack = 2;
constexpr int kMaxPerPod = 6;
constexpr int kQueriesPerSlot = 10;
constexpr int kPairs = 6;
constexpr int kPingsPerWindow = 20;
constexpr int kFlows = 3000;
constexpr int kClients = 4;
constexpr std::uint64_t kFlowBps = 200ull * 1000 * 1000;
constexpr sim::TimePs kMigrationGap = 150 * sim::kMicrosecond;
constexpr sim::TimePs kChaosPoll = 50 * sim::kMicrosecond;
/** The service lives in the first pods; every other role avoids them. */
constexpr int kServicePods = 4;

enum : std::uint64_t { kSaltFiller = 21, kSaltFault, kSaltSpine };

/** Ranking-service stand-in recording every delivered query id. */
struct QueryRole : fpga::Role {
    int port = -1;
    std::vector<std::uint64_t> delivered;
    std::size_t harvested = 0;  ///< prefix already consumed
    std::string name() const override { return "bench-rank"; }
    std::uint32_t areaAlms() const override { return 100; }
    void attach(fpga::Shell &, int p) override { port = p; }
    void onMessage(const router::ErMessagePtr &msg) override
    {
        const auto d =
            std::static_pointer_cast<fpga::LtlDelivery>(msg->payload);
        if (d && d->appPayload)
            delivered.push_back(
                *std::static_pointer_cast<std::uint64_t>(d->appPayload));
    }
};

struct Slot {
    int instanceHost = -1;
    int client = -1;
    core::LtlChannel ch;
};

/** Simulation objects, destroyed in reverse order at teardown. */
struct State {
    Kernel k;
    std::vector<std::unique_ptr<QueryRole>> rolePool;
    std::map<int, QueryRole *> roleOf;  // live instance host -> role
    std::unique_ptr<haas::ServiceManager> sm;
    std::unique_ptr<haas::HealthMonitor> hm;
    std::unique_ptr<fault::FaultInjector> injector;
    std::unique_ptr<net::FluidTrafficModel> fluid;
    std::vector<Probe> probes;
    std::unique_ptr<fault::ChaosEngine> chaos;
    std::vector<Slot> slots;
};

}  // namespace

void
runChaosDomains(Run &run)
{
    Tracer &tr = run.tracer;
    Result &r = run.result;
    auto st = std::make_unique<State>();
    Kernel &k = st->k;
    const core::CloudConfig cfg = l2FabricConfig();
    k.build(cfg, /*workers=*/0, /*telemetry=*/false, tr);
    sim::EventQueue &eq = *k.eq;
    obs::Observability &hub = k.control();
    net::Topology &topo = k.cloud->topology();
    const int pods = cfg.topology.pods;
    const int racks = cfg.topology.racksPerPod;
    const int perRack = cfg.topology.hostsPerRack;
    r.hosts = k.cloud->numServers();

    // --- the ranking service, placed with anti-affinity behind a seeded
    // filler lease, so the victim rack moves with the seed ---
    haas::ResourceManager &rm = k.cloud->resourceManager();
    std::uint64_t leases = 0;
    const int filler =
        static_cast<int>(run.draw(kSaltFiller, 0) %
                         static_cast<std::uint64_t>(2 * racks * perRack));
    if (filler > 0) {
        Span s(tr, "haas.acquire");
        if (!rm.acquire("bench.filler", filler))
            sim::fatal("chaos_domains: filler lease failed");
        ++leases;
    }
    st->sm = std::make_unique<haas::ServiceManager>(
        eq, rm, "rank", [&st](int host) {
            st->rolePool.push_back(std::make_unique<QueryRole>());
            st->roleOf[host] = st->rolePool.back().get();
            return st->rolePool.back().get();
        });
    haas::ServiceManager &sm = *st->sm;
    haas::LeaseConstraints lc;
    lc.withAntiAffinity(kMaxPerRack, kMaxPerPod);
    {
        Span s(tr, "haas.deploy");
        sm.setMigrationPolicy(kMigrationGap);
        sm.enableAutoHeal(kInstances, lc);
        if (!sm.deploy(kInstances, lc))
            sim::fatal("chaos_domains: service deploy failed");
    }
    leases += kInstances;
    const std::vector<int> deployed = sm.instances();
    const int victimPod = topo.host(deployed[0]).pod;
    const int victimRack = topo.host(deployed[0]).rack;
    int casualties = 0;
    for (int h : deployed)
        if (topo.host(h).pod == victimPod && topo.host(h).rack == victimRack)
            ++casualties;
    for (int h : deployed)
        if (topo.host(h).pod >= kServicePods)
            sim::fatal("chaos_domains: service left its pods");

    // Seeded pods outside the service pods: probe sources, probe
    // destinations, clients, the maintenance pod and a control rack.
    const std::vector<int> podOrder = seededPods(run, kServicePods, pods);
    const auto podAt = [&](int i) {
        return podOrder[static_cast<std::size_t>(i)];
    };
    const int maintPod = podAt(2 * kPairs + kClients);
    const int controlPod = podAt(2 * kPairs + kClients + 1);

    // --- domain-aware health monitoring over every instance's rack plus
    // a healthy control rack ---
    std::set<int> watchSet;
    const auto watchRack = [&](int pod, int rack) {
        const int base = topo.hostIndex(pod, rack, 0);
        for (int i = 0; i < perRack; ++i)
            watchSet.insert(base + i);
    };
    for (int h : deployed)
        watchRack(topo.host(h).pod, topo.host(h).rack);
    watchRack(controlPod, 0);
    haas::HealthMonitorConfig hmc;
    hmc.withHeartbeat(100 * sim::kMicrosecond, 10 * sim::kMicrosecond)
        .withSuspicion(3.0, 1.0, 0.0)  // heartbeat/domain path only
        .withDomainConviction(/*sweeps=*/2, /*min_hosts=*/perRack);
    st->hm = std::make_unique<haas::HealthMonitor>(eq, rm, hmc);
    haas::HealthMonitor &hm = *st->hm;
    {
        Span s(tr, "haas.watch");
        k.cloud->attachHealthMonitor(hm);
        hm.watchHosts({watchSet.begin(), watchSet.end()});
    }
    {
        Span s(tr, "obs.attach");
        sm.attachObservability(&hub);
        hm.attachObservability(&hub);
    }

    {
        Span s(tr, "fault.arm");
        fault::FaultConfig fc;
        fc.withSeed(run.draw(kSaltFault, 0)).withSelfReport(false);
        st->injector =
            std::make_unique<fault::FaultInjector>(eq, *k.cloud, fc);
    }
    fault::FaultInjector &injector = *st->injector;

    {
        Span s(tr, "net.fluid.add");
        st->fluid = std::make_unique<net::FluidTrafficModel>(eq, topo);
        addFlows(run, *st->fluid, kFlows, kFlowBps);
    }
    st->probes = openProbes(run, k, podOrder, kPairs);
    std::uint64_t openCalls = kPairs;

    // --- the scripted drill ---
    const sim::TimePs torAt = kWindowLen + kWindowLen / 2;
    const sim::TimePs grayAt = 4 * kWindowLen + kWindowLen / 4;
    const sim::TimePs grayClearAt = grayAt + kWindowLen;
    const sim::TimePs maintAt = 6 * kWindowLen;
    const int graySpine =
        static_cast<int>(run.draw(kSaltSpine, 0) %
                         static_cast<std::uint64_t>(cfg.topology.l2Count));
    sim::TimePs detectedAt = -1;
    sim::TimePs evacuatedAt = -1;
    fault::ChaosScenario scenario;
    scenario
        .withPhase("tor-death", torAt,
                   [&] {
                       Span s(tr, "fault.inject");
                       injector.failTor(victimPod, victimRack);
                   })
        .withTriggeredPhase(
            "rack-convicted", torAt,
            [&] { return hm.domainConvictions() > 0; },
            [&] { detectedAt = eq.now(); })
        .withTriggeredPhase(
            "evacuated", torAt,
            [&] {
                if (detectedAt < 0 ||
                    static_cast<int>(sm.instances().size()) < kInstances)
                    return false;
                for (int h : sm.instances())
                    if (topo.host(h).pod == victimPod &&
                        topo.host(h).rack == victimRack)
                        return false;
                return true;
            },
            [&] { evacuatedAt = eq.now(); })
        .withPhase("gray-spine", grayAt,
                   [&] {
                       Span s(tr, "fault.inject");
                       injector.graySpineDegrade(graySpine, 0.001,
                                                 500 * sim::kNanosecond);
                   })
        .withPhase("gray-clear", grayClearAt,
                   [&] {
                       Span s(tr, "fault.inject");
                       injector.graySpineClear(graySpine);
                   })
        .withPhase("maintenance-drain", maintAt, [&] {
            Span s(tr, "fault.inject");
            injector.rollingMaintenance(maintPod, 50 * sim::kMicrosecond,
                                        60 * sim::kMicrosecond);
        });
    st->chaos = std::make_unique<fault::ChaosEngine>(eq, std::move(scenario));
    fault::ChaosEngine &chaos = *st->chaos;
    chaos.setPollPeriod(kChaosPoll);
    chaos.setFluidModel(st->fluid.get());
    chaos.watchHealth(&hm);
    {
        Span s(tr, "obs.attach");
        chaos.attachObservability(&hub);
    }
    hm.start();
    chaos.start();

    // --- live query traffic with receiver-side exactly-once accounting ---
    std::vector<int> clientHosts;
    for (int c = 0; c < kClients; ++c)
        clientHosts.push_back(topo.hostIndex(podAt(2 * kPairs + c), 0, 0));
    st->slots.resize(kInstances);
    std::vector<Slot> &slots = st->slots;
    // Re-point each slot at the current instance list; a slot whose
    // instance failed over reopens its channel to the replacement.
    const auto refreshSlots = [&] {
        const auto &inst = sm.instances();
        for (std::size_t i = 0; i < slots.size(); ++i) {
            Slot &sl = slots[i];
            const int h = i < inst.size() ? inst[i] : -1;
            if (h >= 0 && sl.instanceHost == h && sl.ch)
                continue;
            sl.ch.close();
            sl.instanceHost = -1;
            const auto rit = st->roleOf.find(h);
            if (h < 0 || rit == st->roleOf.end() || rit->second->port < 0)
                continue;
            sl.client = clientHosts[i % clientHosts.size()];
            Span s(tr, "core.open_ltl");
            sl.ch = k.cloud->openLtl(sl.client, h, rit->second->port);
            ++openCalls;
            sl.instanceHost = h;
        }
    };
    // Spread each open slot's queries over ~80% of the window, so the
    // injections land on in-flight traffic.
    const auto sendQueries = [&](const std::vector<std::uint64_t> &ids) {
        std::vector<std::size_t> open;
        for (std::size_t i = 0; i < slots.size(); ++i)
            if (slots[i].ch)
                open.push_back(i);
        if (open.empty() || ids.empty())
            return;
        const std::size_t perSlot = (ids.size() + open.size() - 1) / open.size();
        const sim::TimePs spacing =
            (kWindowLen * 4 / 5) / static_cast<sim::TimePs>(perSlot + 1);
        std::vector<int> onSlot(slots.size(), 0);
        std::size_t n = 0;
        for (const std::uint64_t id : ids) {
            const std::size_t si = open[n++ % open.size()];
            Slot &sl = slots[si];
            const sim::TimePs at =
                static_cast<sim::TimePs>(onSlot[si]++ + 1) * spacing;
            auto *engine = k.cloud->shell(sl.client).ltlEngine();
            eq.scheduleAfter(at, [engine, conn = sl.ch.sendConn(), id] {
                engine->sendMessage(conn, 256,
                                    std::make_shared<std::uint64_t>(id));
            });
        }
    };
    std::uint64_t nextId = 0, deliveredCount = 0, duplicates = 0;
    std::uint64_t resends = 0, pings = 0;
    std::vector<char> done;  // delivered flag per query id
    const auto harvestQueries = [&] {
        for (const auto &role : st->rolePool)
            for (; role->harvested < role->delivered.size();
                 ++role->harvested) {
                const std::uint64_t id = role->delivered[role->harvested];
                if (done[id]) {
                    ++duplicates;
                    continue;
                }
                done[id] = 1;
                ++deliveredCount;
            }
    };
    run.setupDone();

    std::vector<std::uint64_t> pending;  // awaiting (re)send
    for (int w = 0; w < kWindows + kDrainWindows; ++w) {
        const bool scripted = w < kWindows;
        if (!scripted && pending.empty())
            break;
        refreshSlots();
        std::vector<std::uint64_t> batch = std::move(pending);
        pending.clear();
        resends += batch.size();
        if (scripted)
            for (int i = 0; i < kInstances * kQueriesPerSlot; ++i) {
                batch.push_back(nextId++);
                done.push_back(0);
            }
        {
            Span s(tr, "sim.schedule", w);
            sendQueries(batch);
            if (scripted) {
                schedulePings(k, st->probes, kPingsPerWindow);
                pings += kPairs * kPingsPerWindow;
            }
        }
        run.lap();
        {
            Span s(tr, "sim.run", w);
            k.runFor(kWindowLen);
        }
        harvestQueries();
        for (const std::uint64_t id : batch)
            if (!done[id])
                pending.push_back(id);
        run.lap();
    }
    {
        Span s(tr, "sim.run", kWindows + kDrainWindows);
        k.runFor(2 * kWindowLen);  // drain in-flight frames
    }
    harvestQueries();
    run.lap();
    r.simSpanUs = sim::toMicros(eq.now());

    const ProbeResult probes = probeResult(k, st->probes);
    net::FluidConservation c;
    {
        Span s(tr, "net.fluid.fold");
        st->fluid->foldAll();
        c = st->fluid->verify();
    }
    harvest(k, r, tr);
    run.runDone();

    // --- checks: the monitor's own bounds, not tuned numbers ---
    r.attempted = nextId;
    r.failed = nextId - deliveredCount;
    r.check("zero_lost_queries", r.failed == 0,
            std::to_string(deliveredCount) + " of " + std::to_string(nextId) +
                " queries delivered (" + std::to_string(duplicates) +
                " duplicates)");
    const sim::TimePs convBound = hm.domainDetectionBound() + 2 * kChaosPoll;
    const sim::TimePs convLatency = detectedAt >= 0 ? detectedAt - torAt : -1;
    r.check("rack_conviction",
            detectedAt >= 0 && convLatency <= convBound &&
                hm.domainConvictions() == 1 && hm.detections() == 0,
            "latency " + std::to_string(sim::toMicros(convLatency)) +
                " us <= bound " + std::to_string(sim::toMicros(convBound)) +
                " us, " + std::to_string(hm.domainConvictions()) +
                " conviction(s), " + std::to_string(hm.detections()) +
                " per-host detections");
    const sim::TimePs evacBound =
        static_cast<sim::TimePs>(casualties) * kMigrationGap + 2 * kChaosPoll;
    const sim::TimePs evacLatency =
        evacuatedAt >= 0 && detectedAt >= 0 ? evacuatedAt - detectedAt : -1;
    const bool paced = sm.migrationsQueued() == 0 ||
                       sm.minMigrationGapObserved() >= kMigrationGap;
    r.check("evacuation",
            evacuatedAt >= 0 && evacLatency <= evacBound && paced,
            "latency " + std::to_string(sim::toMicros(evacLatency)) +
                " us <= bound " + std::to_string(sim::toMicros(evacBound)) +
                " us (" + std::to_string(casualties) + " casualties), paced " +
                (paced ? "yes" : "no"));
    r.check("containment", casualties <= kMaxPerRack,
            std::to_string(casualties) + " instances behind the dead TOR <= " +
                std::to_string(kMaxPerRack));
    const double p99 = probes.rtt.percentile(99.0);
    r.check("healthy_rtt", probes.rtt.count() > 0 && p99 < 150.0,
            "healthy-pod probe p99 " + std::to_string(p99) +
                " us < 150 us over " + std::to_string(probes.rtt.count()) +
                " samples");
    r.check("probes_delivered", probes.delivered == pings,
            std::to_string(probes.delivered) + " of " + std::to_string(pings) +
                " healthy-pod probe messages delivered");
    r.check("fluid_conservation", c.ok,
            "channel credits " + std::to_string(c.channelCredits) +
                " == expected " + std::to_string(c.expectedChannelCredits));
    r.check("phases_fired", chaos.done(),
            std::to_string(chaos.phasesFired()) + " phases fired");

    r.fidelityPct = l2FidelityPct(probes);
    r.counts["fidelity.rtt_mean_us"] = probes.rtt.mean();
    r.counts["fidelity.rtt_samples"] = static_cast<double>(probes.rtt.count());
    r.counts["core.open_ltl_calls"] = static_cast<double>(openCalls);
    r.counts["net.fluid.flows"] = static_cast<double>(c.flows);
    r.counts["haas.leases"] = static_cast<double>(
        leases + sm.failovers() + sm.autoHeals());
    r.counts["haas.heartbeats"] = static_cast<double>(hm.heartbeatsSent());
    r.counts["haas.domain_convictions"] =
        static_cast<double>(hm.domainConvictions());
    r.counts["haas.failovers"] = static_cast<double>(sm.failovers());
    r.counts["haas.affinity_skips"] = static_cast<double>(rm.affinitySkips());
    r.counts["haas.conviction_latency_us"] = sim::toMicros(convLatency);
    r.counts["haas.evacuation_latency_us"] = sim::toMicros(evacLatency);
    r.counts["fault.domain_faults"] =
        static_cast<double>(injector.domainFaults());
    r.counts["fault.phases_fired"] = static_cast<double>(chaos.phasesFired());
    r.counts["fault.resends"] = static_cast<double>(resends);

    Span s(tr, "core.teardown");
    st.reset();
}

}  // namespace ccbench
