/**
 * @file
 * HaaS unit tests: lease lifecycle, constraints, pool accounting,
 * failure reporting and SM failover, FM configuration, and the
 * HealthMonitor's per-source evidence idempotence, and randomized pool
 * accounting against a shadow model.
 */
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/cloud.hpp"
#include "haas/haas.hpp"
#include "haas/health_monitor.hpp"
#include "roles/dnn_role.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace {

using namespace ccsim;
using haas::FpgaManager;
using haas::LeaseConstraints;
using haas::ResourceManager;
using haas::ServiceManager;
using sim::EventQueue;

/** A trivial role for configuration tests. */
struct StubRole : fpga::Role {
    std::string name() const override { return "stub"; }
    std::uint32_t areaAlms() const override { return 100; }
    void attach(fpga::Shell &, int) override {}
    void onMessage(const router::ErMessagePtr &) override {}
};

struct Pool {
    EventQueue eq;
    ResourceManager rm{eq};
    std::vector<std::unique_ptr<FpgaManager>> fms;
    std::vector<std::unique_ptr<StubRole>> roles;

    explicit Pool(int nodes, int pods = 1)
    {
        for (int i = 0; i < nodes; ++i) {
            // Shell-less FMs: configuration calls are exercised in the
            // cloud integration tests; here we focus on RM bookkeeping.
            fms.push_back(std::make_unique<FpgaManager>(eq, nullptr, i));
            rm.registerNode(i, fms.back().get(), i % pods);
        }
    }

    fpga::Role *makeRole()
    {
        roles.push_back(std::make_unique<StubRole>());
        return roles.back().get();
    }
};

TEST(ResourceManager, AcquireAndRelease)
{
    Pool pool(8);
    EXPECT_EQ(pool.rm.freeCount(), 8);
    auto lease = pool.rm.acquire("svc", 3);
    ASSERT_TRUE(lease.has_value());
    EXPECT_EQ(lease->hosts.size(), 3u);
    EXPECT_EQ(pool.rm.freeCount(), 5);
    EXPECT_EQ(pool.rm.allocatedCount(), 3);
    pool.rm.release(lease->id);
    EXPECT_EQ(pool.rm.freeCount(), 8);
}

TEST(ResourceManager, ExhaustionReturnsNullopt)
{
    Pool pool(4);
    auto a = pool.rm.acquire("a", 3);
    ASSERT_TRUE(a.has_value());
    EXPECT_FALSE(pool.rm.acquire("b", 2).has_value());
    EXPECT_TRUE(pool.rm.acquire("b", 1).has_value());
}

TEST(ResourceManager, LeasesDoNotOverlap)
{
    Pool pool(10);
    std::set<int> seen;
    for (int i = 0; i < 5; ++i) {
        auto lease = pool.rm.acquire("svc", 2);
        ASSERT_TRUE(lease.has_value());
        for (int host : lease->hosts)
            EXPECT_TRUE(seen.insert(host).second)
                << "host leased twice: " << host;
    }
}

TEST(ResourceManager, PodConstraintHonored)
{
    Pool pool(12, 3);  // pods 0,1,2 round-robin
    LeaseConstraints c;
    c.requirePod = 1;
    auto lease = pool.rm.acquire("svc", 4);
    (void)lease;
    auto pod_lease = pool.rm.acquire("svc", 2, c);
    ASSERT_TRUE(pod_lease.has_value());
    for (int host : pod_lease->hosts)
        EXPECT_EQ(host % 3, 1);
    // Only 4 nodes exist in pod 1; asking for more must fail.
    EXPECT_FALSE(pool.rm.acquire("svc", 4, c).has_value());
}

TEST(ResourceManager, FailureRemovesFromPoolAndNotifies)
{
    Pool pool(4);
    int failed_host = -1;
    std::uint64_t failed_lease = 0;
    pool.rm.subscribeFailures([&](int host, std::uint64_t lease) {
        failed_host = host;
        failed_lease = lease;
    });
    auto lease = pool.rm.acquire("svc", 2);
    ASSERT_TRUE(lease.has_value());
    const int victim = lease->hosts[0];
    pool.rm.reportFailure(victim);
    EXPECT_EQ(failed_host, victim);
    EXPECT_EQ(failed_lease, lease->id);
    EXPECT_EQ(pool.rm.failedCount(), 1);
    // Failure of an unleased node does not notify.
    failed_host = -1;
    const int idle = 3;
    pool.rm.reportFailure(idle);
    EXPECT_EQ(failed_host, -1);
    EXPECT_EQ(pool.rm.failedCount(), 2);
}

TEST(ResourceManager, RepairReturnsNodeToPool)
{
    Pool pool(2);
    pool.rm.reportFailure(0);
    EXPECT_EQ(pool.rm.freeCount(), 1);
    pool.rm.repair(0);
    EXPECT_EQ(pool.rm.freeCount(), 2);
    EXPECT_EQ(pool.rm.failedCount(), 0);
}

TEST(ResourceManager, ReportFailureIsIdempotent)
{
    // Fault injection and LTL-timeout detection can both report the same
    // dead node; only the first report may have any effect.
    Pool pool(4);
    int notifications = 0;
    pool.rm.subscribeFailures(
        [&](int, std::uint64_t) { ++notifications; });
    auto lease = pool.rm.acquire("svc", 1);
    ASSERT_TRUE(lease.has_value());
    const int victim = lease->hosts[0];

    pool.rm.reportFailure(victim);
    pool.rm.reportFailure(victim);
    pool.rm.reportFailure(victim);
    EXPECT_EQ(notifications, 1);
    EXPECT_EQ(pool.rm.failedCount(), 1);
    EXPECT_EQ(pool.rm.failuresReported(), 1u);

    // Repairing a healthy node is equally a no-op.
    pool.rm.repair(victim);
    pool.rm.repair(victim);
    EXPECT_EQ(pool.rm.failedCount(), 0);
    EXPECT_EQ(pool.rm.repairsApplied(), 1u);
    EXPECT_EQ(pool.rm.freeCount(), 4);
}

TEST(ResourceManager, RepairedNodeSatisfiesPodConstraintAgain)
{
    Pool pool(4, 2);  // hosts 1 and 3 land in pod 1
    LeaseConstraints c;
    c.requirePod = 1;
    auto lease = pool.rm.acquire("svc", 2, c);
    ASSERT_TRUE(lease.has_value());

    pool.rm.reportFailure(1);
    EXPECT_FALSE(pool.rm.acquire("svc", 1, c).has_value());  // pod empty

    // Repair makes the node eligible for pod-constrained leases again.
    pool.rm.repair(1);
    auto again = pool.rm.acquire("svc", 1, c);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->hosts.front(), 1);
}

TEST(ResourceManager, RandomizedOpsKeepPoolCountsExact)
{
    // A shadow model replays a random acquire / release / failure /
    // domain-failure / repair sequence. The O(1) pool counts must equal
    // a recount of the model over hostIndices() after every step, and
    // first-fit placement must pick the lowest free hosts. Hosts 7 and
    // 13 are holes in the host-indexed table; 40 is past its end.
    enum class St { kFree, kAllocated, kFailed };
    EventQueue eq;
    ResourceManager rm{eq};
    std::map<int, std::unique_ptr<FpgaManager>> fms;
    std::map<int, St> model;
    std::map<int, std::uint64_t> leaseOf;
    for (int h : {0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 14, 15, 16, 17, 18,
                  19, 20, 21, 22, 23, 24, 25, 30, 31}) {
        fms[h] = std::make_unique<FpgaManager>(eq, nullptr, h);
        rm.registerNode(h, fms[h].get(), h % 3, h / 4);
        model[h] = St::kFree;
    }
    const std::vector<int> pickable = {0,  3,  7,  8,  12, 13, 16, 19,
                                       22, 25, 30, 31, 40};
    std::vector<std::uint64_t> live;
    sim::Rng rng(0x4AA5);
    for (int step = 0; step < 3000; ++step) {
        const int pick = pickable[rng.uniformInt(pickable.size())];
        switch (rng.uniformInt(5)) {
        case 0: {
            const int want = 1 + static_cast<int>(rng.uniformInt(4));
            std::vector<int> expect;
            for (const auto &[h, st] : model) {
                if (st == St::kFree &&
                    static_cast<int>(expect.size()) < want)
                    expect.push_back(h);
            }
            auto lease = rm.acquire("svc", want);
            if (static_cast<int>(expect.size()) < want) {
                EXPECT_FALSE(lease.has_value());
                break;
            }
            ASSERT_TRUE(lease.has_value());
            ASSERT_EQ(lease->hosts, expect);
            for (int h : expect) {
                model[h] = St::kAllocated;
                leaseOf[h] = lease->id;
            }
            live.push_back(lease->id);
            break;
        }
        case 1:
            if (!live.empty()) {
                const auto i = rng.uniformInt(live.size());
                rm.release(live[i]);
                for (auto &[h, st] : model) {
                    if (st == St::kAllocated && leaseOf[h] == live[i])
                        st = St::kFree;
                }
                live.erase(live.begin() + static_cast<long>(i));
            }
            break;
        case 2:
            rm.reportFailure(pick);
            if (model.count(pick))
                model[pick] = St::kFailed;
            break;
        case 3: {
            const std::vector<int> domain = {pick, pick + 1, pick + 2};
            rm.reportDomainFailure(domain);
            for (int h : domain) {
                if (model.count(h))
                    model[h] = St::kFailed;
            }
            break;
        }
        default:
            rm.repair(pick);
            if (model.count(pick) && model[pick] == St::kFailed)
                model[pick] = St::kFree;
            break;
        }
        int counts[3] = {0, 0, 0};
        for (int h : rm.hostIndices()) {
            ASSERT_TRUE(model.count(h)) << "unregistered host " << h;
            ++counts[static_cast<int>(model[h])];
            EXPECT_EQ(fms[h]->status().healthy, model[h] != St::kFailed);
        }
        ASSERT_EQ(rm.freeCount(), counts[0]) << "step " << step;
        ASSERT_EQ(rm.allocatedCount(), counts[1]) << "step " << step;
        ASSERT_EQ(rm.failedCount(), counts[2]) << "step " << step;
        ASSERT_EQ(rm.freeCount() + rm.allocatedCount() + rm.failedCount(),
                  rm.totalCount());
        ASSERT_EQ(rm.totalCount(), static_cast<int>(model.size()));
    }
    EXPECT_EQ(rm.nodeRack(7), -1);
    EXPECT_EQ(rm.nodeRack(40), -1);
    EXPECT_EQ(rm.nodeRack(31), 7);
}

TEST(ResourceManager, MultipleSubscribersFireInSubscriptionOrder)
{
    // Several control-plane components (Service Managers, monitors,
    // loggers) subscribe independently; each event reaches all of them
    // in the order they subscribed.
    Pool pool(4);
    std::vector<std::string> calls;
    pool.rm.subscribeFailures(
        [&](int host, std::uint64_t) {
            calls.push_back("A.fail." + std::to_string(host));
        });
    pool.rm.subscribeFailures(
        [&](int host, std::uint64_t) {
            calls.push_back("B.fail." + std::to_string(host));
        });
    pool.rm.subscribeRepairs([&](int host) {
        calls.push_back("A.repair." + std::to_string(host));
    });
    pool.rm.subscribeRepairs([&](int host) {
        calls.push_back("B.repair." + std::to_string(host));
    });

    auto lease = pool.rm.acquire("svc", 1);
    ASSERT_TRUE(lease.has_value());
    const int victim = lease->hosts[0];
    pool.rm.reportFailure(victim);
    pool.rm.repair(victim);

    const std::vector<std::string> expected = {
        "A.fail." + std::to_string(victim),
        "B.fail." + std::to_string(victim),
        "A.repair." + std::to_string(victim),
        "B.repair." + std::to_string(victim),
    };
    EXPECT_EQ(calls, expected);
}

TEST(FpgaManager, StatusReflectsHealth)
{
    EventQueue eq;
    FpgaManager fm(eq, nullptr, 7);
    EXPECT_TRUE(fm.status().healthy);
    EXPECT_FALSE(fm.status().hasRole);
    fm.markUnhealthy();
    EXPECT_FALSE(fm.status().healthy);
    // Unhealthy FMs refuse configuration.
    StubRole role;
    EXPECT_EQ(fm.configureRole(&role), -1);
    fm.markHealthy();
    // Null shell also refuses (no fabric to configure).
    EXPECT_EQ(fm.configureRole(&role), -1);
}

TEST(ServiceManager, RoundRobinLoadBalancing)
{
    Pool pool(6);
    // Use a role factory but a null-shell pool: deploy() would fail on
    // configure, so drive pickInstance() on a hand-rolled instance list
    // via deploy of zero instances plus direct checks.
    ServiceManager sm(pool.eq, pool.rm, "svc",
                      [&](int) { return pool.makeRole(); });
    EXPECT_EQ(sm.pickInstance(), -1);  // nothing deployed
}

TEST(ServiceManager, PickInstanceMatchesLegacySequence)
{
    // pickInstance() is now a shim over serving::RoundRobinBalancer.
    // Replay the pre-serving implementation — `hosts[rrNext %
    // hosts.size()]; ++rrNext;` with a free-running counter — side by
    // side through deploys, scale-downs, scale-ups, and a failover, and
    // require bit-identical pick sequences throughout.
    EventQueue eq;
    core::CloudConfig cfg;
    cfg.topology.hostsPerRack = 4;
    cfg.topology.racksPerPod = 2;
    cfg.topology.l1PerPod = 2;
    cfg.topology.pods = 1;
    cfg.topology.l2Count = 1;
    cfg.createNics = false;
    core::ConfigurableCloud cloud(eq, cfg);

    std::vector<std::unique_ptr<roles::DnnRole>> role_storage;
    ServiceManager sm(eq, cloud.resourceManager(), "dnn",
                      [&](int) -> fpga::Role * {
                          role_storage.push_back(
                              std::make_unique<roles::DnnRole>(eq));
                          return role_storage.back().get();
                      });

    std::size_t legacy_next = 0;
    auto legacy_pick = [&]() -> int {
        const auto &hosts = sm.instances();
        if (hosts.empty())
            return -1;
        const int host = hosts[legacy_next % hosts.size()];
        ++legacy_next;
        return host;
    };
    auto expect_same_picks = [&](int picks) {
        for (int i = 0; i < picks; ++i) {
            const int expected = legacy_pick();
            EXPECT_EQ(sm.pickInstance(), expected)
                << "diverged at pick " << i << " with "
                << sm.instances().size() << " instances";
        }
    };

    ASSERT_TRUE(sm.deploy(3));
    expect_same_picks(7);  // not a multiple of 3: counter mid-cycle
    ASSERT_TRUE(sm.scaleTo(2));
    expect_same_picks(5);
    ASSERT_TRUE(sm.scaleTo(5));
    expect_same_picks(9);
    // Failover replaces a host mid-sequence (membership change without
    // a size change).
    const int victim = sm.instances().front();
    cloud.resourceManager().reportFailure(victim);
    ASSERT_TRUE(sm.handleFailure(victim));
    expect_same_picks(11);
}

TEST(HealthMonitor, EvidenceIdempotentPerSource)
{
    Pool pool(4);
    haas::HealthMonitorConfig cfg;
    cfg.suspicionThreshold = 3.0;
    haas::HealthMonitor hm(pool.eq, pool.rm, cfg);

    // The same source re-reporting adds no further suspicion: a serving
    // detector that re-ejects a grey node every 30 ms must not reach the
    // reporting threshold on its own.
    hm.reportEvidence(1, "serving.rank", 1.0);
    hm.reportEvidence(1, "serving.rank", 1.0);
    hm.reportEvidence(1, "serving.rank", 1.0);
    hm.reportEvidence(1, "serving.rank", 1.0);
    EXPECT_DOUBLE_EQ(hm.suspicion(1), 1.0);
    EXPECT_EQ(hm.evidenceReports(), 1u);
    EXPECT_EQ(pool.rm.failedCount(), 0);

    // Distinct sources corroborate: each credits once.
    hm.reportEvidence(1, "serving.crypto", 1.0);
    EXPECT_DOUBLE_EQ(hm.suspicion(1), 2.0);
    hm.reportEvidence(1, "serving.dnn", 1.0);
    // Third source crossed the threshold: reported to the RM once.
    EXPECT_EQ(pool.rm.failedCount(), 1);
    EXPECT_EQ(hm.detections(), 1u);

    // While reported, even a fresh source cannot double-report.
    hm.reportEvidence(1, "serving.other", 5.0);
    EXPECT_EQ(pool.rm.failedCount(), 1);
    EXPECT_EQ(hm.detections(), 1u);

    // Evidence against unregistered hosts is ignored.
    hm.reportEvidence(99, "serving.rank", 1.0);
    EXPECT_DOUBLE_EQ(hm.suspicion(99), 0.0);
}

TEST(HealthMonitor, EvidenceLatchClearsOnHealthyHeartbeat)
{
    Pool pool(2);
    haas::HealthMonitorConfig cfg;
    cfg.suspicionThreshold = 3.0;
    haas::HealthMonitor hm(pool.eq, pool.rm, cfg);
    hm.setProbe([](int) { return true; });
    hm.start();

    hm.reportEvidence(0, "serving.rank", 1.0);
    EXPECT_DOUBLE_EQ(hm.suspicion(0), 1.0);

    // A reachable heartbeat ends the episode: suspicion resets and the
    // source may count again when the node degrades anew.
    pool.eq.runFor(cfg.heartbeatPeriod + cfg.heartbeatRtt + 1);
    hm.stop();
    EXPECT_DOUBLE_EQ(hm.suspicion(0), 0.0);
    hm.reportEvidence(0, "serving.rank", 1.0);
    EXPECT_DOUBLE_EQ(hm.suspicion(0), 1.0);
    EXPECT_EQ(hm.evidenceReports(), 2u);
}

}  // namespace
