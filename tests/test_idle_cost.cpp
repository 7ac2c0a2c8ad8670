/**
 * @file
 * Idle state costs nothing: regression tests for the paper-scale
 * memory and registration budget.
 *
 * At the 249,600-host L2 scale almost every link, LTL connection slot and
 * server stays idle for a whole run, so what an idle object allocates or
 * registers is multiplied by the fabric size. This executable replaces
 * the global operator new with a counting one (hence its own binary) and
 * pins:
 *  - an LTL engine's connection table allocates nothing per idle entry;
 *  - an idle net::Link allocates a fixed, small number of blocks;
 *  - a paper-scale lazy fabric with a FaultInjector attached registers
 *    per-server fault probes only for servers that were impaired, and
 *    per-switch probes only for switches that handled a packet;
 *  - a registry path costs one tree node plus its share of a path
 *    arena, and looking a path up allocates nothing.
 */
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/cloud.hpp"
#include "fault/fault.hpp"
#include "ltl/ltl_engine.hpp"
#include "net/channel.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"

namespace {

std::atomic<std::uint64_t> gAllocs{0};

}  // namespace

void *
operator new(std::size_t n)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace ccsim;

namespace {

/** Heap allocations made while running @p fn. */
template <typename Fn>
std::uint64_t
allocationsDuring(Fn &&fn)
{
    const std::uint64_t before = gAllocs.load(std::memory_order_relaxed);
    fn();
    return gAllocs.load(std::memory_order_relaxed) - before;
}

std::uint64_t
ltlEngineAllocations(std::uint16_t max_connections)
{
    sim::EventQueue eq;
    ltl::LtlConfig cfg;
    cfg.maxConnections = max_connections;
    return allocationsDuring([&] {
        ltl::LtlEngine engine(eq, cfg, [](const net::PacketPtr &) {});
    });
}

}  // namespace

TEST(IdleCost, CountingAllocatorSeesHeapAllocations)
{
    // A static owner keeps the compiler from eliding the allocation.
    static std::unique_ptr<std::array<char, 256>> keep;
    const std::uint64_t n = allocationsDuring(
        [] { keep = std::make_unique<std::array<char, 256>>(); });
    keep.reset();
    EXPECT_EQ(n, 1u);
}

TEST(IdleCost, LtlConnectionTableAllocatesNothingPerIdleEntry)
{
    // The send and receive tables are one buffer each whatever their
    // length; the idle per-connection queues add nothing.
    EXPECT_LE(ltlEngineAllocations(64), ltlEngineAllocations(1));
}

TEST(IdleCost, IdleLinkAllocatesOnlyItsChannelsAndShims)
{
    // Two channels and two PFC shims; the short name keeps the channel
    // labels in the small-string buffer. The eight per-priority transmit
    // queues of each channel own no heap until a packet is queued.
    constexpr std::uint64_t kIdleLinkAllocs = 4;
    sim::EventQueue eq;
    const std::uint64_t n = allocationsDuring([&] {
        net::Link link(eq, "l", 40.0, 2.0);
    });
    EXPECT_LE(n, kIdleLinkAllocs);
}

TEST(IdleCost, PaperScaleFabricRegistersProbesOnlyForImpairedServers)
{
    // ccbench's l2FabricConfig geometry: 24 x 40 x 260 = 249,600 hosts.
    core::CloudConfig cfg;
    cfg.topology.hostsPerRack = 24;
    cfg.topology.racksPerPod = 40;
    cfg.topology.l1PerPod = 2;
    cfg.topology.pods = 260;
    cfg.topology.l2Count = 4;
    cfg.createNics = false;
    cfg.lazyHosts = true;
    cfg.shellTemplate.ltl.maxConnections = 64;
    cfg.shellTemplate.roleSlots = 8;
    obs::Observability hub;
    cfg.obs = &hub;
    sim::EventQueue eq;
    core::ConfigurableCloud cloud(eq, cfg);
    ASSERT_EQ(cloud.numServers(), 249600);
    fault::FaultInjector inj(eq, cloud, fault::FaultConfig{});
    // What is left are fleet-wide totals (31 paths: fault.*, haas.*,
    // sim.mem.*, sim.queue.*); the margin admits a few more of those,
    // while a path per switch (10,924) or per server would exceed it.
    constexpr std::size_t kPathBudget = 64;
    EXPECT_LT(hub.registry.paths().size(), kPathBudget);
    EXPECT_FALSE(hub.registry.hasProbe("fault.node0.down"));
    // No switch has handled a packet, so none has registered a probe.
    EXPECT_TRUE(hub.registry.children("switch").empty());
}

TEST(IdleCost, RegistryPathCostsOneNodeAndLookupsAllocateNothing)
{
    // Paths longer than the small-string buffer, as at paper scale
    // ("fault.node123456.down"): a string key per path would double the
    // count.
    constexpr std::size_t kProbes = 4096;
    std::vector<std::string> paths;
    for (std::size_t i = 0; i < kProbes; ++i)
        paths.push_back("fault.node" + std::to_string(i) + ".link_down");
    obs::MetricsRegistry reg;
    const std::uint64_t registering = allocationsDuring([&] {
        for (const std::string &p : paths)
            reg.registerProbe(p, [] { return 0.0; });
    });
    EXPECT_LE(registering, kProbes + 3 * std::bit_width(kProbes));

    const std::string absent = "fault.node999999.link_down";
    double sum = 0.0;
    const std::uint64_t looking = allocationsDuring([&] {
        for (const std::string &p : paths) {
            // The classification chain a time-series hub runs per path.
            if (reg.findCounter(p) || reg.findGauge(p) ||
                reg.findHistogram(p) || !reg.hasProbe(p))
                sum += 1.0;
            sum += reg.probeValue(p);
            sum += reg.probeTimeAverage(p);
        }
        if (reg.findCounter(absent) || reg.hasProbe(absent))
            sum += 1.0;
    });
    EXPECT_EQ(looking, 0u);
    EXPECT_EQ(sum, 0.0);
}
