/**
 * @file
 * Network substrate tests: channel serialization/pausing, link PFC
 * interception, switch routing/ECN/PFC and first-packet probe
 * registration, topology connectivity.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/channel.hpp"
#include "net/nic.hpp"
#include "net/packet.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/sharded_obs.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_queue.hpp"

namespace {

using namespace ccsim;
using net::Channel;
using net::Link;
using net::Packet;
using net::PacketPtr;
using net::PacketSink;
using sim::EventQueue;
using sim::TimePs;

/** Collects delivered packets with timestamps. */
class CollectorSink : public PacketSink
{
  public:
    explicit CollectorSink(EventQueue &eq) : queue(eq) {}
    void acceptPacket(const PacketPtr &pkt) override
    {
        packets.push_back(pkt);
        times.push_back(queue.now());
    }
    EventQueue &queue;
    std::vector<PacketPtr> packets;
    std::vector<TimePs> times;
};

PacketPtr
makeUdp(net::Ipv4Addr src, net::Ipv4Addr dst, std::uint32_t payload,
        std::uint8_t prio = net::kTcLossy)
{
    auto pkt = net::makePacket();
    pkt->ipSrc = src;
    pkt->ipDst = dst;
    pkt->payloadBytes = payload;
    pkt->priority = prio;
    return pkt;
}

TEST(Channel, SerializationPlusPropagation)
{
    EventQueue eq;
    Channel ch(eq, "ch", 40.0, 100 * sim::kNanosecond, 1 << 20);
    CollectorSink sink(eq);
    ch.setSink(&sink);

    auto pkt = makeUdp({1}, {2}, 1000);
    const auto wire = pkt->wireBytes();
    ch.send(pkt);
    eq.runAll();
    ASSERT_EQ(sink.packets.size(), 1u);
    EXPECT_EQ(sink.times[0],
              sim::serializationDelay(wire, 40.0) + 100 * sim::kNanosecond);
}

TEST(Channel, BackToBackPacketsSerialize)
{
    EventQueue eq;
    Channel ch(eq, "ch", 40.0, 0, 1 << 20);
    CollectorSink sink(eq);
    ch.setSink(&sink);
    auto a = makeUdp({1}, {2}, 1500);
    auto b = makeUdp({1}, {2}, 1500);
    ch.send(a);
    ch.send(b);
    eq.runAll();
    ASSERT_EQ(sink.packets.size(), 2u);
    const auto gap = sink.times[1] - sink.times[0];
    EXPECT_EQ(gap, sim::serializationDelay(a->wireBytes(), 40.0));
}

TEST(Channel, DropsWhenQueueFull)
{
    EventQueue eq;
    Channel ch(eq, "ch", 0.001 /*very slow*/, 0, 4000);
    CollectorSink sink(eq);
    ch.setSink(&sink);
    int accepted = 0;
    for (int i = 0; i < 10; ++i)
        accepted += ch.send(makeUdp({1}, {2}, 1400)) ? 1 : 0;
    EXPECT_LT(accepted, 10);
    EXPECT_GT(ch.packetsDropped(), 0u);
}

TEST(Channel, PfcPausesOnlyThatPriority)
{
    EventQueue eq;
    Channel ch(eq, "ch", 40.0, 0, 1 << 20);
    CollectorSink sink(eq);
    ch.setSink(&sink);

    ch.pausePriority(net::kTcLossless, 10 * sim::kMicrosecond);
    auto lossless = makeUdp({1}, {2}, 100, net::kTcLossless);
    auto lossy = makeUdp({1}, {2}, 100, net::kTcLossy);
    ch.send(lossless);
    ch.send(lossy);
    eq.runUntil(5 * sim::kMicrosecond);
    // Only the lossy packet got through while the class was paused.
    ASSERT_EQ(sink.packets.size(), 1u);
    EXPECT_EQ(sink.packets[0]->priority, net::kTcLossy);
    eq.runUntil(20 * sim::kMicrosecond);
    ASSERT_EQ(sink.packets.size(), 2u);
    EXPECT_GE(sink.times[1], 10 * sim::kMicrosecond);
}

TEST(Channel, ResumeZeroDurationUnpauses)
{
    EventQueue eq;
    Channel ch(eq, "ch", 40.0, 0, 1 << 20);
    CollectorSink sink(eq);
    ch.setSink(&sink);
    ch.pausePriority(3, 100 * sim::kMicrosecond);
    ch.send(makeUdp({1}, {2}, 100, 3));
    eq.runUntil(1 * sim::kMicrosecond);
    EXPECT_TRUE(sink.packets.empty());
    ch.pausePriority(3, 0);  // X-ON
    eq.runUntil(2 * sim::kMicrosecond);
    EXPECT_EQ(sink.packets.size(), 1u);
}

TEST(Link, PfcFrameIsConsumedAndPausesReverse)
{
    EventQueue eq;
    Link link(eq, "l", 40.0, 1.0);
    CollectorSink a(eq), b(eq);
    link.attachA(&a);
    link.attachB(&b);

    // B sends a PFC pause toward A; A's transmitter must pause and the
    // PFC frame must NOT be delivered to A's device.
    link.bToA().send(net::makePfcPause(net::kTcLossless,
                                       50 * sim::kMicrosecond));
    eq.runUntil(1 * sim::kMicrosecond);  // let the pause frame land at A
    auto data = makeUdp({1}, {2}, 200, net::kTcLossless);
    link.aToB().send(data);
    eq.runUntil(10 * sim::kMicrosecond);
    EXPECT_TRUE(a.packets.empty());  // PFC consumed by the shim
    EXPECT_TRUE(b.packets.empty());  // data paused
    eq.runUntil(100 * sim::kMicrosecond);
    EXPECT_EQ(b.packets.size(), 1u);  // released after pause expiry
}

TEST(Switch, RoutesByHostRoute)
{
    EventQueue eq;
    net::SwitchConfig cfg;
    cfg.forwardingLatency = 450 * sim::kNanosecond;
    net::Switch sw(eq, cfg);

    Link l0(eq, "h0", 40.0, 1.0), l1(eq, "h1", 40.0, 1.0);
    CollectorSink h0(eq), h1(eq);
    // Hosts at end A, switch at end B.
    l0.attachA(&h0);
    l1.attachA(&h1);
    const int p0 = sw.addPort(&l0.bToA());
    const int p1 = sw.addPort(&l1.bToA());
    l0.attachB(sw.portSink(p0));
    l1.attachB(sw.portSink(p1));
    sw.addHostRoute({10}, p0);
    sw.addHostRoute({11}, p1);

    l0.aToB().send(makeUdp({10}, {11}, 500));  // h0 -> h1
    eq.runAll();
    EXPECT_EQ(h1.packets.size(), 1u);
    EXPECT_TRUE(h0.packets.empty());
    EXPECT_EQ(sw.packetsForwarded(), 1u);
}

TEST(Switch, PrefixAndDefaultRoutes)
{
    EventQueue eq;
    net::Switch sw(eq, net::SwitchConfig{});
    Link l0(eq, "a", 40.0, 1.0), l1(eq, "b", 40.0, 1.0),
        l2(eq, "c", 40.0, 1.0);
    CollectorSink s0(eq), s1(eq), s2(eq);
    l0.attachA(&s0);
    l1.attachA(&s1);
    l2.attachA(&s2);
    const int p0 = sw.addPort(&l0.bToA());
    const int p1 = sw.addPort(&l1.bToA());
    const int p2 = sw.addPort(&l2.bToA());
    sw.addRoute(net::Ipv4Addr::of(10, 1, 0, 0), 16, p0);
    sw.addRoute(net::Ipv4Addr::of(10, 1, 7, 0), 24, p1);  // longer match
    sw.setDefaultRoutes({p2});

    // /24 beats /16.
    auto pkt1 = makeUdp({1}, net::Ipv4Addr::of(10, 1, 7, 9), 100);
    // /16 only.
    auto pkt2 = makeUdp({1}, net::Ipv4Addr::of(10, 1, 3, 9), 100);
    // neither: default.
    auto pkt3 = makeUdp({1}, net::Ipv4Addr::of(10, 9, 0, 9), 100);
    sw.portSink(p2)->acceptPacket(pkt1);
    sw.portSink(p0)->acceptPacket(pkt2);
    sw.portSink(p0)->acceptPacket(pkt3);
    eq.runAll();
    EXPECT_EQ(s1.packets.size(), 1u);
    EXPECT_EQ(s0.packets.size(), 1u);
    EXPECT_EQ(s2.packets.size(), 1u);
}

TEST(Switch, DropsWithoutRoute)
{
    EventQueue eq;
    net::Switch sw(eq, net::SwitchConfig{});
    Link l0(eq, "a", 40.0, 1.0);
    const int p0 = sw.addPort(&l0.bToA());
    sw.portSink(p0)->acceptPacket(makeUdp({1}, {99}, 100));
    eq.runAll();
    EXPECT_EQ(sw.routeMisses(), 1u);
    EXPECT_EQ(sw.packetsDropped(), 1u);
}

TEST(Switch, EcnMarksWhenQueueDeep)
{
    EventQueue eq;
    net::SwitchConfig cfg;
    cfg.ecnThresholdBytes = 3000;  // tiny threshold
    cfg.forwardingLatency = 0;
    net::Switch sw(eq, cfg);
    Link out(eq, "o", 1.0 /*slow*/, 1.0);
    CollectorSink dst(eq);
    out.attachA(&dst);
    const int po = sw.addPort(&out.bToA());
    Link in(eq, "i", 40.0, 1.0);
    const int pi = sw.addPort(&in.bToA());
    sw.addHostRoute({5}, po);

    for (int i = 0; i < 20; ++i) {
        auto pkt = makeUdp({1}, {5}, 1400, net::kTcLossy);
        pkt->ecnCapable = true;
        sw.portSink(pi)->acceptPacket(pkt);
    }
    eq.runAll();
    EXPECT_GT(sw.packetsEcnMarked(), 0u);
    bool any_marked = false;
    for (const auto &pkt : dst.packets)
        any_marked = any_marked || pkt->ecnMarked;
    EXPECT_TRUE(any_marked);
}

TEST(Switch, LosslessClassTriggersPfcNotDrops)
{
    EventQueue eq;
    net::SwitchConfig cfg;
    cfg.forwardingLatency = 0;
    cfg.pfcXoffBytes = 8 * 1024;
    cfg.pfcXonBytes = 4 * 1024;
    net::Switch sw(eq, cfg);

    // Slow egress so the ingress accounting builds up.
    Link out(eq, "o", 0.5, 1.0);
    CollectorSink dst(eq);
    out.attachA(&dst);
    const int po = sw.addPort(&out.bToA());
    Link in(eq, "i", 40.0, 1.0);
    CollectorSink src(eq);
    in.attachA(&src);
    const int pi = sw.addPort(&in.bToA());
    in.attachB(sw.portSink(pi));
    sw.addHostRoute({5}, po);

    // Blast lossless traffic through the ingress.
    for (int i = 0; i < 64; ++i)
        in.aToB().send(makeUdp({1}, {5}, 1400, net::kTcLossless));
    eq.runUntil(2 * sim::kMillisecond);
    EXPECT_GT(sw.pfcFramesSent(), 0u);
    // The sender's channel must have been paused at some point.
    EXPECT_GT(in.aToB().pausesReceived(), 0u);
    eq.runAll();
    // All packets eventually arrive: lossless means no drops.
    EXPECT_EQ(dst.packets.size(), 64u);
    EXPECT_EQ(sw.packetsDropped(), 0u);
}

TEST(Topology, BuildsExpectedCounts)
{
    EventQueue eq;
    net::TopologyConfig cfg;
    cfg.hostsPerRack = 4;
    cfg.racksPerPod = 3;
    cfg.l1PerPod = 2;
    cfg.pods = 2;
    cfg.l2Count = 2;
    net::Topology topo(eq, cfg);
    EXPECT_EQ(topo.numHosts(), 4 * 3 * 2);
    EXPECT_EQ(topo.hostIndex(1, 2, 3), (1 * 3 + 2) * 4 + 3);
    EXPECT_EQ(topo.host(topo.hostIndex(1, 2, 3)).addr,
              net::Ipv4Addr::of(10, 1, 2, 4));
}

class TopologyDelivery : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(TopologyDelivery, HostToHostAcrossTiers)
{
    auto [src_idx, dst_idx] = GetParam();
    EventQueue eq;
    net::TopologyConfig cfg;
    cfg.hostsPerRack = 3;
    cfg.racksPerPod = 2;
    cfg.l1PerPod = 2;
    cfg.pods = 2;
    cfg.l2Count = 2;
    net::Topology topo(eq, cfg);

    std::vector<std::unique_ptr<CollectorSink>> sinks;
    for (int i = 0; i < topo.numHosts(); ++i) {
        sinks.push_back(std::make_unique<CollectorSink>(eq));
        topo.attachHostDevice(i, sinks.back().get());
    }
    auto pkt = makeUdp(topo.host(src_idx).addr, topo.host(dst_idx).addr,
                       800);
    topo.hostTx(src_idx).send(pkt);
    eq.runAll();
    ASSERT_EQ(sinks[dst_idx]->packets.size(), 1u)
        << "src=" << src_idx << " dst=" << dst_idx;
    for (int i = 0; i < topo.numHosts(); ++i) {
        if (i != dst_idx) {
            EXPECT_TRUE(sinks[i]->packets.empty());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, TopologyDelivery,
    ::testing::Values(std::pair{0, 1},   // same rack (L0)
                      std::pair{0, 4},   // cross-rack same pod (L1)
                      std::pair{0, 7},   // cross-pod (L2)
                      std::pair{11, 0},  // reverse direction across pods
                      std::pair{5, 5}));

TEST(TopologyDeliveryLatency, IncreasesWithTier)
{
    EventQueue eq;
    net::TopologyConfig cfg;
    cfg.hostsPerRack = 3;
    cfg.racksPerPod = 2;
    cfg.l1PerPod = 1;
    cfg.pods = 2;
    cfg.l2Count = 1;
    // Disable jitter for a deterministic comparison.
    cfg.l1Params.jitterMean = 0;
    cfg.l2Params.jitterMean = 0;
    net::Topology topo(eq, cfg);

    auto send_and_time = [&](int src, int dst) {
        CollectorSink sink(eq);
        topo.attachHostDevice(dst, &sink);
        const TimePs start = eq.now();
        topo.hostTx(src).send(
            makeUdp(topo.host(src).addr, topo.host(dst).addr, 200));
        eq.runAll();
        EXPECT_EQ(sink.packets.size(), 1u);
        return sink.times.empty() ? TimePs{0} : sink.times[0] - start;
    };

    const TimePs l0 = send_and_time(0, 1);
    const TimePs l1 = send_and_time(0, 4);
    const TimePs l2 = send_and_time(0, 8);
    EXPECT_LT(l0, l1);
    EXPECT_LT(l1, l2);
}

/** Every switch of @p topo, pod by pod (TORs, then L1s), spine last. */
std::vector<net::Switch *>
allSwitches(net::Topology &topo)
{
    std::vector<net::Switch *> out;
    for (int p = 0; p < topo.numPods(); ++p) {
        for (int r = 0; r < topo.racksPerPod(); ++r)
            out.push_back(&topo.tor(p, r));
        for (int i = 0; i < topo.l1PerPod(); ++i)
            out.push_back(&topo.l1(p, i));
    }
    for (int i = 0; i < topo.numL2(); ++i)
        out.push_back(&topo.l2(i));
    return out;
}

/** A switch counter probe's leaf and the public accessor it mirrors. */
struct SwitchCounter {
    const char *leaf;
    std::uint64_t (net::Switch::*read)() const;
};

constexpr SwitchCounter kSwitchCounters[] = {
    {"forwarded", &net::Switch::packetsForwarded},
    {"dropped", &net::Switch::packetsDropped},
    {"ecn_marked", &net::Switch::packetsEcnMarked},
    {"pfc_frames", &net::Switch::pfcFramesSent},
    {"route_misses", &net::Switch::routeMisses},
    {"brownout_drops", &net::Switch::brownoutDrops},
};

/**
 * Eager `shadow.<name>.<leaf>` probes over @p sw's accessors, registered
 * when the switch is attached: the oracle its own late probes must match.
 */
void
registerShadowProbes(obs::MetricsRegistry &reg, const net::Switch &sw)
{
    for (const SwitchCounter &c : kSwitchCounters)
        reg.registerProbe(
            "shadow." + sw.name() + "." + c.leaf,
            [&sw, read = c.read] { return double((sw.*read)()); });
}

/**
 * Check that exactly the switches of @p switches that handled a packet
 * registered their 14 probes in @p reg, each counter probe reading its
 * accessor with the time average of its shadow. Returns how many did.
 */
int
checkSwitchProbes(const obs::MetricsRegistry &reg,
                  const std::vector<net::Switch *> &switches)
{
    int registered = 0;
    for (const net::Switch *sw : switches) {
        const std::string prefix = "switch." + sw->name();
        const bool handled =
            sw->packetsForwarded() + sw->packetsDropped() > 0;
        EXPECT_EQ(reg.children(prefix).size(), handled ? 14u : 0u)
            << sw->name();
        if (!handled)
            continue;
        ++registered;
        for (const SwitchCounter &c : kSwitchCounters) {
            const std::string path = prefix + "." + c.leaf;
            EXPECT_EQ(reg.probeValue(path), double((sw->*c.read)())) << path;
            EXPECT_EQ(reg.probeTimeAverage(path),
                      reg.probeTimeAverage("shadow." + sw->name() + "." +
                                           c.leaf))
                << path;
        }
    }
    return registered;
}

TEST(SwitchObservability, ProbesAppearAtFirstPacketAndMatchEagerShadows)
{
    EventQueue eq;  // before the hub: the registry cancels its sampler
    obs::Observability hub;
    net::TopologyConfig cfg;
    cfg.hostsPerRack = 3;
    cfg.racksPerPod = 2;
    cfg.l1PerPod = 2;
    cfg.pods = 3;
    cfg.l2Count = 2;
    net::Topology topo(eq, cfg);
    std::vector<std::unique_ptr<CollectorSink>> sinks;
    for (int i = 0; i < topo.numHosts(); ++i) {
        sinks.push_back(std::make_unique<CollectorSink>(eq));
        topo.attachHostDevice(i, sinks.back().get());
    }
    topo.attachObservability(&hub);
    const std::vector<net::Switch *> switches = allSwitches(topo);
    for (const net::Switch *sw : switches)
        registerShadowProbes(hub.registry, *sw);
    hub.registry.startSampling(eq, 1 * sim::kMicrosecond);
    eq.runUntil(5 * sim::kMicrosecond);
    EXPECT_TRUE(hub.registry.children("switch").empty());

    // A TOR whose first packet dies in a brown-out registers...
    net::Switch &brown = topo.tor(2, 1);
    brown.setBrownout(1.0, false);
    const int brownHost = topo.hostIndex(2, 1, 0);
    topo.hostTx(brownHost).send(
        makeUdp(topo.host(brownHost).addr, topo.host(0).addr, 200));
    // ...and so does a spine whose first packet has no route (pod 9
    // does not exist).
    topo.hostTx(0).send(makeUdp(topo.host(0).addr,
                                net::Topology::hostAddr(9, 0, 0), 200));
    eq.runUntil(10 * sim::kMicrosecond);
    EXPECT_EQ(brown.brownoutDrops(), 1u);
    EXPECT_EQ(hub.registry.probeValue("switch." + brown.name() +
                                      ".brownout_drops"),
              1.0);
    int spineMisses = 0;
    for (int i = 0; i < topo.numL2(); ++i) {
        const net::Switch &spine = topo.l2(i);
        if (spine.routeMisses() == 0)
            continue;
        ++spineMisses;
        EXPECT_EQ(spine.packetsForwarded(), 0u);
        EXPECT_EQ(hub.registry.probeValue("switch." + spine.name() +
                                          ".route_misses"),
                  1.0);
    }
    EXPECT_EQ(spineMisses, 1);

    // A lossless, ECN-capable incast on host 0 from pods 0 and 1 marks
    // and pauses; pod 2 stays idle apart from the browned-out packet.
    const int incastHosts = 2 * cfg.racksPerPod * cfg.hostsPerRack;
    for (int round = 0; round < 40; ++round) {
        for (int h = 1; h < incastHosts; ++h) {
            auto pkt = makeUdp(topo.host(h).addr, topo.host(0).addr, 1400,
                               net::kTcLossless);
            pkt->ecnCapable = true;
            topo.hostTx(h).send(pkt);
        }
    }
    eq.runUntil(2 * sim::kMillisecond);
    hub.registry.stopSampling();

    const net::Switch &dstTor = topo.tor(0, 0);
    EXPECT_GT(dstTor.packetsEcnMarked(), 0u);
    EXPECT_GT(dstTor.pfcFramesSent(), 0u);
    EXPECT_GT(hub.registry.probeTimeAverage("switch." + dstTor.name() +
                                            ".forwarded"),
              0.0);
    const int registered = checkSwitchProbes(hub.registry, switches);
    EXPECT_GT(registered, 2);
    // Pod 2's second TOR and both of its L1s never saw a packet.
    EXPECT_EQ(registered, static_cast<int>(switches.size()) - 3);
}

TEST(SwitchObservability, PodSwitchRegistersInItsShardFromTheWorkerThread)
{
    net::TopologyConfig cfg;
    cfg.hostsPerRack = 2;
    cfg.racksPerPod = 2;
    cfg.l1PerPod = 1;
    cfg.pods = 2;
    cfg.l2Count = 1;
    sim::ShardedEventQueue::Config qc;
    qc.partitions = cfg.pods + 1;  // one per pod plus the spine
    qc.threads = 2;
    sim::ShardedEventQueue sq(qc);
    obs::ShardedObservability so(qc.partitions);
    net::Topology topo(sq, cfg);
    std::vector<std::unique_ptr<CollectorSink>> sinks;
    for (int i = 0; i < topo.numHosts(); ++i) {
        const int pod = i / (cfg.racksPerPod * cfg.hostsPerRack);
        sinks.push_back(std::make_unique<CollectorSink>(sq.partition(pod)));
        topo.attachHostDevice(i, sinks.back().get());
    }
    topo.attachObservability(&so);
    // With two workers the coordinator runs partitions 0 and 2 and the
    // second worker runs partition 1: pod 1's switches register there.
    std::vector<net::Switch *> pod1;
    for (int r = 0; r < cfg.racksPerPod; ++r)
        pod1.push_back(&topo.tor(1, r));
    pod1.push_back(&topo.l1(1, 0));
    for (const net::Switch *sw : pod1)
        registerShadowProbes(so.shard(1).registry, *sw);
    so.startSampling(sq, 1 * sim::kMicrosecond);
    sq.runUntil(5 * sim::kMicrosecond);
    for (int s = 0; s < so.shardCount(); ++s)
        EXPECT_TRUE(so.shard(s).registry.children("switch").empty()) << s;

    // Cross-rack traffic inside pod 1 only.
    const int src = topo.hostIndex(1, 0, 0);
    const int dst = topo.hostIndex(1, 1, 1);
    for (int i = 0; i < 4; ++i)
        topo.hostTx(src).send(
            makeUdp(topo.host(src).addr, topo.host(dst).addr, 800));
    sq.runUntil(50 * sim::kMicrosecond);

    EXPECT_EQ(sinks[dst]->packets.size(), 4u);
    EXPECT_EQ(checkSwitchProbes(so.shard(1).registry, pod1), 3);
    EXPECT_TRUE(so.shard(0).registry.children("switch").empty());
    EXPECT_TRUE(so.shard(2).registry.children("switch").empty());
}

TEST(Nic, StampsSourceAddresses)
{
    EventQueue eq;
    Link link(eq, "l", 40.0, 1.0);
    net::Nic nic(eq, "nic0", net::MacAddr{0xAA}, net::Ipv4Addr{77});
    nic.setTxChannel(&link.aToB());
    link.attachA(&nic);
    CollectorSink far(eq);
    link.attachB(&far);

    auto pkt = net::makePacket();
    pkt->ipDst = {88};
    pkt->payloadBytes = 10;
    EXPECT_TRUE(nic.sendPacket(pkt));
    eq.runAll();
    ASSERT_EQ(far.packets.size(), 1u);
    EXPECT_EQ(far.packets[0]->ipSrc.value, 77u);
    EXPECT_EQ(far.packets[0]->ethSrc.value, 0xAAu);

    int received = 0;
    nic.setReceiveHandler([&](const PacketPtr &) { ++received; });
    link.bToA().send(makeUdp({88}, {77}, 10));
    eq.runAll();
    EXPECT_EQ(received, 1);
}

TEST(Packet, WireBytesIncludesOverheadsAndMinFrame)
{
    auto pkt = makeUdp({1}, {2}, 1);
    EXPECT_EQ(pkt->wireBytes(), 84u);  // padded to min frame + preamble/IFG
    auto big = makeUdp({1}, {2}, 1472);
    EXPECT_EQ(big->wireBytes(), 38u + 28u + 1472u);
}

TEST(Packet, FlowHashStableAndSpread)
{
    auto a = makeUdp({1}, {2}, 10);
    a->srcPort = 1000;
    auto b = makeUdp({1}, {2}, 10);
    b->srcPort = 1000;
    EXPECT_EQ(a->flowHash(), b->flowHash());
    b->srcPort = 1001;
    EXPECT_NE(a->flowHash(), b->flowHash());
}

TEST(PacketPool, RecyclesFreedBlocksThroughTheFreelist)
{
    // Warm the pool, then verify steady-state churn is served from the
    // freelist instead of the heap.
    { auto warm = net::makePacket(); }
    const auto before = net::packetPoolStats();
    for (int i = 0; i < 8; ++i) {
        auto pkt = net::makePacket();
        EXPECT_NE(pkt->id, 0u);
    }
    const auto after = net::packetPoolStats();
    EXPECT_GE(after.reusedAllocs, before.reusedAllocs + 8);
    EXPECT_EQ(after.freshAllocs, before.freshAllocs);
    EXPECT_GE(after.freeBlocks, 1u);
}

TEST(PacketPool, ReusedPacketsAreFreshlyConstructed)
{
    std::uint64_t firstId = 0;
    {
        auto pkt = net::makePacket();
        firstId = pkt->id;
        pkt->payloadBytes = 777;
        pkt->data.assign(64, 0xAB);
        pkt->ecnMarked = true;
    }
    auto pkt = net::makePacket();  // most likely the recycled block
    EXPECT_NE(pkt->id, firstId);
    EXPECT_EQ(pkt->payloadBytes, 0u);
    EXPECT_TRUE(pkt->data.empty());
    EXPECT_FALSE(pkt->ecnMarked);
}

}  // namespace
