/**
 * @file
 * Golden timing trace of the Elastic Router.
 *
 * Seeded, contended random traffic runs through one router (ErEndpoint
 * sinks and flit-recording sinks side by side, both credit policies,
 * 2-4 VCs, U-turns, a slow output, pipelines of 0-2 cycles) and through
 * ErNetwork rings and meshes, whose inter-router ErLinks take every flit.
 * Every flit hand-off (time, router, port, message id, flit index), every
 * tail delivery and every router statistic is folded into a digest that
 * is compared with a committed constant. The other router tests check
 * delivery and ordering; this one pins grant order and per-flit timing
 * under contention, so a rewrite of the arbiter must reproduce it exactly.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "router/elastic_router.hpp"
#include "router/er_network.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace ccsim;
using router::CreditPolicy;
using router::ElasticRouter;
using router::ErConfig;
using router::ErEndpoint;
using router::ErMessagePtr;
using router::Flit;
using sim::EventQueue;

/** FNV-1a over a stream of 64-bit words. */
class Digest
{
  public:
    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }
    template <typename... Ts>
    void record(Ts... vs)
    {
        (add(static_cast<std::uint64_t>(vs)), ...);
    }
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 14695981039346656037ull;
};

/** splitmix64: portable across standard libraries, unlike <random>'s
 * distributions. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : s(seed) {}
    std::uint64_t next()
    {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    int below(int n) { return static_cast<int>(next() % std::uint64_t(n)); }

  private:
    std::uint64_t s;
};

enum Tag : std::uint64_t { kHandoff = 1, kTail, kRouter, kPort };

/**
 * Records every flit it is handed, with the flit's index inside its
 * message, then forwards it to the endpoint behind it.
 */
class RecordingSink : public router::FlitSink
{
  public:
    RecordingSink(EventQueue &eq, Digest &d, int router, int port,
                  ErEndpoint &next)
        : queue(eq), digest(d), routerId(router), portId(port), ep(next)
    {
    }

    void acceptFlit(const Flit &flit) override
    {
        const std::uint64_t id = flit.msg->id;
        const int index = seen[id]++;
        digest.record(kHandoff, queue.now(), routerId, portId, id, index,
                      flit.bytes, static_cast<int>(flit.kind));
        if (flit.isTail())
            seen.erase(id);
        ep.acceptFlit(flit);
    }

  private:
    EventQueue &queue;
    Digest &digest;
    int routerId;
    int portId;
    ErEndpoint &ep;
    std::map<std::uint64_t, int> seen;
};

std::uint64_t
recordRouter(Digest &d, const ElasticRouter &er, obs::MetricsRegistry &reg,
             const std::string &node, int router_id)
{
    d.record(kRouter, router_id, er.flitsRouted(), er.messagesRouted(),
             er.busyCycles(), er.peakBufferedFlits());
    std::uint64_t stalls = 0;
    for (int p = 0; p < er.config().numPorts; ++p) {
        const std::string pp = "router." + node + ".port" +
                               std::to_string(p);
        const std::uint64_t port_stalls =
            reg.counter(pp + ".credit_stalls").get();
        d.record(kPort, router_id, p, reg.counter(pp + ".flits_in").get(),
                 reg.counter(pp + ".flits_out").get(), port_stalls);
        stalls += port_stalls;
    }
    return stalls;
}

/** Message size: mostly 1-10 flits, sometimes a long 47-flit wormhole. */
std::uint32_t
randomSize(Rng &rng)
{
    if (rng.below(8) == 0)
        return 1500;
    return 1 + static_cast<std::uint32_t>(rng.below(320));
}

/** Send time within @p span; a third land exactly on a clock edge. */
sim::TimePs
randomTime(Rng &rng, sim::TimePs span, sim::TimePs cycle)
{
    sim::TimePs t =
        static_cast<sim::TimePs>(rng.next() % std::uint64_t(span));
    if (rng.below(3) == 0)
        t = t / cycle * cycle;
    return t;
}

struct SingleCase {
    CreditPolicy policy;
    int numPorts;
    int numVcs;
    int pipelineCycles;
    int slowPort;
    int slowCyclesPerFlit;
    std::uint64_t seed;
};

struct Outcome {
    std::uint64_t digest = 0;
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    /** Endpoint credit stalls summed over all routers and ports. */
    std::uint64_t creditStalls = 0;
};

/**
 * One router with an ErEndpoint on every port. Even ports' outputs feed
 * their endpoint directly; odd ports' outputs pass through a
 * RecordingSink first. Port 0 is a hotspot and ~1 in 6 messages U-turns.
 */
Outcome
runSingleRouter(const SingleCase &c)
{
    EventQueue eq;
    obs::Observability o;
    Digest d;
    ErConfig cfg;
    cfg.numPorts = c.numPorts;
    cfg.numVcs = c.numVcs;
    cfg.pipelineCycles = c.pipelineCycles;
    cfg.policy = c.policy;
    cfg.perVcReservedFlits = 2;
    cfg.sharedPoolFlits = 6;
    cfg.staticPerVcFlits = 3;
    ElasticRouter er(eq, cfg);
    er.attachObservability(&o, "golden");
    er.setOutputCyclesPerFlit(c.slowPort, c.slowCyclesPerFlit);

    std::vector<std::unique_ptr<ErEndpoint>> eps;
    std::vector<std::unique_ptr<RecordingSink>> recorders;
    Outcome out;
    for (int p = 0; p < c.numPorts; ++p) {
        eps.push_back(std::make_unique<ErEndpoint>(eq, er, p, p));
        eps.back()->setMessageHandler([&, p](const ErMessagePtr &m) {
            d.record(kTail, eq.now(), 0, p, m->id, m->sizeBytes);
            ++out.delivered;
        });
        if (p % 2 == 0) {
            er.setOutputSink(p, eps.back().get());
        } else {
            recorders.push_back(
                std::make_unique<RecordingSink>(eq, d, 0, p, *eps.back()));
            er.setOutputSink(p, recorders.back().get());
        }
    }

    Rng rng(c.seed);
    const sim::TimePs cycle = sim::cyclePeriod(cfg.clockMhz);
    const int messages = 600;
    for (int i = 0; i < messages; ++i) {
        const int src = rng.below(c.numPorts);
        const int pick = rng.below(6);
        const int dst = pick == 0   ? src
                        : pick <= 2 ? 0
                                    : rng.below(c.numPorts);
        const int vc = rng.below(c.numVcs);
        const std::uint32_t size = randomSize(rng);
        eq.schedule(randomTime(rng, 4000 * cycle, cycle),
                    [&eps, src, dst, vc, size] {
                        eps[src]->sendMessage(dst, vc, size);
                    });
    }
    eq.runAll();
    out.sent = messages;
    out.creditStalls = recordRouter(d, er, o.registry, "golden", 0);
    out.digest = d.value();
    return out;
}

std::string
nodeName(int r)
{
    std::string name = "n";
    name += std::to_string(r);
    return name;
}

/** Random traffic among all endpoints of an ErNetwork. */
Outcome
runNetwork(router::ErNetwork &net, EventQueue &eq, std::uint64_t seed,
           int messages)
{
    obs::Observability o;
    Digest d;
    Outcome out;
    for (int r = 0; r < net.numRouters(); ++r)
        net.router(r).attachObservability(&o, nodeName(r));
    const int n = net.numEndpoints();
    for (int e = 0; e < n; ++e) {
        net.endpoint(e).setMessageHandler([&, e](const ErMessagePtr &m) {
            d.record(kTail, eq.now(), e, m->srcEndpoint, m->id,
                     m->sizeBytes, net.linkBacklog());
            ++out.delivered;
        });
    }
    const int vcs = net.router(0).config().numVcs;
    const sim::TimePs cycle =
        sim::cyclePeriod(net.router(0).config().clockMhz);
    Rng rng(seed);
    for (int i = 0; i < messages; ++i) {
        const int src = rng.below(n);
        const int dst = rng.below(4) == 0 ? n - 1 : rng.below(n);
        const int vc = rng.below(vcs);
        const std::uint32_t size = randomSize(rng);
        eq.schedule(randomTime(rng, 3000 * cycle, cycle),
                    [&net, src, dst, vc, size] {
                        net.endpoint(src).sendMessage(dst, vc, size);
                    });
    }
    eq.runAll();
    out.sent = messages;
    for (int r = 0; r < net.numRouters(); ++r)
        out.creditStalls +=
            recordRouter(d, net.router(r), o.registry, nodeName(r), r);
    // Detach before the registry goes out of scope.
    for (int r = 0; r < net.numRouters(); ++r)
        net.router(r).attachObservability(nullptr, nodeName(r));
    out.digest = d.value();
    return out;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

const SingleCase kSingleCases[] = {
    {CreditPolicy::kElastic, 4, 2, 2, 1, 3, 11},
    {CreditPolicy::kStatic, 4, 3, 2, 2, 4, 12},
    {CreditPolicy::kElastic, 5, 4, 1, 3, 2, 13},
    {CreditPolicy::kStatic, 3, 4, 0, 0, 3, 14},
    {CreditPolicy::kElastic, 6, 3, 0, 5, 5, 15},
};

const std::uint64_t kSingleDigests[] = {
    0x3c6b64015bdea199ull, 0xfa1b1d166da27d85ull, 0x755c5f0dc3e78feeull,
    0x12c33d9177116fb5ull, 0x1b2a14920ed766c7ull,
};

const std::uint64_t kRingDigest = 0xdb61fbfc2a39a802ull;
const std::uint64_t kMeshDigest = 0x237e3ddcad658475ull;

TEST(RouterGolden, SingleRouterTraceMatchesGolden)
{
    for (std::size_t i = 0; i < std::size(kSingleCases); ++i) {
        const Outcome o = runSingleRouter(kSingleCases[i]);
        EXPECT_EQ(o.delivered, o.sent) << "case " << i;
        EXPECT_GT(o.creditStalls, 0u) << "case " << i << " is uncontended";
        EXPECT_EQ(hex(o.digest), hex(kSingleDigests[i])) << "case " << i;
    }
}

TEST(RouterGolden, RingTraceMatchesGolden)
{
    EventQueue eq;
    ErConfig cfg;
    cfg.numVcs = 3;
    cfg.perVcReservedFlits = 2;
    cfg.sharedPoolFlits = 4;
    auto net = router::ErNetwork::ring(eq, 4, 2, cfg);
    const Outcome o = runNetwork(*net, eq, 21, 500);
    EXPECT_EQ(o.delivered, o.sent);
    EXPECT_GT(o.creditStalls, 0u);
    EXPECT_EQ(hex(o.digest), hex(kRingDigest));
}

TEST(RouterGolden, MeshTraceMatchesGolden)
{
    EventQueue eq;
    ErConfig cfg;
    cfg.numVcs = 2;
    cfg.policy = CreditPolicy::kStatic;
    cfg.staticPerVcFlits = 3;
    cfg.pipelineCycles = 1;
    auto net = router::ErNetwork::mesh(eq, 3, 2, 2, cfg);
    const Outcome o = runNetwork(*net, eq, 22, 500);
    EXPECT_EQ(o.delivered, o.sent);
    EXPECT_GT(o.creditStalls, 0u);
    EXPECT_EQ(hex(o.digest), hex(kMeshDigest));
}

}  // namespace
