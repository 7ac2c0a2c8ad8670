/**
 * @file
 * The Elastic Router (ER): an on-chip, input-buffered crossbar switch with
 * virtual channels and credit-based flow control (Section V-B).
 *
 * Faithful properties from the paper:
 *  - input-buffered crossbar, multiple VCs virtualizing each physical link;
 *  - credit-based flow control, one credit per flit;
 *  - the *elastic* buffer policy: instead of a static number of flits per
 *    VC, a pool of credits is shared among VCs (with a small per-VC
 *    reservation to avoid starvation), reducing aggregate buffering;
 *  - U-turns supported (any port may route to any port including itself);
 *  - fully parameterizable in ports, VCs, flit size, buffer capacities;
 *  - composable into larger on-chip topologies (ring, mesh) by connecting
 *    router ports with credit-tracked inter-router links.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "router/flit.hpp"
#include "sim/event_queue.hpp"
#include "sim/fifo.hpp"
#include "sim/time.hpp"

namespace ccsim::router {

/** Buffer management policy (the paper's design choice vs the baseline). */
enum class CreditPolicy {
    kElastic,  ///< small per-VC reservation + shared pool (the ER design)
    kStatic,   ///< fixed flits per VC (conventional router baseline)
};

/** Static configuration of one Elastic Router. */
struct ErConfig {
    std::string name = "er";
    int numPorts = 4;
    int numVcs = 2;
    /** Flit (phit) size in bytes; 32 B = 256 b datapath. */
    std::uint32_t flitBytes = 32;
    /** Router clock; the production shell runs the ER at 175 MHz. */
    double clockMhz = 175.0;
    /** Crossbar pipeline latency in cycles (input deq to output handoff). */
    int pipelineCycles = 2;

    CreditPolicy policy = CreditPolicy::kElastic;
    /** Elastic policy: guaranteed flits per VC (at least 1). */
    int perVcReservedFlits = 4;
    /** Elastic policy: extra flits shared across VCs of one input port. */
    int sharedPoolFlits = 56;
    /** Static policy: fixed flits per VC. */
    int staticPerVcFlits = 32;
};

/**
 * An Elastic Router instance.
 *
 * Endpoints inject flits through injectFlit() after checking canAccept()
 * (the zero-latency stand-in for the RTL credit wires) and may register a
 * credit-return callback to be woken when space frees up.
 */
class ElasticRouter
{
  public:
    /** Most (input port, VC) pairs one router supports: the arbiter
     * keeps one bit per pair in a 64-bit mask. */
    static constexpr int kMaxSlots = 64;

    /**
     * Fatal if @p cfg cannot work: no ports or VCs, more than kMaxSlots
     * (port, VC) pairs, a zero flit size, a clock outside (0, 1e6] MHz
     * (faster clocks truncate to a zero-ps cycle), a negative pipeline,
     * a static budget below one flit per VC, or an elastic budget with
     * no reserved flit per VC or a negative shared pool.
     */
    ElasticRouter(sim::EventQueue &eq, ErConfig cfg);

    /**
     * Set the routing function: maps a destination endpoint id to the
     * output port of *this* router. Defaults to identity (endpoint id ==
     * local port), which is correct for a single-router shell.
     */
    void setRouteFn(std::function<int(int dst_endpoint)> fn)
    {
        routeFn = std::move(fn);
    }

    /**
     * Attach the consumer of output port @p port. A sink whose
     * consumesTailsOnly() is true is handed tail flits only.
     */
    void setOutputSink(int port, FlitSink *sink);

    /**
     * Limit the rate at which output @p port drains (flits/cycle <= 1 is
     * implicit; this adds extra cycles between flits, modelling a slower
     * endpoint such as the DRAM controller).
     */
    void setOutputCyclesPerFlit(int port, int cycles);

    /** True if input @p port / @p vc has a credit for one more flit. */
    bool canAccept(int port, int vc) const;

    /**
     * Inject a flit into input @p port.
     *
     * @pre canAccept(port, flit.vc). Violations panic: the endpoint did
     *      not respect credit flow control.
     */
    void injectFlit(int port, Flit flit);

    /**
     * Register a callback fired whenever a credit frees at @p port
     * (endpoint uses it to resume a stalled injection queue).
     */
    void setCreditReturnFn(int port, std::function<void(int vc)> fn);

    const ErConfig &config() const { return cfg; }

    /**
     * Export statistics under `router.<node>.*`: probes for the aggregate
     * stats plus per-port counters `router.<node>.port<p>.flits_in`,
     * `.flits_out` and `.credit_stalls`. Pass nullptr to detach.
     */
    void attachObservability(obs::Observability *o, const std::string &node);

    /**
     * Record that an endpoint on @p port had flits queued but no credit
     * (called by ErEndpoint::pump; a no-op unless observability is
     * attached).
     */
    void noteCreditStall(int port);

    // --- statistics ---
    std::uint64_t flitsRouted() const { return statFlitsRouted; }
    std::uint64_t messagesRouted() const { return statTails; }
    /** Cycles during which the router had buffered flits (activity). */
    std::uint64_t busyCycles() const { return statBusyCycles; }
    /** Peak total buffered flits across all inputs (sizing metric). */
    int peakBufferedFlits() const { return statPeakBuffered; }

  private:
    struct InputVc {
        sim::Fifo<Flit> fifo;
        /** Output port locked by the in-flight message, or -1. */
        int lockedOutput = -1;
    };
    struct InputPort {
        std::vector<InputVc> vcs;
        int sharedUsed = 0;  ///< flits drawn from the shared pool
        std::function<void(int)> creditReturn;
    };
    /** One bit per (input, VC) slot; slot = input * numVcs + vc. */
    using SlotMask = std::uint64_t;

    struct OutputPort {
        FlitSink *sink = nullptr;
        bool tailsOnly = false;  ///< sink->consumesTailsOnly(), cached
        int cyclesPerFlit = 1;
        sim::TimePs nextFree = 0;  ///< earliest next flit departure time
        /** Which input owns each VC of this output (wormhole), or -1. */
        std::vector<int> vcOwner;
        int rrPointer = 0;  ///< round-robin arbitration state
        /** Slots whose head flit requests this output (in a tick). */
        SlotMask requests = 0;
    };

    sim::EventQueue &queue;
    ErConfig cfg;
    sim::TimePs cyclePs;
    std::function<int(int)> routeFn;
    std::vector<InputPort> inputs;
    std::vector<OutputPort> outputs;
    /** A tick is pending: scheduled, or reserved by tickTicket while
     * tick() runs. */
    bool tickScheduled = false;
    bool inTick = false;
    /** Queue position of the next tick, taken while tick() runs. */
    sim::Ticket tickTicket = 0;
    int numSlots = 0;
    /** Slot -> input port (avoids a division per slot). */
    std::vector<int> slotInput;
    /** Bits of input 0's slots; input i's are this << (i * numVcs). */
    SlotMask inputSlotBits = 0;
    /** Slots with a non-empty FIFO. */
    SlotMask occupied = 0;
    /** Outputs with a bit set in their `requests` (in a tick). */
    std::uint64_t requestedOutputs = 0;

    /** Registry-owned per-port counters (null when not attached). */
    std::vector<sim::Counter *> obsFlitsIn;
    std::vector<sim::Counter *> obsFlitsOut;
    std::vector<sim::Counter *> obsCreditStalls;
    obs::FlightRecorder *flowRec = nullptr;
    std::string obsHop;  ///< "router.<node>"

    std::uint64_t statFlitsRouted = 0;
    std::uint64_t statTails = 0;
    std::uint64_t statBusyCycles = 0;
    int statPeakBuffered = 0;
    int totalBuffered = 0;

    /** The first clock edge after now(). */
    sim::TimePs nextEdge() const;
    void scheduleTick();
    /** Run router cycles, in place while the kernel allows it. */
    void tick();
    /** One cycle's separable allocation at clock edge @p now. */
    void allocateCycle(sim::TimePs now);
    /** Resolve the head flit of @p slot to the output it requests. */
    void requestOutput(int slot);
    /** Grant output @p out_idx to the first eligible requester in
     * round-robin order; returns the granted slot or -1. */
    int arbitrate(int out_idx, SlotMask used, sim::TimePs now);
    void releaseCredit(int port, int vc);
    int routeOf(const Flit &flit) const;
};

/**
 * Helper modelling one endpoint attached to an ER port: segments messages
 * into flits, respects credits (queueing when stalled), reassembles
 * arriving messages, and hands them to a handler.
 */
class ErEndpoint : public FlitSink
{
  public:
    /**
     * @param eq        Event queue.
     * @param router    The ER this endpoint attaches to.
     * @param port      Port index on @p router.
     * @param endpoint_id Global endpoint id used for routing.
     */
    ErEndpoint(sim::EventQueue &eq, ElasticRouter &router, int port,
               int endpoint_id);

    /** Handler invoked when a complete message arrives. */
    void setMessageHandler(std::function<void(const ErMessagePtr &)> h)
    {
        handler = std::move(h);
    }

    /**
     * Send a message (asynchronously segmented and injected under credit
     * flow control). @p trace tags the message with an existing flow
     * context for span recording across the crossbar.
     */
    void sendMessage(int dst_endpoint, int vc, std::uint32_t size_bytes,
                     std::shared_ptr<void> payload = nullptr,
                     obs::TraceContext trace = {});

    /** Send a pre-built message. */
    void sendMessage(const ErMessagePtr &msg);

    void acceptFlit(const Flit &flit) override;
    /** Only tails matter: they deliver the reassembled message. */
    bool consumesTailsOnly() const override { return true; }

    int endpointId() const { return id; }
    int portIndex() const { return port; }

    std::uint64_t messagesSent() const { return txMessages; }
    std::uint64_t messagesReceived() const { return rxMessages; }
    /** Flits waiting for credits across all VCs. */
    std::size_t backlogFlits() const;

  private:
    sim::EventQueue &queue;
    ElasticRouter &er;
    int port;
    int id;
    std::function<void(const ErMessagePtr &)> handler;

    /** Pending (already segmented) flits awaiting credits, FIFO per VC. */
    std::vector<sim::Fifo<Flit>> pending;
    std::uint64_t txMessages = 0;
    std::uint64_t rxMessages = 0;
    std::uint64_t nextMsgId = 1;

    void pump(int vc);
    void segment(const ErMessagePtr &msg);
};

}  // namespace ccsim::router
