#include "router/elastic_router.hpp"

#include <bit>

#include "sim/logging.hpp"

namespace ccsim::router {

ElasticRouter::ElasticRouter(sim::EventQueue &eq, ErConfig config)
    : queue(eq), cfg(std::move(config))
{
    if (cfg.numPorts < 1 || cfg.numVcs < 1 || cfg.flitBytes == 0)
        sim::fatal("ElasticRouter: invalid configuration");
    if (cfg.numPorts > kMaxSlots / cfg.numVcs)
        sim::fatalf(cfg.name, ": ", cfg.numPorts, " ports x ", cfg.numVcs,
                    " VCs exceed ", kMaxSlots, " (port, VC) slots");
    if (!(cfg.clockMhz > 0.0 && cfg.clockMhz <= 1e6))
        sim::fatalf(cfg.name, ": clockMhz ", cfg.clockMhz,
                    " outside (0, 1e6]");
    if (cfg.pipelineCycles < 0)
        sim::fatalf(cfg.name, ": pipelineCycles must be >= 0");
    if (cfg.policy == CreditPolicy::kStatic && cfg.staticPerVcFlits < 1)
        sim::fatalf(cfg.name, ": staticPerVcFlits must be >= 1");
    // ErEndpoint re-pumps only the VC whose credit came back, so a VC
    // with no reserved flit could wait forever for a shared credit that
    // another VC freed.
    if (cfg.policy == CreditPolicy::kElastic &&
        (cfg.perVcReservedFlits < 1 || cfg.sharedPoolFlits < 0))
        sim::fatalf(cfg.name, ": elastic credits need perVcReservedFlits "
                              ">= 1 and sharedPoolFlits >= 0");
    cyclePs = sim::cyclePeriod(cfg.clockMhz);
    routeFn = [](int dst) { return dst; };
    inputs.resize(cfg.numPorts);
    outputs.resize(cfg.numPorts);
    for (auto &in : inputs)
        in.vcs.resize(cfg.numVcs);
    for (auto &out : outputs)
        out.vcOwner.assign(cfg.numVcs, -1);
    numSlots = cfg.numPorts * cfg.numVcs;
    for (int in = 0; in < cfg.numPorts; ++in)
        slotInput.insert(slotInput.end(), cfg.numVcs, in);
    inputSlotBits = cfg.numVcs == kMaxSlots
                        ? ~SlotMask{0}
                        : (SlotMask{1} << cfg.numVcs) - 1;
}

void
ElasticRouter::setOutputSink(int port, FlitSink *sink)
{
    OutputPort &out = outputs.at(port);
    out.sink = sink;
    out.tailsOnly = sink != nullptr && sink->consumesTailsOnly();
}

void
ElasticRouter::setOutputCyclesPerFlit(int port, int cycles)
{
    if (cycles < 1)
        sim::fatal("ElasticRouter: cyclesPerFlit must be >= 1");
    outputs.at(port).cyclesPerFlit = cycles;
}

bool
ElasticRouter::canAccept(int port, int vc) const
{
    const InputPort &in = inputs.at(port);
    const int occupancy = static_cast<int>(in.vcs.at(vc).fifo.size());
    if (cfg.policy == CreditPolicy::kStatic)
        return occupancy < cfg.staticPerVcFlits;
    if (occupancy < cfg.perVcReservedFlits)
        return true;
    return in.sharedUsed < cfg.sharedPoolFlits;
}

void
ElasticRouter::injectFlit(int port, Flit flit)
{
    if (!canAccept(port, flit.vc))
        sim::panicf(cfg.name, ": injectFlit without credit (port ", port,
                    " vc ", flit.vc, ")");
    InputPort &in = inputs[port];
    const int vc = flit.vc;
    InputVc &ivc = in.vcs[vc];
    if (cfg.policy == CreditPolicy::kElastic &&
        static_cast<int>(ivc.fifo.size()) >= cfg.perVcReservedFlits) {
        ++in.sharedUsed;
    }
    const bool was_empty = ivc.fifo.empty();
    ivc.fifo.push_back(std::move(flit));
    if (was_empty) {
        const int slot = port * cfg.numVcs + vc;
        occupied |= SlotMask{1} << slot;
        // A credit-return callback may refill a FIFO mid-tick; outputs
        // not yet arbitrated this cycle must see the new head, as a full
        // rescan would.
        if (inTick)
            requestOutput(slot);
    }
    ++totalBuffered;
    statPeakBuffered = std::max(statPeakBuffered, totalBuffered);
    if (port < static_cast<int>(obsFlitsIn.size()) && obsFlitsIn[port])
        obsFlitsIn[port]->inc();
    scheduleTick();
}

void
ElasticRouter::setCreditReturnFn(int port, std::function<void(int)> fn)
{
    inputs.at(port).creditReturn = std::move(fn);
}

void
ElasticRouter::attachObservability(obs::Observability *o,
                                   const std::string &node)
{
    obsFlitsIn.assign(cfg.numPorts, nullptr);
    obsFlitsOut.assign(cfg.numPorts, nullptr);
    obsCreditStalls.assign(cfg.numPorts, nullptr);
    flowRec = o ? &o->flows : nullptr;
    obsHop = "router." + node;
    if (!o)
        return;
    const std::string prefix = "router." + node;
    auto &reg = o->registry;
    reg.registerProbe(prefix + ".flits_routed",
                      [this] { return double(statFlitsRouted); });
    reg.registerProbe(prefix + ".messages_routed",
                      [this] { return double(statTails); });
    reg.registerProbe(prefix + ".busy_cycles",
                      [this] { return double(statBusyCycles); });
    reg.registerProbe(prefix + ".buffered_flits",
                      [this] { return double(totalBuffered); });
    reg.registerProbe(prefix + ".peak_buffered_flits",
                      [this] { return double(statPeakBuffered); });
    for (int p = 0; p < cfg.numPorts; ++p) {
        const std::string pp = prefix + ".port" + std::to_string(p);
        obsFlitsIn[p] = &reg.counter(pp + ".flits_in");
        obsFlitsOut[p] = &reg.counter(pp + ".flits_out");
        obsCreditStalls[p] = &reg.counter(pp + ".credit_stalls");
    }
}

void
ElasticRouter::noteCreditStall(int port)
{
    if (port < static_cast<int>(obsCreditStalls.size()) &&
        obsCreditStalls[port])
        obsCreditStalls[port]->inc();
}

int
ElasticRouter::routeOf(const Flit &flit) const
{
    const int out = routeFn(flit.dstEndpoint);
    if (out < 0 || out >= cfg.numPorts)
        sim::panicf(cfg.name, ": route function returned bad port ", out,
                    " for endpoint ", flit.dstEndpoint);
    return out;
}

sim::TimePs
ElasticRouter::nextEdge() const
{
    return (queue.now() / cyclePs + 1) * cyclePs;
}

void
ElasticRouter::scheduleTick()
{
    if (tickScheduled)
        return;
    tickScheduled = true;
    if (inTick) {
        // tick() schedules or continues the next cycle when it ends; the
        // ticket keeps the FIFO position a tick scheduled here has.
        tickTicket = queue.takeTicket();
        return;
    }
    queue.schedule(nextEdge(), [this] { tick(); });
}

void
ElasticRouter::releaseCredit(int port, int vc)
{
    InputPort &in = inputs[port];
    InputVc &ivc = in.vcs[vc];
    if (cfg.policy == CreditPolicy::kElastic &&
        static_cast<int>(ivc.fifo.size()) >= cfg.perVcReservedFlits &&
        in.sharedUsed > 0) {
        // The departing flit frees a shared-pool credit (occupancy was
        // above the reservation before this dequeue completed).
        --in.sharedUsed;
    }
    if (in.creditReturn)
        in.creditReturn(vc);
}

void
ElasticRouter::requestOutput(int slot)
{
    const int in_idx = slotInput[slot];
    const InputVc &ivc = inputs[in_idx].vcs[slot - in_idx * cfg.numVcs];
    const Flit &head = ivc.fifo.front();
    // Route the head flit; body/tail follow the locked output.
    const int target = head.isHead() ? routeOf(head) : ivc.lockedOutput;
    if (target < 0)
        return;  // headless body flit: it can never be granted
    outputs[target].requests |= SlotMask{1} << slot;
    requestedOutputs |= std::uint64_t{1} << target;
}

int
ElasticRouter::arbitrate(int out_idx, SlotMask used, sim::TimePs now)
{
    OutputPort &out = outputs[out_idx];
    if (out.sink == nullptr || out.nextFree > now)
        return -1;
    // Round-robin over (input, vc) slots starting at the pointer: the
    // requesters at or above it first, then those below it.
    const SlotMask eligible = out.requests & ~used;
    const SlotMask upper = eligible & (~SlotMask{0} << out.rrPointer);
    for (SlotMask m : {upper, eligible & ~upper}) {
        for (; m != 0; m &= m - 1) {
            const int slot = std::countr_zero(m);
            const int in_idx = slotInput[slot];
            const int vc = slot - in_idx * cfg.numVcs;
            InputVc &ivc = inputs[in_idx].vcs[vc];
            // Wormhole VC ownership on the output.
            int &owner = out.vcOwner[vc];
            if (ivc.fifo.front().isHead()) {
                if (owner != -1 && owner != in_idx)
                    continue;  // VC busy with another message
                owner = in_idx;
                ivc.lockedOutput = out_idx;
            } else if (owner != in_idx) {
                sim::panicf(cfg.name, ": wormhole corruption on output ",
                            out_idx, " vc ", vc);
            }

            // Grant: move the flit.
            Flit flit = std::move(ivc.fifo.front());
            ivc.fifo.pop_front();
            if (ivc.fifo.empty())
                occupied &= ~(SlotMask{1} << slot);
            --totalBuffered;
            out.rrPointer = slot + 1 == numSlots ? 0 : slot + 1;
            out.nextFree = now + out.cyclesPerFlit * cyclePs;
            ++statFlitsRouted;
            if (out_idx < static_cast<int>(obsFlitsOut.size()) &&
                obsFlitsOut[out_idx])
                obsFlitsOut[out_idx]->inc();
            if (flit.isTail()) {
                ++statTails;
                owner = -1;
                ivc.lockedOutput = -1;
                if (flit.msg->trace.sampled && flowRec) {
                    // Whole crossbar traversal: injection through the
                    // pipeline to the output sink handoff.
                    flowRec->recordSpan(flit.msg->trace, obsHop,
                                        obs::Component::kCompute,
                                        flit.msg->createdAt,
                                        now + cfg.pipelineCycles * cyclePs);
                }
            }
            releaseCredit(in_idx, vc);
            if (flit.isTail() || !out.tailsOnly) {
                queue.scheduleAfter(cfg.pipelineCycles * cyclePs,
                                    [sink = out.sink, f = std::move(flit)] {
                                        sink->acceptFlit(f);
                                    });
            }
            return slot;
        }
    }
    return -1;
}

void
ElasticRouter::allocateCycle(sim::TimePs now)
{
    // Per-cycle separable allocation: each output grants at most one
    // input; each input sends at most one flit. Only outputs that some
    // head flit requests are visited, in ascending order; requests added
    // by mid-tick injections are picked up by the outputs after the
    // current one.
    for (SlotMask m = occupied; m != 0; m &= m - 1)
        requestOutput(std::countr_zero(m));
    SlotMask used = 0;  // slots of inputs that already sent this cycle
    for (int out_idx = 0; out_idx < cfg.numPorts; ++out_idx) {
        const std::uint64_t ahead = requestedOutputs >> out_idx;
        if (ahead == 0)
            break;
        out_idx += std::countr_zero(ahead);
        const int slot = arbitrate(out_idx, used, now);
        if (slot >= 0)
            used |= inputSlotBits << (slotInput[slot] * cfg.numVcs);
    }
    for (std::uint64_t m = requestedOutputs; m != 0; m &= m - 1)
        outputs[std::countr_zero(m)].requests = 0;
    requestedOutputs = 0;
}

void
ElasticRouter::tick()
{
    inTick = true;
    while (true) {
        tickScheduled = false;
        allocateCycle(queue.now());
        if (occupied != 0) {
            ++statBusyCycles;
            scheduleTick();
        }
        if (!tickScheduled)
            break;
        // The next cycle runs in place when the kernel proves nothing
        // else is due before its edge, else as an event at the ticket's
        // position: the same order either way.
        const sim::TimePs next = nextEdge();
        if (!queue.advanceIfIdle(next)) {
            queue.scheduleTicket(next, tickTicket, [this] { tick(); });
            break;
        }
    }
    inTick = false;
}

ErEndpoint::ErEndpoint(sim::EventQueue &eq, ElasticRouter &router, int p,
                       int endpoint_id)
    : queue(eq), er(router), port(p), id(endpoint_id)
{
    pending.resize(er.config().numVcs);
    er.setCreditReturnFn(port, [this](int vc) { pump(vc); });
}

std::size_t
ErEndpoint::backlogFlits() const
{
    std::size_t n = 0;
    for (const auto &q : pending)
        n += q.size();
    return n;
}

void
ErEndpoint::sendMessage(int dst_endpoint, int vc, std::uint32_t size_bytes,
                        std::shared_ptr<void> payload,
                        obs::TraceContext trace)
{
    auto msg = std::make_shared<ErMessage>();
    msg->dstEndpoint = dst_endpoint;
    msg->srcEndpoint = id;
    msg->vc = vc;
    msg->sizeBytes = size_bytes;
    msg->payload = std::move(payload);
    msg->createdAt = queue.now();
    msg->trace = trace;
    sendMessage(msg);
}

void
ErEndpoint::sendMessage(const ErMessagePtr &msg)
{
    if (msg->vc < 0 || msg->vc >= er.config().numVcs)
        sim::fatal("ErEndpoint: bad VC");
    if (msg->id == 0)
        msg->id = (static_cast<std::uint64_t>(id) << 40) | nextMsgId++;
    ++txMessages;
    segment(msg);
    pump(msg->vc);
}

void
ErEndpoint::segment(const ErMessagePtr &msg)
{
    const std::uint32_t flit_bytes = er.config().flitBytes;
    const std::uint32_t size = msg->sizeBytes == 0 ? 1 : msg->sizeBytes;
    const std::uint32_t nflits = (size + flit_bytes - 1) / flit_bytes;
    for (std::uint32_t i = 0; i < nflits; ++i) {
        Flit flit;
        flit.vc = msg->vc;
        flit.dstEndpoint = msg->dstEndpoint;
        flit.msg = msg;
        flit.bytes = std::min(flit_bytes, size - i * flit_bytes);
        if (nflits == 1) {
            flit.kind = FlitKind::kHeadTail;
        } else if (i == 0) {
            flit.kind = FlitKind::kHead;
        } else if (i == nflits - 1) {
            flit.kind = FlitKind::kTail;
        } else {
            flit.kind = FlitKind::kBody;
        }
        pending[msg->vc].push_back(std::move(flit));
    }
}

void
ErEndpoint::pump(int vc)
{
    auto &q = pending[vc];
    while (!q.empty() && er.canAccept(port, vc)) {
        er.injectFlit(port, std::move(q.front()));
        q.pop_front();
    }
    if (!q.empty())
        er.noteCreditStall(port);
}

void
ErEndpoint::acceptFlit(const Flit &flit)
{
    if (flit.isTail()) {
        ++rxMessages;
        if (handler)
            handler(flit.msg);
    }
}

}  // namespace ccsim::router
