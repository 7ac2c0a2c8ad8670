/**
 * @file
 * The discrete-event scheduler at the heart of ccsim.
 *
 * Events are closures scheduled at absolute simulated times. Ties are broken
 * by scheduling order (FIFO among same-time events), which makes simulations
 * fully deterministic.
 *
 * Two interchangeable backends implement the same contract:
 *
 *  - **TimerWheelQueue** (the default `EventQueue`) — a hierarchical
 *    timing wheel tuned for ccsim's bimodal delay distribution (sub-ns
 *    flit/link hops vs. multi-µs LTL retransmit timers): 8 levels of 64
 *    slots with 4.096 ns level-0 slots, a far-future overflow heap,
 *    freelist-pooled event records, inline small-buffer closures
 *    (sim::EventFn), and generation-counted handles giving O(1)
 *    cancel() that destroys the closure — and releases everything it
 *    captured — immediately.
 *
 *  - **BinaryHeapQueue** — the original binary-heap implementation, kept
 *    as the behavioural oracle for property tests and A/B determinism
 *    checks. Building with -DCCSIM_REFERENCE_QUEUE=1 aliases
 *    `EventQueue` to it so any experiment can be replayed on the
 *    reference kernel.
 *
 * Both backends execute events in exactly the same order ((time,
 * schedule-order) ascending) and report identical now()/size()
 * trajectories for identical schedule/cancel/run call sequences.
 *
 * A clocked component can continue its running event in place at its
 * next edge (advanceIfIdle) instead of scheduling it, when the kernel
 * proves no other event is due first. Only the wheel ever does; the
 * heap always refuses, so it stays the per-event oracle.
 */
#pragma once

#include <cstdint>
#include <queue>
#include <unordered_set>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/logging.hpp"
#include "sim/time.hpp"

namespace ccsim::sim {

/** Opaque handle to a scheduled event, usable for cancellation. */
using EventId = std::uint64_t;

/** Sentinel EventId meaning "no event". */
inline constexpr EventId kNoEvent = 0;

/** A reserved schedule position; see TimerWheelQueue::takeTicket(). */
using Ticket = std::uint64_t;

/**
 * A deterministic discrete-event queue backed by a hierarchical timing
 * wheel.
 *
 * Not thread-safe; a simulation runs on one thread (experiments fan out by
 * running independent simulations in separate processes or threads with
 * separate EventQueues).
 *
 * ## Microarchitecture
 *
 * Scheduled events live in a freelist-backed pool of fixed records
 * (absolute time, monotone sequence number for FIFO tie-break, a
 * generation counter, and the inline-SBO closure). The wheel itself
 * stores only 32-bit pool indices:
 *
 *  - 8 levels × 64 slots; level L slots are 2^(12+6L) ps wide, so level
 *    0 resolves 4.096 ns (sub-slot order is restored by sorting a slot
 *    on drain, which is cheap because slots are short at this width)
 *    and the wheel horizon is 64·2^54 ps ≈ 13 days of simulated time.
 *  - one 64-bit occupancy bitmap per level makes "next non-empty slot"
 *    a find-first-set, so sparse regions of simulated time are skipped
 *    in O(1) instead of slot-by-slot ticking.
 *  - events beyond the horizon (e.g. kTimeNever-style sentinels) go to
 *    a far-future overflow heap ordered by (time, seq) and migrate into
 *    the wheel when the horizon reaches them.
 *
 * cancel() checks the handle's generation against the pool record and,
 * when live, destroys the closure in place: O(1), no heap walk, and any
 * captured PacketPtr / connection state is released at cancel time
 * rather than when the tombstone is lazily popped. Dead records whose
 * index is still parked in a slot are reclaimed when the slot drains,
 * or by a bulk sweep when tombstones outnumber live events.
 */
class TimerWheelQueue
{
  public:
    TimerWheelQueue();
    TimerWheelQueue(const TimerWheelQueue &) = delete;
    TimerWheelQueue &operator=(const TimerWheelQueue &) = delete;
    ~TimerWheelQueue();

    /** Current simulated time. */
    TimePs now() const { return currentTime; }

    /**
     * Schedule @p fn to run at absolute time @p when.
     *
     * @pre when >= now() (events cannot be scheduled in the past).
     * @return A handle usable with cancel().
     */
    EventId schedule(TimePs when, EventFn fn);

    /** Schedule @p fn to run @p delay after the current time. */
    EventId scheduleAfter(TimePs delay, EventFn fn)
    {
        return schedule(currentTime + delay, std::move(fn));
    }

    /**
     * Reserve the FIFO position of an event whose time the running
     * event does not know yet. From here on the ticket counts as a live
     * event (size(), peakLiveEvents()), exactly as if it had been
     * scheduled now. Redeem it before the running event returns, with
     * scheduleTicket() or advanceIfIdle().
     */
    Ticket takeTicket()
    {
        notePeak(++liveCount);
        return nextSeq++;
    }

    /** Schedule @p fn at @p when in the FIFO position of @p ticket. */
    EventId scheduleTicket(TimePs when, Ticket ticket, EventFn fn);

    /**
     * Run the event a held ticket reserves in place: advance now() to
     * @p t and return true, provided a runUntil()/runAll() in progress
     * allows @p t and no live event is due at or before @p t. The
     * caller then carries on as that event, and the ticket is redeemed:
     * the event counts as executed (and in eventsInlined()), so every
     * counter but wheelOverflows() reads as if it had been scheduled at
     * @p t and dispatched.
     * Otherwise returns false and changes nothing observable; the
     * caller still holds the ticket. Never continues under step().
     *
     * @pre The running event holds a ticket from takeTicket(); t >= now().
     */
    bool advanceIfIdle(TimePs t);

    /**
     * Cancel a previously scheduled event.
     *
     * O(1). The closure (and everything it captured) is destroyed
     * immediately. Cancelling an already-fired or already-cancelled
     * event is a no-op.
     */
    void cancel(EventId id);

    /** True if no live events remain. */
    bool empty() const { return liveCount == 0; }

    /** Number of live (scheduled, uncancelled, unfired) events. */
    std::size_t size() const { return liveCount; }

    /**
     * Run the single next event.
     *
     * @return false if the queue was empty (time does not advance).
     */
    bool step();

    /**
     * Run events until simulated time exceeds @p limit or the queue drains.
     *
     * Events scheduled exactly at @p limit are executed. After returning,
     * now() == min(limit, time of last event) unless the queue drained
     * early, and is clamped up to @p limit so subsequent scheduling is
     * relative to the horizon.
     */
    void runUntil(TimePs limit);

    /** Run events for @p duration of simulated time from now(). */
    void runFor(TimePs duration) { runUntil(currentTime + duration); }

    /** Run until the queue is completely drained. */
    void runAll();

    /**
     * Timestamp of the next live event without executing it, or
     * kTimeNever if the queue is empty.
     *
     * Used by ShardedEventQueue to compute conservative sync windows.
     * Not const: positioning the wheel may cascade slots and reclaim
     * tombstones, but the observable (time, seq) order is unchanged.
     */
    TimePs nextEventTime();

    // --- kernel-health accounting (exported as sim.queue.* probes) ---

    /** Total number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executedCount; }
    /** Total number of events cancelled so far. */
    std::uint64_t eventsCancelled() const { return cancelledCount; }
    /** Events that were routed to the far-future overflow heap. */
    std::uint64_t wheelOverflows() const { return overflowCount; }
    /** Highest number of simultaneously live events seen. */
    std::size_t peakLiveEvents() const { return peakLive; }
    /**
     * Executed events that ran in place through advanceIfIdle() and so
     * never went through the wheel. A cost of the executor, not of the
     * simulation: it is not exported with the sim.queue.* probes.
     */
    std::uint64_t eventsInlined() const { return inlinedCount; }

  private:
    // Wheel geometry. Level L slots are 2^(kSlotShift0 + 6L) ps wide.
    static constexpr int kLevels = 8;
    static constexpr int kSlotBits = 6;
    static constexpr int kSlots = 1 << kSlotBits;           // 64
    static constexpr int kSlotShift0 = 12;                  // 4.096 ns
    static constexpr int shiftOf(int level)
    {
        return kSlotShift0 + kSlotBits * level;
    }

    enum class SlotState : std::uint8_t { kFree, kLive, kDead };

    /** A pooled event record; wheel cells hold 32-bit indices into it. */
    struct Record {
        TimePs when = 0;
        std::uint64_t seq = 0;   ///< schedule order, FIFO tie-break
        std::uint32_t gen = 0;   ///< bumped on reuse; validates handles
        SlotState state = SlotState::kFree;
        EventFn fn;
    };

    /** Overflow-heap key; kept tiny so sift operations stay cheap. */
    struct FarEvent {
        TimePs when;
        std::uint64_t seq;
        std::uint32_t idx;
    };
    struct FarLater {
        bool operator()(const FarEvent &a, const FarEvent &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::vector<Record> pool;
    std::vector<std::uint32_t> freeList;
    std::vector<std::uint32_t> cells[kLevels][kSlots];
    std::uint64_t occupied[kLevels] = {};  ///< bit s: cells[L][s] non-empty
    std::int64_t cursor[kLevels] = {};     ///< absolute slot number per level
    std::vector<FarEvent> overflow;        ///< min-heap by (when, seq)
    std::vector<std::uint32_t> cascadeScratch;  ///< cascade()'s moved cell

    /**
     * The slot currently being drained, as packed (when, seq, idx)
     * entries sorted by (when, seq). Packing the sort key next to the
     * index keeps the drain sort cache-local instead of chasing pool
     * records, and lets the common already-in-order slot skip the sort.
     */
    struct DueEntry {
        TimePs when;
        std::uint64_t seq;
        std::uint32_t idx;
    };
    std::vector<DueEntry> due;
    std::size_t duePos = 0;
    std::int64_t dueSlotAbs = -1;  ///< absolute level-0 slot of `due`, or -1

    TimePs currentTime = 0;
    /** How far advanceIfIdle() may move now(): the limit of the
     * runUntil()/runAll() in progress, or -1 (never) outside them, so
     * one step() runs one event. */
    TimePs inlineLimit = -1;
    /** No live event is due before this time: set by idleThrough(),
     * lowered by every schedule, so a chain of in-place edges re-proves
     * idleness only when it reaches it. */
    TimePs quietUntil = 0;
    std::uint64_t nextSeq = 1;
    std::size_t liveCount = 0;
    std::size_t peakLive = 0;
    std::size_t deadParked = 0;  ///< cancelled records still parked in cells
    std::uint64_t executedCount = 0;
    std::uint64_t inlinedCount = 0;
    std::uint64_t cancelledCount = 0;
    std::uint64_t overflowCount = 0;

    static constexpr std::uint32_t kInvalidRecord = 0xffffffffu;

    void notePeak(std::size_t live)
    {
        if (live > peakLive)
            peakLive = live;
    }
    std::uint32_t allocRecord(TimePs when, std::uint64_t seq, EventFn &&fn);
    EventId handleOf(std::uint32_t idx) const
    {
        return (static_cast<EventId>(pool[idx].gen) << 32) |
               static_cast<EventId>(idx + 1);
    }
    void freeRecord(std::uint32_t idx);
    /** Park @p idx in the wheel, or return false if beyond the horizon. */
    bool placeInWheel(std::uint32_t idx, TimePs when);
    /** Move @p level's cursor to absolute slot @p base if every occupied
     * slot of the level lies in [base, base + kSlots). */
    void slideCursor(int level, std::int64_t base);
    /** Park @p idx at @p level if @p when falls in its cursor window. */
    bool parkAt(int level, std::uint32_t idx, TimePs when);
    /** Park @p idx in the overflow heap. */
    void parkFar(std::uint32_t idx);
    void place(std::uint32_t idx, TimePs when);
    /** First occupied absolute slot at @p level. @pre level non-empty. */
    std::int64_t nextOccupiedSlot(int level);
    /**
     * The occupied slot with the earliest start across all levels (on
     * equal starts the highest level, whose slot must cascade before
     * the finer one drains). Returns its level, or -1 if the wheel is
     * empty.
     */
    int earliestSlot(std::int64_t &slot, TimePs &start);
    /** Pop cancelled records off the overflow heap's top. */
    void pruneOverflowTop();
    /** Move one higher-level slot's events down. */
    void cascade(int level, std::int64_t slotAbs);
    /** Move level-0 slot @p slotAbs into the due buffer. */
    void drainSlot(std::int64_t slotAbs);
    /** Append new same-slot arrivals to `due` and restore sort order. */
    void mergeDueArrivals();
    /** Drop executed/dead prefix; true if a live due event is ready. */
    bool dueFrontLive();
    enum class Next { kNone, kDue, kOverflow };
    /** Position the structures so the globally next event is readable. */
    Next ensureNext();
    /** Detach and return the next event's record, or kInvalidRecord. */
    std::uint32_t takeNext();
    /** Return unconsumed due-buffer events to the wheel (for runUntil). */
    void unloadDue();
    /**
     * True if no live event is due at or before @p t; then also raises
     * quietUntil to the earliest time anything could be due. Cascades
     * and reclaims tombstones on the way, as ensureNext() would, but
     * never commits a slot to the due buffer.
     */
    bool idleThrough(TimePs t);
    /** True if no level-0 cell is occupied from the cursor up to, not
     * including, absolute slot @p slot. */
    bool level0ClearBefore(std::int64_t slot) const;
    /** Run the detached record @p idx as the current event. */
    void dispatch(std::uint32_t idx);
    void maybeSweep();
};

/**
 * The original binary-heap + tombstone-set event queue, kept as the
 * reference oracle. Closures stay resident until lazily reclaimed at pop
 * time (the retention the wheel backend fixes); ordering and time
 * semantics are the contract both backends share.
 */
class BinaryHeapQueue
{
  public:
    BinaryHeapQueue() = default;
    BinaryHeapQueue(const BinaryHeapQueue &) = delete;
    BinaryHeapQueue &operator=(const BinaryHeapQueue &) = delete;

    /** Current simulated time. */
    TimePs now() const { return currentTime; }

    /** Schedule @p fn to run at absolute time @p when. */
    EventId schedule(TimePs when, EventFn fn);

    /** Schedule @p fn to run @p delay after the current time. */
    EventId scheduleAfter(TimePs delay, EventFn fn)
    {
        return schedule(currentTime + delay, std::move(fn));
    }

    /** Reserve a FIFO position (see TimerWheelQueue::takeTicket()). */
    Ticket takeTicket()
    {
        ++ticketsHeld;
        notePeak();
        return nextId++;
    }

    /** Schedule @p fn at @p when in the FIFO position of @p ticket. */
    EventId scheduleTicket(TimePs when, Ticket ticket, EventFn fn);

    /** Always false: the reference backend dispatches every event. */
    bool advanceIfIdle(TimePs) { return false; }

    /** Cancel a previously scheduled event (tombstone; lazy reclaim). */
    void cancel(EventId id);

    /** True if no live events remain. */
    bool empty() const { return size() == 0; }

    /** Number of live (scheduled, uncancelled, unfired) events. */
    std::size_t size() const { return liveIds.size() + ticketsHeld; }

    /** Run the single next event; false if the queue was empty. */
    bool step();

    /** Run events until simulated time exceeds @p limit (see wheel doc). */
    void runUntil(TimePs limit);

    /** Run events for @p duration of simulated time from now(). */
    void runFor(TimePs duration) { runUntil(currentTime + duration); }

    /** Run until the queue is completely drained. */
    void runAll();

    /** Next live event's timestamp, or kTimeNever (see wheel doc). */
    TimePs nextEventTime();

    /** Total number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executedCount; }
    /** Total number of events cancelled so far. */
    std::uint64_t eventsCancelled() const { return cancelledCount; }
    /** Always 0: the reference backend has no wheel. */
    std::uint64_t wheelOverflows() const { return 0; }
    /** Highest number of simultaneously live events seen. */
    std::size_t peakLiveEvents() const { return peakLive; }
    /** Always 0: see advanceIfIdle(). */
    std::uint64_t eventsInlined() const { return 0; }

  private:
    struct Entry {
        TimePs when;
        EventId id;
        EventFn fn;
    };
    struct Later {
        bool operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.id > b.id;  // FIFO among equal-time events
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> heap;
    std::unordered_set<EventId> liveIds;
    std::size_t ticketsHeld = 0;  ///< taken, not yet scheduled
    TimePs currentTime = 0;
    EventId nextId = 1;
    std::uint64_t executedCount = 0;
    std::uint64_t cancelledCount = 0;
    std::size_t peakLive = 0;

    void notePeak()
    {
        if (size() > peakLive)
            peakLive = size();
    }
    /** Pop the next live entry, skipping tombstones. Returns false if empty. */
    bool popLive(Entry &out);
};

#ifdef CCSIM_REFERENCE_QUEUE
using EventQueue = BinaryHeapQueue;
#else
using EventQueue = TimerWheelQueue;
#endif

}  // namespace ccsim::sim
