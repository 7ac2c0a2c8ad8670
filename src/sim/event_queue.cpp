#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>

namespace ccsim::sim {

namespace {

/** Rotate-right that tolerates r == 0. */
inline std::uint64_t
ror64(std::uint64_t b, unsigned r)
{
    return r == 0 ? b : (b >> r) | (b << (64u - r));
}

}  // namespace

// ---------------------------------------------------------------------------
// TimerWheelQueue
// ---------------------------------------------------------------------------

TimerWheelQueue::TimerWheelQueue()
{
    pool.reserve(256);
    freeList.reserve(256);
    due.reserve(64);
}

TimerWheelQueue::~TimerWheelQueue() = default;

std::uint32_t
TimerWheelQueue::allocRecord(TimePs when, std::uint64_t seq, EventFn &&fn)
{
    std::uint32_t idx;
    if (!freeList.empty()) {
        idx = freeList.back();
        freeList.pop_back();
    } else {
        idx = static_cast<std::uint32_t>(pool.size());
        pool.emplace_back();
    }
    Record &r = pool[idx];
    r.when = when;
    r.seq = seq;
    r.state = SlotState::kLive;
    r.fn = std::move(fn);
    return idx;
}

void
TimerWheelQueue::freeRecord(std::uint32_t idx)
{
    Record &r = pool[idx];
    r.fn.reset();
    r.state = SlotState::kFree;
    ++r.gen;
    freeList.push_back(idx);
}

void
TimerWheelQueue::slideCursor(int level, std::int64_t base)
{
    if (occupied[level] != 0) {
        const std::uint64_t rot =
            ror64(occupied[level],
                  static_cast<unsigned>(cursor[level] & (kSlots - 1)));
        const std::int64_t lo = cursor[level] + std::countr_zero(rot);
        const std::int64_t hi =
            cursor[level] + (kSlots - 1) - std::countl_zero(rot);
        if (lo < base || hi >= base + kSlots)
            return;
    }
    cursor[level] = base;
}

bool
TimerWheelQueue::parkAt(int level, std::uint32_t idx, TimePs when)
{
    const std::int64_t slot = when >> shiftOf(level);
    const std::int64_t d = slot - cursor[level];
    if (d < 0 || d >= kSlots)
        return false;
    cells[level][slot & (kSlots - 1)].push_back(idx);
    occupied[level] |= std::uint64_t{1} << (slot & (kSlots - 1));
    return true;
}

bool
TimerWheelQueue::placeInWheel(std::uint32_t idx, TimePs when)
{
    for (int level = 0; level < kLevels; ++level) {
        const int sh = shiftOf(level);
        // A cursor may sit ahead of now() (a cascade looked ahead) or
        // behind it (an empty level went stale). Move it to now()'s
        // slot when the event would miss the window otherwise, as long
        // as every occupied slot still fits. Level 0 stays at a
        // committed due slot: arrivals before it would bypass the due
        // buffer's ordering.
        std::int64_t base = currentTime >> sh;
        if (level == 0 && dueSlotAbs > base)
            base = dueSlotAbs;
        if ((when >> sh) < cursor[level] ||
            (occupied[level] == 0 && cursor[level] < base))
            slideCursor(level, base);
        if (parkAt(level, idx, when))
            return true;
    }
    return false;
}

void
TimerWheelQueue::parkFar(std::uint32_t idx)
{
    overflow.push_back(FarEvent{pool[idx].when, pool[idx].seq, idx});
    std::push_heap(overflow.begin(), overflow.end(), FarLater{});
    ++overflowCount;
}

void
TimerWheelQueue::place(std::uint32_t idx, TimePs when)
{
    if (!placeInWheel(idx, when))
        parkFar(idx);
}

std::int64_t
TimerWheelQueue::nextOccupiedSlot(int level)
{
    const std::uint64_t rot =
        ror64(occupied[level],
              static_cast<unsigned>(cursor[level] & (kSlots - 1)));
    return cursor[level] + std::countr_zero(rot);
}

int
TimerWheelQueue::earliestSlot(std::int64_t &slot, TimePs &start)
{
    int minLevel = -1;
    for (int level = 0; level < kLevels; ++level) {
        if (occupied[level] == 0)
            continue;
        const std::int64_t s = nextOccupiedSlot(level);
        const TimePs st = static_cast<TimePs>(s) << shiftOf(level);
        if (minLevel < 0 || st <= start) {
            minLevel = level;
            slot = s;
            start = st;
        }
    }
    return minLevel;
}

void
TimerWheelQueue::pruneOverflowTop()
{
    while (!overflow.empty() &&
           pool[overflow.front().idx].state == SlotState::kDead) {
        const std::uint32_t dead = overflow.front().idx;
        std::pop_heap(overflow.begin(), overflow.end(), FarLater{});
        overflow.pop_back();
        freeRecord(dead);
        --deadParked;
    }
}

void
TimerWheelQueue::cascade(int level, std::int64_t slotAbs)
{
    // Re-parking never cascades, so one scratch vector serves every call.
    cascadeScratch.swap(cells[level][slotAbs & (kSlots - 1)]);
    occupied[level] &= ~(std::uint64_t{1} << (slotAbs & (kSlots - 1)));

    const TimePs slotStart = static_cast<TimePs>(slotAbs)
                             << shiftOf(level);
    // S is the global minimum slot start across all levels, so no
    // occupied cell below `level` starts before it: moving lower-level
    // cursors to it (where their occupied slots allow) lets the moved
    // events fit a lower level on the common path.
    for (int l = 0; l < level; ++l)
        slideCursor(l, std::max(slotStart, currentTime) >> shiftOf(l));
    for (std::uint32_t idx : cascadeScratch) {
        Record &r = pool[idx];
        if (r.state == SlotState::kDead) {
            freeRecord(idx);
            --deadParked;
            continue;
        }
        // Re-park strictly below `level` (re-parking at the same level
        // would loop). A miss falls through to the overflow heap, which
        // the take path orders correctly.
        bool placed = false;
        for (int l = 0; l < level && !placed; ++l)
            placed = parkAt(l, idx, r.when);
        if (!placed)
            parkFar(idx);
    }
    cascadeScratch.clear();
}

void
TimerWheelQueue::drainSlot(std::int64_t slotAbs)
{
    auto &cell = cells[0][slotAbs & (kSlots - 1)];
    due.clear();
    duePos = 0;
    bool sorted = true;
    for (std::uint32_t idx : cell) {
        const Record &r = pool[idx];
        if (r.state == SlotState::kDead) {
            freeRecord(idx);
            --deadParked;
            continue;
        }
        if (!due.empty()) {
            const DueEntry &prev = due.back();
            if (r.when < prev.when ||
                (r.when == prev.when && r.seq < prev.seq))
                sorted = false;
        }
        due.push_back(DueEntry{r.when, r.seq, idx});
    }
    cell.clear();
    occupied[0] &= ~(std::uint64_t{1} << (slotAbs & (kSlots - 1)));
    // Advancing to the first occupied slot never orphans cells, and it
    // lets same-slot arrivals during the drain land back in this cell.
    if (cursor[0] < slotAbs)
        cursor[0] = slotAbs;
    dueSlotAbs = slotAbs;
    // Slots fill in schedule order, which for the common in-time-order
    // workload is already (when, seq) sorted: skip the sort then.
    if (!sorted)
        std::sort(due.begin(), due.end(),
                  [](const DueEntry &a, const DueEntry &b) {
                      if (a.when != b.when)
                          return a.when < b.when;
                      return a.seq < b.seq;
                  });
}

void
TimerWheelQueue::mergeDueArrivals()
{
    auto &cell = cells[0][dueSlotAbs & (kSlots - 1)];
    if (cell.empty())
        return;
    due.erase(due.begin(), due.begin() + static_cast<std::ptrdiff_t>(duePos));
    duePos = 0;
    for (std::uint32_t idx : cell) {
        const Record &r = pool[idx];
        if (r.state == SlotState::kDead) {
            freeRecord(idx);
            --deadParked;
        } else {
            due.push_back(DueEntry{r.when, r.seq, idx});
        }
    }
    cell.clear();
    occupied[0] &= ~(std::uint64_t{1} << (dueSlotAbs & (kSlots - 1)));
    std::sort(due.begin(), due.end(),
              [](const DueEntry &a, const DueEntry &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  return a.seq < b.seq;
              });
}

bool
TimerWheelQueue::dueFrontLive()
{
    while (duePos < due.size()) {
        const std::uint32_t idx = due[duePos].idx;
        if (pool[idx].state != SlotState::kDead)
            return true;
        freeRecord(idx);
        --deadParked;
        ++duePos;
    }
    due.clear();
    duePos = 0;
    dueSlotAbs = -1;
    return false;
}

TimerWheelQueue::Next
TimerWheelQueue::ensureNext()
{
    while (true) {
        // Fast path: the committed slot's due buffer holds the global
        // minimum (cascades ran before it was drained; later arrivals
        // for the same slot merge in; anything else is strictly later),
        // except for events parked in the far-future overflow heap.
        if (dueSlotAbs >= 0) {
            mergeDueArrivals();
            if (dueFrontLive()) {
                pruneOverflowTop();
                if (!overflow.empty()) {
                    const DueEntry &front = due[duePos];
                    const FarEvent &top = overflow.front();
                    if (top.when < front.when ||
                        (top.when == front.when && top.seq < front.seq))
                        return Next::kOverflow;
                }
                return Next::kDue;
            }
        }

        // Prune cancelled overflow tops so the comparisons below see a
        // live candidate.
        pruneOverflowTop();

        std::int64_t minSlot = 0;
        TimePs minStart = 0;
        const int minLevel = earliestSlot(minSlot, minStart);
        if (minLevel < 0) {
            // Wheel empty: the overflow heap alone orders what is left.
            return overflow.empty() ? Next::kNone : Next::kOverflow;
        }
        if (!overflow.empty() && overflow.front().when < minStart)
            return Next::kOverflow;

        if (minLevel == 0)
            drainSlot(minSlot);
        else
            cascade(minLevel, minSlot);
    }
}

std::uint32_t
TimerWheelQueue::takeNext()
{
    const Next src = ensureNext();
    if (src == Next::kNone)
        return kInvalidRecord;
    if (src == Next::kOverflow) {
        const std::uint32_t idx = overflow.front().idx;
        std::pop_heap(overflow.begin(), overflow.end(), FarLater{});
        overflow.pop_back();
        return idx;
    }
    return due[duePos++].idx;
}

void
TimerWheelQueue::unloadDue()
{
    if (dueSlotAbs < 0)
        return;
    for (std::size_t i = duePos; i < due.size(); ++i) {
        const std::uint32_t idx = due[i].idx;
        if (pool[idx].state == SlotState::kDead) {
            freeRecord(idx);
            --deadParked;
        } else {
            place(idx, pool[idx].when);
        }
    }
    due.clear();
    duePos = 0;
    dueSlotAbs = -1;
}

TimePs
TimerWheelQueue::nextEventTime()
{
    const Next src = ensureNext();
    TimePs when = kTimeNever;
    if (src == Next::kDue)
        when = due[duePos].when;
    else if (src == Next::kOverflow)
        when = overflow.front().when;
    // Release the committed due slot: holding it across subsequent
    // schedule() calls could let later-slot events hide behind it.
    unloadDue();
    return when;
}

bool
TimerWheelQueue::level0ClearBefore(std::int64_t slot) const
{
    const std::int64_t d = slot - cursor[0];
    if (d <= 0)
        return true;
    if (d >= kSlots)
        return occupied[0] == 0;
    const std::uint64_t rot =
        ror64(occupied[0], static_cast<unsigned>(cursor[0] & (kSlots - 1)));
    return (rot & ((std::uint64_t{1} << d) - 1)) == 0;
}

bool
TimerWheelQueue::idleThrough(TimePs t)
{
    // A committed due buffer holds the global minimum apart from the
    // overflow heap (see ensureNext()).
    if (dueSlotAbs >= 0) {
        mergeDueArrivals();
        if (dueFrontLive()) {
            if (due[duePos].when <= t)
                return false;
            pruneOverflowTop();
            if (!overflow.empty() && overflow.front().when <= t)
                return false;
            quietUntil = std::min(due[duePos].when,
                                  (dueSlotAbs + 1) << kSlotShift0);
            if (!overflow.empty())
                quietUntil = std::min(quietUntil, overflow.front().when);
            return true;
        }
    }
    TimePs bound = kTimeNever;
    while (true) {
        std::int64_t slot = 0;
        TimePs start = 0;
        const int level = earliestSlot(slot, start);
        if (level < 0)
            break;
        if (start > t) {
            bound = start;
            break;
        }
        if (level > 0) {
            cascade(level, slot);
            continue;
        }
        // A level-0 slot that starts at or before t: reclaim its
        // tombstones and look for a live event due by t.
        auto &cell = cells[0][slot & (kSlots - 1)];
        TimePs cellMin = kTimeNever;
        std::erase_if(cell, [&](std::uint32_t idx) {
            if (pool[idx].state == SlotState::kDead) {
                freeRecord(idx);
                --deadParked;
                return true;
            }
            cellMin = std::min(cellMin, pool[idx].when);
            return false;
        });
        if (cellMin <= t)
            return false;
        if (!cell.empty()) {
            // Live but later than t: the slot holds t itself.
            bound = std::min(cellMin, (slot + 1) << kSlotShift0);
            break;
        }
        occupied[0] &= ~(std::uint64_t{1} << (slot & (kSlots - 1)));
    }
    // Cascades can spill stale-cursor misses into the overflow heap, so
    // it is consulted last.
    pruneOverflowTop();
    if (!overflow.empty()) {
        if (overflow.front().when <= t)
            return false;
        bound = std::min(bound, overflow.front().when);
    }
    quietUntil = bound;
    return true;
}

bool
TimerWheelQueue::advanceIfIdle(TimePs t)
{
    if (t < currentTime)
        panicf("EventQueue::advanceIfIdle: time ", t, " is in the past (now ",
               currentTime, ")");
    if (t > inlineLimit)
        return false;
    // An earlier proof still covers t unless t reaches quietUntil or
    // tombstones sit in level-0 cells the cursor is about to pass (only
    // idleThrough() reclaims them).
    const std::int64_t slotT = t >> kSlotShift0;
    if ((t >= quietUntil || !level0ClearBefore(slotT)) && !idleThrough(t))
        return false;
    // Leaving the slot the due buffer is committed to releases it: its
    // cell index would otherwise be reused by a slot 64 later, and
    // mergeDueArrivals() would dispatch that slot's events ahead of
    // everything in between. Nothing in it is due by t, so this only
    // returns tombstones or later events to the wheel.
    if (dueSlotAbs >= 0 && dueSlotAbs != slotT)
        unloadDue();
    // Every occupied level-0 slot now lies at or after t's, so the
    // cursor may follow, as draining t's slot would have moved it.
    if (cursor[0] < slotT)
        cursor[0] = slotT;
    // The held ticket's event is dispatched: it stops being live.
    --liveCount;
    currentTime = t;
    ++executedCount;
    ++inlinedCount;
    return true;
}

EventId
TimerWheelQueue::schedule(TimePs when, EventFn fn)
{
    if (when < currentTime)
        panicf("EventQueue::schedule: time ", when, " is in the past (now ",
               currentTime, ")");
    const std::uint32_t idx = allocRecord(when, nextSeq++, std::move(fn));
    notePeak(++liveCount);
    quietUntil = std::min(quietUntil, when);
    place(idx, when);
    return handleOf(idx);
}

EventId
TimerWheelQueue::scheduleTicket(TimePs when, Ticket ticket, EventFn fn)
{
    if (when < currentTime)
        panicf("EventQueue::scheduleTicket: time ", when,
               " is in the past (now ", currentTime, ")");
    // The ticket already counts as live (takeTicket()).
    const std::uint32_t idx = allocRecord(when, ticket, std::move(fn));
    quietUntil = std::min(quietUntil, when);
    place(idx, when);
    return handleOf(idx);
}

void
TimerWheelQueue::cancel(EventId id)
{
    const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xffffffffu);
    if (slot == 0 || slot > pool.size())
        return;
    Record &r = pool[slot - 1];
    if (r.state != SlotState::kLive ||
        r.gen != static_cast<std::uint32_t>(id >> 32))
        return;
    // Destroy the closure NOW: anything it captured (packets, channel
    // state) is released at cancel time, not when the tombstone is
    // lazily reached.
    r.fn.reset();
    r.state = SlotState::kDead;
    --liveCount;
    ++cancelledCount;
    ++deadParked;
    maybeSweep();
}

void
TimerWheelQueue::maybeSweep()
{
    if (deadParked <= 1024 || deadParked <= 2 * liveCount)
        return;
    const auto isDead = [this](std::uint32_t idx) {
        if (pool[idx].state != SlotState::kDead)
            return false;
        freeRecord(idx);
        return true;
    };
    for (int level = 0; level < kLevels; ++level) {
        for (int s = 0; s < kSlots; ++s) {
            auto &cell = cells[level][s];
            if (cell.empty())
                continue;
            cell.erase(std::remove_if(cell.begin(), cell.end(), isDead),
                       cell.end());
            if (cell.empty())
                occupied[level] &= ~(std::uint64_t{1} << s);
        }
    }
    if (dueSlotAbs >= 0) {
        auto keep = due.begin() + static_cast<std::ptrdiff_t>(duePos);
        auto last = std::remove_if(keep, due.end(), [&](const DueEntry &e) {
            return isDead(e.idx);
        });
        due.erase(last, due.end());
        if (duePos >= due.size())
            dueFrontLive();  // resets the buffer if fully consumed
    }
    auto last = std::remove_if(overflow.begin(), overflow.end(),
                               [&](const FarEvent &e) {
                                   return isDead(e.idx);
                               });
    overflow.erase(last, overflow.end());
    std::make_heap(overflow.begin(), overflow.end(), FarLater{});
    deadParked = 0;
}

void
TimerWheelQueue::dispatch(std::uint32_t idx)
{
    Record &r = pool[idx];
    const TimePs when = r.when;
    EventFn fn = std::move(r.fn);
    --liveCount;
    freeRecord(idx);
    currentTime = when;
    ++executedCount;
    fn();
}

bool
TimerWheelQueue::step()
{
    const std::uint32_t idx = takeNext();
    if (idx == kInvalidRecord)
        return false;
    dispatch(idx);  // outside a run: inlineLimit forbids continuing
    return true;
}

void
TimerWheelQueue::runUntil(TimePs limit)
{
    const TimePs outer = inlineLimit;
    inlineLimit = limit;
    while (true) {
        const std::uint32_t idx = takeNext();
        if (idx == kInvalidRecord)
            break;
        if (pool[idx].when > limit) {
            // Put it back (keeping its sequence number, so FIFO order
            // is unaffected) and return the rest of the due buffer to
            // the wheel: the buffer must never outlive the run that
            // committed to its slot, or later schedules could slip in
            // ahead of it unseen.
            place(idx, pool[idx].when);
            unloadDue();
            break;
        }
        dispatch(idx);
    }
    inlineLimit = outer;
    if (currentTime < limit)
        currentTime = limit;
}

void
TimerWheelQueue::runAll()
{
    const TimePs outer = inlineLimit;
    inlineLimit = kTimeNever;
    while (true) {
        const std::uint32_t idx = takeNext();
        if (idx == kInvalidRecord)
            break;
        dispatch(idx);
    }
    inlineLimit = outer;
}

// ---------------------------------------------------------------------------
// BinaryHeapQueue (reference oracle)
// ---------------------------------------------------------------------------

EventId
BinaryHeapQueue::schedule(TimePs when, EventFn fn)
{
    if (when < currentTime)
        panicf("EventQueue::schedule: time ", when, " is in the past (now ",
               currentTime, ")");
    const EventId id = nextId++;
    heap.push(Entry{when, id, std::move(fn)});
    liveIds.insert(id);
    notePeak();
    return id;
}

EventId
BinaryHeapQueue::scheduleTicket(TimePs when, Ticket ticket, EventFn fn)
{
    if (when < currentTime)
        panicf("EventQueue::scheduleTicket: time ", when,
               " is in the past (now ", currentTime, ")");
    heap.push(Entry{when, ticket, std::move(fn)});
    liveIds.insert(ticket);
    --ticketsHeld;
    return ticket;
}

void
BinaryHeapQueue::cancel(EventId id)
{
    // Cancelling an already-fired or unknown event is a harmless no-op;
    // only ids still in the heap are tombstoned.
    if (liveIds.erase(id) != 0)
        ++cancelledCount;
}

bool
BinaryHeapQueue::popLive(Entry &out)
{
    while (!heap.empty()) {
        // priority_queue::top() is const; we must move the closure out.
        Entry e = std::move(const_cast<Entry &>(heap.top()));
        heap.pop();
        auto it = liveIds.find(e.id);
        if (it == liveIds.end())
            continue;  // tombstoned by cancel()
        liveIds.erase(it);
        out = std::move(e);
        return true;
    }
    return false;
}

bool
BinaryHeapQueue::step()
{
    Entry e;
    if (!popLive(e))
        return false;
    currentTime = e.when;
    ++executedCount;
    e.fn();
    return true;
}

void
BinaryHeapQueue::runUntil(TimePs limit)
{
    while (true) {
        Entry e;
        if (!popLive(e))
            break;
        if (e.when > limit) {
            // Put it back (and mark live again); cheaper than peeking
            // because priority_queue lacks a non-destructive move-out API.
            liveIds.insert(e.id);
            heap.push(std::move(e));
            break;
        }
        currentTime = e.when;
        ++executedCount;
        e.fn();
    }
    if (currentTime < limit)
        currentTime = limit;
}

void
BinaryHeapQueue::runAll()
{
    while (step()) {
    }
}

TimePs
BinaryHeapQueue::nextEventTime()
{
    while (!heap.empty() && liveIds.count(heap.top().id) == 0)
        heap.pop();  // tombstoned by cancel(); drop lazily as popLive does
    return heap.empty() ? kTimeNever : heap.top().when;
}

}  // namespace ccsim::sim
