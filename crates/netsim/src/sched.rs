//! The event core: a clock, a schedule counter and a hierarchical timer
//! wheel, generic over an opaque event payload.
//!
//! [`EventCore`] owns simulated time and nothing else: it does not know
//! what a node, a frame or ARP is, imports only `std` and `crate::time`,
//! and is unit-tested below without a campus. The network on top of it
//! is `engine::Sim`, which pops events here and dispatches them itself.
//!
//! [`TimerWheel`] is the queue underneath. The contract it must honor
//! is strict total order: events pop in ascending `(at, seq)` order,
//! where `seq` is the core's monotone schedule counter — byte-identical
//! telemetry across the determinism, chaos, and model-checking suites
//! depends on reproducing a `BinaryHeap`'s pop order exactly.
//!
//! # Layout
//!
//! Eleven levels of 64 slots each (6 bits per level, 66 bits ≥ the
//! 64-bit microsecond clock; the top level only ever uses 16 slots).
//! A pending event at absolute time `at` lives at the level of the
//! highest bit in which `at` differs from the wheel's cursor `base`,
//! in the slot named by `at`'s 6-bit field at that level:
//!
//! ```text
//! level  = highest_differing_bit(at, base) / 6      (0 if equal)
//! slot   = (at >> 6·level) & 63
//! ```
//!
//! Slots are intrusive singly-linked lists threaded through a slab
//! arena with free-list reuse, so steady-state scheduling allocates
//! nothing. A per-level 64-bit occupancy bitmap makes "find the next
//! pending event" a few trailing-zero scans instead of a walk over
//! empty slots — that bitmap *is* the skip-ahead oracle: when the
//! earliest bound exceeds the caller's deadline, [`TimerWheel::pop_due`]
//! returns `None` without touching a single slot, and
//! [`EventCore::advance_to`] jumps the clock over the idle gap.
//!
//! # Tie-break contract
//!
//! Level-0 slots are one microsecond wide and level-0 entries agree
//! with `base` in every bit above the slot index, so *all records in
//! one level-0 slot share the same `at`*. Draining a due slot therefore
//! sorts only by `seq` — yielding exactly the `(at, seq)` lexicographic
//! order the `BinaryHeap` produced. Events scheduled *at the current
//! instant* while its slot is being delivered re-enter that same slot
//! with larger `seq` values and drain in a later pass, which again
//! preserves the order. A place reserved earlier
//! ([`EventCore::reserve`]) and filed at that instant
//! ([`EventCore::schedule_at`]) can have a smaller `seq` than entries
//! already drained: it is put into the ready queue in `seq` order.
//!
//! # Cascades
//!
//! When the cursor advances into an occupied higher-level slot, that
//! slot's records re-file into lower levels ("cascade"). Each re-filed
//! record increments the counter [`TimerWheel::cascades`] reports.
//! Cascading is *lazy*: a deadline that falls short of the earliest
//! bound triggers no cascade at all.
//!
//! # Arena lifetimes
//!
//! Records live in a `Vec` arena addressed by `u32` index; a freed
//! record's `next` field threads the free list. The arena never
//! shrinks — its high-water mark equals the queue-depth high-water
//! mark, a few hundred entries for the full campus.

// The event core orders every simulated event: no panic and no
// discarded Result (DESIGN.md § 6).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable,
    clippy::let_underscore_must_use
)]

use std::collections::VecDeque;

use crate::time::{SimDuration, SimTime};

/// Simulated time and the pending-event queue. `E` is opaque: the core
/// orders events, the caller gives them meaning.
pub struct EventCore<E> {
    now: SimTime,
    seq: u64,
    /// Every place `(now, s)` with `s <= passed` is behind the clock: the
    /// seq of the event last popped at `now`, or, once
    /// [`EventCore::advance_to`] has declared `now` done, every seq
    /// handed out by then.
    passed: u64,
    queue: TimerWheel<E>,
}

impl<E> Default for EventCore<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventCore<E> {
    /// An empty core with its clock at time zero.
    pub fn new() -> Self {
        EventCore {
            now: SimTime::ZERO,
            seq: 0,
            passed: 0,
            queue: TimerWheel::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events scheduled and not yet popped.
    pub fn pending(&self) -> u64 {
        self.queue.len()
    }

    /// Schedules `event` to fire `delay` from now. Equal-time events
    /// fire in the order they were scheduled.
    pub fn schedule(&mut self, delay: SimDuration, event: E) {
        let seq = self.reserve();
        self.queue
            .insert((self.now + delay).as_micros(), seq, event);
    }

    /// Takes the seq the next [`EventCore::schedule`] would have used,
    /// for an event the caller holds off the queue. It keeps its place
    /// in the total order: [`EventCore::schedule_at`] files it there.
    pub fn reserve(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Files `event` at `(at, seq)`, a place taken with
    /// [`EventCore::reserve`], so it pops exactly where it would have
    /// had it been scheduled then. A place the clock has already passed
    /// (before `now`, or at `now` and not after the event last popped
    /// there) is refused and the event handed back.
    pub fn schedule_at(&mut self, at: SimTime, seq: u64, event: E) -> Result<(), E> {
        if at < self.now || (at == self.now && seq <= self.passed) {
            return Err(event);
        }
        self.queue.insert(at.as_micros(), seq, event);
        Ok(())
    }

    /// Pops the earliest event if it is due by `deadline`, advancing the
    /// clock to it; returns the idle gap jumped and the event. `None`
    /// touches nothing: neither the clock nor the queue moves.
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<(SimDuration, E)> {
        let (at, seq, event) = self.queue.pop_due(deadline.as_micros())?;
        debug_assert!(at >= self.now.as_micros(), "time moves forward");
        let gap = SimTime(at).since(self.now);
        self.now = SimTime(at);
        self.passed = seq;
        Some((gap, event))
    }

    /// Jumps the clock to `deadline` if it is not behind and declares
    /// every place up to it passed (call once [`EventCore::pop_due`] has
    /// returned `None` for it: the wheel's occupancy bitmaps bounded the
    /// next firing past the deadline, so the whole gap is provably
    /// idle); returns the gap jumped.
    pub fn advance_to(&mut self, deadline: SimTime) -> SimDuration {
        if deadline < self.now {
            return SimDuration::ZERO;
        }
        let gap = deadline.since(self.now);
        self.now = deadline;
        self.passed = self.seq;
        gap
    }
}

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
const LEVELS: usize = 11;
const NIL: u32 = u32::MAX;

struct Rec<T> {
    at: u64,
    seq: u64,
    next: u32,
    event: Option<T>,
}

/// Hierarchical timer wheel with exact `(at, seq)` pop order.
pub struct TimerWheel<T> {
    arena: Vec<Rec<T>>,
    free: u32,
    slots: [[u32; SLOTS]; LEVELS],
    occ: [u64; LEVELS],
    /// Bit `l` set iff `occ[l] != 0`; finding the lowest occupied level
    /// is one trailing-zeros count instead of a scan over all eleven.
    level_occ: u16,
    /// Cursor: every pending record's `at` is ≥ `base`.
    base: u64,
    len: u64,
    /// Drained due slot, sorted by `seq`; all entries share `ready_at`.
    ready: VecDeque<(u64, T)>,
    ready_at: u64,
    scratch: Vec<(u64, u32)>,
    cascades: u64,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// Creates an empty wheel with its cursor at time zero.
    pub fn new() -> Self {
        TimerWheel {
            arena: Vec::new(),
            free: NIL,
            slots: [[NIL; SLOTS]; LEVELS],
            occ: [0; LEVELS],
            level_occ: 0,
            base: 0,
            len: 0,
            ready: VecDeque::new(),
            ready_at: 0,
            scratch: Vec::new(),
            cascades: 0,
        }
    }

    /// Pending events (drained-but-undelivered ready entries included).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total records re-filed from a higher wheel level to a lower one.
    pub fn cascades(&self) -> u64 {
        self.cascades
    }

    fn level_slot(&self, at: u64) -> (usize, usize) {
        let diff = at ^ self.base;
        let level = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
        };
        let slot = ((at >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        (level, slot)
    }

    fn link(&mut self, idx: u32) {
        let at = self.arena[idx as usize].at;
        let (level, slot) = self.level_slot(at);
        self.arena[idx as usize].next = self.slots[level][slot];
        self.slots[level][slot] = idx;
        self.occ[level] |= 1 << slot;
        self.level_occ |= 1 << level;
    }

    /// Schedules an event. `seq` must be unique and `(at, seq)` must
    /// follow every already-popped `(at, seq)`; an insert at the instant
    /// being delivered may precede entries already drained for it.
    pub fn insert(&mut self, at: u64, seq: u64, event: T) {
        debug_assert!(at >= self.base, "insert into the past");
        if at == self.ready_at && self.ready.back().is_some_and(|&(last, _)| seq < last) {
            // What sits in the level-0 slot for this instant was inserted
            // after the drain with a later seq than the whole ready queue.
            let i = self.ready.partition_point(|&(s, _)| s < seq);
            self.ready.insert(i, (seq, event));
            self.len += 1;
            return;
        }
        let idx = if self.free != NIL {
            let idx = self.free;
            let rec = &mut self.arena[idx as usize];
            self.free = rec.next;
            rec.at = at;
            rec.seq = seq;
            rec.event = Some(event);
            idx
        } else {
            // The arena's high-water mark tracks queue depth (hundreds);
            // u32 indices cannot overflow before memory does.
            debug_assert!(self.arena.len() < NIL as usize, "arena overflow");
            let idx = self.arena.len() as u32;
            self.arena.push(Rec {
                at,
                seq,
                next: NIL,
                event: Some(event),
            });
            idx
        };
        self.link(idx);
        self.len += 1;
    }

    /// Pops the earliest event if its time is ≤ `deadline`; `None`
    /// means nothing is due (the queue may still hold later events).
    /// Cascades lazily: an idle gap costs a bitmap scan, not a walk.
    pub fn pop_due(&mut self, deadline: u64) -> Option<(u64, u64, T)> {
        loop {
            if !self.ready.is_empty() {
                if self.ready_at > deadline {
                    return None;
                }
                if let Some((seq, event)) = self.ready.pop_front() {
                    self.len -= 1;
                    return Some((self.ready_at, seq, event));
                }
            }
            if self.len == 0 {
                return None;
            }
            debug_assert_ne!(self.level_occ, 0, "len > 0");
            let level = self.level_occ.trailing_zeros() as usize;
            let slot = self.occ[level].trailing_zeros() as usize;
            if level == 0 {
                let at = (self.base & !(SLOTS as u64 - 1)) | slot as u64;
                if at > deadline {
                    return None;
                }
                self.base = at;
                self.drain_due_slot(slot, at);
            } else {
                // Lower bound over every record in the slot (low bits 0).
                let shift = SLOT_BITS * (level as u32 + 1);
                let bound =
                    ((self.base >> shift) << shift) | ((slot as u64) << (SLOT_BITS * level as u32));
                if bound > deadline {
                    return None;
                }
                self.base = bound;
                self.cascade_slot(level, slot);
            }
        }
    }

    /// Exact time of the earliest pending event. The global minimum
    /// always lives in the lowest occupied slot of the lowest occupied
    /// level, so this walks one short list — it never cascades, never
    /// moves the cursor, and is safe to call between inserts.
    pub fn peek_next(&self) -> Option<u64> {
        if !self.ready.is_empty() {
            return Some(self.ready_at);
        }
        if self.len == 0 {
            return None;
        }
        debug_assert_ne!(self.level_occ, 0, "len > 0");
        let level = self.level_occ.trailing_zeros() as usize;
        let slot = self.occ[level].trailing_zeros() as usize;
        let mut cur = self.slots[level][slot];
        let mut min = u64::MAX;
        while cur != NIL {
            let rec = &self.arena[cur as usize];
            min = min.min(rec.at);
            cur = rec.next;
        }
        Some(min)
    }

    /// Moves a due level-0 slot (all records share `at`) into the ready
    /// queue in ascending `seq` order, freeing the arena records.
    fn drain_due_slot(&mut self, slot: usize, at: u64) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let mut cur = self.slots[0][slot];
        self.slots[0][slot] = NIL;
        self.occ[0] &= !(1 << slot);
        if self.occ[0] == 0 {
            self.level_occ &= !1;
        }
        while cur != NIL {
            let rec = &self.arena[cur as usize];
            debug_assert_eq!(rec.at, at, "level-0 slot is one microsecond wide");
            scratch.push((rec.seq, cur));
            cur = rec.next;
        }
        scratch.sort_unstable();
        for &(seq, idx) in &scratch {
            if let Some(event) = self.arena[idx as usize].event.take() {
                self.ready.push_back((seq, event));
            }
            self.arena[idx as usize].next = self.free;
            self.free = idx;
        }
        self.ready_at = at;
        self.scratch = scratch;
    }

    /// Re-files every record of a higher-level slot against the
    /// advanced cursor; each lands at a strictly lower level.
    fn cascade_slot(&mut self, level: usize, slot: usize) {
        let mut cur = self.slots[level][slot];
        self.slots[level][slot] = NIL;
        self.occ[level] &= !(1 << slot);
        if self.occ[level] == 0 {
            self.level_occ &= !(1 << level);
        }
        while cur != NIL {
            let next = self.arena[cur as usize].next;
            self.link(cur);
            self.cascades += 1;
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Drains everything due by `deadline`, as a run loop would.
    fn run(core: &mut EventCore<&'static str>, deadline: u64) -> Vec<(u64, &'static str)> {
        let mut fired = Vec::new();
        while let Some((_, ev)) = core.pop_due(SimTime(deadline)) {
            fired.push((core.now().as_micros(), ev));
            if ev == "spawns" {
                // Scheduled at `now` from inside the dispatch.
                core.schedule(SimDuration::ZERO, "spawned");
            }
        }
        fired
    }

    #[test]
    fn core_pops_equal_times_in_schedule_order() {
        let mut core = EventCore::new();
        core.schedule(SimDuration(5), "a");
        core.schedule(SimDuration(3), "early");
        core.schedule(SimDuration(5), "b");
        core.schedule(SimDuration(5), "c");
        let fired = run(&mut core, 10);
        assert_eq!(fired, [(3, "early"), (5, "a"), (5, "b"), (5, "c")]);
        assert_eq!(core.pending(), 0);
    }

    #[test]
    fn core_event_scheduled_at_now_fires_in_the_same_run() {
        let mut core = EventCore::new();
        core.schedule(SimDuration(7), "spawns");
        core.schedule(SimDuration(7), "sibling");
        core.schedule(SimDuration(8), "later");
        let fired = run(&mut core, 7);
        // After the in-flight batch at t=7, before anything later.
        assert_eq!(fired, [(7, "spawns"), (7, "sibling"), (7, "spawned")]);
        assert_eq!(core.now(), SimTime(7));
        assert_eq!(core.pending(), 1);
    }

    #[test]
    fn core_pop_past_the_deadline_touches_nothing() {
        let mut core = EventCore::new();
        core.schedule(SimDuration(100), "x");
        assert!(core.pop_due(SimTime(99)).is_none());
        assert_eq!(core.now(), SimTime::ZERO, "clock did not move");
        assert_eq!(core.pending(), 1, "event still queued");
        // The gap jumped to reach it is reported with the event.
        assert_eq!(core.pop_due(SimTime(100)), Some((SimDuration(100), "x")));
        assert_eq!(core.now(), SimTime(100));
    }

    #[test]
    fn core_advance_lands_on_the_deadline_and_reports_the_gap() {
        let mut core = EventCore::new();
        core.schedule(SimDuration(40), "x");
        assert_eq!(run(&mut core, 60), [(40, "x")]);
        assert_eq!(core.advance_to(SimTime(60)), SimDuration(20));
        assert_eq!(core.now(), SimTime(60));
        // Never backwards: an earlier deadline is a no-op.
        assert_eq!(core.advance_to(SimTime(10)), SimDuration::ZERO);
        assert_eq!(core.now(), SimTime(60));
        // Delays are relative to the advanced clock.
        core.schedule(SimDuration(1), "y");
        assert_eq!(run(&mut core, u64::MAX), [(61, "y")]);
    }

    /// The wheel must reproduce the old heap's pop order exactly, under
    /// interleaved inserts and deadline-bounded pops.
    #[test]
    fn matches_binary_heap_order() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut wheel = TimerWheel::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            for round in 0..200 {
                // Burst of inserts at assorted horizons (0 .. ~18 min).
                for _ in 0..rng.gen_range(1..20) {
                    seq += 1;
                    let delay: u64 = match rng.gen_range(0..4u32) {
                        0 => rng.gen_range(0..64),
                        1 => rng.gen_range(0..10_000),
                        2 => rng.gen_range(0..2_000_000),
                        _ => rng.gen_range(0..1_000_000_000),
                    };
                    wheel.insert(now + delay, seq, seq);
                    heap.push(Reverse((now + delay, seq)));
                }
                // Pop everything due inside a random window.
                let deadline = now + rng.gen_range(0..50_000_000u64);
                while let Some((at, s, ev)) = wheel.pop_due(deadline) {
                    let Reverse((hat, hseq)) = heap.pop().expect("heap has it too");
                    assert_eq!((at, s), (hat, hseq), "round {round} seed {seed}");
                    assert_eq!(ev, hseq);
                    assert!(at >= now, "time moves forward");
                    now = at;
                }
                if let Some(&Reverse((hat, _))) = heap.peek() {
                    assert!(hat > deadline, "wheel stopped early");
                    assert_eq!(wheel.peek_next(), Some(hat));
                }
                assert_eq!(wheel.len(), heap.len() as u64);
                now = deadline;
            }
        }
    }

    /// The core with places held off it: a seq reserved now and filed
    /// later — often at the instant being delivered, ahead of entries
    /// already drained for it — pops exactly where the heap puts it,
    /// beside ordinary schedules, and a place the clock has passed is
    /// refused and handed back.
    #[test]
    fn reserved_places_match_binary_heap_order() {
        struct Oracle {
            rng: StdRng,
            core: EventCore<u64>,
            heap: BinaryHeap<Reverse<(u64, u64)>>,
            held: Vec<(u64, u64)>,
            /// The core's counter, and the last place it passed.
            seq: u64,
            passed: (u64, u64),
            filed_into_ready: u32,
            refused: u32,
        }

        impl Oracle {
            /// The current instant or a millisecond mark, mostly one of
            /// the next few, so that instants pile up.
            fn place(&mut self) -> u64 {
                let now = self.core.now().as_micros();
                let mark = now / 1_000
                    + match self.rng.gen_range(0..4u32) {
                        0 => 0,
                        1 | 2 => self.rng.gen_range(1..4),
                        _ => self.rng.gen_range(1..5_000),
                    };
                (mark * 1_000).max(now)
            }

            fn schedule(&mut self) {
                let at = self.place();
                self.seq += 1;
                let delay = SimDuration(at - self.core.now().as_micros());
                self.core.schedule(delay, self.seq);
                self.heap.push(Reverse((at, self.seq)));
            }

            fn reserve(&mut self) {
                let at = self.place();
                self.seq += 1;
                assert_eq!(self.core.reserve(), self.seq);
                self.held.push((at, self.seq));
            }

            /// Files a held place: one for this instant if there is one,
            /// else any, late or early.
            fn file(&mut self) {
                let now = self.core.now().as_micros();
                let i = match self.held.iter().position(|&(at, _)| at == now) {
                    Some(i) => i,
                    None if self.held.is_empty() => return,
                    None => self.rng.gen_range(0..self.held.len()),
                };
                let (at, s) = self.held.swap_remove(i);
                let wheel = &self.core.queue;
                if at == wheel.ready_at && wheel.ready.back().is_some_and(|&(last, _)| s < last) {
                    self.filed_into_ready += 1;
                }
                match self.core.schedule_at(SimTime(at), s, s) {
                    Ok(()) => {
                        assert!((at, s) > self.passed, "filed behind the clock");
                        self.heap.push(Reverse((at, s)));
                    }
                    Err(back) => {
                        assert_eq!(back, s);
                        assert!((at, s) <= self.passed, "refused a place ahead");
                        self.refused += 1;
                    }
                }
            }
        }

        let mut filed_into_ready = 0;
        let mut refused = 0;
        for seed in 0..8u64 {
            let mut o = Oracle {
                rng: StdRng::seed_from_u64(seed),
                core: EventCore::new(),
                heap: BinaryHeap::new(),
                held: Vec::new(),
                seq: 0,
                passed: (0, 0),
                filed_into_ready: 0,
                refused: 0,
            };
            for round in 0..300 {
                for _ in 0..o.rng.gen_range(1..16) {
                    if o.rng.gen() {
                        o.schedule();
                    } else {
                        o.reserve();
                    }
                }
                let deadline = o.core.now().as_micros() + o.rng.gen_range(0..20_000u64);
                while let Some((_, s)) = o.core.pop_due(SimTime(deadline)) {
                    let Reverse(expected) = o.heap.pop().expect("heap has it too");
                    let at = o.core.now().as_micros();
                    assert_eq!((at, s), expected, "round {round} seed {seed}");
                    o.passed = expected;
                    // Dispatching it: file a held place, schedule, reserve.
                    match o.rng.gen_range(0..6u32) {
                        0..=2 => o.file(),
                        3 => o.schedule(),
                        4 => o.reserve(),
                        _ => {}
                    }
                }
                if let Some(&Reverse((at, _))) = o.heap.peek() {
                    assert!(at > deadline, "core stopped early");
                }
                assert_eq!(o.core.pending(), o.heap.len() as u64);
                o.core.advance_to(SimTime(deadline));
                o.passed = (deadline, o.seq);
                o.file();
            }
            filed_into_ready += o.filed_into_ready;
            refused += o.refused;
        }
        assert!(
            filed_into_ready > 100,
            "{filed_into_ready} filed ahead of the ready queue"
        );
        assert!(refused > 100, "{refused} refusals");
    }

    #[test]
    fn a_reserved_place_pops_ahead_of_what_was_drained_after_it() {
        let mut core = EventCore::new();
        core.schedule(SimDuration(5), "a");
        let held = core.reserve();
        core.schedule(SimDuration(5), "b");
        assert_eq!(core.pop_due(SimTime(5)), Some((SimDuration(5), "a")));
        // "b" is drained and waiting; the held place comes before it.
        assert_eq!(core.schedule_at(SimTime(5), held, "held"), Ok(()));
        assert_eq!(core.pop_due(SimTime(5)), Some((SimDuration::ZERO, "held")));
        assert_eq!(core.pop_due(SimTime(5)), Some((SimDuration::ZERO, "b")));
        // Popped past, a held place is handed back ...
        let late = core.reserve();
        core.schedule(SimDuration::ZERO, "c");
        assert_eq!(core.pop_due(SimTime(5)), Some((SimDuration::ZERO, "c")));
        assert_eq!(core.schedule_at(SimTime(5), late, "late"), Err("late"));
        // ... and so is every place up to a deadline the clock advanced to.
        let idle = core.reserve();
        core.advance_to(SimTime(9));
        assert_eq!(core.schedule_at(SimTime(9), idle, "idle"), Err("idle"));
        assert_eq!(core.schedule_at(SimTime(4), idle, "before"), Err("before"));
        assert_eq!(core.schedule_at(SimTime(10), idle, "after"), Ok(()));
        assert_eq!(core.pending(), 1);
    }

    /// Same-instant events scheduled *while* that instant is being
    /// delivered must pop after the in-flight batch, in seq order.
    #[test]
    fn same_time_insert_during_delivery() {
        let mut wheel = TimerWheel::new();
        wheel.insert(100, 1, "a");
        wheel.insert(100, 2, "b");
        assert_eq!(wheel.pop_due(100), Some((100, 1, "a")));
        // "c" arrives at t=100 while t=100 is being delivered.
        wheel.insert(100, 3, "c");
        assert_eq!(wheel.pop_due(100), Some((100, 2, "b")));
        assert_eq!(wheel.pop_due(100), Some((100, 3, "c")));
        assert_eq!(wheel.pop_due(u64::MAX), None);
        assert_eq!(wheel.len(), 0);
    }

    /// A deadline short of the earliest event is a pure bitmap scan:
    /// nothing cascades, nothing pops.
    #[test]
    fn idle_gap_is_lazy() {
        let mut wheel = TimerWheel::new();
        wheel.insert(3_600_000_000, 1, ()); // one hour out
        assert_eq!(wheel.pop_due(1_000_000), None);
        assert_eq!(wheel.cascades(), 0, "no cascade below the deadline");
        assert_eq!(wheel.pop_due(3_600_000_000), Some((3_600_000_000, 1, ())));
    }

    /// Far-horizon records cascade down as the cursor approaches.
    #[test]
    fn far_timers_cascade() {
        let mut wheel = TimerWheel::new();
        wheel.insert(1u64 << 40, 1, ());
        wheel.insert((1u64 << 40) + 1, 2, ());
        assert_eq!(wheel.pop_due(u64::MAX), Some((1u64 << 40, 1, ())));
        assert!(wheel.cascades() > 0);
        assert_eq!(wheel.pop_due(u64::MAX), Some(((1u64 << 40) + 1, 2, ())));
    }

    /// The arena recycles freed records instead of growing.
    #[test]
    fn arena_reuses_freed_records() {
        let mut wheel = TimerWheel::new();
        let mut seq = 0;
        for round in 0..1_000u64 {
            for k in 0..4 {
                seq += 1;
                wheel.insert(round * 10 + k, seq, ());
            }
            while wheel.pop_due(round * 10 + 3).is_some() {}
        }
        assert!(
            wheel.arena.len() <= 8,
            "arena grew to {} for a working set of 4",
            wheel.arena.len()
        );
    }
}
