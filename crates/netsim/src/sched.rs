//! The event core: a clock, a schedule counter and a binary heap of
//! pending events, generic over an opaque event payload.
//!
//! [`EventCore`] owns simulated time and nothing else: it does not know
//! what a node, a frame or ARP is, imports only `std` and `crate::time`,
//! and is unit-tested below without a campus. The network on top of it
//! is `engine::Sim`, which pops events here and dispatches them itself.
//!
//! The contract is strict total order: events pop in ascending
//! `(at, seq)` order, where `seq` is the core's monotone schedule
//! counter — byte-identical telemetry across the determinism, chaos and
//! model-checking suites depends on it. A place reserved earlier
//! ([`EventCore::reserve`]) and filed later ([`EventCore::schedule_at`])
//! is ordered by its own `seq` like any other, even at the instant being
//! delivered.
//!
//! # Layout
//!
//! The heap holds `(at, seq, slot)` keys only; `slot` indexes a payload
//! slab, so a sift moves a 24-byte key however large the event. A popped
//! payload's slot goes on a free list and is reused, so steady-state
//! scheduling allocates nothing. The least key is the next moment
//! anything happens: [`EventCore::pop_due`] compares it with the
//! caller's deadline, and [`EventCore::advance_to`] jumps the clock over
//! an idle gap in one step whatever its length.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    /// Pending places `(at, seq, slot)`, least first.
    keys: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Payloads by slot; `None` is a free slot, listed in `free`.
    payloads: Vec<Option<E>>,
    free: Vec<u32>,
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
            keys: BinaryHeap::new(),
            payloads: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events scheduled and not yet popped.
    pub fn pending(&self) -> u64 {
        self.keys.len() as u64
    }

    /// Schedules `event` to fire `delay` from now. Equal-time events
    /// fire in the order they were scheduled.
    pub fn schedule(&mut self, delay: SimDuration, event: E) {
        let seq = self.reserve();
        self.file(self.now + delay, seq, event);
    }

    /// Takes the seq the next [`EventCore::schedule`] would have used,
    /// for an event the caller holds off the queue. It keeps its place
    /// in the total order: [`EventCore::schedule_at`] files it there.
    pub fn reserve(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// `true` when the clock has passed the place `(at, seq)`: it is
    /// before `now`, or at `now` and not after the event last popped
    /// there.
    pub fn has_passed(&self, at: SimTime, seq: u64) -> bool {
        at < self.now || (at == self.now && seq <= self.passed)
    }

    /// Files `event` at `(at, seq)`, a place taken with
    /// [`EventCore::reserve`], so it pops exactly where it would have
    /// had it been scheduled then. A place the clock has already passed
    /// ([`EventCore::has_passed`]) is refused and the event handed back.
    pub fn schedule_at(&mut self, at: SimTime, seq: u64, event: E) -> Result<(), E> {
        if self.has_passed(at, seq) {
            return Err(event);
        }
        self.file(at, seq, event);
        Ok(())
    }

    /// Pops the earliest event if it is due by `deadline`, advancing the
    /// clock to it; returns the idle gap jumped and the event. `None`
    /// touches nothing: neither the clock nor the queue moves.
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<(SimDuration, E)> {
        let &Reverse((at, _, _)) = self.keys.peek()?;
        if at > deadline {
            return None;
        }
        let Reverse((at, seq, slot)) = self.keys.pop()?;
        debug_assert!(at >= self.now, "time moves forward");
        let event = self.payloads.get_mut(slot as usize)?.take()?;
        self.free.push(slot);
        let gap = at.since(self.now);
        self.now = at;
        self.passed = seq;
        Some((gap, event))
    }

    /// Jumps the clock to `deadline` if it is not behind and declares
    /// every place up to it passed (call once [`EventCore::pop_due`] has
    /// returned `None` for it: the least pending key is past the
    /// deadline, so the whole gap is provably idle); returns the gap
    /// jumped.
    pub fn advance_to(&mut self, deadline: SimTime) -> SimDuration {
        if deadline < self.now {
            return SimDuration::ZERO;
        }
        let gap = deadline.since(self.now);
        self.now = deadline;
        self.passed = self.seq;
        gap
    }

    /// Puts `event` in a free slot (or a new one) and its key on the heap.
    fn file(&mut self, at: SimTime, seq: u64, event: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.payloads[slot as usize] = Some(event);
                slot
            }
            None => {
                // The slab's high-water mark is the queue depth's (a few
                // hundred); u32 slots cannot overflow before memory does.
                self.payloads.push(Some(event));
                (self.payloads.len() - 1) as u32
            }
        };
        self.keys.push(Reverse((at, seq, slot)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The core against an independent `BinaryHeap` of `(at, seq)`, under
    /// interleaved schedules, reservations and deadline-bounded pops. A
    /// seq reserved now and filed later — often at the instant being
    /// delivered, ahead of entries already pending there — pops exactly
    /// where the oracle puts it, and a place the clock has passed is
    /// refused and handed back. Half the seeds also draw far horizons:
    /// delays up to 10⁹ µs and a few near 2⁴⁰ µs, drained at the end.
    #[test]
    fn reserved_places_match_binary_heap_order() {
        struct Oracle {
            rng: StdRng,
            far: bool,
            core: EventCore<u64>,
            heap: BinaryHeap<Reverse<(u64, u64)>>,
            held: Vec<(u64, u64)>,
            /// The core's counter, and the last place it passed.
            seq: u64,
            passed: (u64, u64),
            filed_ahead: u32,
            refused: u32,
        }

        impl Oracle {
            /// The current instant or a millisecond mark, mostly one of
            /// the next few, so that instants pile up; with `far`, now
            /// and then a far horizon instead.
            fn place(&mut self) -> u64 {
                let now = self.core.now().as_micros();
                if self.far {
                    match self.rng.gen_range(0..32u32) {
                        0..=7 => return now + self.rng.gen_range(0..1_000_000_000u64),
                        8 => return ((1u64 << 40) + self.rng.gen_range(0..64u64)).max(now),
                        _ => {}
                    }
                }
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
                match self.core.schedule_at(SimTime(at), s, s) {
                    Ok(()) => {
                        assert!((at, s) > self.passed, "filed behind the clock");
                        let ahead = self
                            .heap
                            .iter()
                            .any(|&Reverse((a, later))| a == now && later > s);
                        if at == now && ahead {
                            self.filed_ahead += 1;
                        }
                        self.heap.push(Reverse((at, s)));
                    }
                    Err(back) => {
                        assert_eq!(back, s);
                        assert!((at, s) <= self.passed, "refused a place ahead");
                        self.refused += 1;
                    }
                }
            }

            /// Pops everything due by `deadline`, checking each against
            /// the oracle and dispatching it: file a held place,
            /// schedule, reserve.
            fn run(&mut self, deadline: u64, label: &str) {
                while let Some((_, s)) = self.core.pop_due(SimTime(deadline)) {
                    let Reverse(expected) = self.heap.pop().expect("heap has it too");
                    let at = self.core.now().as_micros();
                    assert_eq!((at, s), expected, "{label}");
                    self.passed = expected;
                    match self.rng.gen_range(0..6u32) {
                        0..=2 => self.file(),
                        3 => self.schedule(),
                        4 => self.reserve(),
                        _ => {}
                    }
                }
                if let Some(&Reverse((at, _))) = self.heap.peek() {
                    assert!(at > deadline, "core stopped early: {label}");
                }
                assert_eq!(self.core.pending(), self.heap.len() as u64, "{label}");
            }
        }

        let mut filed_ahead = 0;
        let mut refused = 0;
        for seed in 0..16u64 {
            let far = seed >= 8;
            let mut o = Oracle {
                rng: StdRng::seed_from_u64(seed),
                far,
                core: EventCore::new(),
                heap: BinaryHeap::new(),
                held: Vec::new(),
                seq: 0,
                passed: (0, 0),
                filed_ahead: 0,
                refused: 0,
            };
            let window: u64 = if far { 50_000_000 } else { 20_000 };
            for round in 0..300 {
                for _ in 0..o.rng.gen_range(1..16) {
                    if o.rng.gen() {
                        o.schedule();
                    } else {
                        o.reserve();
                    }
                }
                let deadline = o.core.now().as_micros() + o.rng.gen_range(0..window);
                o.run(deadline, &format!("round {round} seed {seed}"));
                o.core.advance_to(SimTime(deadline));
                o.passed = (deadline, o.seq);
                o.file();
            }
            o.run(u64::MAX, &format!("drain seed {seed}"));
            assert!(o.heap.is_empty(), "seed {seed}");
            filed_ahead += o.filed_ahead;
            refused += o.refused;
        }
        assert!(
            filed_ahead > 100,
            "{filed_ahead} filed ahead of a pending entry at the same instant"
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
        // "b" is pending at this instant; the held place comes before it.
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

    /// The payload slab recycles popped slots instead of growing.
    #[test]
    fn payload_slots_are_reused() {
        let mut core = EventCore::new();
        for round in 0..1_000u64 {
            core.advance_to(SimTime(round * 10));
            for k in 0..4 {
                core.schedule(SimDuration(k), k);
            }
            while core.pop_due(SimTime(round * 10 + 3)).is_some() {}
        }
        assert_eq!(core.pending(), 0);
        assert!(
            core.payloads.len() <= 8,
            "slab grew to {} slots for a working set of 4",
            core.payloads.len()
        );
    }
}
