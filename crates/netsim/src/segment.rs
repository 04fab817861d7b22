//! Shared network segments (Ethernets) with a collision model.
//!
//! Each segment is a broadcast medium: a frame is on the wire once and
//! reaches every attached interface (and every tap) at the same instant —
//! one event, fanned out on arrival by the link layer. The collision
//! model captures the paper's Broadcast Ping observation — "closely spaced
//! replies can cause many collisions", giving a "brief flood of ICMP Echo
//! Reply packets (that) usually results in lost packets, including both
//! ICMP Echo Replies and normal traffic".

use std::collections::VecDeque;

use crate::stats::SegmentStats;
use crate::time::{SimDuration, SimTime};

/// Identifier of a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub usize);

/// Identifier of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Collision-model parameters.
///
/// When more than `free_slots` frames hit the segment within `window`,
/// each additional concurrent frame adds `loss_per_extra` to the drop
/// probability, capped at `max_loss`.
///
/// The window approximates an Ethernet slot time: only *near-simultaneous*
/// transmissions contend (CSMA/CD defers cleanly on serial
/// request/response chains, whose frames are spaced by propagation +
/// processing latency). Defaults are calibrated so that ~56 broadcast-ping
/// replies bunched into a 30 ms burst lose roughly a quarter of the
/// responders (Table 5: 42 of 56 interfaces, "Collisions") while ordinary
/// serial exchanges never collide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionModel {
    /// Contention window.
    pub window: SimDuration,
    /// Frames per window that never collide.
    pub free_slots: usize,
    /// Added drop probability per extra concurrent frame.
    pub loss_per_extra: f64,
    /// Upper bound on the drop probability.
    pub max_loss: f64,
}

impl Default for CollisionModel {
    fn default() -> Self {
        CollisionModel {
            window: SimDuration::from_micros(150),
            free_slots: 1,
            loss_per_extra: 0.055,
            max_loss: 0.85,
        }
    }
}

impl CollisionModel {
    /// A lossless medium (useful in unit tests).
    pub fn none() -> Self {
        CollisionModel {
            window: SimDuration::ZERO,
            free_slots: usize::MAX,
            loss_per_extra: 0.0,
            max_loss: 0.0,
        }
    }

    /// Drop probability given `concurrent` frames in the current window.
    pub fn drop_probability(&self, concurrent: usize) -> f64 {
        if concurrent <= self.free_slots {
            0.0
        } else {
            ((concurrent - self.free_slots) as f64 * self.loss_per_extra).min(self.max_loss)
        }
    }
}

/// Static configuration of a segment.
#[derive(Debug, Clone)]
pub struct SegmentCfg {
    /// Human-readable name ("cs-net", "backbone", ...).
    pub name: String,
    /// One-way propagation + queueing latency per frame.
    pub latency: SimDuration,
    /// Random additional per-frame delay bound (uniform in `0..jitter`,
    /// drawn once per frame: every station hears it together).
    pub jitter: SimDuration,
    /// Base random frame loss probability (bit errors etc.).
    pub base_loss: f64,
    /// Collision behavior under load.
    pub collisions: CollisionModel,
    /// Maximum frame payload (MTU).
    pub mtu: usize,
}

impl Default for SegmentCfg {
    fn default() -> Self {
        SegmentCfg {
            name: "ether".to_owned(),
            latency: SimDuration::from_micros(200),
            jitter: SimDuration::from_micros(300),
            base_loss: 0.0,
            collisions: CollisionModel::default(),
            mtu: 1500,
        }
    }
}

impl SegmentCfg {
    /// A named default-configured Ethernet.
    pub fn named(name: &str) -> Self {
        SegmentCfg {
            name: name.to_owned(),
            ..Default::default()
        }
    }
}

/// Runtime state of a segment.
#[derive(Debug)]
pub struct Segment {
    /// Configuration.
    pub cfg: SegmentCfg,
    /// Attached `(node, interface-index)` pairs.
    pub attached: Vec<(NodeId, usize)>,
    /// Recent transmissions (for the collision window).
    recent: VecDeque<SimTime>,
    /// Traffic statistics.
    pub stats: SegmentStats,
    /// True while a [`crate::faults::FaultKind::Partition`] is in effect:
    /// the wire is cut and every offered frame is dropped.
    pub partitioned: bool,
    /// Additional independent loss probability from an active
    /// [`crate::faults::FaultKind::Degrade`] window (0.0 when healthy).
    pub fault_loss: f64,
    /// Additional per-frame latency from an active degrade window.
    pub fault_latency: SimDuration,
}

impl Segment {
    /// Creates a segment from its configuration.
    pub fn new(cfg: SegmentCfg) -> Self {
        Segment {
            cfg,
            attached: Vec::new(),
            recent: VecDeque::new(),
            stats: SegmentStats::default(),
            partitioned: false,
            fault_loss: 0.0,
            fault_latency: SimDuration::ZERO,
        }
    }

    /// Records a transmission at `now` and returns the number of frames in
    /// the current contention window (including this one).
    pub fn record_transmission(&mut self, now: SimTime) -> usize {
        let window = self.cfg.collisions.window;
        while let Some(&front) = self.recent.front() {
            if now.since(front) > window {
                self.recent.pop_front();
            } else {
                break;
            }
        }
        self.recent.push_back(now);
        self.recent.len()
    }

    /// The drop probability for a frame sent at `now` (base loss plus
    /// collision loss plus any active fault-degrade loss); also updates
    /// the contention window.
    pub fn loss_probability(&mut self, now: SimTime) -> f64 {
        let concurrent = self.record_transmission(now);
        let collision = self.cfg.collisions.drop_probability(concurrent);
        // Independent loss sources combine as 1 - (1-a)(1-b). With
        // fault_loss at its healthy 0.0 the extra factor is exactly 1.0,
        // so fault-free arithmetic is bit-identical to the pre-fault code.
        1.0 - (1.0 - self.cfg.base_loss) * (1.0 - collision) * (1.0 - self.fault_loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collision_model_probabilities() {
        let m = CollisionModel::default();
        assert_eq!(m.drop_probability(1), 0.0);
        assert!(m.drop_probability(3) > 0.0);
        assert!(m.drop_probability(10) > 0.0);
        assert!(m.drop_probability(100) <= m.max_loss);
        assert_eq!(CollisionModel::none().drop_probability(10_000), 0.0);
    }

    #[test]
    fn contention_window_expires() {
        let mut s = Segment::new(SegmentCfg::default());
        let t0 = SimTime::ZERO;
        assert_eq!(s.record_transmission(t0), 1);
        assert_eq!(s.record_transmission(t0 + SimDuration::from_micros(10)), 2);
        assert_eq!(s.record_transmission(t0 + SimDuration::from_micros(20)), 3);
        // Past the window, old transmissions are forgotten.
        let late = t0 + SimDuration::from_millis(5);
        assert_eq!(s.record_transmission(late), 1);
    }

    #[test]
    fn serial_exchange_never_collides() {
        // A request/response chain spaces frames by at least the segment
        // latency (200us) — beyond the slot-time window.
        let mut s = Segment::new(SegmentCfg::default());
        for i in 0..20u64 {
            let t = SimTime::ZERO + SimDuration::from_micros(i * 200);
            assert_eq!(s.loss_probability(t), 0.0, "frame {i}");
        }
    }

    #[test]
    fn loss_probability_combines_base_and_collision() {
        let cfg = SegmentCfg {
            base_loss: 0.5,
            collisions: CollisionModel::none(),
            ..SegmentCfg::default()
        };
        let mut s = Segment::new(cfg);
        assert!((s.loss_probability(SimTime::ZERO) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn quiet_default_segment_is_lossless() {
        let mut s = Segment::new(SegmentCfg::default());
        // Sparse traffic never collides.
        for i in 0..10 {
            let t = SimTime::ZERO + SimDuration::from_millis(10 * i);
            assert_eq!(s.loss_probability(t), 0.0);
        }
    }

    #[test]
    fn burst_raises_loss() {
        let mut s = Segment::new(SegmentCfg::default());
        let mut last = 0.0;
        for i in 0..56 {
            let t = SimTime::ZERO + SimDuration::from_micros(i * 10);
            last = s.loss_probability(t);
        }
        assert!(last > 0.2, "56-reply burst should lose packets, got {last}");
        assert!(last <= 0.85);
    }

    #[test]
    fn moderate_burst_loses_some() {
        // ~1 frame per 90us (a broadcast-ping reply storm density).
        let mut s = Segment::new(SegmentCfg::default());
        let mut lossy = 0;
        for i in 0..100u64 {
            let t = SimTime::ZERO + SimDuration::from_micros(i * 90);
            if s.loss_probability(t) > 0.0 {
                lossy += 1;
            }
        }
        assert!(lossy > 10, "storm density must contend, got {lossy}");
    }
}
