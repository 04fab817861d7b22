//! Traffic and simulation statistics.
//!
//! Table 4 of the paper reports per-module *network load* (packets per
//! second) and completion time; the experiment harness measures these by
//! reading segment counters before and after a module's run.

use crate::engine::Sim;
use crate::time::SimTime;

/// Per-segment traffic counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Frames successfully delivered onto the wire.
    pub frames_sent: u64,
    /// Bytes in those frames.
    pub bytes_sent: u64,
    /// Frames lost to collisions, a degrade fault's loss or a cut wire.
    pub frames_lost: u64,
    /// Broadcast frames among `frames_sent`.
    pub broadcasts: u64,
    /// ARP frames among `frames_sent`.
    pub arp_frames: u64,
    /// Per-second frame counts, stored sparsely as ascending
    /// `(second, count)` pairs so an idle sim costs nothing: a frame
    /// after hours of silence adds one slot, not hours' worth of
    /// zeroed entries (enabled on demand).
    buckets: Option<Vec<(u64, u32)>>,
}

impl SegmentStats {
    /// Enables per-second rate buckets (costs one slot per *active*
    /// sim-second — seconds with no traffic are never materialised).
    pub fn enable_buckets(&mut self) {
        if self.buckets.is_none() {
            self.buckets = Some(Vec::new());
        }
    }

    /// Records a delivered frame.
    pub fn record_frame(&mut self, now: SimTime, bytes: usize, broadcast: bool, arp: bool) {
        self.frames_sent += 1;
        self.bytes_sent += bytes as u64;
        if broadcast {
            self.broadcasts += 1;
        }
        if arp {
            self.arp_frames += 1;
        }
        if let Some(b) = &mut self.buckets {
            let sec = now.as_secs();
            // The simulation clock is monotone, so a frame lands in the
            // last slot's second or opens a new one.
            match b.last_mut() {
                Some((s, n)) if *s == sec => *n += 1,
                last => {
                    debug_assert!(last.is_none_or(|(s, _)| *s < sec), "clock ran backwards");
                    b.push((sec, 1));
                }
            }
        }
    }

    /// Records a lost frame.
    pub fn record_loss(&mut self) {
        self.frames_lost += 1;
    }

    /// Frames delivered in the half-open sim-second interval `[from, to)`.
    ///
    /// Requires [`SegmentStats::enable_buckets`]; returns 0 otherwise.
    pub fn frames_between(&self, from: SimTime, to: SimTime) -> u64 {
        let Some(b) = &self.buckets else { return 0 };
        let lo = from.as_secs();
        let hi = to.as_secs();
        if lo >= hi {
            return 0;
        }
        let start = b.partition_point(|&(s, _)| s < lo);
        let end = b.partition_point(|&(s, _)| s < hi);
        b[start..end].iter().map(|&(_, c)| u64::from(c)).sum()
    }

    /// Peak frames observed in any single second of `[from, to)`.
    pub fn peak_rate(&self, from: SimTime, to: SimTime) -> u32 {
        let Some(b) = &self.buckets else { return 0 };
        let lo = from.as_secs();
        let hi = to.as_secs();
        if lo >= hi {
            return 0;
        }
        let start = b.partition_point(|&(s, _)| s < lo);
        let end = b.partition_point(|&(s, _)| s < hi);
        b[start..end].iter().map(|&(_, c)| c).max().unwrap_or(0)
    }

    /// Number of materialised bucket slots (`None` if buckets are
    /// disabled). Exposed so tests can assert sparse storage.
    pub fn bucket_slots(&self) -> Option<usize> {
        self.buckets.as_ref().map(|b| b.len())
    }
}

/// Whole-simulation statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimStats {
    /// Events processed by the engine. A frame on the wire is one event
    /// however many stations hear it; `frame_deliveries` counts those. A
    /// RIP response that only counters hear never enters the event queue
    /// (`rip.rs`, "counted, not queued"), but its counted arrival is one
    /// event all the same.
    pub events_processed: u64,
    /// Frames handed to a receiving interface by the link layer (a
    /// broadcast on an N-station segment adds N − 1; taps not included).
    pub frame_deliveries: u64,
    /// ARP packets arriving at an interface that is up.
    pub arp_packets: u64,
    /// IPv4 packets arriving at an interface that is up.
    pub ip_packets: u64,
    /// RIP packets arriving at a node's UDP port 520.
    pub rip_packets: u64,
    /// IP packets originated by any node or process.
    pub packets_originated: u64,
    /// IP packets forwarded by routers.
    pub packets_forwarded: u64,
    /// ICMP error messages generated.
    pub icmp_errors: u64,
    /// ARP requests broadcast.
    pub arp_requests: u64,
    /// High-water mark of the pending event queue depth (responses held
    /// off the queue are not counted).
    pub queue_depth_hwm: u64,
    /// Simulated microseconds the clock advanced without dispatching an
    /// event: inter-event gaps plus idle tails jumped to a `run_until`
    /// deadline. Each jump is one peek at the earliest pending event,
    /// regardless of the gap's length.
    pub idle_skipped_micros: u64,
}

/// Per-process packet counters, keyed by the owning process handle in
/// the engine. These feed the Table 4 `ModuleLoadReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// IP packets this process originated (accepted by the stack).
    pub packets_sent: u64,
    /// UDP/ICMP payloads delivered to this process's handlers.
    pub packets_received: u64,
    /// Frames seen through a promiscuous tap.
    pub frames_tapped: u64,
    /// IP packets this process tried to originate that the stack
    /// refused (host down, no route, too big): nothing reached the wire.
    pub send_errors: u64,
}

impl Sim {
    /// Sum of one counter across all segments.
    pub(crate) fn segment_total(&self, counter: impl Fn(&SegmentStats) -> u64) -> u64 {
        self.segments.iter().map(|s| counter(&s.stats)).sum()
    }

    /// Publishes engine-wide counters into the telemetry recorder. Called
    /// at sync points (driver pump, end of run) rather than per event
    /// so the hot loop stays allocation-free.
    pub fn publish_metrics(&self) {
        let t = &self.telemetry;
        if !t.enabled() {
            return;
        }
        let s = &self.stats;
        let seg = |counter: fn(&SegmentStats) -> u64| self.segment_total(counter);
        for (name, value) in [
            ("fremont_sim_events_processed_total", s.events_processed),
            ("fremont_sim_frame_deliveries_total", s.frame_deliveries),
            ("fremont_sim_packets_originated_total", s.packets_originated),
            ("fremont_sim_packets_forwarded_total", s.packets_forwarded),
            ("fremont_sim_icmp_errors_total", s.icmp_errors),
            ("fremont_sim_arp_requests_total", s.arp_requests),
            ("fremont_sim_frames_sent_total", seg(|g| g.frames_sent)),
            ("fremont_sim_frame_bytes_total", seg(|g| g.bytes_sent)),
            ("fremont_sim_frames_lost_total", seg(|g| g.frames_lost)),
            ("fremont_sim_broadcast_frames_total", seg(|g| g.broadcasts)),
            ("fremont_sim_arp_frames_total", seg(|g| g.arp_frames)),
        ] {
            t.counter_set(name, "", value);
        }
        t.gauge_max("fremont_sim_queue_depth_hwm", "", s.queue_depth_hwm);
        // The fault family appears only once a non-empty plan is
        // installed: a fault-free exposition must stay byte-identical.
        if self.faults_installed {
            let f = &self.fault_stats;
            t.counter_set("fremont_sim_fault_events_total", "", f.total());
            for (kind, applied) in f.by_kind() {
                let label = format!("kind=\"{kind}\"");
                t.counter_set("fremont_sim_fault_events_total", &label, applied);
            }
            t.counter_set("fremont_sim_fault_unresolved_total", "", f.unresolved);
            t.counter_set(
                "fremont_sim_fault_partition_frames_dropped_total",
                "",
                f.frames_dropped,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn counters_accumulate() {
        let mut s = SegmentStats::default();
        s.record_frame(SimTime::ZERO, 100, true, true);
        s.record_frame(SimTime::ZERO, 60, false, false);
        s.record_loss();
        assert_eq!(s.frames_sent, 2);
        assert_eq!(s.bytes_sent, 160);
        assert_eq!(s.broadcasts, 1);
        assert_eq!(s.arp_frames, 1);
        assert_eq!(s.frames_lost, 1);
    }

    #[test]
    fn buckets_disabled_by_default() {
        let mut s = SegmentStats::default();
        s.record_frame(SimTime::ZERO, 100, false, false);
        assert_eq!(s.frames_between(SimTime::ZERO, SimTime(10_000_000)), 0);
        assert_eq!(s.bucket_slots(), None);
    }

    #[test]
    fn rate_buckets() {
        let mut s = SegmentStats::default();
        s.enable_buckets();
        for i in 0..10u64 {
            let t = SimTime::ZERO + SimDuration::from_millis(500 * i);
            s.record_frame(t, 64, false, false);
        }
        // 10 frames across seconds 0..5 (2 per second).
        assert_eq!(s.frames_between(SimTime::ZERO, SimTime(5_000_000)), 10);
        assert_eq!(s.frames_between(SimTime(1_000_000), SimTime(2_000_000)), 2);
        assert_eq!(s.peak_rate(SimTime::ZERO, SimTime(5_000_000)), 2);
        // Out-of-range windows are empty.
        assert_eq!(
            s.frames_between(SimTime(50_000_000), SimTime(60_000_000)),
            0
        );
    }

    #[test]
    fn idle_gaps_cost_no_slots() {
        let mut s = SegmentStats::default();
        s.enable_buckets();
        s.record_frame(SimTime::ZERO, 64, false, false);
        // A frame twelve hours later must not materialise 43k zeroes.
        let later = SimTime::ZERO + SimDuration::from_hours(12);
        s.record_frame(later, 64, false, false);
        assert_eq!(s.bucket_slots(), Some(2));
        assert_eq!(
            s.frames_between(SimTime::ZERO, later + SimDuration::from_secs(1)),
            2
        );
        // The idle middle reads as empty.
        assert_eq!(s.frames_between(SimTime(1_000_000), later), 0,);
        assert_eq!(
            s.peak_rate(SimTime::ZERO, later + SimDuration::from_secs(1)),
            1
        );
    }

    #[test]
    fn window_edges_are_half_open() {
        let mut s = SegmentStats::default();
        s.enable_buckets();
        s.record_frame(SimTime(2_500_000), 64, false, false); // second 2
        s.record_frame(SimTime(3_000_000), 64, false, false); // second 3
                                                              // [2, 3) includes second 2 only.
        assert_eq!(s.frames_between(SimTime(2_000_000), SimTime(3_000_000)), 1);
        // [3, 4) includes second 3 only.
        assert_eq!(s.frames_between(SimTime(3_000_000), SimTime(4_000_000)), 1);
        // Empty and inverted windows.
        assert_eq!(s.frames_between(SimTime(3_000_000), SimTime(3_000_000)), 0);
        assert_eq!(s.frames_between(SimTime(4_000_000), SimTime(3_000_000)), 0);
        assert_eq!(s.peak_rate(SimTime(3_000_000), SimTime(3_000_000)), 0);
    }
}
