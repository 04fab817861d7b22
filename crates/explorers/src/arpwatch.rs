//! The ARPwatch Explorer Module.
//!
//! "Fremont's ARPwatch Explorer Module passively monitors ARP message
//! exchanges, and builds a table of Ethernet/IP address pairs for the
//! directly attached subnets. Because this module uses the Network
//! Interface Tap (NIT) feature of SunOS, this module must be run with
//! system privileges." It "generates no network traffic, and can be left
//! to run for long periods of time", but "will not discover hosts that are
//! not recipients of traffic from other hosts".

use std::collections::HashMap;
use std::net::Ipv4Addr;

use fremont_journal::observation::{Observation, Source};
use fremont_net::{ArpOp, ArpPacket, EtherType, EthernetFrame, MacAddr};
use fremont_netsim::engine::ProcCtx;
use fremont_netsim::process::Process;
use fremont_netsim::time::{SimDuration, SimTime};

/// Re-emit a known pair to the Journal at most this often (keeps the
/// record's verification timestamp fresh without flooding).
const REVERIFY_INTERVAL: SimDuration = SimDuration::from_mins(10);

/// The passive ARP monitor.
#[derive(Default)]
pub struct ArpWatch {
    /// `(ip, mac)` pairs seen, with the last time each was reported.
    seen: HashMap<(Ipv4Addr, MacAddr), SimTime>,
    frames_observed: u64,
}

impl ArpWatch {
    /// Creates the module; it takes no input (paper Table 3).
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct `(ip, mac)` pairs observed so far.
    pub fn pairs(&self) -> Vec<(Ipv4Addr, MacAddr)> {
        let mut v: Vec<_> = self.seen.keys().copied().collect();
        v.sort();
        v
    }

    /// Distinct IP addresses observed.
    pub fn distinct_ips(&self) -> usize {
        let mut ips: Vec<Ipv4Addr> = self.seen.keys().map(|(ip, _)| *ip).collect();
        ips.sort();
        ips.dedup();
        ips.len()
    }

    /// ARP frames inspected.
    pub fn frames_observed(&self) -> u64 {
        self.frames_observed
    }

    fn record(&mut self, ip: Ipv4Addr, mac: MacAddr, ctx: &mut ProcCtx<'_>) {
        if ip.is_unspecified() {
            return;
        }
        let now = ctx.now();
        let due = match self.seen.get(&(ip, mac)) {
            Some(last) => now.since(*last) >= REVERIFY_INTERVAL,
            None => true,
        };
        if due {
            self.seen.insert((ip, mac), now);
            ctx.emit(Observation::arp_pair(Source::ArpWatch, ip, mac));
        }
    }
}

impl Process for ArpWatch {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.enable_tap(true);
    }

    fn on_tap(&mut self, frame: &EthernetFrame, ctx: &mut ProcCtx<'_>) {
        if frame.ethertype != EtherType::Arp {
            return;
        }
        let Ok(arp) = ArpPacket::decode(&frame.payload) else {
            return;
        };
        self.frames_observed += 1;
        // The sender binding is trustworthy in both requests and replies.
        // In a reply the sender *is* answering for `sender_ip` — if that is
        // proxy ARP, the same MAC accumulates many IPs, which the Journal
        // keeps visible for the analysis programs.
        self.record(arp.sender_ip, arp.sender_mac, ctx);
        if arp.op == ArpOp::Reply && !arp.target_mac.is_broadcast() {
            self.record(arp.target_ip, arp.target_mac, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::lan;
    use fremont_journal::observation::Fact;
    use fremont_netsim::time::SimDuration;
    use fremont_netsim::traffic::{Flow, TrafficModel};

    #[test]
    fn quiet_network_yields_nothing() {
        let (mut sim, topo) = lan(4);
        let h = sim.spawn(topo.hosts[0], Box::new(ArpWatch::new()));
        sim.run_for(SimDuration::from_mins(5));
        assert_eq!(sim.process_mut::<ArpWatch>(h).unwrap().distinct_ips(), 0);
        assert!(sim.drain_observations().is_empty());
    }

    #[test]
    fn traffic_reveals_talking_hosts() {
        let (mut sim, topo) = lan(6);
        // Hosts 1 and 2 chat (host 0 runs the watcher and stays silent).
        // The watcher starts before traffic so its tap sees the exchange.
        let h = sim.spawn(topo.hosts[0], Box::new(ArpWatch::new()));
        let dst1 = sim.nodes[topo.hosts[2].0].ifaces[0].ip;
        let dst2 = sim.nodes[topo.hosts[1].0].ifaces[0].ip;
        sim.set_traffic(TrafficModel::new(
            vec![
                Flow {
                    src: topo.hosts[1],
                    dst: dst1,
                    weight: 1.0,
                },
                Flow {
                    src: topo.hosts[2],
                    dst: dst2,
                    weight: 1.0,
                },
            ],
            SimDuration::from_secs(5),
            1,
        ));
        sim.run_for(SimDuration::from_mins(3));
        let w = sim.process_mut::<ArpWatch>(h).unwrap();
        assert_eq!(
            w.distinct_ips(),
            2,
            "both talkers discovered: {:?}",
            w.pairs()
        );
        assert!(w.frames_observed() >= 2);
        // Observations flowed to the outbox with the right source.
        let obs = sim.drain_observations();
        assert!(!obs.is_empty());
        assert!(obs.iter().all(|(_, _, o)| o.source == Source::ArpWatch));
        assert!(obs.iter().all(|(_, _, o)| matches!(
            o.fact,
            Fact::Interface {
                mac: Some(_),
                ip: Some(_),
                ..
            }
        )));
    }

    #[test]
    fn reverify_interval_limits_duplicate_emissions() {
        let (mut sim, topo) = lan(3);
        let dst = sim.nodes[topo.hosts[2].0].ifaces[0].ip;
        sim.set_traffic(TrafficModel::new(
            vec![Flow {
                src: topo.hosts[1],
                dst,
                weight: 1.0,
            }],
            SimDuration::from_secs(2),
            1,
        ));
        let _h = sim.spawn(topo.hosts[0], Box::new(ArpWatch::new()));
        sim.run_for(SimDuration::from_mins(5));
        let obs = sim.drain_observations();
        // Host 1 ARPs for host 2 repeatedly (cache expiry >> 5 min means
        // one exchange, but the watcher would re-emit only after 10 min
        // anyway). At most one emission per pair per 10 minutes.
        assert!(
            obs.len() <= 4,
            "rate-limited re-verification, got {} observations",
            obs.len()
        );
    }
}
