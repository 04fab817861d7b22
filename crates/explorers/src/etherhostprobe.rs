//! The EtherHostProbe Explorer Module.
//!
//! "Fremont also has an EtherHostProbe Explorer Module, which attempts to
//! send an IP packet to the UDP Echo port of each host in a range of
//! addresses. Doing so causes the originating host to generate ARP
//! requests, the responses for which are entered into the host's ARP
//! table, and then read by the EtherHostProbe Explorer Module. ... The
//! module limits the rate of generated packets to four per second. It does
//! not use the Network Interface Tap and does not require special
//! privileges."

use std::net::Ipv4Addr;

use bytes::Bytes;
use fremont_journal::observation::{Observation, Source};
use fremont_net::udp::ECHO_PORT;
use fremont_net::IpRange;
use fremont_netsim::engine::ProcCtx;
use fremont_netsim::process::Process;
use fremont_netsim::time::SimDuration;

/// "The module limits the rate of generated packets to four per second."
const INTERVAL: SimDuration = SimDuration::from_millis(250);
/// How long to wait after the sweep before harvesting the ARP cache.
const HARVEST_GRACE: SimDuration = SimDuration::from_secs(5);

/// Module state.
pub struct EtherHostProbe {
    range: IpRange,
    queue: Vec<Ipv4Addr>,
    next: usize,
    finished: bool,
}

const TIMER_NEXT: u64 = 1;
const TIMER_HARVEST: u64 = 2;

impl EtherHostProbe {
    /// Creates the module over its Table 3 input, an address range. The
    /// range must be on the directly attached subnet: the ARP mechanism
    /// "is limited to gathering information only about hosts that are on
    /// a directly attached, locally shared subnet".
    pub fn new(range: IpRange) -> Self {
        EtherHostProbe {
            queue: range.iter().collect(),
            range,
            next: 0,
            finished: false,
        }
    }
}

impl Process for EtherHostProbe {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.set_timer(SimDuration::ZERO, TIMER_NEXT);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut ProcCtx<'_>) {
        match token {
            TIMER_NEXT => {
                if self.next >= self.queue.len() {
                    ctx.set_timer(HARVEST_GRACE, TIMER_HARVEST);
                    return;
                }
                let target = self.queue[self.next];
                self.next += 1;
                // The UDP packet itself is almost irrelevant; what matters
                // is the ARP request the host stack emits to deliver it. A
                // probe the stack refuses (host down, no route) never left:
                // `ProcStats` counts it, and the next one goes now.
                let pace =
                    match ctx.send_udp(target, 1042, ECHO_PORT, Bytes::from_static(b"fremont")) {
                        Ok(()) => INTERVAL,
                        Err(_) => SimDuration::ZERO,
                    };
                ctx.set_timer(pace, TIMER_NEXT);
            }
            TIMER_HARVEST => {
                // Read the kernel ARP table (no privileges needed).
                for (ip, mac) in ctx.arp_snapshot() {
                    if self.range.contains(ip) {
                        ctx.emit(Observation::arp_pair(Source::EtherHostProbe, ip, mac));
                    }
                }
                self.finished = true;
            }
            _ => {}
        }
    }

    fn done(&self) -> bool {
        self.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{interface_ips, lan};
    use fremont_journal::observation::Fact;

    #[test]
    fn harvests_macs_of_up_hosts() {
        let (mut sim, topo) = lan(4);
        let range = IpRange::new("10.7.7.1".parse().unwrap(), "10.7.7.30".parse().unwrap());
        let h = sim.spawn(topo.hosts[0], Box::new(EtherHostProbe::new(range)));
        sim.run_for(SimDuration::from_mins(2));
        assert!(sim.process_done(h));
        assert_eq!(sim.proc_stats(h).packets_sent, 30);
        // 3 other hosts + gateway = 4 ARP entries (own address never ARPs).
        let obs = sim.drain_observations_of(h);
        assert_eq!(obs.len(), 4, "found: {obs:?}");
        assert_eq!(interface_ips(&obs).len(), 4, "found: {obs:?}");
        // MACs are real vendor-prefixed addresses.
        for o in &obs {
            assert_eq!(o.source, Source::EtherHostProbe);
            match &o.fact {
                Fact::Interface { mac: Some(m), .. } => {
                    assert!(m.vendor().is_some(), "vendor for {m}")
                }
                other => panic!("wrong fact {other:?}"),
            }
        }
    }

    #[test]
    fn down_hosts_never_enter_the_cache() {
        let (mut sim, topo) = lan(4);
        sim.set_node_up(topo.hosts[1], false);
        let range = IpRange::new("10.7.7.10".parse().unwrap(), "10.7.7.13".parse().unwrap());
        let h = sim.spawn(topo.hosts[0], Box::new(EtherHostProbe::new(range)));
        sim.run_for(SimDuration::from_mins(2));
        assert_eq!(
            interface_ips(&sim.drain_observations_of(h)),
            [Ipv4Addr::new(10, 7, 7, 12), Ipv4Addr::new(10, 7, 7, 13)],
            "hosts .12/.13; .11 down, .10 is self"
        );
    }

    #[test]
    fn rate_is_four_per_second() {
        let (mut sim, topo) = lan(1);
        let range = IpRange::new("10.7.7.10".parse().unwrap(), "10.7.7.49".parse().unwrap());
        let h = sim.spawn(topo.hosts[0], Box::new(EtherHostProbe::new(range)));
        // 40 probes at 4/s = 10 s; not done at 5 s.
        sim.run_for(SimDuration::from_secs(5));
        assert!(!sim.process_done(h));
        let sent = sim.proc_stats(h).packets_sent;
        assert!((18..=22).contains(&sent), "{sent}");
        sim.run_for(SimDuration::from_secs(30));
        assert!(sim.process_done(h));
    }
}
