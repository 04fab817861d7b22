//! The Sequential Ping Explorer Module.
//!
//! "The Sequential Ping Explorer Module is the simplest and most reliable
//! of the modules, because virtually every host implements the ICMP Echo
//! Request/Reply protocol. The load presented to the network is low,
//! because request packets are sent only once every two seconds. ... If
//! the module receives no response to a packet after issuing one request
//! to each destination address, it sends one more request packet to each
//! destination that did not respond."

use std::collections::HashSet;
use std::net::Ipv4Addr;

use fremont_journal::observation::{Observation, Source};
use fremont_net::{IcmpMessage, IpProtocol, IpRange, Ipv4Packet};
use fremont_netsim::engine::ProcCtx;
use fremont_netsim::process::Process;
use fremont_netsim::time::SimDuration;

/// "request packets are sent only once every two seconds"
const INTERVAL: SimDuration = SimDuration::from_secs(2);
/// ICMP identifier marking this module's echoes.
const IDENT: u16 = 0x5EC1;

/// Module state.
pub struct SeqPing {
    range: IpRange,
    queue: Vec<Ipv4Addr>,
    next: usize,
    pass: u8,
    responders: HashSet<Ipv4Addr>,
    sent: u64,
    finished: bool,
}

const TIMER_NEXT: u64 = 1;

impl SeqPing {
    /// Creates the module over its Table 3 input, an address range.
    pub fn new(range: IpRange) -> Self {
        SeqPing {
            queue: range.iter().collect(),
            range,
            next: 0,
            pass: 1,
            responders: HashSet::new(),
            sent: 0,
            finished: false,
        }
    }

    /// Addresses that answered.
    pub fn responders(&self) -> Vec<Ipv4Addr> {
        let mut v: Vec<_> = self.responders.iter().copied().collect();
        v.sort_by_key(|ip| u32::from(*ip));
        v
    }

    /// Echo requests sent.
    pub fn requests_sent(&self) -> u64 {
        self.sent
    }

    fn send_next(&mut self, ctx: &mut ProcCtx<'_>) {
        loop {
            if self.next >= self.queue.len() {
                if self.pass == 1 {
                    // Second pass over non-responders.
                    self.pass = 2;
                    self.queue.retain(|ip| !self.responders.contains(ip));
                    self.next = 0;
                    if self.queue.is_empty() {
                        self.finished = true;
                        return;
                    }
                } else {
                    // Allow stragglers a final timeout window.
                    ctx.set_timer(SimDuration::from_secs(5), 2);
                    return;
                }
            }
            let target = self.queue[self.next];
            self.next += 1;
            if self.pass == 2 && self.responders.contains(&target) {
                continue;
            }
            let msg = IcmpMessage::EchoRequest {
                ident: IDENT,
                seq: self.sent as u16,
                payload: vec![0u8; 8],
            };
            self.sent += 1;
            let _ = ctx.send_icmp(target, &msg);
            ctx.set_timer(INTERVAL, TIMER_NEXT);
            return;
        }
    }
}

impl Process for SeqPing {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        self.send_next(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut ProcCtx<'_>) {
        match token {
            TIMER_NEXT => self.send_next(ctx),
            _ => self.finished = true,
        }
    }

    fn on_ip(&mut self, pkt: &Ipv4Packet, ctx: &mut ProcCtx<'_>) {
        if pkt.protocol != IpProtocol::Icmp {
            return;
        }
        let Ok(IcmpMessage::EchoReply { ident, .. }) = IcmpMessage::decode(&pkt.payload) else {
            return;
        };
        if ident != IDENT {
            return;
        }
        if self.range.contains(pkt.src) && self.responders.insert(pkt.src) {
            ctx.emit(Observation::ip_alive(Source::SeqPing, pkt.src));
        }
    }

    fn done(&self) -> bool {
        self.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::lan;

    #[test]
    fn finds_all_up_hosts_in_range() {
        let (mut sim, topo) = lan(5);
        let range = IpRange::new("10.7.7.1".parse().unwrap(), "10.7.7.20".parse().unwrap());
        let h = sim.spawn(topo.hosts[0], Box::new(SeqPing::new(range)));
        sim.run_for(SimDuration::from_mins(3));
        let p = sim.process_mut::<SeqPing>(h).unwrap();
        assert!(p.done());
        // 4 other hosts + gateway answer; the prober does not probe itself
        // out of existence (its own address replies too via loopback-less
        // stack? no — it never receives its own echo), so expect 5.
        let got = p.responders();
        assert_eq!(got.len(), 5, "responders: {got:?}");
        assert!(
            got.contains(&"10.7.7.1".parse().unwrap()),
            "gateway replies"
        );
    }

    #[test]
    fn down_hosts_are_missed() {
        let (mut sim, topo) = lan(5);
        sim.set_node_up(topo.hosts[2], false);
        sim.set_node_up(topo.hosts[3], false);
        let range = IpRange::new("10.7.7.10".parse().unwrap(), "10.7.7.14".parse().unwrap());
        let h = sim.spawn(topo.hosts[0], Box::new(SeqPing::new(range)));
        sim.run_for(SimDuration::from_mins(3));
        let p = sim.process_mut::<SeqPing>(h).unwrap();
        assert_eq!(
            p.responders().len(),
            2,
            "hosts 1 and 4 (prober's own address never replies)"
        );
    }

    #[test]
    fn retry_pass_doubles_requests_for_dead_space() {
        let (mut sim, topo) = lan(1);
        // Range of 4 entirely-unused addresses: 4 + 4 retries.
        let range = IpRange::new("10.7.7.100".parse().unwrap(), "10.7.7.103".parse().unwrap());
        let h = sim.spawn(topo.hosts[0], Box::new(SeqPing::new(range)));
        sim.run_for(SimDuration::from_mins(2));
        let p = sim.process_mut::<SeqPing>(h).unwrap();
        assert_eq!(p.requests_sent(), 8);
        assert!(p.responders().is_empty());
        assert!(p.done());
    }

    #[test]
    fn paces_at_configured_interval() {
        let (mut sim, topo) = lan(1);
        let range = IpRange::new("10.7.7.50".parse().unwrap(), "10.7.7.59".parse().unwrap());
        let before = sim.now();
        let h = sim.spawn(topo.hosts[0], Box::new(SeqPing::new(range)));
        // 10 addresses * 2s + retries 10 * 2s ≈ 40s minimum.
        sim.run_for(SimDuration::from_secs(30));
        let p = sim.process_mut::<SeqPing>(h).unwrap();
        assert!(!p.done(), "sweep must still be running at 30s");
        sim.run_for(SimDuration::from_secs(60));
        let p = sim.process_mut::<SeqPing>(h).unwrap();
        assert!(p.done());
        let _ = before;
    }

    #[test]
    fn observations_are_emitted_per_responder() {
        let (mut sim, topo) = lan(3);
        let range = IpRange::new("10.7.7.10".parse().unwrap(), "10.7.7.12".parse().unwrap());
        sim.spawn(topo.hosts[0], Box::new(SeqPing::new(range)));
        sim.run_for(SimDuration::from_mins(2));
        let obs = sim.drain_observations();
        assert_eq!(obs.len(), 2, "hosts .11 and .12 respond (prober is .10)");
        assert!(obs.iter().all(|(_, _, o)| o.source == Source::SeqPing));
    }
}
