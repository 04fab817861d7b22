//! The Subnet Masks Explorer Module.
//!
//! "Fremont uses this feature of ICMP [mask request/reply] to discover and
//! record the subnet masks of all the interfaces that it has already
//! discovered. Fremont uses the collected subnet masks to aid in
//! determining the network structure. It also uses the gathered
//! information to detect conflicting subnet masks on different interfaces
//! of a subnet." The request "is not as widely implemented as the echo
//! request/reply", so some interfaces never answer.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use fremont_journal::observation::{Fact, Observation, Source};
use fremont_net::{IcmpMessage, IpProtocol, Ipv4Packet, Subnet, SubnetMask};
use fremont_netsim::engine::ProcCtx;
use fremont_netsim::process::Process;
use fremont_netsim::time::SimDuration;

/// Table 4: "2 sec/address", 0.5 pkts/sec.
const INTERVAL: SimDuration = SimDuration::from_secs(2);
/// ICMP identifier marking this module's mask requests.
const IDENT: u16 = 0x3A5C;

/// Module state.
pub struct SubnetMasks {
    targets: Vec<Ipv4Addr>,
    next: usize,
    masks: HashMap<Ipv4Addr, SubnetMask>,
    finished: bool,
}

const TIMER_NEXT: u64 = 1;
const TIMER_DRAIN: u64 = 2;

impl SubnetMasks {
    /// Creates the module over its Table 3 input: interfaces "that it has
    /// already discovered", taken from the Journal.
    pub fn new(targets: Vec<Ipv4Addr>) -> Self {
        SubnetMasks {
            targets,
            next: 0,
            masks: HashMap::new(),
            finished: false,
        }
    }

    /// Collected `(interface, mask)` results.
    pub fn masks(&self) -> Vec<(Ipv4Addr, SubnetMask)> {
        let mut v: Vec<_> = self.masks.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by_key(|(ip, _)| u32::from(*ip));
        v
    }
}

impl Process for SubnetMasks {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.set_timer(SimDuration::ZERO, TIMER_NEXT);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut ProcCtx<'_>) {
        match token {
            TIMER_NEXT => {
                if self.next >= self.targets.len() {
                    ctx.set_timer(SimDuration::from_secs(5), TIMER_DRAIN);
                    return;
                }
                let target = self.targets[self.next];
                self.next += 1;
                let msg = IcmpMessage::MaskRequest {
                    ident: IDENT,
                    seq: self.next as u16,
                };
                // A request the stack refuses (host down, no route) never
                // left: `ProcStats` counts it, and the next one goes now.
                let pace = match ctx.send_icmp(target, &msg) {
                    Ok(()) => INTERVAL,
                    Err(_) => SimDuration::ZERO,
                };
                ctx.set_timer(pace, TIMER_NEXT);
            }
            TIMER_DRAIN => self.finished = true,
            _ => {}
        }
    }

    fn on_ip(&mut self, pkt: &Ipv4Packet, ctx: &mut ProcCtx<'_>) {
        if pkt.protocol != IpProtocol::Icmp {
            return;
        }
        let Ok(IcmpMessage::MaskReply { ident, mask, .. }) = IcmpMessage::decode(&pkt.payload)
        else {
            return;
        };
        if ident != IDENT {
            return;
        }
        let Ok(mask) = SubnetMask::from_addr(mask) else {
            return; // A garbage mask reply; ignore it.
        };
        if self.masks.insert(pkt.src, mask).is_none() {
            ctx.emit(Observation::mask(Source::SubnetMasks, pkt.src, mask));
            // A confirmed mask also confirms the subnet's existence.
            ctx.emit(Observation::new(
                Source::SubnetMasks,
                Fact::Subnet {
                    subnet: Subnet::containing(pkt.src, mask),
                    mask_assumed: false,
                },
            ));
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
    fn collects_masks_from_responding_interfaces() {
        let (mut sim, topo) = lan(3);
        let targets: Vec<Ipv4Addr> = vec![
            "10.7.7.11".parse().unwrap(),
            "10.7.7.12".parse().unwrap(),
            "10.7.7.1".parse().unwrap(),
        ];
        let h = sim.spawn(topo.hosts[0], Box::new(SubnetMasks::new(targets)));
        sim.run_for(SimDuration::from_mins(1));
        let p = sim.process_mut::<SubnetMasks>(h).unwrap();
        assert!(p.done());
        let masks = p.masks();
        assert_eq!(masks.len(), 3);
        assert!(
            masks.iter().all(|(_, m)| m.prefix_len() == 24),
            "all /24: {masks:?}"
        );
        // Both a mask fact and a subnet fact per responder.
        let obs = sim.drain_observations();
        assert_eq!(obs.len(), 6);
    }

    #[test]
    fn silent_interfaces_are_skipped() {
        let (mut sim, topo) = lan(3);
        // Host .11 is configured not to answer mask requests.
        sim.nodes[topo.hosts[1].0].behavior.mask_reply = false;
        let targets: Vec<Ipv4Addr> =
            vec!["10.7.7.11".parse().unwrap(), "10.7.7.12".parse().unwrap()];
        let h = sim.spawn(topo.hosts[0], Box::new(SubnetMasks::new(targets)));
        sim.run_for(SimDuration::from_mins(1));
        let p = sim.process_mut::<SubnetMasks>(h).unwrap();
        assert_eq!(p.masks().len(), 1);
        assert_eq!(p.masks()[0].0, "10.7.7.12".parse::<Ipv4Addr>().unwrap());
    }

    #[test]
    fn detects_conflicting_masks() {
        let (mut sim, topo) = lan(3);
        // Host .12 is misconfigured as /16.
        sim.nodes[topo.hosts[2].0].ifaces[0].mask = SubnetMask::from_prefix_len(16).unwrap();
        let targets: Vec<Ipv4Addr> =
            vec!["10.7.7.11".parse().unwrap(), "10.7.7.12".parse().unwrap()];
        let h = sim.spawn(topo.hosts[0], Box::new(SubnetMasks::new(targets)));
        sim.run_for(SimDuration::from_mins(1));
        let p = sim.process_mut::<SubnetMasks>(h).unwrap();
        let masks = p.masks();
        assert_eq!(masks.len(), 2);
        let lens: Vec<u8> = masks.iter().map(|(_, m)| m.prefix_len()).collect();
        assert!(lens.contains(&24) && lens.contains(&16), "lens {lens:?}");
    }

    #[test]
    fn empty_target_list_finishes_immediately() {
        let (mut sim, topo) = lan(1);
        let h = sim.spawn(topo.hosts[0], Box::new(SubnetMasks::new(vec![])));
        sim.run_for(SimDuration::from_secs(10));
        assert!(sim.process_mut::<SubnetMasks>(h).unwrap().done());
    }
}
