//! Background traffic model.
//!
//! Passive discovery (ARPwatch) only sees hosts that talk: "this module
//! ... will not discover hosts that are not recipients of traffic from
//! other hosts". The traffic model generates weighted host-to-host
//! chatter, so that over 30 minutes most *busy* hosts have ARPed and over
//! 24 hours nearly everyone has — the dynamics behind Table 5's ARPwatch
//! rows (61% after 30 min, 89% after 24 h).

use std::net::Ipv4Addr;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::Rng;

use fremont_net::{IpProtocol, Ipv4Packet, UdpDatagram};

use crate::engine::{Event, Sim};
use crate::segment::NodeId;
use crate::time::SimDuration;

/// One recurring conversation.
#[derive(Debug, Clone, Copy)]
pub struct Flow {
    /// Sending node.
    pub src: NodeId,
    /// Destination address (usually another local host; triggers ARP).
    pub dst: Ipv4Addr,
    /// Relative frequency weight.
    pub weight: f64,
}

/// A weighted background-traffic generator.
#[derive(Debug, Clone)]
pub struct TrafficModel {
    flows: Vec<Flow>,
    total_weight: f64,
    /// Mean time between bursts.
    pub mean_interval: SimDuration,
    /// Flows sampled per burst.
    pub burst_size: usize,
    /// Stop generating after this time (`None` = run forever).
    pub budget: Option<u64>,
    emitted: u64,
}

impl TrafficModel {
    /// Creates a model from flows.
    pub fn new(flows: Vec<Flow>, mean_interval: SimDuration, burst_size: usize) -> Self {
        let total_weight = flows.iter().map(|f| f.weight).sum();
        TrafficModel {
            flows,
            total_weight,
            mean_interval,
            burst_size,
            budget: None,
            emitted: 0,
        }
    }

    /// Samples the next burst: the `(src, dst)` pairs to send now, and the
    /// delay until the following burst (`None` ends the model).
    pub fn next_burst(
        &mut self,
        rng: &mut StdRng,
    ) -> (Vec<(NodeId, Ipv4Addr)>, Option<SimDuration>) {
        if self.flows.is_empty() || self.total_weight <= 0.0 {
            return (Vec::new(), None);
        }
        if let Some(budget) = self.budget {
            if self.emitted >= budget {
                return (Vec::new(), None);
            }
        }
        self.emitted += 1;
        let mut out = Vec::with_capacity(self.burst_size);
        for _ in 0..self.burst_size {
            let mut pick = rng.gen::<f64>() * self.total_weight;
            let mut chosen = self.flows[self.flows.len() - 1];
            for f in &self.flows {
                if pick < f.weight {
                    chosen = *f;
                    break;
                }
                pick -= f.weight;
            }
            out.push((chosen.src, chosen.dst));
        }
        // Exponential inter-burst delay.
        let u: f64 = rng.gen::<f64>().max(1e-12);
        let delay = (-u.ln() * self.mean_interval.as_micros() as f64) as u64;
        (out, Some(SimDuration::from_micros(delay.max(1))))
    }
}

impl Sim {
    pub(crate) fn traffic_tick(&mut self) {
        let Some(model) = &mut self.traffic else {
            return;
        };
        let (flows, next) = model.next_burst(&mut self.rng);
        for (src, dst) in flows {
            if !self.nodes[src.0].up {
                continue;
            }
            // Background chatter: a 32-zero-byte NFS-ish datagram.
            let dgram = UdpDatagram::new(2049, 2049, Bytes::from_static(&[0u8; 32]));
            let src_ip = self.nodes[src.0].ifaces[0].ip;
            let pkt = Ipv4Packet::new(src_ip, dst, IpProtocol::Udp, Bytes::from(dgram.encode()))
                .with_id(self.next_ip_id());
            let _ = self.node_send_ip(src, pkt);
        }
        if let Some(delay) = next {
            self.schedule(delay, Event::TrafficTick);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn flows() -> Vec<Flow> {
        vec![
            Flow {
                src: NodeId(0),
                dst: Ipv4Addr::new(10, 0, 0, 2),
                weight: 10.0,
            },
            Flow {
                src: NodeId(1),
                dst: Ipv4Addr::new(10, 0, 0, 1),
                weight: 1.0,
            },
        ]
    }

    #[test]
    fn weighted_sampling_prefers_heavy_flows() {
        let mut m = TrafficModel::new(flows(), SimDuration::from_secs(1), 1);
        let mut rng = StdRng::seed_from_u64(42);
        let mut heavy = 0;
        for _ in 0..1000 {
            let (burst, next) = m.next_burst(&mut rng);
            assert!(next.is_some());
            if burst[0].0 == NodeId(0) {
                heavy += 1;
            }
        }
        assert!(
            heavy > 800,
            "10:1 weights should dominate, got {heavy}/1000"
        );
    }

    #[test]
    fn empty_model_terminates() {
        let mut m = TrafficModel::new(vec![], SimDuration::from_secs(1), 4);
        let mut rng = StdRng::seed_from_u64(1);
        let (burst, next) = m.next_burst(&mut rng);
        assert!(burst.is_empty());
        assert!(next.is_none());
    }

    #[test]
    fn budget_stops_generation() {
        let mut m = TrafficModel::new(flows(), SimDuration::from_secs(1), 1);
        m.budget = Some(3);
        let mut rng = StdRng::seed_from_u64(1);
        let mut bursts = 0;
        loop {
            let (b, next) = m.next_burst(&mut rng);
            if b.is_empty() || next.is_none() {
                break;
            }
            bursts += 1;
            if bursts > 10 {
                break;
            }
        }
        assert_eq!(bursts, 3);
    }

    #[test]
    fn delays_average_near_mean() {
        let mut m = TrafficModel::new(flows(), SimDuration::from_secs(10), 1);
        let mut rng = StdRng::seed_from_u64(7);
        let mut total = 0u64;
        const N: u64 = 2000;
        for _ in 0..N {
            let (_, next) = m.next_burst(&mut rng);
            total += next.unwrap().as_micros();
        }
        let mean = total / N;
        assert!(
            (5_000_000..20_000_000).contains(&mean),
            "exponential mean ~10s, got {mean}us"
        );
    }
}
