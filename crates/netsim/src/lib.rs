//! # fremont-netsim
//!
//! A deterministic, packet-level discrete-event simulator of a campus
//! internetwork — the substrate this reproduction runs Fremont against in
//! place of the University of Colorado's 1993 production network.
//!
//! Nodes run real protocol state machines over the packets of
//! [`fremont_net`]: ARP resolution with caches and timeouts, IP forwarding
//! with TTL and ICMP errors, UDP services (echo, RIP, DNS), directed
//! broadcasts, and the specific *misbehaviors* the paper catalogs
//! (broken traceroute replies, silent gateways, promiscuous RIP hosts,
//! duplicate addresses, wrong masks).
//!
//! Explorer Modules run as [`process::Process`]es on simulated hosts and
//! can only interact with the network the way a real privileged UNIX
//! process could: send packets, receive the host's packets, read the ARP
//! cache, or tap the local segment.
//!
//! # Layout
//!
//! [`sched::EventCore`] owns simulated time — clock, schedule counter,
//! binary heap of pending events — over an opaque payload and knows no
//! protocol.
//! [`engine::Sim`] is the network on top: nodes, segments, processes,
//! the one seeded RNG, the run loop and the dispatch. What an event does
//! is one sibling module per layer, each a plain `impl Sim` block —
//! `link`, [`arp`], `ip` (with ICMP and the UDP demux), `rip`,
//! [`dns_server`], [`faults`], [`traffic`], [`stats`] — because handlers
//! draw from the RNG and schedule *at the call*, in an order the goldens
//! pin.
//!
//! # Examples
//!
//! ```
//! use fremont_netsim::builder::TopologyBuilder;
//! use fremont_netsim::time::SimDuration;
//!
//! let mut b = TopologyBuilder::new();
//! let lan = b.segment("lab", "192.168.1.0/24");
//! b.host("alpha", lan, 10);
//! b.host("beta", lan, 11);
//! let (mut sim, topo) = b.build(1);
//! sim.run_for(SimDuration::from_secs(60));
//! assert_eq!(topo.hosts.len(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arp;
pub mod builder;
pub mod campus;
pub mod dns_server;
pub mod engine;
pub mod faults;
mod ip;
mod link;
pub mod node;
pub mod process;
mod rip;
pub mod routing;
pub mod sched;
pub mod segment;
pub mod stats;
pub mod time;
pub mod traffic;
pub mod uptime;

pub use builder::{Topology, TopologyBuilder};
pub use engine::{ProcCtx, SendError, Sim};
pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultStats};
pub use node::{Behavior, Iface, Node, NodeKind, RipConfig, TracerouteBug};
pub use process::{IfaceInfo, ProcHandle, Process};
pub use segment::{NodeId, Segment, SegmentCfg, SegmentId};
pub use time::{SimDuration, SimTime};
