//! # fremont-explorers
//!
//! The eight Explorer Modules of the Fremont prototype (paper Table 3),
//! implemented as event-driven [`fremont_netsim::process::Process`]es:
//!
//! | Source | Module | Input | Style |
//! |--------|--------|-------|-------|
//! | ARP    | [`arpwatch::ArpWatch`] | none | passive (tap) |
//! | ARP    | [`etherhostprobe::EtherHostProbe`] | address range | active, ≤4 pkt/s |
//! | ICMP   | [`seqping::SeqPing`] | address range | active, 1 req / 2 s |
//! | ICMP   | [`brdcastping::BrdcastPing`] | subnets | active, directed broadcast |
//! | ICMP   | [`subnetmasks::SubnetMasks`] | interface addresses | active, mask requests |
//! | ICMP   | [`traceroute::Traceroute`] | subnets, stop-list boundary | active, TTL-stepped, ≤8 pkt/s |
//! | RIP    | [`ripwatch::RipWatch`] | none | passive (tap) |
//! | DNS    | [`dns_explorer::DnsExplorer`] | network number, name server | zone transfers |
//!
//! The input is the constructor's argument list and nothing else: the
//! operating figures of paper Table 4 (pacing, timeouts, windows) are
//! constants of each module, next to the sentence they come from. The one
//! other setting is [`traceroute::Traceroute::with_start_ttl`], the
//! paper's future-work optimization.
//!
//! A ninth module, [`ripprobe::RipProbe`], implements the paper's
//! future-work extension: directed RIP Request/Poll queries that can be
//! routed across the network. Its input is a list of gateway addresses.
//!
//! Each module reports what it discovers as
//! [`fremont_journal::Observation`]s, which the driving deployment stores
//! in the Journal; modules never share state with each other except
//! through the Journal, exactly as the paper prescribes. Those
//! observations are a module's only output: it exports its constructor
//! and no result accessor, and its load (packets sent, frames tapped,
//! refused sends) is the engine's
//! [`ProcStats`](fremont_netsim::stats::ProcStats) for its handle. The one
//! reading kept is [`traceroute::Traceroute::reached_subnets`]: Table 6
//! counts targets that got a final reply, and no observation states that.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arpwatch;
pub mod brdcastping;
pub mod dns_explorer;
pub mod etherhostprobe;
pub mod ripprobe;
pub mod ripwatch;
pub mod seqping;
pub mod subnetmasks;
pub mod traceroute;

#[cfg(test)]
mod testutil;

pub use arpwatch::ArpWatch;
pub use brdcastping::BrdcastPing;
pub use dns_explorer::DnsExplorer;
pub use etherhostprobe::EtherHostProbe;
pub use ripprobe::RipProbe;
pub use ripwatch::RipWatch;
pub use seqping::SeqPing;
pub use subnetmasks::SubnetMasks;
pub use traceroute::Traceroute;
