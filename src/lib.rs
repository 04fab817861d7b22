//! # Fremont
//!
//! A full reproduction of *"Fremont: A System for Discovering Network
//! Characteristics and Problems"* (Wood, Coleman & Schwartz, USENIX
//! Winter 1993) as a Rust workspace, built against a deterministic
//! packet-level simulation of a 1993-scale campus internetwork.
//!
//! This crate is the facade: it re-exports the workspace's five layers.
//!
//! * [`net`] — addresses, subnets, and wire codecs (Ethernet, ARP, IPv4,
//!   ICMP, UDP, RIPv1, DNS);
//! * [`netsim`] — the simulated campus substrate (segments, host/router
//!   stacks, taps, faults, the campus generator);
//! * [`journal`] — the Journal, its indexed store (std `BTreeMap`s where
//!   the paper used AVL trees), and the Journal Server (TCP + in-process);
//! * [`storage`] — the durable storage engine (write-ahead log, crash
//!   recovery, segment compaction) behind `DurableJournal`, the backend a
//!   durable Journal Server runs over;
//! * [`telemetry`] — the deterministic metrics registry and span/event
//!   tracer threaded through every layer above;
//! * [`obs`] — observability tooling over the trace stream (cross-process
//!   stitching, folded-stack profiles, validation);
//! * [`explorers`] — the eight Explorer Modules;
//! * [`core`] — the Discovery Manager, cross-correlation, analysis
//!   (Table 8), presentation programs, and topology export (Figure 2).
//!
//! # Quickstart
//!
//! ```
//! use fremont::core::Fremont;
//! use fremont::netsim::campus::CampusConfig;
//! use fremont::netsim::time::SimDuration;
//!
//! let mut cfg = CampusConfig::small();
//! cfg.cs_traffic = false;
//! let mut system = Fremont::over_campus(&cfg);
//! system.explore(SimDuration::from_mins(15)).unwrap();
//! println!("{}", system.topology().to_ascii());
//! assert!(system.stats().interfaces > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use fremont_core as core;
pub use fremont_explorers as explorers;
pub use fremont_journal as journal;
pub use fremont_net as net;
pub use fremont_netsim as netsim;
pub use fremont_obs as obs;
pub use fremont_storage as storage;
pub use fremont_telemetry as telemetry;
