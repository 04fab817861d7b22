//! # fremont-core
//!
//! The integrated Fremont system: the Discovery Manager (the module
//! registry and one in-memory schedule and run history per module), the
//! cross-correlation pass, the analysis programs of Table 8, the
//! presentation programs, and the topology exporter that regenerates
//! Figure 2.
//!
//! The crate sits on top of:
//! * [`fremont_net`] — addresses and wire formats,
//! * [`fremont_netsim`] — the simulated campus substrate,
//! * [`fremont_journal`] — the Journal and Journal Server,
//! * [`fremont_explorers`] — the eight Explorer Modules,
//!
//! and exposes [`Fremont`] as the one-call deployment facade.
//!
//! # Examples
//!
//! ```
//! use fremont_core::Fremont;
//! use fremont_netsim::campus::CampusConfig;
//! use fremont_netsim::time::SimDuration;
//!
//! let mut cfg = CampusConfig::small();
//! cfg.cs_traffic = false;
//! let mut fremont = Fremont::over_campus(&cfg);
//! fremont.explore(SimDuration::from_mins(10)).unwrap();
//! assert!(fremont.stats().interfaces > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod correlate;
pub mod driver;
pub mod fremont;
pub mod invariants;
pub mod load;
pub mod manager;
pub mod present;
pub mod registry;
pub mod topology;

pub use analysis::ProblemReport;
pub use driver::{DiscoveryDriver, DriverConfig};
pub use fremont::Fremont;
pub use manager::{DiscoveryManager, ModuleSchedule, RunOutcome};
pub use registry::{registry, ModuleInfo};
pub use topology::TopologyGraph;
