//! # fremont-journal
//!
//! The Fremont Journal: the central, timestamped repository of discovered
//! network facts, with the Journal Server that manages it.
//!
//! "Just as Fremont the explorer kept a dated journal of his activities,
//! the Fremont system records discovered information in a central
//! repository, which we call the Journal."
//!
//! The crate provides, bottom up:
//!
//! * [`time`] — the three-timestamp scheme (discovered / changed /
//!   verified);
//! * [`observation`] — the vocabulary Explorer Modules report in;
//! * [`records`] — interface, gateway, and subnet records (paper Table 1);
//! * [`store`] — the merging store with MAC/IP/name/subnet indexes
//!   (std `BTreeMap`s, where the paper's server used AVL trees);
//! * [`query`] — selection criteria for Get requests;
//! * [`proto`] / [`server`] / [`client`] — the Store/Get/Delete protocol
//!   over TCP, plus the shared in-process handle;
//! * [`snapshot`] — periodic/at-termination disk persistence.
//!
//! # Examples
//!
//! ```
//! use std::net::Ipv4Addr;
//! use fremont_journal::observation::{Observation, Source};
//! use fremont_journal::query::InterfaceQuery;
//! use fremont_journal::store::Journal;
//! use fremont_journal::time::JTime;
//!
//! let journal = Journal::new();
//! journal.apply(
//!     &Observation::arp_pair(
//!         Source::ArpWatch,
//!         Ipv4Addr::new(128, 138, 243, 18),
//!         "08:00:20:01:02:03".parse().unwrap(),
//!     ),
//!     JTime::from_secs(60),
//! );
//! let found = journal.get_interfaces(&InterfaceQuery::by_ip(Ipv4Addr::new(128, 138, 243, 18)));
//! assert_eq!(found.len(), 1);
//! assert_eq!(found[0].mac_addr().unwrap().vendor(), Some("Sun Microsystems"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod observation;
pub mod proto;
pub mod query;
pub mod records;
pub mod server;
pub mod snapshot;
pub mod store;
pub mod time;

pub use observation::{Fact, Observation, Source, SourceSet};
pub use proto::{IntrospectReport, StoreBatchItem, TraceContext, WalStateReport};
pub use query::{InterfaceQuery, SubnetQuery};
pub use records::{GatewayId, GatewayRecord, InterfaceId, InterfaceRecord, SubnetRecord};
pub use server::{build_introspection, JournalAccess, JournalServer, SharedJournal};
pub use store::{Journal, JournalStats, ShardMetrics, ShardingMetrics, StoreSummary};
pub use time::{JTime, Timestamped};
