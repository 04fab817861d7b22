//! # fremont-bench
//!
//! The experiment harness: regenerates every table and figure from the
//! paper's evaluation section against the simulated campus, plus the
//! Criterion micro-benchmarks (`benches/`).
//!
//! Binaries (`src/bin/`): one per table/figure —
//! `table1_interface_fields`, `table2_storage`, `table3_module_io`,
//! `table4_module_characteristics`, `table5_interface_discovery`,
//! `table6_subnet_discovery`, `table7_characteristics`,
//! `table8_problems`, `figure2_topology`, and `all_experiments`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exp_discovery;
pub mod exp_problems;
pub mod exp_runtime;
pub mod exp_static;
pub mod tables;

pub use tables::{pct, Table};
