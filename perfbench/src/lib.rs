//! # ia-perfbench — end-to-end and per-layer benchmark
//!
//! Four closed-loop workloads (one client, the next job starts when the
//! previous one ends) run against the repository's crates as shipped:
//! Scribe under `timex`, the make8 build under `trace`, a 1,000-tenant
//! fleet batch, and time-travel seeks over a recorded make8 run. Every
//! job's output is checked against a reference. An untraced run reports
//! what a user of the toolkit sees; a traced run splits job time across
//! the layers of the hook path with spans recorded by forwarding wrappers
//! (see [`wrap`]) and reports the layers' counters.

#![forbid(unsafe_code)]

pub mod bench;
pub mod trace;
pub mod work;
pub mod wrap;
