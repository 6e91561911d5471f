//! # xds-switch — data-plane models: links, EPS, OCS
//!
//! The *switching logic* partition of the paper's Figure 2, as laptop-scale
//! models (per DESIGN.md's substitution table):
//!
//! * [`Permutation`] — a (partial) input→output matching, the unit of
//!   circuit configuration the scheduler hands to the OCS;
//! * [`Link`] — rate + propagation delay;
//! * [`Eps`] — an output-queued electrical packet switch carrying the
//!   "residual traffic and short bursts";
//! * [`Ocs`] — an optical circuit switch with a configurable reconfiguration
//!   ("dark") window during which **no packets can pass** — the physical
//!   fact Figure 1's buffering argument rests on;
//! * [`BufferTracker`] — peak/current buffered bytes accounted per
//!   placement site (host vs switch), which is exactly the y-axis of
//!   Figure 1.

#![warn(missing_docs)]

pub mod buffer;
pub mod eps;
pub mod link;
pub mod ocs;
pub mod perm;

pub use buffer::{BufferTracker, Site};
pub use eps::{Eps, EpsStats};
pub use link::Link;
pub use ocs::{Ocs, OcsError, OcsStats};
pub use perm::Permutation;
