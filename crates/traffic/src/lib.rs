//! # xds-traffic — data-center workload generation
//!
//! The paper motivates hybrid switching with data-center traffic structure:
//! "the OCS is used to serve long bursts of traffic and the EPS is used to
//! serve the remaining traffic and short bursts" (§1), and §2's latency
//! argument is about "widely used applications (i.e., VOIP, multiuser
//! gaming etc.)". This crate generates exactly those traffic classes:
//!
//! * [`size_dist`] — heavy-tailed flow-size distributions, including
//!   empirical CDFs shaped after the published web-search (DCTCP) and
//!   data-mining (VL2) workloads;
//! * [`arrivals`] — Poisson and bursty ON/OFF arrival processes;
//! * [`matrix`] — traffic matrices: uniform, permutation, hotspot, Zipf,
//!   incast;
//! * [`flow`] — the flow generator combining the three, calibrated to an
//!   offered load relative to aggregate line rate;
//! * [`packetize`] — MTU segmentation;
//! * [`apps`] — constant-bit-rate interactive applications (VOIP, gaming).
//!
//! All generators are deterministic functions of a [`xds_sim::SimRng`].

#![warn(missing_docs)]

pub mod apps;
pub mod arrivals;
pub mod flow;
pub mod matrix;
pub mod packetize;
pub mod size_dist;

pub use apps::CbrApp;
pub use arrivals::ArrivalProcess;
pub use flow::{FlowGenerator, FlowSpec};
pub use matrix::TrafficMatrix;
pub use packetize::{packet_count, packet_sizes};
pub use size_dist::FlowSizeDist;
