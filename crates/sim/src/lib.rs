//! # xds-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the `xdsched` workspace. It provides the
//! pieces every other crate builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time.
//!   Optical switching times in the reproduced paper span *nanoseconds to
//!   milliseconds*, so the kernel works in integer nanoseconds throughout and
//!   never touches floating point on the hot path.
//! * [`EventQueue`] / [`Simulation`] — a stable-order event queue (ties in
//!   time are broken by insertion sequence) and a driver loop. The queue is
//!   generic over the event payload so domain crates define their own event
//!   enums and keep full ownership of their state: no `Box<dyn Fn>`
//!   trampolines, no interior mutability.
//! * [`SimRng`] — a self-contained xoshiro256\*\* PRNG seeded via splitmix64.
//!   Every run in the workspace is reproducible from a single `u64` seed;
//!   independent sub-streams are created with [`SimRng::fork`].
//! * [`dist`] — sampling distributions used by the traffic generators
//!   (uniform, exponential, bounded Pareto, log-normal, empirical CDF, Zipf).
//! * [`rate`] — bit-rate arithmetic ([`BitRate`], transmission times, token
//!   buckets).
//!
//! The design follows the session's networking guides: a synchronous,
//! poll/event-driven core in the smoltcp tradition. The workload is CPU-bound
//! simulation, which the Tokio documentation itself calls out as the case
//! where an async runtime adds nothing — so there is none here.

#![warn(missing_docs)]

pub mod dist;
pub mod event;
pub mod rate;
pub mod rng;
pub mod time;

pub use dist::{Dist, EmpiricalCdf, Sample, Zipf};
pub use event::{EventQueue, RunStats, Simulation};
pub use rate::{BitRate, TokenBucket, TxTimeCache};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
