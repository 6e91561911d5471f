//! # xds-net — packets and traffic classes
//!
//! The simulation's packet vocabulary, shared across the workspace:
//!
//! * [`Packet`] — the simulation's packet descriptor (metadata, not
//!   payload bytes: the scheduler never looks at payloads);
//! * [`types`] — port numbers and traffic classes.
//!
//! The paper's processing logic classifies packets into flows by look-up
//! rules before the VOQs. The simulator models its outcome, not its
//! mechanism: traffic generators tag each packet with its
//! [`TrafficClass`], and the switch ingress routes by that tag.

#![warn(missing_docs)]

pub mod packet;
pub mod types;

pub use packet::{Packet, PacketId};
pub use types::{PortNo, TrafficClass};
