//! Input-device models for interactive data systems.
//!
//! Section 2.1 of *Evaluating Interactive Data Systems* argues that every
//! device–interface combination generates a unique workload: sensing rates
//! set the query issuing frequency, and the physics of each input channel
//! (friction for mouse/touch, none for in-air gestures) sets the noise
//! floor of query specification. This crate models those properties:
//!
//! - [`DeviceProfile`] — sensing rate, jitter process, and kinematic
//!   parameters for mouse, trackpad, touch (iPad), and Leap Motion.
//! - [`pointer`](mod@pointer) — 2-D pointer trajectories (minimum-jerk reach + per-device
//!   jitter + gestural drift), reproducing the Fig 11 traces.
//! - [`scroll`] — inertial ("momentum") scrolling physics vs. plain wheel
//!   scrolling, reproducing the Fig 7 wheel-delta contrast.
//! - [`hci`] — classical HCI timing models used to pace simulated users:
//!   Fitts' law movement times and Keystroke-Level-Model operators
//!   (Section 4.1.3 endorses exactly these for simulation studies).

#![warn(missing_docs)]

pub mod hci;
pub mod pointer;
mod profile;
pub mod scroll;

pub use profile::{DeviceKind, DeviceProfile};
