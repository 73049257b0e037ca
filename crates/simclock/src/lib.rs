//! Virtual time and seeded randomness for the `ids` workspace.
//!
//! Every component of the evaluation framework runs on *virtual* time so
//! that experiments are deterministic and independent of the host machine.
//! A replay is an analytic pass over time *values* — costs priced from
//! footprints and added to timestamps — not an event loop; the clock
//! deeper layers read is the one `ids-obs` publishes (`ids_obs::vnow`).
//! This crate provides the values:
//!
//! - [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual
//!   timestamps and durations with saturating arithmetic.
//! - [`rng`] — seeded random-number utilities (splittable streams and the
//!   distributions used by the behavior models: normal, log-normal,
//!   exponential, Zipf-like categorical draws).
//!
//! # Example
//!
//! ```
//! use ids_simclock::rng::SimRng;
//! use ids_simclock::{SimDuration, SimTime};
//!
//! let issued = SimTime::from_millis(5);
//! let finished = issued + SimDuration::from_micros(250);
//! assert_eq!(finished.saturating_since(issued).as_micros(), 250);
//!
//! let (mut a, mut b) = (SimRng::seed(7).split("user/0"), SimRng::seed(7).split("user/0"));
//! assert_eq!(a.unit().to_bits(), b.unit().to_bits());
//! ```

#![warn(missing_docs)]

pub mod rng;
mod time;

pub use time::{SimDuration, SimTime};
