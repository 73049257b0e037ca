//! Behavior-driven optimizations for interactive data systems.
//!
//! Sections 5–8 of *Evaluating Interactive Data Systems* argue that
//! interactive backends should exploit what users actually do. This crate
//! implements every optimization the case studies evaluate, plus the
//! predictive techniques the survey recommends:
//!
//! - [`loading`] — result-loading strategies for scrolling interfaces:
//!   lazy loading, per-event prefetch ("event fetch"), and periodic
//!   prefetch ("timer fetch"), evaluated against a user's demand curve
//!   (Fig 10 / Table 8).
//! - [`replay`](mod@replay) — the one replay loop case study 2's
//!   conditions share: a [`Policy`] — raw, Skip (Algorithm 1), KL
//!   filtering or adaptive throttling — decides which query groups reach
//!   a one-slot FIFO server.
//! - [`klfilter`] — the sketch behind the KL optimization (Algorithm 2):
//!   estimate each query's result histogram from a row sample, so groups
//!   whose result barely differs from the last one shown can be dropped.
//! - [`prefetch`] — Markov-chain action prefetching for composite
//!   interfaces, with the zoom-hotspot budget split of Section 8.
//! - [`throttle`] — adaptive closed-loop QIF throttling (the Fig 3
//!   "overwhelmed backend" remedy).

#![warn(missing_docs)]

pub mod klfilter;
pub mod loading;
pub mod prefetch;
pub mod replay;
#[cfg(test)]
mod skip;
pub mod throttle;

pub use replay::{group_cost, replay, Policy, ReplayOutcome};
