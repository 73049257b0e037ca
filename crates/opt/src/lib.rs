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
//! - [`skip`] — the Skip optimization (Algorithm 1): when a new query
//!   group arrives before the previous finished, abandon the stale ones —
//!   the user has already moved on.
//! - [`klfilter`] — the KL optimization (Algorithm 2): estimate each
//!   query's result histogram from a row sample and drop queries whose
//!   result barely differs from the last one shown.
//! - [`prefetch`] — Markov-chain action prefetching for composite
//!   interfaces, with the zoom-hotspot budget split of Section 8.
//! - [`throttle`] — adaptive closed-loop QIF throttling (the Fig 3
//!   "overwhelmed backend" remedy).

#![warn(missing_docs)]

pub mod klfilter;
pub mod loading;
pub mod prefetch;
pub mod skip;
pub mod throttle;
