//! The paper's three case studies as deterministic, parameterized
//! experiments, plus the survey/methodology artifacts.
//!
//! Each module exposes a `Config` (with a `smoke_test()` scale for tests
//! and a `paper()` scale matching the study), a `run` function producing
//! a typed report, and `render` methods that print the paper's tables
//! and figure series. [`ablations`] is the exception: five fixed-size
//! sweeps with no config, rendered by one function.

pub mod ablations;
pub mod adaptive;
pub mod case1;
pub mod case2;
pub mod case3;
pub mod fleet;
pub mod methodology;
pub mod robustness;
pub mod scalability;
