//! Shared helpers for the `repro`, `perf` and `simtest` binaries.
//!
//! The experiment scale is selected by the `IDS_SCALE` environment
//! variable: `paper` runs the full study sizes (434,874-row road network,
//! 15 users, 20-minute sessions); anything else — the default — runs a
//! reduced "bench" scale whose cost model is rescaled so every latency
//! *regime* of the paper still reproduces (see
//! `Case2Config::cost_scale`).

#![warn(missing_docs)]

pub mod fleetbench;
pub mod perf;
pub mod sqlrepro;

use ids_core::experiments::{adaptive, case1, case2, case3, fleet, robustness, scalability};
use ids_simclock::SimDuration;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full paper scale.
    Paper,
    /// Reduced scale for CI and quick runs.
    Bench,
}

impl Scale {
    /// Reads the scale from `IDS_SCALE` (`paper` → [`Scale::Paper`]).
    pub fn from_env() -> Scale {
        match std::env::var("IDS_SCALE").as_deref() {
            Ok("paper") => Scale::Paper,
            _ => Scale::Bench,
        }
    }

    /// Case-1 configuration at this scale.
    pub fn case1(self) -> case1::Case1Config {
        match self {
            Scale::Paper => case1::Case1Config::paper(),
            Scale::Bench => case1::Case1Config {
                seed: 61,
                users: 15,
                tuples: 1_200,
                fetch_sizes: [12, 30, 58, 80],
                client_overhead_ms: 75,
            },
        }
    }

    /// Case-2 configuration at this scale.
    pub fn case2(self) -> case2::Case2Config {
        match self {
            Scale::Paper => case2::Case2Config::paper(),
            Scale::Bench => case2::Case2Config {
                seed: 72,
                rows: 40_000,
                max_groups: 1_200,
                kl_sample: 2_000,
            },
        }
    }

    /// Scalability-sweep configuration at this scale.
    pub fn scalability(self) -> scalability::ScalabilityConfig {
        match self {
            Scale::Paper => scalability::ScalabilityConfig::paper(),
            Scale::Bench => scalability::ScalabilityConfig::smoke_test(),
        }
    }

    /// Robustness-sweep configuration at this scale.
    pub fn robustness(self) -> robustness::RobustnessConfig {
        match self {
            Scale::Paper => robustness::RobustnessConfig::paper(),
            Scale::Bench => robustness::RobustnessConfig {
                seed: 83,
                rows: 8_000,
                max_groups: 400,
                intensities: [0.0, 0.33, 0.67, 1.0],
                latency_budget: SimDuration::from_millis(100),
                workers: 2,
            },
        }
    }

    /// Progressive deadline-tradeoff sweep configuration at this scale.
    pub fn progressive(self) -> robustness::ProgressiveConfig {
        match self {
            Scale::Paper => robustness::ProgressiveConfig::paper(),
            Scale::Bench => robustness::ProgressiveConfig {
                seed: 83,
                rows: 16_384,
                max_groups: 400,
                workers: 2,
                budgets_ms: [1, 3, 10, 30, 100],
            },
        }
    }

    /// Closed-loop adaptive-workload comparison configuration at this
    /// scale.
    pub fn adaptive(self) -> adaptive::AdaptiveConfig {
        match self {
            Scale::Paper => adaptive::AdaptiveConfig::paper(),
            Scale::Bench => adaptive::AdaptiveConfig::smoke_test(),
        }
    }

    /// Fleet-serving sweep configuration at this scale.
    pub fn fleet(self) -> fleet::FleetConfig {
        match self {
            Scale::Paper => fleet::FleetConfig::paper(),
            Scale::Bench => fleet::FleetConfig::smoke_test(),
        }
    }

    /// Case-3 configuration at this scale.
    pub fn case3(self) -> case3::Case3Config {
        match self {
            Scale::Paper => case3::Case3Config::paper(),
            Scale::Bench => case3::Case3Config {
                seed: 83,
                users: 15,
                min_session: SimDuration::from_secs(10 * 60),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_bench() {
        // The env var is unset in tests.
        if std::env::var("IDS_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Bench);
        }
    }

    #[test]
    fn paper_scale_matches_study_sizes() {
        let c1 = Scale::Paper.case1();
        assert_eq!(c1.users, 15);
        assert_eq!(c1.tuples, 4_000);
        let c2 = Scale::Paper.case2();
        assert_eq!(c2.rows, 434_874);
        let c3 = Scale::Paper.case3();
        assert_eq!(c3.users, 15);
    }
}
