//! The reproduction registry: every table and figure of the paper mapped
//! to the module that implements it and the `repro` flag that
//! regenerates it. Also renders the paper's own Tables 5 and 6 (the
//! case-study summaries), which are registry content themselves.

use crate::report::Table;

/// Kind of paper artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A numbered table.
    Table,
    /// A numbered figure.
    Figure,
}

/// One paper artifact and its reproduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Kind.
    pub kind: ArtifactKind,
    /// Paper number ("7" for Table 7 / Fig 7 depending on kind).
    pub number: &'static str,
    /// Short title.
    pub title: &'static str,
    /// Implementing module(s).
    pub modules: &'static str,
    /// How to regenerate (`repro` flag), empty for illustrations with no
    /// data series.
    pub regenerate: &'static str,
}

/// Every table and figure in the paper.
pub const ARTIFACTS: &[Artifact] = &[
    Artifact {
        kind: ArtifactKind::Figure,
        number: "1",
        title: "Metric taxonomy",
        modules: "ids_metrics::taxonomy",
        regenerate: "repro --figure 1",
    },
    Artifact {
        kind: ArtifactKind::Figure,
        number: "2",
        title: "LCV cascade (illustration)",
        modules: "ids_metrics::lcv",
        regenerate: "",
    },
    Artifact {
        kind: ArtifactKind::Figure,
        number: "3",
        title: "QIF/backend trade-off quadrants",
        modules: "ids_metrics::qif",
        regenerate: "repro --figure 3",
    },
    Artifact {
        kind: ArtifactKind::Figure,
        number: "4",
        title: "In-person vs remote decision",
        modules: "ids_study::design",
        regenerate: "repro --figure 4",
    },
    Artifact {
        kind: ArtifactKind::Figure,
        number: "5",
        title: "Study design by metric",
        modules: "ids_study::design",
        regenerate: "repro --figure 5",
    },
    Artifact {
        kind: ArtifactKind::Figure,
        number: "6",
        title: "Scrolling interface (illustration)",
        modules: "ids_workload::scrolling",
        regenerate: "",
    },
    Artifact {
        kind: ArtifactKind::Figure,
        number: "7",
        title: "Wheel delta with/without inertia",
        modules: "ids_devices::scroll, ids_core::experiments::case1",
        regenerate: "repro --figure 7",
    },
    Artifact {
        kind: ArtifactKind::Figure,
        number: "8",
        title: "Scrolling speed per user",
        modules: "ids_workload::scrolling, ids_core::experiments::case1",
        regenerate: "repro --figure 8",
    },
    Artifact {
        kind: ArtifactKind::Figure,
        number: "9",
        title: "Selections vs backscrolls",
        modules: "ids_workload::scrolling, ids_core::experiments::case1",
        regenerate: "repro --figure 9",
    },
    Artifact {
        kind: ArtifactKind::Figure,
        number: "10",
        title: "Event vs timer fetch latency",
        modules: "ids_opt::loading, ids_core::experiments::case1",
        regenerate: "repro --figure 10",
    },
    Artifact {
        kind: ArtifactKind::Figure,
        number: "11",
        title: "Device jitter traces",
        modules: "ids_devices::pointer, ids_core::experiments::case2",
        regenerate: "repro --figure 11",
    },
    Artifact {
        kind: ArtifactKind::Figure,
        number: "12",
        title: "Crossfilter interface (illustration)",
        modules: "ids_workload::crossfilter",
        regenerate: "",
    },
    Artifact {
        kind: ArtifactKind::Figure,
        number: "13",
        title: "Latency per backend/opt/device",
        modules: "ids_opt::{replay,klfilter}, ids_core::experiments::case2",
        regenerate: "repro --figure 13",
    },
    Artifact {
        kind: ArtifactKind::Figure,
        number: "14",
        title: "Query issuing interval histograms",
        modules: "ids_metrics::qif, ids_core::experiments::case2",
        regenerate: "repro --figure 14",
    },
    Artifact {
        kind: ArtifactKind::Figure,
        number: "15",
        title: "LCV percentage per condition",
        modules: "ids_metrics::lcv, ids_core::experiments::case2",
        regenerate: "repro --figure 15",
    },
    Artifact {
        kind: ArtifactKind::Figure,
        number: "16",
        title: "Airbnb interface (illustration)",
        modules: "ids_workload::composite",
        regenerate: "",
    },
    Artifact {
        kind: ArtifactKind::Figure,
        number: "17",
        title: "Exploration loop (illustration)",
        modules: "ids_workload::composite",
        regenerate: "",
    },
    Artifact {
        kind: ArtifactKind::Figure,
        number: "18",
        title: "Zoom levels over time",
        modules: "ids_workload::composite, ids_core::experiments::case3",
        regenerate: "repro --figure 18",
    },
    Artifact {
        kind: ArtifactKind::Figure,
        number: "19",
        title: "Center movement per zoom",
        modules: "ids_workload::composite, ids_core::experiments::case3",
        regenerate: "repro --figure 19",
    },
    Artifact {
        kind: ArtifactKind::Figure,
        number: "20",
        title: "Filter-count CDF",
        modules: "ids_workload::composite, ids_core::experiments::case3",
        regenerate: "repro --figure 20",
    },
    Artifact {
        kind: ArtifactKind::Figure,
        number: "21",
        title: "Request/exploration CDFs",
        modules: "ids_workload::composite, ids_core::experiments::case3",
        regenerate: "repro --figure 21",
    },
    Artifact {
        kind: ArtifactKind::Table,
        number: "1",
        title: "Metrics 1997-2012",
        modules: "ids_study::survey",
        regenerate: "repro --table 1",
    },
    Artifact {
        kind: ArtifactKind::Table,
        number: "2",
        title: "Metrics 2012-present",
        modules: "ids_study::survey",
        regenerate: "repro --table 2",
    },
    Artifact {
        kind: ArtifactKind::Table,
        number: "3",
        title: "Metric selection guidelines",
        modules: "ids_metrics::selection",
        regenerate: "repro --table 3",
    },
    Artifact {
        kind: ArtifactKind::Table,
        number: "4",
        title: "Cognitive biases",
        modules: "ids_study::bias",
        regenerate: "repro --table 4",
    },
    Artifact {
        kind: ArtifactKind::Table,
        number: "5",
        title: "Case study summary",
        modules: "ids_core::registry",
        regenerate: "repro --table 5",
    },
    Artifact {
        kind: ArtifactKind::Table,
        number: "6",
        title: "Behaviors and metrics per case study",
        modules: "ids_core::registry",
        regenerate: "repro --table 6",
    },
    Artifact {
        kind: ArtifactKind::Table,
        number: "7",
        title: "Scrolling behavior statistics",
        modules: "ids_core::experiments::case1",
        regenerate: "repro --table 7",
    },
    Artifact {
        kind: ArtifactKind::Table,
        number: "8",
        title: "LCV for event & timer fetch",
        modules: "ids_core::experiments::case1",
        regenerate: "repro --table 8",
    },
    Artifact {
        kind: ArtifactKind::Table,
        number: "9",
        title: "Queries per interface widget",
        modules: "ids_core::experiments::case3",
        regenerate: "repro --table 9",
    },
    Artifact {
        kind: ArtifactKind::Table,
        number: "10",
        title: "Center-of-bounds ranges",
        modules: "ids_core::experiments::case3",
        regenerate: "repro --table 10",
    },
];

/// Finds an artifact.
pub fn find(kind: ArtifactKind, number: &str) -> Option<&'static Artifact> {
    ARTIFACTS
        .iter()
        .find(|a| a.kind == kind && a.number == number)
}

/// Renders the registry index.
pub fn render_index() -> String {
    let mut t = Table::new(["artifact", "title", "modules", "regenerate"]);
    for a in ARTIFACTS {
        let label = match a.kind {
            ArtifactKind::Table => format!("Table {}", a.number),
            ArtifactKind::Figure => format!("Fig {}", a.number),
        };
        let regen = if a.regenerate.is_empty() {
            "(illustration; mechanism implemented)"
        } else {
            a.regenerate
        };
        t.row([&label, a.title, a.modules, regen]);
    }
    t.render()
}

/// Table 5: the case-study summary, as in the paper.
pub fn render_table5() -> String {
    let mut t = Table::new([
        "name",
        "device",
        "query interface",
        "interaction",
        "trace",
        "query",
    ]);
    t.row([
        "inertial scrolling (S6)",
        "touch (trackpad)",
        "scroll",
        "browsing",
        "{timestamp, scrollTop, scrollNum, delta}",
        "select, join",
    ]);
    t.row([
        "crossfiltering (S7)",
        "mouse, touch (iPad), gesture (leap motion)",
        "slider",
        "linking & brushing",
        "{timestamp, minVal, maxVal, sliderIdx}",
        "count, aggregation",
    ]);
    t.row([
        "composite interface (S8)",
        "mouse",
        "textbox, slider, checkbox, map",
        "filtering & navigating",
        "{timestamp, tabURL, requestId, resourceType, type, status}",
        "select, join",
    ]);
    format!("Table 5: Case Study Summary\n{}", t.render())
}

/// Table 6: behaviors and metrics per case study.
pub fn render_table6() -> String {
    let mut t = Table::new(["interface", "behavior", "performance"]);
    t.row([
        "inertial scrolling",
        "scrolling speed",
        "latency constraint violation",
    ]);
    t.row(["", "no. of backscrolls", "latency"]);
    t.row([
        "crossfiltering",
        "sliding behavior",
        "query issuing frequency",
    ]);
    t.row([
        "",
        "querying behavior",
        "latency, latency constraint violation",
    ]);
    t.row(["composite interface", "exploration time, zooming", ""]);
    t.row(["", "dragging, filter conditions", "data request time"]);
    format!(
        "Table 6: Behaviors and Metrics in Case Studies\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_numbered_artifact() {
        // 21 figures and 10 tables in the paper.
        let figures = ARTIFACTS
            .iter()
            .filter(|a| a.kind == ArtifactKind::Figure)
            .count();
        let tables = ARTIFACTS
            .iter()
            .filter(|a| a.kind == ArtifactKind::Table)
            .count();
        assert_eq!(figures, 21);
        assert_eq!(tables, 10);
        for n in 1..=21 {
            assert!(
                find(ArtifactKind::Figure, &n.to_string()).is_some(),
                "Fig {n}"
            );
        }
        for n in 1..=10 {
            assert!(
                find(ArtifactKind::Table, &n.to_string()).is_some(),
                "Table {n}"
            );
        }
    }

    #[test]
    fn only_illustrations_lack_regeneration() {
        for a in ARTIFACTS {
            if a.regenerate.is_empty() {
                assert!(
                    a.title.contains("illustration"),
                    "{:?} {} lacks a regeneration target",
                    a.kind,
                    a.number
                );
            }
        }
    }

    #[test]
    fn renders() {
        assert!(render_index().contains("repro --figure 13"));
        assert!(render_table5().contains("crossfiltering"));
        assert!(render_table6().contains("query issuing frequency"));
    }
}
