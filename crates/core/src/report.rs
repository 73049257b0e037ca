//! Plain-text rendering of experiment results: aligned tables and
//! sparkline series, in the spirit of the paper's tables and figures.

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (short rows are padded with empty cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len().max(row.len()), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with column alignment and a separator under the header.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for (w, h) in widths.iter_mut().zip(&self.header) {
            *w = (*w).max(h.chars().count());
        }
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            let mut parts = Vec::with_capacity(cols);
            for (i, &width) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                parts.push(format!("{cell:<width$}"));
            }
            let _ = writeln!(out, "{}", parts.join("  ").trim_end());
        };
        render_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }

    /// Renders the table under a `== title ==` banner — the shared
    /// end-of-run section format used by the telemetry summaries and
    /// the fleet report.
    pub fn section(&self, title: &str) -> String {
        format!("== {title} ==\n{}", self.render())
    }
}

/// Renders a numeric series as a unicode sparkline (one glyph per point),
/// useful for eyeballing latency-over-time shapes in terminal reports.
pub fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|&v| {
            let idx = (((v - min) / span) * (GLYPHS.len() - 1) as f64).round() as usize;
            GLYPHS[idx.min(GLYPHS.len() - 1)]
        })
        .collect()
}

/// Downsamples a series to at most `points` values (mean per bucket), so
/// long latency series fit on one terminal line.
pub fn downsample(values: &[f64], points: usize) -> Vec<f64> {
    if values.len() <= points || points == 0 {
        return values.to_vec();
    }
    let chunk = values.len().div_ceil(points);
    values
        .chunks(chunk)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Renders an `ids-obs` metrics snapshot as aligned text tables — the
/// end-of-run telemetry summary printed by `repro`. Empty sections are
/// omitted; an entirely empty snapshot renders to an empty string.
pub fn metrics_summary(snap: &ids_obs::MetricsSnapshot) -> String {
    let mut out = String::new();
    if !snap.counters.is_empty() {
        let mut t = Table::new(["counter", "value"]);
        for (name, v) in &snap.counters {
            t.row([name.clone(), v.to_string()]);
        }
        let _ = writeln!(out, "{}", t.section("telemetry: counters"));
    }
    if !snap.gauges.is_empty() {
        let mut t = Table::new(["gauge", "value", "high-water"]);
        for (name, v, hwm) in &snap.gauges {
            t.row([name.clone(), v.to_string(), hwm.to_string()]);
        }
        let _ = writeln!(out, "{}", t.section("telemetry: gauges"));
    }
    let active: Vec<_> = snap
        .histograms
        .iter()
        .filter(|(_, h)| h.count > 0)
        .collect();
    if !active.is_empty() {
        let mut t = Table::new(["histogram", "count", "mean", "p50", "p90", "p99", "max"]);
        for (name, h) in active {
            t.row([
                name.clone(),
                h.count.to_string(),
                format!("{:.1}", h.mean),
                h.p50.to_string(),
                h.p90.to_string(),
                h.p99.to_string(),
                h.max.to_string(),
            ]);
        }
        let _ = writeln!(out, "{}", t.section("telemetry: histograms"));
    }
    out
}

/// Renders the per-phase wall-clock + virtual-time table sourced from
/// `ids-obs` phase records (not hand-rolled `Instant` timers). Virtual
/// time is the span of simulated time the phase's trace events covered —
/// zero when the recorder was off or the phase recorded no events.
pub fn phase_summary(phases: &[ids_obs::PhaseRecord]) -> String {
    if phases.is_empty() {
        return String::new();
    }
    let mut t = Table::new(["phase", "wall", "virtual", "events"]);
    for p in phases {
        t.row([
            p.name.clone(),
            format!("{:.1}ms", p.wall.as_secs_f64() * 1e3),
            if p.virtual_span.is_zero() {
                "-".to_string()
            } else {
                p.virtual_span.to_string()
            },
            p.events.to_string(),
        ]);
    }
    t.section("run phases")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["name", "value"]);
        t.row(["alpha", "1"]);
        t.row(["b", "22222"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns align: "value" column starts at the same offset.
        let col = lines[0].find("value").unwrap();
        assert_eq!(lines[2].find('1').unwrap(), col);
        assert_eq!(lines[3].find('2').unwrap(), col);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["only"]);
        assert!(t.render().contains("only"));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn section_wraps_render_in_banner() {
        let mut t = Table::new(["k", "v"]);
        t.row(["a", "1"]);
        let s = t.section("fleet");
        assert!(s.starts_with("== fleet ==\n"));
        assert!(s.contains('a'));
        assert_eq!(s.trim_start_matches("== fleet ==\n"), t.render());
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[]), "");
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        // Constant series does not panic on zero span.
        let flat = sparkline(&[2.0, 2.0]);
        assert_eq!(flat.chars().count(), 2);
    }

    #[test]
    fn downsample_preserves_short_series() {
        let v = vec![1.0, 2.0, 3.0];
        assert_eq!(downsample(&v, 10), v);
        let d = downsample(&(0..100).map(f64::from).collect::<Vec<_>>(), 10);
        assert_eq!(d.len(), 10);
        assert!((d[0] - 4.5).abs() < 1e-9);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.1234), "12.3%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn metrics_summary_renders_nonempty_sections_only() {
        let empty = ids_obs::MetricsSnapshot::default();
        assert_eq!(metrics_summary(&empty), "");

        let snap = ids_obs::MetricsSnapshot {
            counters: vec![("engine.buffer.hits".to_string(), 42)],
            gauges: vec![],
            histograms: vec![(
                "sched.latency_us".to_string(),
                ids_obs::HistogramSummary {
                    count: 2,
                    sum: 30,
                    min: 10,
                    max: 20,
                    mean: 15.0,
                    p50: 10,
                    p90: 20,
                    p99: 20,
                },
            )],
        };
        let s = metrics_summary(&snap);
        assert!(s.contains("engine.buffer.hits"));
        assert!(s.contains("42"));
        assert!(s.contains("sched.latency_us"));
        assert!(!s.contains("gauges"));
    }

    #[test]
    fn phase_summary_renders_wall_and_virtual() {
        assert_eq!(phase_summary(&[]), "");
        let phases = vec![ids_obs::PhaseRecord {
            name: "case2.replay".to_string(),
            wall: std::time::Duration::from_millis(12),
            virtual_span: ids_simclock::SimDuration::from_secs(90),
            events: 7,
        }];
        let s = phase_summary(&phases);
        assert!(s.contains("case2.replay"));
        assert!(s.contains("90.000s"));
        assert!(s.contains("7"));
    }
}
