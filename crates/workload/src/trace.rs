//! Trace schemas (Table 5) with line-oriented serialization.
//!
//! Each case study logs a different record shape:
//!
//! | case study | record | fields (as in the paper) |
//! |---|---|---|
//! | inertial scrolling | [`ScrollRecord`] | timestamp, scrollTop, scrollNum, delta |
//! | crossfiltering | [`SliderRecord`] | timestamp, minVal, maxVal, sliderIdx |
//! | composite interface | [`RequestRecord`] | timestamp, tabURL, requestId, resourceType, type, status |
//!
//! Records serialize to single TSV lines ([`TraceRecord::to_line`]) and
//! parse back ([`TraceRecord::parse_line`]), so traces can be shared as
//! plain files — the paper notes collecting and sharing real user traces
//! is one path to a community benchmark.

use std::fmt;

/// A record type that serializes to one line of a trace file.
pub trait TraceRecord: Sized {
    /// Stable header naming the fields, for self-describing files.
    fn header() -> &'static str;
    /// Serializes to one TSV line (no trailing newline).
    fn to_line(&self) -> String;
    /// Parses one TSV line.
    fn parse_line(line: &str) -> Result<Self, TraceParseError>;
}

/// Errors from parsing trace lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace parse error: {}", self.message)
    }
}

impl std::error::Error for TraceParseError {}

fn err(msg: impl Into<String>) -> TraceParseError {
    TraceParseError {
        message: msg.into(),
    }
}

fn field<'a>(
    parts: &mut std::str::Split<'a, char>,
    name: &str,
) -> Result<&'a str, TraceParseError> {
    parts
        .next()
        .ok_or_else(|| err(format!("missing field `{name}`")))
}

fn parse_num<T: std::str::FromStr>(s: &str, name: &str) -> Result<T, TraceParseError> {
    s.parse()
        .map_err(|_| err(format!("field `{name}` is not a valid number: `{s}`")))
}

/// One scroll/wheel event from the inertial-scrolling study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScrollRecord {
    /// Milliseconds since session start.
    pub timestamp_ms: u64,
    /// Pixels scrolled from the top (`scrollTop`).
    pub scroll_top: f64,
    /// Cumulative tuples scrolled past (`scrollNum`).
    pub scroll_num: u64,
    /// Accelerated scroll amount this event (`delta`), pixels.
    pub delta: f64,
}

impl TraceRecord for ScrollRecord {
    fn header() -> &'static str {
        "timestamp_ms\tscroll_top\tscroll_num\tdelta"
    }

    fn to_line(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}",
            self.timestamp_ms, self.scroll_top, self.scroll_num, self.delta
        )
    }

    fn parse_line(line: &str) -> Result<Self, TraceParseError> {
        let mut p = line.split('\t');
        let rec = ScrollRecord {
            timestamp_ms: parse_num(field(&mut p, "timestamp_ms")?, "timestamp_ms")?,
            scroll_top: parse_num(field(&mut p, "scroll_top")?, "scroll_top")?,
            scroll_num: parse_num(field(&mut p, "scroll_num")?, "scroll_num")?,
            delta: parse_num(field(&mut p, "delta")?, "delta")?,
        };
        if p.next().is_some() {
            return Err(err("trailing fields on scroll record"));
        }
        Ok(rec)
    }
}

/// One slider event from the crossfiltering study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliderRecord {
    /// Milliseconds since session start.
    pub timestamp_ms: u64,
    /// Selected range lower bound (`minVal`).
    pub min_val: f64,
    /// Selected range upper bound (`maxVal`).
    pub max_val: f64,
    /// Which slider moved (`sliderIdx`).
    pub slider_idx: u8,
}

impl TraceRecord for SliderRecord {
    fn header() -> &'static str {
        "timestamp_ms\tmin_val\tmax_val\tslider_idx"
    }

    fn to_line(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}",
            self.timestamp_ms, self.min_val, self.max_val, self.slider_idx
        )
    }

    fn parse_line(line: &str) -> Result<Self, TraceParseError> {
        let mut p = line.split('\t');
        let rec = SliderRecord {
            timestamp_ms: parse_num(field(&mut p, "timestamp_ms")?, "timestamp_ms")?,
            min_val: parse_num(field(&mut p, "min_val")?, "min_val")?,
            max_val: parse_num(field(&mut p, "max_val")?, "max_val")?,
            slider_idx: parse_num(field(&mut p, "slider_idx")?, "slider_idx")?,
        };
        if p.next().is_some() {
            return Err(err("trailing fields on slider record"));
        }
        Ok(rec)
    }
}

/// Resource classes collected by the composite-interface extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceType {
    /// XMLHttpRequest-style data fetch.
    Data,
    /// Image asset.
    Image,
    /// Map tile.
    MapTile,
}

impl ResourceType {
    fn as_str(self) -> &'static str {
        match self {
            ResourceType::Data => "data",
            ResourceType::Image => "image",
            ResourceType::MapTile => "map_tile",
        }
    }

    fn parse(s: &str) -> Result<Self, TraceParseError> {
        match s {
            "data" => Ok(ResourceType::Data),
            "image" => Ok(ResourceType::Image),
            "map_tile" => Ok(ResourceType::MapTile),
            other => Err(err(format!("unknown resource type `{other}`"))),
        }
    }
}

/// Event classes on composite-interface records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestEvent {
    /// The tab URL changed — a new query state.
    UrlUpdate,
    /// An HTTP GET began.
    RequestStart,
    /// An HTTP GET completed.
    RequestEnd,
    /// A DOM mutation (rendering activity marker).
    Mutation,
}

impl RequestEvent {
    fn as_str(self) -> &'static str {
        match self {
            RequestEvent::UrlUpdate => "url_update",
            RequestEvent::RequestStart => "request_start",
            RequestEvent::RequestEnd => "request_end",
            RequestEvent::Mutation => "mutation",
        }
    }

    fn parse(s: &str) -> Result<Self, TraceParseError> {
        match s {
            "url_update" => Ok(RequestEvent::UrlUpdate),
            "request_start" => Ok(RequestEvent::RequestStart),
            "request_end" => Ok(RequestEvent::RequestEnd),
            "mutation" => Ok(RequestEvent::Mutation),
            other => Err(err(format!("unknown request event `{other}`"))),
        }
    }
}

/// One HTTP/browser event from the composite-interface study.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// Milliseconds since session start.
    pub timestamp_ms: u64,
    /// Current tab URL — itself a serialized query (Section 8).
    pub tab_url: String,
    /// Request identifier.
    pub request_id: u64,
    /// What kind of resource this touches.
    pub resource_type: ResourceType,
    /// Event class (`type` in the paper's schema).
    pub event: RequestEvent,
    /// HTTP status (0 for non-HTTP events).
    pub status: u16,
}

impl TraceRecord for RequestRecord {
    fn header() -> &'static str {
        "timestamp_ms\ttab_url\trequest_id\tresource_type\tevent\tstatus"
    }

    fn to_line(&self) -> String {
        debug_assert!(!self.tab_url.contains('\t'), "URLs cannot contain tabs");
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}",
            self.timestamp_ms,
            self.tab_url,
            self.request_id,
            self.resource_type.as_str(),
            self.event.as_str(),
            self.status
        )
    }

    fn parse_line(line: &str) -> Result<Self, TraceParseError> {
        let mut p = line.split('\t');
        let rec = RequestRecord {
            timestamp_ms: parse_num(field(&mut p, "timestamp_ms")?, "timestamp_ms")?,
            tab_url: field(&mut p, "tab_url")?.to_string(),
            request_id: parse_num(field(&mut p, "request_id")?, "request_id")?,
            resource_type: ResourceType::parse(field(&mut p, "resource_type")?)?,
            event: RequestEvent::parse(field(&mut p, "event")?)?,
            status: parse_num(field(&mut p, "status")?, "status")?,
        };
        if p.next().is_some() {
            return Err(err("trailing fields on request record"));
        }
        Ok(rec)
    }
}

/// A homogeneous trace: a header plus records in time order.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace<R> {
    records: Vec<R>,
}

impl<R: TraceRecord> Default for Trace<R> {
    fn default() -> Self {
        Trace {
            records: Vec::new(),
        }
    }
}

impl<R: TraceRecord> Trace<R> {
    /// An empty trace.
    pub fn new() -> Trace<R> {
        Trace::default()
    }

    /// Wraps existing records.
    pub fn from_records(records: Vec<R>) -> Trace<R> {
        Trace { records }
    }

    /// Appends a record.
    pub fn push(&mut self, record: R) {
        self.records.push(record);
    }

    /// The records.
    pub fn records(&self) -> &[R] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no records were captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serializes to a header line plus one line per record.
    pub fn to_tsv(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 32 + 64);
        out.push_str(R::header());
        out.push('\n');
        for r in &self.records {
            out.push_str(&r.to_line());
            out.push('\n');
        }
        out
    }

    /// Parses a trace serialized by [`to_tsv`](Self::to_tsv).
    ///
    /// Normalization is uniform across record types: lines are taken
    /// with either `\n` or `\r\n` endings (plus a defensive stray-`\r`
    /// strip), and **whitespace-only** lines — not just empty ones —
    /// are skipped wherever they appear. Before this was normalized,
    /// a trailing `" "` or `"\t"` line parsed differently per record
    /// type (whichever error its first field's parser produced).
    pub fn from_tsv(text: &str) -> Result<Trace<R>, TraceParseError> {
        let mut lines = text.lines().map(|l| l.strip_suffix('\r').unwrap_or(l));
        match lines.next() {
            Some(h) if h == R::header() => {}
            Some(other) => {
                return Err(err(format!(
                    "header mismatch: expected `{}`, found `{other}`",
                    R::header()
                )))
            }
            None => return Err(err("empty trace file")),
        }
        let mut records = Vec::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            records.push(R::parse_line(line)?);
        }
        Ok(Trace { records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scroll_record_round_trip() {
        let r = ScrollRecord {
            timestamp_ms: 1234,
            scroll_top: 5678.5,
            scroll_num: 36,
            delta: -42.25,
        };
        assert_eq!(ScrollRecord::parse_line(&r.to_line()).unwrap(), r);
    }

    #[test]
    fn slider_record_round_trip() {
        let r = SliderRecord {
            timestamp_ms: 20,
            min_val: 8.146,
            max_val: 11.2616367163,
            slider_idx: 2,
        };
        assert_eq!(SliderRecord::parse_line(&r.to_line()).unwrap(), r);
    }

    #[test]
    fn request_record_round_trip() {
        let r = RequestRecord {
            timestamp_ms: 99,
            tab_url: "https://www.airbnb.example/s/place?zoom=12&price_min=10".into(),
            request_id: 7,
            resource_type: ResourceType::MapTile,
            event: RequestEvent::RequestEnd,
            status: 200,
        };
        assert_eq!(RequestRecord::parse_line(&r.to_line()).unwrap(), r);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(
            ScrollRecord::parse_line("1\t2\t3").is_err(),
            "too few fields"
        );
        assert!(
            ScrollRecord::parse_line("1\t2\t3\t4\t5").is_err(),
            "too many"
        );
        assert!(
            ScrollRecord::parse_line("x\t2\t3\t4").is_err(),
            "bad number"
        );
        assert!(RequestRecord::parse_line("1\tu\t2\tbogus\turl_update\t200").is_err());
        assert!(RequestRecord::parse_line("1\tu\t2\tdata\tbogus\t200").is_err());
    }

    #[test]
    fn trace_tsv_round_trip() {
        let mut t = Trace::new();
        for i in 0..50u64 {
            t.push(ScrollRecord {
                timestamp_ms: i * 17,
                scroll_top: i as f64 * 400.0,
                scroll_num: i * 2,
                delta: 400.0 - i as f64,
            });
        }
        let tsv = t.to_tsv();
        let back: Trace<ScrollRecord> = Trace::from_tsv(&tsv).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.len(), 50);
    }

    #[test]
    fn trace_rejects_wrong_header() {
        let tsv = "wrong\theader\n1\t2\t3\t4\n";
        assert!(Trace::<ScrollRecord>::from_tsv(tsv).is_err());
        assert!(Trace::<ScrollRecord>::from_tsv("").is_err());
    }

    #[test]
    fn empty_trace_round_trips() {
        let t: Trace<SliderRecord> = Trace::new();
        assert!(t.is_empty());
        let back: Trace<SliderRecord> = Trace::from_tsv(&t.to_tsv()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn blank_lines_are_skipped() {
        let tsv = format!("{}\n\n1\t2\t3\t4\n\n", ScrollRecord::header());
        let t: Trace<ScrollRecord> = Trace::from_tsv(&tsv).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn whitespace_only_lines_are_skipped_for_every_record_type() {
        // Interior and trailing lines of spaces/tabs parse as blanks —
        // uniformly, for all three record shapes.
        let scroll = format!("{}\n \n1\t2\t3\t4\n\t\n  \t \n", ScrollRecord::header());
        let t: Trace<ScrollRecord> = Trace::from_tsv(&scroll).unwrap();
        assert_eq!(t.len(), 1);

        let slider = format!("{}\n\t\t\n1\t2\t3\t0\n   \n", SliderRecord::header());
        let t: Trace<SliderRecord> = Trace::from_tsv(&slider).unwrap();
        assert_eq!(t.len(), 1);

        let request = format!(
            "{}\n \n1\tu\t2\tdata\turl_update\t200\n\t \t\n",
            RequestRecord::header()
        );
        let t: Trace<RequestRecord> = Trace::from_tsv(&request).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn crlf_traces_parse_identically() {
        let mut t = Trace::new();
        t.push(SliderRecord {
            timestamp_ms: 5,
            min_val: 1.25,
            max_val: 2.5,
            slider_idx: 1,
        });
        let crlf = t.to_tsv().replace('\n', "\r\n");
        let back: Trace<SliderRecord> = Trace::from_tsv(&crlf).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn negative_parse_battery_rejects_malformed_traces() {
        // Non-blank garbage lines still fail — skipping is only for
        // whitespace, never for unparseable content.
        let cases: &[(&str, &str)] = &[
            ("garbage line", "x y z"),
            ("too few fields", "1\t2"),
            ("too many fields", "1\t2\t3\t4\t5"),
            ("bad number", "one\t2\t3\t4"),
        ];
        for (what, line) in cases {
            let tsv = format!("{}\n{line}\n", ScrollRecord::header());
            assert!(
                Trace::<ScrollRecord>::from_tsv(&tsv).is_err(),
                "scroll trace accepted {what}"
            );
        }
        for (what, line) in &[
            ("too few fields", "1\tu\t2\tdata\turl_update"),
            ("extra field", "1\tu\t2\tdata\turl_update\t200\tx"),
            ("unknown resource", "1\tu\t2\tvideo\turl_update\t200"),
            ("unknown event", "1\tu\t2\tdata\tnavigated\t200"),
            ("bad status", "1\tu\t2\tdata\turl_update\tOK"),
        ] {
            let tsv = format!("{}\n{line}\n", RequestRecord::header());
            assert!(
                Trace::<RequestRecord>::from_tsv(&tsv).is_err(),
                "request trace accepted {what}"
            );
        }
        let slider_bad = format!("{}\n1\t2\t3\t300\n", SliderRecord::header());
        assert!(
            Trace::<SliderRecord>::from_tsv(&slider_bad).is_err(),
            "slider_idx 300 overflows u8"
        );
    }
}
