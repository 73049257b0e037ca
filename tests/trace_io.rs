//! Trace persistence: captured sessions round-trip through files, the
//! workflow behind sharing user traces as a community benchmark
//! (Section 4.1.3 / the Battle et al. position the paper cites).

use ids::devices::DeviceKind;
use ids::simclock::SimDuration;
use ids::workload::composite::simulate_session as composite_session;
use ids::workload::crossfilter::{simulate_session as xf_session, CrossfilterUi};
use ids::workload::scrolling::simulate_session as scroll_session;
use ids::workload::trace::{RequestRecord, ScrollRecord, SliderRecord, Trace};

fn tmp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ids-trace-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn scroll_trace_survives_disk_round_trip() {
    let session = scroll_session(0, 99, 400);
    let path = tmp_path("scroll.tsv");
    std::fs::write(&path, session.trace.to_tsv()).expect("write trace");
    let text = std::fs::read_to_string(&path).expect("read trace");
    let restored: Trace<ScrollRecord> = Trace::from_tsv(&text).expect("parse trace");
    assert_eq!(restored, session.trace);
    std::fs::remove_file(&path).ok();
}

#[test]
fn slider_trace_survives_disk_round_trip() {
    let ui = CrossfilterUi::for_road();
    let session = xf_session(DeviceKind::Touch, 0, 99, &ui);
    let path = tmp_path("slider.tsv");
    std::fs::write(&path, session.trace.to_tsv()).expect("write trace");
    let restored: Trace<SliderRecord> =
        Trace::from_tsv(&std::fs::read_to_string(&path).expect("read")).expect("parse");
    assert_eq!(restored, session.trace);
    std::fs::remove_file(&path).ok();
}

#[test]
fn request_trace_survives_disk_round_trip_and_replays() {
    let session = composite_session(0, 99, SimDuration::from_secs(90));
    let path = tmp_path("requests.tsv");
    std::fs::write(&path, session.trace.to_tsv()).expect("write trace");
    let restored: Trace<RequestRecord> =
        Trace::from_tsv(&std::fs::read_to_string(&path).expect("read")).expect("parse");
    assert_eq!(restored, session.trace);

    // A restored trace supports the same analysis: request durations from
    // start/end pairs.
    use ids::workload::trace::RequestEvent;
    use std::collections::HashMap;
    let mut starts: HashMap<u64, u64> = HashMap::new();
    let mut durations = Vec::new();
    for r in restored.records() {
        match r.event {
            RequestEvent::RequestStart => {
                starts.insert(r.request_id, r.timestamp_ms);
            }
            RequestEvent::RequestEnd => {
                let t0 = starts[&r.request_id];
                durations.push(r.timestamp_ms - t0);
            }
            _ => {}
        }
    }
    assert!(!durations.is_empty());
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_trace_files_fail_loudly() {
    let path = tmp_path("corrupt.tsv");
    let mut text = ScrollRecord::header_line();
    text.push_str("\n1\t2\tnot_a_number\t4\n");
    std::fs::write(&path, &text).expect("write");
    let result: Result<Trace<ScrollRecord>, _> =
        Trace::from_tsv(&std::fs::read_to_string(&path).expect("read"));
    assert!(result.is_err());
    std::fs::remove_file(&path).ok();
}

trait HeaderLine {
    fn header_line() -> String;
}

impl HeaderLine for ScrollRecord {
    fn header_line() -> String {
        use ids::workload::trace::TraceRecord;
        <ScrollRecord as TraceRecord>::header().to_string()
    }
}
