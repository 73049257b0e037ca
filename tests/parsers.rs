//! The no-panic contract of the hand-rolled text readers: the scenario
//! repro dialect (`simtest::toml`) and the trace TSV
//! (`workload::trace`), as the SQL parser has its hostile-statement
//! property. Any text gives a value or a typed error, never a panic, and
//! whatever parses writes back to text that parses to the same value.

use std::fmt::Debug;

use ids::devices::DeviceKind;
use ids::simclock::rng::{check, SimRng};
use ids::simclock::SimDuration;
use ids::simtest::{from_toml, to_toml};
use ids::workload::composite::{simulate_session as composite_session, CompositeConfig};
use ids::workload::crossfilter::{simulate_session as xf_session, CrossfilterUi};
use ids::workload::scrolling::simulate_session as scroll_session;
use ids::workload::trace::{RequestRecord, ScrollRecord, SliderRecord, Trace, TraceRecord};

/// Arbitrary bytes a quarter of the time; otherwise one of `seeds` with
/// one to three line mutations (a line deleted, duplicated or swapped)
/// and byte mutations (a byte replaced, inserted or deleted — any byte,
/// or one the readers split or parse on).
fn mutate(rng: &mut SimRng, seeds: &[String]) -> String {
    let byte = |rng: &mut SimRng| match rng.chance(0.5) {
        true => rng.uniform_usize(0, 256) as u8,
        false => {
            let interesting = b"\n\r\t #=[]\"-+.0123456789eEinfNa_";
            interesting[rng.uniform_usize(0, interesting.len())]
        }
    };
    if rng.chance(0.25) {
        let bytes: Vec<u8> = (0..rng.uniform_usize(0, 160)).map(|_| byte(rng)).collect();
        return String::from_utf8_lossy(&bytes).into_owned();
    }
    let mut bytes = seeds[rng.uniform_usize(0, seeds.len())]
        .clone()
        .into_bytes();
    for _ in 0..rng.uniform_usize(1, 4) {
        if rng.chance(0.5) {
            let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
            let (i, j) = (
                rng.uniform_usize(0, lines.len()),
                rng.uniform_usize(0, lines.len()),
            );
            match rng.uniform_usize(0, 3) {
                0 => drop(lines.remove(i)),
                1 => lines.insert(j, lines[i]),
                _ => lines.swap(i, j),
            }
            bytes = lines.join(&b'\n');
        } else {
            let at = rng.uniform_usize(0, bytes.len() + 1);
            match (rng.uniform_usize(0, 3), at < bytes.len()) {
                (0, true) => bytes[at] = byte(rng),
                (1, true) => drop(bytes.remove(at)),
                _ => bytes.insert(at, byte(rng)),
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn scenario_text_parses_or_errs_and_round_trips() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("the corpus directory")
        .map(|entry| entry.expect("a corpus entry").path())
        .filter(|path| path.extension().is_some_and(|x| x == "toml"))
        .collect();
    paths.sort();
    let corpus: Vec<String> = paths
        .iter()
        .map(|path| std::fs::read_to_string(path).expect("a UTF-8 repro"))
        .collect();
    assert!(!corpus.is_empty());
    let mut parsed_any = 0;
    check("parsers/scenario-toml", 0..600, |rng| {
        let text = mutate(rng, &corpus);
        if let Ok(parsed) = from_toml(&text) {
            parsed_any += 1;
            let written = to_toml(&parsed);
            let back = from_toml(&written).unwrap_or_else(|e| panic!("{e}:\n{written}"));
            // `Debug`, not `==`: a parsed `NaN` is the same value.
            assert_eq!(format!("{back:?}"), format!("{parsed:?}"), "{text}");
        }
    });
    // Mutations that keep the text valid exercise the round trip.
    assert!(parsed_any > 60, "{parsed_any} of 600 parsed");
}

/// Parses `text` as a trace of `R`, and whether it parsed; what parses
/// must round-trip.
fn trace_round_trips<R: TraceRecord + Debug>(text: &str) -> bool {
    let Ok(parsed) = Trace::<R>::from_tsv(text) else {
        return false;
    };
    let written = parsed.to_tsv();
    let back = Trace::<R>::from_tsv(&written).unwrap_or_else(|e| panic!("{e}:\n{written}"));
    assert_eq!(format!("{back:?}"), format!("{parsed:?}"), "{text}");
    true
}

#[test]
fn trace_text_parses_or_errs_and_round_trips() {
    // The head of one captured session of each record type.
    let head = |tsv: String| tsv.lines().take(12).collect::<Vec<_>>().join("\n");
    let config = CompositeConfig {
        min_duration: SimDuration::from_secs(30),
        request_model: None,
    };
    let seeds = [
        head(scroll_session(0, 7, 200).trace.to_tsv()),
        head(
            xf_session(DeviceKind::Touch, 0, 7, &CrossfilterUi::for_road())
                .trace
                .to_tsv(),
        ),
        head(composite_session(0, 7, &config).trace.to_tsv()),
    ];
    let mut parsed_any = 0;
    check("parsers/trace-tsv", 0..600, |rng| {
        let text = mutate(rng, &seeds);
        let parsed = [
            trace_round_trips::<ScrollRecord>(&text),
            trace_round_trips::<SliderRecord>(&text),
            trace_round_trips::<RequestRecord>(&text),
        ];
        parsed_any += parsed.iter().filter(|&&p| p).count();
    });
    // Mutations that keep the text valid exercise the round trip.
    assert!(parsed_any > 60, "{parsed_any} of 600 parsed");
}
