//! Chrome trace-event export.
//!
//! Emits the [Trace Event Format](https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
//! JSON object consumed by `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev): one complete (`"ph": "X"`) event
//! per finished span, one thread row per recorder lane, and one counter
//! track (`"ph": "C"`) per [`CounterTrack`] — the paper's
//! temperature/power/frequency/FPS curves rendered as Perfetto tracks
//! next to the cell and lint spans.
//!
//! Spans are timestamped in wall-clock microseconds since the recorder's
//! epoch; counter tracks carry *simulation-time* microseconds and are
//! exported under their own process row (`pid` [`SIM_PID`]) so the two
//! clock domains never share an axis.

use crate::span::SpanRecord;

/// The `pid` of the wall-clock process row (spans).
pub const WALL_PID: u32 = 1;

/// The `pid` of the simulation-time process row (counter tracks).
pub const SIM_PID: u32 = 2;

/// One exported counter track: a named series of
/// `(simulation-time µs, value)` samples that renders as a counter row in
/// Perfetto (the shape of the paper's Figure 1/3/5 curves).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterTrack {
    /// Track name, e.g. `"max_temp_c"`.
    pub name: String,
    /// `(simulation time in µs, value)` samples in ascending time order.
    pub samples: Vec<(u64, f64)>,
}

/// Escapes a string for embedding in a JSON string literal: `"`, `\`,
/// the common whitespace escapes, and every remaining control character
/// below 0x20 as `\u00XX` — so scenario-derived names can never produce
/// an unloadable trace.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (JSON has no NaN/Infinity; callers
/// filter non-finite samples, this is the belt to that suspender).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Renders spans and counter tracks as a Chrome trace-event JSON object.
///
/// `process_name` labels the wall-clock process row (e.g. the scenario
/// or campaign file name). Spans render under it, one thread row
/// `lane N` per lane, timestamped in microseconds since the recorder's
/// epoch. Each [`CounterTrack`] becomes a `"ph":"C"` counter series
/// under the simulation-time process row; non-finite samples are
/// skipped.
#[must_use]
pub fn chrome_trace_json(
    spans: &[SpanRecord],
    tracks: &[CounterTrack],
    process_name: &str,
) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{WALL_PID},\"tid\":0,\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape_json(process_name)
    ));
    let mut lanes: Vec<u32> = spans.iter().map(|s| s.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for lane in &lanes {
        out.push_str(&format!(
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{WALL_PID},\"tid\":{lane},\
             \"args\":{{\"name\":\"lane {lane}\"}}}}"
        ));
    }
    if tracks.iter().any(|t| !t.samples.is_empty()) {
        out.push_str(&format!(
            ",\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{SIM_PID},\"tid\":0,\
             \"args\":{{\"name\":\"{} [sim time]\"}}}}",
            escape_json(process_name)
        ));
    }
    for s in spans {
        out.push_str(&format!(
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{WALL_PID},\"tid\":{}}}",
            escape_json(&s.name),
            escape_json(s.cat),
            s.start_us,
            s.dur_us,
            s.lane
        ));
    }
    for track in tracks {
        let name = escape_json(&track.name);
        for &(ts, value) in &track.samples {
            if !value.is_finite() {
                continue;
            }
            out.push_str(&format!(
                ",\n{{\"name\":\"{name}\",\"cat\":\"counter\",\"ph\":\"C\",\"ts\":{ts},\
                 \"pid\":{SIM_PID},\"args\":{{\"value\":{}}}}}",
                json_number(value)
            ));
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn span(name: &'static str, lane: u32, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            name: Cow::Borrowed(name),
            cat: "stage",
            lane,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn trace_is_loadable_shape() {
        let spans = vec![span("power", 0, 10, 5), span("thermal", 1, 15, 3)];
        let json = chrome_trace_json(&spans, &[], "demo.json");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"power\""));
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("\"name\":\"lane 1\""));
        assert!(json.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn counter_tracks_render_as_counter_events() {
        let tracks = vec![
            CounterTrack {
                name: "max_temp_c".into(),
                samples: vec![(0, 35.0), (100_000, 41.5)],
            },
            CounterTrack {
                name: "fps".into(),
                samples: vec![(100_000, 58.0)],
            },
        ];
        let json = chrome_trace_json(&[span("tick", 0, 0, 7)], &tracks, "game.json");
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"name\":\"max_temp_c\""));
        assert!(json.contains("\"args\":{\"value\":41.5}"));
        assert!(json.contains("\"name\":\"fps\""));
        // Counter events live under the simulation-time process row.
        assert!(json.contains(&format!("\"pid\":{SIM_PID},\"args\":{{\"value\":58}}")));
        assert!(json.contains("[sim time]"));
        // Spans stay under the wall-clock row.
        assert!(json.contains(&format!(
            "\"ph\":\"X\",\"ts\":0,\"dur\":7,\"pid\":{WALL_PID}"
        )));
    }

    #[test]
    fn empty_tracks_add_no_sim_process_row() {
        let json = chrome_trace_json(
            &[],
            &[CounterTrack {
                name: "t".into(),
                samples: vec![],
            }],
            "x",
        );
        assert!(!json.contains("[sim time]"));
        assert!(!json.contains("\"ph\":\"C\""));
    }

    #[test]
    fn non_finite_samples_are_skipped() {
        let tracks = vec![CounterTrack {
            name: "t".into(),
            samples: vec![(0, f64::NAN), (1, f64::INFINITY), (2, 40.0)],
        }];
        let json = chrome_trace_json(&[], &tracks, "x");
        assert!(!json.contains("NaN"));
        assert!(!json.contains("inf"));
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 1);
    }

    #[test]
    fn escaping() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let json = chrome_trace_json(&[], &[], "we \"quote\"");
        assert!(json.contains("we \\\"quote\\\""));
    }

    #[test]
    fn escaping_covers_all_control_characters() {
        assert_eq!(escape_json("a\rb"), "a\\rb");
        assert_eq!(escape_json("a\tb"), "a\\tb");
        assert_eq!(escape_json("a\u{0}b"), "a\\u0000b");
        assert_eq!(escape_json("a\u{1b}b"), "a\\u001bb");
        assert_eq!(escape_json("a\u{7}b"), "a\\u0007b");
        // Every control character < 0x20 maps to an escape sequence; no
        // raw control byte survives into the output.
        for c in (0u32..0x20).filter_map(char::from_u32) {
            let escaped = escape_json(&c.to_string());
            assert!(
                escaped.chars().all(|c| (c as u32) >= 0x20),
                "raw control char survived for {:#x}",
                c as u32
            );
            assert!(escaped.starts_with('\\'), "{:#x} not escaped", c as u32);
        }
        // Printable characters, including non-ASCII, pass through.
        assert_eq!(escape_json("température 35°C"), "température 35°C");
    }
}
