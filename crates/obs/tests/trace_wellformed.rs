//! Full-trace well-formedness: instead of substring asserts, parse the
//! exported Chrome trace with a minimal JSON checker and validate the
//! event structure — metadata rows, spans, and counter tracks.

use mpt_obs::trace::{chrome_trace_json, SIM_PID, WALL_PID};
use mpt_obs::{CounterTrack, Recorder, SpanRecord};

/// A minimal JSON value for structural checks — not a general parser,
/// just enough grammar (and exactly the grammar) the exporters emit.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn parse(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing bytes at {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end".to_owned())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at {}, found {:?}",
                b as char, self.pos, self.bytes[self.pos] as char
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected byte {:?} at {}",
                other as char, self.pos
            )),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("bad object sep {:?}", other as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("bad array sep {:?}", other as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("short \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte {b:#x} in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let s =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = s.chars().next().ok_or("empty")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number at {start}: {e}"))
    }
}

fn parse(s: &str) -> Json {
    Parser::new(s).parse().expect("trace must be valid JSON")
}

fn sample_trace() -> String {
    let rec = Recorder::new();
    {
        let _tick = rec.span("tick", "tick");
        let _stage = rec.span("stage", "power");
    }
    let track = |name: &str, value: fn(f64) -> f64| CounterTrack {
        name: name.to_owned(),
        samples: (0..50u64).map(|i| (i * 100_000, value(i as f64))).collect(),
    };
    let tracks = [
        track("max_temp_c", |i| 35.0 + i * 0.1),
        track("fps", |i| 60.0 - i * 0.2),
    ];
    chrome_trace_json(&rec.spans(), &tracks, "wellformed \"test\"\n")
}

#[test]
fn full_trace_parses_and_has_expected_structure() {
    let json = parse(&sample_trace());
    let events = json
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert_eq!(
        json.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );

    let mut meta = 0;
    let mut spans = 0;
    let mut counters = 0;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        let pid = ev.get("pid").and_then(Json::as_num).expect("pid");
        assert!(ev.get("name").and_then(Json::as_str).is_some());
        match ph {
            "M" => meta += 1,
            "X" => {
                spans += 1;
                assert_eq!(pid, f64::from(WALL_PID));
                assert!(ev.get("ts").and_then(Json::as_num).is_some());
                assert!(ev.get("dur").and_then(Json::as_num).is_some());
                assert!(ev.get("tid").and_then(Json::as_num).is_some());
            }
            "C" => {
                counters += 1;
                assert_eq!(pid, f64::from(SIM_PID));
                let value = ev
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_num)
                    .expect("counter value");
                assert!(value.is_finite());
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(spans, 2);
    assert_eq!(counters, 100);
    // Wall process + >=1 thread row + sim process.
    assert!(meta >= 3);

    // The escaped process name round-trips through the parser.
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
        })
        .collect();
    assert!(names.contains(&"wellformed \"test\"\n"));
    assert!(names.contains(&"wellformed \"test\"\n [sim time]"));
}

#[test]
fn counter_track_names_carry_units() {
    let json = parse(&sample_trace());
    let events = json.get("traceEvents").and_then(Json::as_arr).unwrap();
    let track_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    // Names pass through verbatim; a frame channel's unit is its
    // suffix (`_c`).
    assert!(track_names.contains(&"max_temp_c"));
    assert!(track_names.contains(&"fps"));
}

#[test]
fn counter_timestamps_are_monotone_per_track() {
    let json = parse(&sample_trace());
    let events = json.get("traceEvents").and_then(Json::as_arr).unwrap();
    let mut last_ts: Vec<(String, f64)> = Vec::new();
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) != Some("C") {
            continue;
        }
        let name = ev.get("name").and_then(Json::as_str).unwrap().to_owned();
        let ts = ev.get("ts").and_then(Json::as_num).unwrap();
        match last_ts.iter_mut().find(|(n, _)| *n == name) {
            Some((_, last)) => {
                assert!(ts >= *last, "track {name} timestamps must be sorted");
                *last = ts;
            }
            None => last_ts.push((name, ts)),
        }
    }
    assert_eq!(last_ts.len(), 2);
}

#[test]
fn metrics_json_snapshot_is_wellformed_too() {
    let rec = Recorder::new();
    let h = rec.register_histogram("stage:power");
    rec.record_duration(h, std::time::Duration::from_micros(10));
    let json = parse(&rec.snapshot().to_json());
    assert!(json.get("counters").is_some());
    let hists = json.get("histograms").and_then(Json::as_arr).unwrap();
    assert_eq!(
        hists[0].get("name").and_then(Json::as_str),
        Some("stage:power")
    );
}

#[test]
fn spans_only_trace_parses() {
    let spans: Vec<SpanRecord> = Recorder::new().spans();
    let json = parse(&chrome_trace_json(&spans, &[], "empty"));
    let events = json.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert_eq!(events.len(), 1); // just the process_name metadata row
}
