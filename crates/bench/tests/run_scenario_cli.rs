//! End-to-end checks of the `run_scenario` binary's command line: flag
//! parsing, the lint gate before tick 0 and the output files.

use std::io::Write;
use std::process::{Command, Stdio};

const TINY_SCENARIO: &str = r#"{
    "platform": "exynos5422",
    "duration_s": 1.0,
    "initial_temperature_c": 45.0,
    "workloads": [ { "kind": "basic_math", "cluster": "big" } ]
}"#;

const TINY_CAMPAIGN: &str = r#"{
    "base": {
        "platform": "exynos5422",
        "duration_s": 1.0,
        "initial_temperature_c": 45.0,
        "workloads": [ { "kind": "basic_math", "cluster": "big" } ]
    },
    "sweep": { "initial_temperatures_c": [40.0, 50.0] }
}"#;

/// Runs the binary with a scenario on stdin and returns
/// `(exit code, stdout, stderr)`.
fn run(args: &[&str], stdin: &str) -> (i32, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_run_scenario"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    // A usage error exits before reading stdin; ignore the broken pipe.
    let _ = child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(stdin.as_bytes());
    let out = child.wait_with_output().expect("binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn peak_line(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with("peak temperature"))
        .expect("peak temperature line")
}

#[test]
fn engine_override_accepts_both_engines_and_agrees() {
    let (code, fixed_out, _) = run(&["--engine", "fixed"], TINY_SCENARIO);
    assert_eq!(code, 0, "fixed run failed:\n{fixed_out}");
    let (code, event_out, _) = run(&["--engine", "event"], TINY_SCENARIO);
    assert_eq!(code, 0, "event run failed:\n{event_out}");
    // An app-style benchmark workload makes no phase promise, so the
    // event engine steps every tick and the outcomes are bit-identical.
    assert_eq!(peak_line(&fixed_out), peak_line(&event_out));
}

#[test]
fn unknown_engine_is_a_usage_error() {
    let (code, _, stderr) = run(&["--engine", "warp"], TINY_SCENARIO);
    assert_eq!(code, 2);
    assert!(
        stderr.contains("unknown engine") && stderr.contains("warp"),
        "stderr should name the bad engine: {stderr}"
    );
    assert!(
        stderr.contains("fixed") && stderr.contains("event"),
        "stderr should list the valid engines: {stderr}"
    );
}

#[test]
fn retired_solver_flag_is_a_usage_error() {
    let (code, stdout, stderr) = run(&["--solver", "exact_lti"], TINY_SCENARIO);
    assert_eq!(code, 2);
    assert!(stderr.contains("usage:"), "expected usage text: {stderr}");
    assert!(stdout.is_empty(), "nothing may run: {stdout}");
}

#[test]
fn dangling_control_sensor_is_refused_before_tick_zero() {
    let scenario = r#"{
        "platform": "exynos5422",
        "duration_s": 1.0,
        "control_sensor": "skin_xyz",
        "workloads": [ { "kind": "basic_math", "cluster": "big" } ]
    }"#;
    let (code, stdout, stderr) = run(&[], scenario);
    assert_eq!(code, 1, "lint gate must refuse: {stderr}");
    assert!(
        stderr.contains("MPT104") && stderr.contains("skin_xyz"),
        "stderr should carry the lint diagnostic: {stderr}"
    );
    assert!(
        stderr.contains("nothing was simulated"),
        "refusal must come before tick 0: {stderr}"
    );
    assert!(
        !stdout.contains("peak temperature"),
        "no outcome may be printed: {stdout}"
    );
}

#[test]
fn retired_solver_field_gets_mpt106_from_the_lint_gate() {
    let scenario = r#"{
        "platform": "exynos5422",
        "duration_s": 1.0,
        "solver": "forward_euler",
        "workloads": [ { "kind": "basic_math" } ]
    }"#;
    let (code, stdout, stderr) = run(&[], scenario);
    assert_eq!(code, 1);
    assert!(stderr.contains("MPT106"), "expected MPT106: {stderr}");
    assert!(
        stderr.contains("nothing was simulated"),
        "refusal must come before tick 0: {stderr}"
    );
    assert!(
        !stdout.contains("peak temperature"),
        "no outcome may be printed: {stdout}"
    );
}

#[test]
fn query_flag_prints_grouped_rollup() {
    let (code, stdout, _) = run(
        &[
            "--query",
            "p95(max_temp_c)",
            "--query",
            "mean(total_power_w)",
        ],
        TINY_SCENARIO,
    );
    assert_eq!(code, 0, "query run failed:\n{stdout}");
    assert!(
        stdout.contains("queries:"),
        "missing queries section: {stdout}"
    );
    assert!(
        stdout.contains("# p95(max_temp_c)") && stdout.contains("# mean(total_power_w)"),
        "each query echoes its canonical form: {stdout}"
    );
    assert!(
        stdout.contains("value,count"),
        "results render as CSV with a header: {stdout}"
    );
}

#[test]
fn query_out_json_renders_machine_readable_rows() {
    let (code, stdout, _) = run(
        &["--query", "max(max_temp_c)", "--query-out", "json"],
        TINY_SCENARIO,
    );
    assert_eq!(code, 0, "query run failed:\n{stdout}");
    assert!(
        stdout.contains("\"query\": \"max(max_temp_c)\"") && stdout.contains("\"rows\""),
        "expected JSON query payload: {stdout}"
    );
}

#[test]
fn invalid_query_is_refused_before_tick_zero() {
    let (code, stdout, stderr) = run(&["--query", "mean(power_npu_w)"], TINY_SCENARIO);
    assert_eq!(code, 1, "unknown channel must refuse: {stderr}");
    assert!(
        stderr.contains("MPT401") && stderr.contains("power_npu_w"),
        "stderr should carry the query diagnostic: {stderr}"
    );
    assert!(
        stderr.contains("nothing was simulated"),
        "refusal must come before tick 0: {stderr}"
    );
    assert!(
        !stdout.contains("peak temperature"),
        "no outcome may be printed: {stdout}"
    );
}

#[test]
fn session_group_by_is_refused_as_non_axis() {
    let (code, _, stderr) = run(&["--query", "max(max_temp_c) by platform"], TINY_SCENARIO);
    assert_eq!(code, 1);
    assert!(
        stderr.contains("MPT402"),
        "session frames have no axes, so group-by must refuse: {stderr}"
    );
}

#[test]
fn columnar_out_writes_the_session_frame() {
    let dir = std::env::temp_dir().join("mpt_columnar_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("session.csv");
    let (code, _, stderr) = run(
        &["--columnar-out", path.to_str().expect("utf-8")],
        TINY_SCENARIO,
    );
    assert_eq!(code, 0, "columnar export failed: {stderr}");
    assert!(
        stderr.contains("columnar frame written"),
        "stderr should confirm the export: {stderr}"
    );
    let csv = std::fs::read_to_string(&path).expect("frame file exists");
    let header = csv.lines().next().expect("header line");
    assert!(
        header.starts_with("time_s,") && header.contains("max_temp_c"),
        "frame CSV header should lead with time and carry channels: {header}"
    );
    // 1 s at the default 0.1 s sample period: header + ~10 sample rows.
    assert!(
        csv.lines().count() >= 10,
        "expected ~10 sample rows, got:\n{csv}"
    );
}

#[test]
fn bad_alerts_file_is_linted_too() {
    let dir = std::env::temp_dir().join("mpt_lint_cli_alerts_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("rules.json");
    std::fs::write(
        &path,
        r#"[ { "rule": "throttle_storm", "events": 0, "window_s": 30.0 } ]"#,
    )
    .expect("write rules");
    let (code, _, stderr) = run(&["--alerts", path.to_str().expect("utf-8")], TINY_SCENARIO);
    assert_eq!(code, 1, "invalid alert params must refuse: {stderr}");
    assert!(stderr.contains("MPT107"), "expected MPT107: {stderr}");
}

#[test]
fn campaign_progress_renders_on_stderr_and_stdout_stays_clean() {
    let (code, stdout, stderr) = run(&["--campaign", "--progress", "--jobs", "2"], TINY_CAMPAIGN);
    assert_eq!(code, 0, "campaign failed: {stderr}");
    // The final redraw is unconditional, so the completed bar is always
    // present even when the run outpaces the 100 ms refresh.
    assert!(
        stderr.contains("cells 2/2 [##]") && stderr.contains("ticks/s"),
        "stderr should carry the finished progress bar: {stderr}"
    );
    assert!(
        !stdout.contains('\r') && !stdout.contains("ticks/s"),
        "progress must never leak onto stdout: {stdout}"
    );
    assert!(
        stdout.contains("peak C"),
        "stdout keeps the machine-readable cell table: {stdout}"
    );
}

#[test]
fn scenario_progress_reports_throughput_on_stderr_only() {
    let (code, stdout, stderr) = run(&["--progress"], TINY_SCENARIO);
    assert_eq!(code, 0, "scenario failed: {stderr}");
    assert!(
        stderr.contains("ticks") && stderr.contains("scenario done in"),
        "stderr should carry throughput and the closing line: {stderr}"
    );
    assert!(
        !stdout.contains('\r') && !stdout.contains("ticks"),
        "progress must never leak onto stdout: {stdout}"
    );
}

#[test]
fn serve_obs_announces_the_bound_address_on_stderr() {
    let (code, stdout, stderr) = run(&["--serve-obs", "127.0.0.1:0"], TINY_SCENARIO);
    assert_eq!(code, 0, "serve-obs run failed: {stderr}");
    assert!(
        stderr.contains("obs server listening on http://127.0.0.1:")
            && stderr.contains("/events?cursor=N"),
        "stderr should announce the resolved ephemeral port: {stderr}"
    );
    assert!(
        !stdout.contains("obs server"),
        "the announcement belongs on stderr: {stdout}"
    );
}

#[test]
fn journal_out_writes_the_full_ndjson_journal() {
    let dir = std::env::temp_dir().join("mpt_journal_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("journal.ndjson");
    let (code, _, stderr) = run(
        &["--campaign", "--journal-out", path.to_str().expect("utf-8")],
        TINY_CAMPAIGN,
    );
    assert_eq!(code, 0, "journal export failed: {stderr}");
    assert!(
        stderr.contains("journal written"),
        "stderr should confirm the export: {stderr}"
    );
    let ndjson = std::fs::read_to_string(&path).expect("journal file exists");
    let meta = ndjson.lines().next().expect("meta line");
    assert!(
        meta.contains("\"next_cursor\":") && meta.contains("\"dropped\":0"),
        "meta line should carry cursor bookkeeping: {meta}"
    );
    for kind in [
        "campaign_started",
        "cell_started",
        "cell_finished",
        "stage_rollup",
        "queue_stats",
        "solver_cache",
    ] {
        assert!(
            ndjson.contains(&format!("\"kind\":\"{kind}\"")),
            "journal should carry a {kind} event:\n{ndjson}"
        );
    }
    assert!(
        ndjson
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')),
        "every line must be a standalone JSON object"
    );
}

/// A field of a JSON object, if present.
fn get<'a>(value: &'a serde::Value, key: &str) -> Option<&'a serde::Value> {
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

#[test]
fn campaign_trace_has_one_track_set_per_cell() {
    let dir = std::env::temp_dir().join("mpt_trace_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trace.json");
    let (code, _, stderr) = run(
        &["--campaign", "--trace-out", path.to_str().expect("utf-8")],
        TINY_CAMPAIGN,
    );
    assert_eq!(code, 0, "trace export failed: {stderr}");
    let text = std::fs::read_to_string(&path).expect("trace file exists");
    let trace = serde_json::value_from_str(&text).expect("trace is valid JSON");
    let events = get(&trace, "traceEvents")
        .and_then(serde::Value::as_array)
        .expect("traceEvents array");
    // Counter events grouped by track name, in trace order.
    let mut tracks: Vec<(&str, Vec<f64>)> = Vec::new();
    for event in events {
        if get(event, "ph").and_then(serde::Value::as_str) != Some("C") {
            continue;
        }
        let name = get(event, "name")
            .and_then(serde::Value::as_str)
            .expect("name");
        let ts = get(event, "ts").and_then(serde::Value::as_f64).expect("ts");
        match tracks.iter_mut().find(|(n, _)| *n == name) {
            Some((_, times)) => times.push(ts),
            None => tracks.push((name, vec![ts])),
        }
    }
    for (name, times) in &tracks {
        assert!(
            times.windows(2).all(|w| w[0] < w[1]),
            "{name}: timestamps must ascend"
        );
    }
    // The two cells (labelled by their swept start temperature) each
    // get the same set of tracks, and no track belongs to neither.
    let set = |label: &str| -> Vec<&str> {
        let prefix = format!("{label}: ");
        tracks
            .iter()
            .filter_map(|(n, _)| n.strip_prefix(prefix.as_str()))
            .collect()
    };
    let (cold, hot) = (set("ambient=40C"), set("ambient=50C"));
    assert!(
        cold.contains(&"max_temp_c") && cold.contains(&"freq_big_mhz"),
        "{cold:?}"
    );
    assert_eq!(cold, hot);
    assert_eq!(tracks.len(), cold.len() + hot.len(), "{tracks:?}");
}

/// Every row of the campaign's cell and verification tables is as wide
/// as its header, so the numbers line up even where a label is longer
/// than the default 52 columns, as the Table I campaign's
/// `thermal=step_wise(40.5/43.5) workloads=Google Hangouts` (55) is.
#[test]
fn campaign_tables_stay_aligned_past_52_column_labels() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/nexus_table1.campaign.json"
    );
    let (code, stdout, stderr) = run(&["--campaign", path, "--verify"], "");
    assert_eq!(code, 0, "campaign failed: {stderr}");
    let widths = |prefix: &str| -> Vec<usize> {
        (stdout.lines())
            .filter(|l| l.starts_with(prefix))
            .map(|l| l.chars().count())
            .collect()
    };
    let (headers, rows) = (widths("cell "), widths("thermal="));
    assert_eq!((headers.len(), rows.len()), (2, 20), "{stdout}");
    assert!(rows.iter().any(|&w| w > 52 + 38), "a label past 52 columns");
    let (cells, verification) = rows.split_at(10);
    assert!(cells.iter().all(|&w| w == headers[0]), "{stdout}");
    assert!(verification.iter().all(|&w| w == headers[1]), "{stdout}");
}
