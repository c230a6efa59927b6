//! Runs a JSON-defined scenario or campaign (see `mpt_core::scenario`)
//! and prints the outcome.
//!
//! ```sh
//! # One scenario:
//! cargo run --release -p mpt-bench --bin run_scenario -- scenarios/odroid_proposed.json
//!
//! # A campaign (sweep grid) on 4 worker threads, with live progress,
//! # a Perfetto-loadable trace and a Prometheus-style metrics dump:
//! cargo run --release -p mpt-bench --bin run_scenario -- \
//!     --campaign scenarios/odroid_policy_sweep.campaign.json --jobs 4 \
//!     --progress --trace-out trace.json --metrics-out metrics.txt
//! ```

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mpt_bench::obs_serve::ObsServer;
use mpt_core::campaign::run_cells_framed;
use mpt_core::report::SessionReport;
use mpt_core::scenario::{run_scenario_framed_cached, CampaignSpec, ScenarioSpec};
use mpt_daq::columnar::ColumnData;
use mpt_daq::{ColumnFrame, Query, QueryError};
use mpt_obs::{clock, trace::chrome_trace_json, AlertRule, Counter, CounterTrack, Recorder};
use mpt_sim::SteppingMode;

fn usage() -> ! {
    eprintln!(
        "usage: run_scenario [SCENARIO.json]\n       run_scenario --campaign CAMPAIGN.json [--jobs N]\n\noptions:\n  --jobs N           worker threads for campaigns; 0 (default) = one per CPU\n  --trace-out FILE   write a Chrome trace-event JSON with spans and one\n                     counter track per telemetry channel (campaigns: per\n                     cell, named after its label); load in\n                     Perfetto/about:tracing\n  --metrics-out FILE write counters + latency quantiles; .json extension\n                     selects a JSON snapshot, anything else Prometheus text\n  --report-out FILE  write the session report JSON: outcome, derived\n                     observables, fired alerts and frequency residency\n                     (campaigns: the full campaign report with the\n                     per-cell alert/derived rollup)\n  --fleet-out FILE   write the per-cell fleet population rollups as JSON\n                     (campaigns with a \"fleet\" block only): throttle-onset\n                     CDF, time-above-trip quantiles, peak-temp histogram\n  --alerts FILE      merge extra alert rules (a JSON array of rule\n                     objects, e.g. scenarios/alerts/*.json) into the\n                     scenario or campaign base before running\n  --engine NAME      override the stepping engine (fixed | event) for the\n                     scenario, or every cell of a campaign\n  --query EXPR       run a telemetry query (repeatable). Grammar:\n                     agg(channel) [by axis,...] [where axis=value ...]\n                     with agg one of min|max|mean|median|sum|count|p<N>.\n                     Scenarios query the session frame; campaigns query\n                     the per-cell metrics frame, falling back to the\n                     assembled per-cell telemetry for time channels.\n                     Spec-embedded `queries` run first, then these\n  --query-out FMT    query result format: csv (default) or json\n  --columnar-out F   write the columnar telemetry frame (scenario: the\n                     session frame; campaign: the per-cell metrics\n                     frame). Extension picks the format: .json for\n                     JSON, anything else CSV\n  --progress         render live progress on stderr: per-cell bar, tick\n                     throughput and ETA (campaigns), tick throughput\n                     (scenarios); stdout stays machine-readable\n  --serve-obs ADDR   serve live observability over HTTP while running:\n                     GET /metrics (Prometheus), /progress (JSON snapshot)\n                     and /events?cursor=N (long-poll NDJSON journal).\n                     ADDR is host:port; port 0 picks one (printed to\n                     stderr)\n  --journal-out FILE write the full event journal as NDJSON after the run\n                     (one meta line, then one event per line)\n  --verify           run the MPT6xx static reachability certifier before\n                     tick 0: an interval envelope over every trajectory\n                     the spec (and any fleet jitter) can realize. The\n                     verdict lands in the session/campaign report; a\n                     guaranteed trip (MPT603) refuses to simulate\n\nWith no file, a scenario is read from stdin."
    );
    std::process::exit(2);
}

struct Args {
    path: Option<String>,
    campaign: bool,
    jobs: usize,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    report_out: Option<String>,
    fleet_out: Option<String>,
    alerts: Option<String>,
    engine: Option<SteppingMode>,
    queries: Vec<String>,
    query_json: bool,
    columnar_out: Option<String>,
    progress: bool,
    serve_obs: Option<String>,
    journal_out: Option<String>,
    verify: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        path: None,
        campaign: false,
        jobs: 0,
        trace_out: None,
        metrics_out: None,
        report_out: None,
        fleet_out: None,
        alerts: None,
        engine: None,
        queries: Vec::new(),
        query_json: false,
        columnar_out: None,
        progress: false,
        serve_obs: None,
        journal_out: None,
        verify: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--campaign" => args.campaign = true,
            "--jobs" => {
                let Some(n) = it.next().and_then(|v| v.parse().ok()) else {
                    usage();
                };
                args.jobs = n;
            }
            "--trace-out" => {
                let Some(path) = it.next() else { usage() };
                args.trace_out = Some(path);
            }
            "--metrics-out" => {
                let Some(path) = it.next() else { usage() };
                args.metrics_out = Some(path);
            }
            "--report-out" => {
                let Some(path) = it.next() else { usage() };
                args.report_out = Some(path);
            }
            "--fleet-out" => {
                let Some(path) = it.next() else { usage() };
                args.fleet_out = Some(path);
            }
            "--alerts" => {
                let Some(path) = it.next() else { usage() };
                args.alerts = Some(path);
            }
            "--engine" => {
                let Some(name) = it.next() else { usage() };
                match name.parse() {
                    Ok(mode) => args.engine = Some(mode),
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--query" => {
                let Some(expr) = it.next() else { usage() };
                args.queries.push(expr);
            }
            "--query-out" => {
                let Some(fmt) = it.next() else { usage() };
                match fmt.as_str() {
                    "csv" => args.query_json = false,
                    "json" => args.query_json = true,
                    _ => usage(),
                }
            }
            "--columnar-out" => {
                let Some(path) = it.next() else { usage() };
                args.columnar_out = Some(path);
            }
            "--progress" => args.progress = true,
            "--verify" => args.verify = true,
            "--serve-obs" => {
                let Some(addr) = it.next() else { usage() };
                args.serve_obs = Some(addr);
            }
            "--journal-out" => {
                let Some(path) = it.next() else { usage() };
                args.journal_out = Some(path);
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => {
                if args.path.replace(other.to_owned()).is_some() {
                    usage();
                }
            }
        }
    }
    args
}

fn read_input(path: Option<&str>) -> std::io::Result<String> {
    match path {
        Some(path) => std::fs::read_to_string(path),
        None => {
            let mut buf = String::new();
            std::io::stdin().read_to_string(&mut buf)?;
            Ok(buf)
        }
    }
}

/// One counter track per `f64` channel of a telemetry frame, named
/// `<prefix><channel>` and timestamped in simulation-time µs. `NaN`
/// ("no sample") rows are skipped, and a channel with no sample at all
/// gives no track.
fn frame_tracks(frame: &ColumnFrame, prefix: &str) -> Vec<CounterTrack> {
    frame
        .columns()
        .iter()
        .filter_map(|column| match column.data() {
            ColumnData::F64(values) => Some(CounterTrack {
                name: format!("{prefix}{}", column.name()),
                samples: frame
                    .times()
                    .iter()
                    .zip(values)
                    .filter(|(_, v)| !v.is_nan())
                    .map(|(&t, &v)| ((t * 1e6).round().max(0.0) as u64, v))
                    .collect(),
            }),
            _ => None,
        })
        .filter(|track| !track.samples.is_empty())
        .collect()
}

/// Writes the trace and/or metrics files requested on the command line.
/// The trace's counter tracks render `frames`, each `(track-name prefix,
/// telemetry frame)`, only when a trace is requested.
fn export_observability(
    recorder: &Recorder,
    args: &Args,
    frames: &[(String, &ColumnFrame)],
) -> std::io::Result<()> {
    let input = args.path.as_deref().unwrap_or("stdin");
    if let Some(path) = &args.trace_out {
        let tracks: Vec<CounterTrack> = frames
            .iter()
            .flat_map(|(prefix, frame)| frame_tracks(frame, prefix))
            .collect();
        std::fs::write(path, chrome_trace_json(&recorder.spans(), &tracks, input))?;
        eprintln!(
            "trace written to {path} ({} spans, {} counter tracks)",
            recorder.spans().len(),
            tracks.len()
        );
    }
    if let Some(path) = &args.metrics_out {
        let snapshot = recorder.snapshot();
        let body = if path.ends_with(".json") {
            snapshot.to_json()
        } else {
            snapshot.to_prometheus()
        };
        std::fs::write(path, body)?;
        eprintln!("metrics written to {path}");
    }
    if let Some(path) = &args.journal_out {
        write_journal(recorder, path)?;
    }
    Ok(())
}

/// Dumps the whole journal as NDJSON: one meta line (`cursor`,
/// `next_cursor`, `dropped`), then one event per line — the same shape
/// `GET /events` serves.
fn write_journal(recorder: &Recorder, path: &str) -> std::io::Result<()> {
    let delta = recorder.journal().poll(0);
    let mut body = format!(
        "{{\"cursor\":0,\"next_cursor\":{},\"dropped\":{}}}\n",
        delta.next_cursor, delta.dropped
    );
    for ev in &delta.events {
        body.push_str(&ev.to_json());
        body.push('\n');
    }
    std::fs::write(path, body)?;
    eprintln!(
        "journal written to {path} ({} events, {} dropped)",
        delta.events.len(),
        delta.dropped
    );
    Ok(())
}

/// Starts the `--serve-obs` HTTP endpoint, announcing the bound address
/// on stderr (the only place an ephemeral `:0` port becomes known).
fn start_obs_server(
    args: &Args,
    recorder: &Arc<Recorder>,
) -> Result<Option<ObsServer>, Box<dyn std::error::Error>> {
    let Some(addr) = &args.serve_obs else {
        return Ok(None);
    };
    let server = ObsServer::start(addr, Arc::clone(recorder))?;
    eprintln!(
        "obs server listening on http://{} (GET /metrics /progress /events?cursor=N)",
        server.local_addr()
    );
    Ok(Some(server))
}

/// The `--progress` renderer: a journal subscriber thread that redraws a
/// live status line on stderr every 100 ms — per-cell bar, throughput
/// and ETA for campaigns; tick throughput for plain scenarios. Stdout
/// never sees a byte of it.
struct ProgressRenderer {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressRenderer {
    fn start(recorder: Arc<Recorder>) -> ProgressRenderer {
        let stop = Arc::new(AtomicBool::new(false));
        let handle = std::thread::spawn({
            let stop = Arc::clone(&stop);
            move || {
                while !stop.load(Ordering::SeqCst) {
                    render_progress(&recorder, false);
                    std::thread::sleep(Duration::from_millis(100));
                }
                render_progress(&recorder, true);
            }
        });
        ProgressRenderer {
            stop,
            handle: Some(handle),
        }
    }

    fn finish(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// One redraw of the stderr status line from a journal snapshot.
#[allow(clippy::cast_possible_truncation, clippy::cast_precision_loss)]
fn render_progress(recorder: &Recorder, last: bool) {
    let snap = recorder.journal().snapshot(recorder);
    let mut line = String::new();
    if snap.cells_total > 0 {
        let total = snap.cells_total as usize;
        let done = (snap.cells_done as usize).min(total);
        let running = snap.in_flight.len().min(total - done);
        // One char per cell up to a screenful, else a scaled 40-char bar.
        let (width, done_w, run_w) = if total <= 60 {
            (total, done, running)
        } else {
            let scale = |n: usize| n * 40 / total;
            (40, scale(done), scale(running))
        };
        let bar = format!(
            "{}{}{}",
            "#".repeat(done_w),
            ">".repeat(run_w),
            ".".repeat(width - done_w - run_w)
        );
        let eta = snap
            .eta_s
            .map_or_else(|| "-".to_owned(), |eta| format!("{eta:.1} s"));
        let dev = if snap.device_ticks_total > 0 {
            format!("  {:.2}M dev-ticks/s", snap.device_ticks_per_sec / 1e6)
        } else {
            String::new()
        };
        line.push_str(&format!(
            "\rcells {done}/{total} [{bar}]  {:.0} ticks/s{dev}  eta {eta:<9}",
            snap.ticks_per_sec
        ));
    } else {
        line.push_str(&format!(
            "\rticks {}  ({:.0}/s)  elapsed {:.1} s ",
            snap.ticks_total, snap.ticks_per_sec, snap.elapsed_s
        ));
    }
    eprint!("{line}");
    let _ = std::io::stderr().flush();
    if last {
        eprintln!();
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args();
    let json = read_input(args.path.as_deref())?;
    if args.campaign {
        run_campaign_cli(&json, &args)
    } else {
        run_scenario_cli(&json, &args)
    }
}

/// Fail-fast static analysis before tick 0: the same MPT1xx checks
/// `mpt_lint` runs, over the scenario/campaign JSON (`lint` is its
/// `mpt_lint::config::lint_*_json`) and any `--alerts` file. Findings
/// print to stderr; error severity refuses to simulate (exit 1) with the
/// identical diagnostic the linter would give. Otherwise returns the
/// spec and the `--alerts` rules from lint's one parse of each file.
fn lint_gate<T>(
    json: &str,
    args: &Args,
    lint: fn(&str, &str) -> (mpt_lint::Report, Option<T>),
    recorder: &Recorder,
) -> Result<(T, Vec<AlertRule>), Box<dyn std::error::Error>> {
    let _span = recorder.span("lint", "config");
    let origin = args.path.as_deref().unwrap_or("stdin");
    let (mut report, spec) = lint(json, origin);
    let mut alerts = Some(Vec::new());
    if let Some(path) = &args.alerts {
        let (alert_report, rules) =
            mpt_lint::config::lint_alerts_json(&std::fs::read_to_string(path)?, path);
        report.merge(alert_report);
        alerts = rules;
    }
    recorder.add(Counter::LintChecksRun, report.checks_run);
    recorder.add(Counter::LintDiagnostics, report.diagnostics.len() as u64);
    for d in &report.diagnostics {
        eprintln!("{}", d.render_text());
    }
    match (spec, alerts) {
        (Some(spec), Some(alerts)) if report.errors() == 0 => Ok((spec, alerts)),
        _ => {
            eprintln!(
                "run_scenario: {} static-analysis error(s); nothing was simulated",
                report.errors()
            );
            std::process::exit(1);
        }
    }
}

/// The `--verify` pre-gate for a plain scenario: runs the MPT6xx static
/// reachability certifier, prints its diagnostics to stderr, and refuses
/// to simulate only on a *guaranteed* trip (MPT603 is the family's only
/// error; possible-trip and limit-cycle findings are warnings).
fn verify_gate_scenario(
    spec: &ScenarioSpec,
    origin: &str,
    recorder: &Recorder,
) -> mpt_core::report::VerificationSummary {
    let _span = recorder.span("lint", "verify");
    let v = match mpt_lint::verify::verify_scenario(spec, origin) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("run_scenario: cannot verify {origin}: {msg}");
            std::process::exit(1);
        }
    };
    recorder.add(Counter::LintChecksRun, v.report.checks_run);
    recorder.add(Counter::LintDiagnostics, v.report.diagnostics.len() as u64);
    for d in &v.report.diagnostics {
        eprintln!("{}", d.render_text());
    }
    if v.report.errors() > 0 {
        eprintln!("run_scenario: certifier proved a guaranteed trip; nothing was simulated");
        std::process::exit(1);
    }
    v.summary
}

/// The `--verify` pre-gate for a campaign: certifies every expanded cell
/// (fleet jitter included) before any cell simulates, returning the
/// per-cell verdicts for the campaign report.
fn verify_gate_campaign(
    spec: &CampaignSpec,
    origin: &str,
    recorder: &Recorder,
) -> Vec<mpt_core::report::CellVerification> {
    let _span = recorder.span("lint", "verify");
    let (report, verdicts) = match mpt_lint::verify::verify_campaign(spec, origin) {
        Ok(out) => out,
        Err(msg) => {
            eprintln!("run_scenario: cannot verify {origin}: {msg}");
            std::process::exit(1);
        }
    };
    recorder.add(Counter::LintChecksRun, report.checks_run);
    recorder.add(Counter::LintDiagnostics, report.diagnostics.len() as u64);
    for d in &report.diagnostics {
        eprintln!("{}", d.render_text());
    }
    if report.errors() > 0 {
        eprintln!(
            "run_scenario: certifier proved a guaranteed trip in {} cell(s); \
             nothing was simulated",
            report.errors()
        );
        std::process::exit(1);
    }
    verdicts
}

/// Validates `--query` expressions against the spec's static schema
/// with the same MPT401/402 diagnostics the linter gives embedded
/// `queries` (which `lint_gate` already covered). Errors refuse to
/// simulate.
fn gate_cli_queries(queries: &[String], channels: &[String], axes: &[String]) {
    let mut report = mpt_lint::diag::Report::default();
    mpt_lint::config::check_queries(queries, channels, axes, "--query", &mut report);
    for d in &report.diagnostics {
        eprintln!("{}", d.render_text());
    }
    if report.errors() > 0 {
        eprintln!(
            "run_scenario: {} invalid --query expression(s); nothing was simulated",
            report.errors()
        );
        std::process::exit(1);
    }
}

/// Writes a columnar frame, dispatching the format on the extension:
/// `.json`, else CSV.
fn write_frame(path: &str, frame: &ColumnFrame) -> Result<(), Box<dyn std::error::Error>> {
    if path.ends_with(".json") {
        std::fs::write(path, frame.to_json())?;
    } else {
        std::fs::write(path, frame.to_csv())?;
    }
    eprintln!(
        "columnar frame written to {path} ({} rows, {} channels)",
        frame.rows(),
        frame.channel_names().len()
    );
    Ok(())
}

/// Prints one query result to stdout in the selected format. CSV gets a
/// `# <query>` banner so multiple results stay distinguishable; JSON
/// results name their query inline.
fn print_query_result(result: &mpt_daq::QueryResult, json: bool) {
    if json {
        println!("{}", result.to_json());
    } else {
        println!("# {}", result.query);
        print!("{}", result.to_csv());
    }
}

fn run_scenario_cli(json: &str, args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let recorder = Arc::new(Recorder::new());
    let (mut spec, alerts) =
        lint_gate(json, args, mpt_lint::config::lint_scenario_json, &recorder)?;
    let start = clock::now();
    spec.alerts.extend(alerts);
    if let Some(mode) = args.engine {
        spec.engine = mode.into();
    }
    if args.fleet_out.is_some() {
        eprintln!("run_scenario: --fleet-out needs --campaign (fleets are a campaign feature)");
        std::process::exit(2);
    }
    let (channels, axes) = mpt_lint::config::scenario_query_schema(&spec);
    gate_cli_queries(&args.queries, &channels, &axes);
    let verification = args
        .verify
        .then(|| verify_gate_scenario(&spec, args.path.as_deref().unwrap_or("stdin"), &recorder));
    let server = start_obs_server(args, &recorder)?;
    let renderer = args
        .progress
        .then(|| ProgressRenderer::start(Arc::clone(&recorder)));
    let (outcome, analysis, frame) =
        run_scenario_framed_cached(&spec, Some(Arc::clone(&recorder)), None)?;
    if let Some(renderer) = renderer {
        renderer.finish();
        eprintln!(
            "scenario done in {:.2} s",
            clock::elapsed(start).as_secs_f64()
        );
    }
    println!("peak temperature : {:.1} C", outcome.peak_temperature_c);
    println!("average power    : {:.2} W", outcome.average_power_w);
    println!("energy           : {:.1} J", outcome.energy_j);
    println!("migrations       : {}", outcome.migrations);
    if let Some(vs) = &verification {
        println!(
            "verification     : {} — envelope peak [{:.1}, {:.1}] C vs {:.1} C ({})",
            vs.verdict, vs.peak_lower_c, vs.peak_upper_c, vs.trip_c, vs.reference
        );
        if let Some(b) = vs.sustained_budget_w {
            println!("safe sustained   : {b:.2} W");
        }
    }
    println!("\nworkloads:");
    for w in &outcome.workloads {
        match w.median_fps {
            Some(fps) => println!(
                "  {:<20} {:>6.1} FPS  (on {})",
                w.name, fps, w.final_cluster
            ),
            None => println!("  {:<20} {:>10}  (on {})", w.name, "-", w.final_cluster),
        }
    }
    let d = &analysis.derived;
    println!("\nderived observables:");
    if let (Some(trip), Some(peak)) = (d.trip_c, d.peak_temp_c) {
        println!(
            "  trip reference   : {trip:.1} C  (peak {peak:.1} C, headroom {:.1} C)",
            trip - peak
        );
        println!("  time above trip  : {:.1} s", d.time_above_trip_s);
    }
    println!(
        "  time throttled   : {:.1} s  ({} throttle events)",
        d.time_throttled_s, d.throttle_events
    );
    if let Some(loss) = d.throttle_fps_loss {
        println!(
            "  throttle FPS loss: {loss:.1} FPS ({:.0}%; {:.1} free vs {:.1} throttled)",
            d.throttle_fps_loss_pct.unwrap_or(0.0),
            d.fps_mean_free.unwrap_or(0.0),
            d.fps_mean_throttled.unwrap_or(0.0)
        );
    }
    println!("  temp trend       : {:+.3} C/s", d.temp_trend_c_per_s);
    if !analysis.alerts.is_empty() {
        println!("\nalerts:");
        for a in &analysis.alerts {
            println!("  [{:>7.1}s] {:<14} {}", a.t_s, a.rule, a.message);
        }
    }
    if !outcome.events.is_empty() {
        println!("\nevents:\n{}", outcome.events.trim_end());
    }
    if !spec.queries.is_empty() || !args.queries.is_empty() {
        println!("\nqueries:");
        for expr in spec.queries.iter().chain(&args.queries) {
            let result = Query::parse(expr)?.run(&frame)?;
            print_query_result(&result, args.query_json);
        }
    }
    if let Some(path) = &args.columnar_out {
        write_frame(path, &frame)?;
    }
    if let Some(path) = &args.report_out {
        let input = args.path.as_deref().unwrap_or("stdin");
        let mut report = SessionReport::new(input, outcome, analysis);
        report.verification = verification;
        std::fs::write(path, serde_json::to_string_pretty(&report)?)?;
        eprintln!("session report written to {path}");
    }
    export_observability(&recorder, args, &[(String::new(), &frame)])?;
    if let Some(server) = server {
        server.stop();
    }
    Ok(())
}

fn run_campaign_cli(json: &str, args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let recorder = Arc::new(Recorder::new());
    let (mut spec, alerts) =
        lint_gate(json, args, mpt_lint::config::lint_campaign_json, &recorder)?;
    spec.base.alerts.extend(alerts);
    if let Some(mode) = args.engine {
        spec.base.engine = mode.into();
    }
    let (channels, axes) = mpt_lint::config::campaign_query_schema(&spec);
    gate_cli_queries(&args.queries, &channels, &axes);
    let verification = if args.verify {
        verify_gate_campaign(&spec, args.path.as_deref().unwrap_or("stdin"), &recorder)
    } else {
        Vec::new()
    };
    let server = start_obs_server(args, &recorder)?;
    let renderer = args
        .progress
        .then(|| ProgressRenderer::start(Arc::clone(&recorder)));
    let (mut report, frames) = run_cells_framed(&spec.expand()?, args.jobs, &recorder, None)?;
    report.verification = verification;
    if let Some(renderer) = renderer {
        renderer.finish();
    }
    // Labels pad to 52 columns, or to the longest label, so that every
    // row of the cell, verification and fleet tables stays aligned.
    let width = (report.cells.iter().map(|c| &c.label))
        .chain(report.verification.iter().map(|v| &v.label))
        .chain(report.fleet.iter().map(|f| &f.label))
        .map(|label| label.chars().count())
        .fold(52, usize::max);
    println!(
        "{:<width$} {:>9} {:>9} {:>9} {:>6}",
        "cell", "peak C", "avg W", "J", "migr"
    );
    println!("{}", "-".repeat(width + 38));
    for cell in &report.cells {
        println!(
            "{:<width$} {:>9.1} {:>9.2} {:>9.1} {:>6}",
            cell.label,
            cell.outcome.peak_temperature_c,
            cell.outcome.average_power_w,
            cell.outcome.energy_j,
            cell.outcome.migrations,
        );
    }
    println!("{}", "-".repeat(width + 38));
    let row = |name: &str, s: &mpt_core::campaign::SummaryStats| {
        println!(
            "{name:<18} min {:>8.2}   median {:>8.2}   mean {:>8.2}   p95 {:>8.2}   max {:>8.2}",
            s.min, s.median, s.mean, s.p95, s.max
        );
    };
    row("peak temp [C]", &report.peak_temperature_c);
    row("avg power [W]", &report.average_power_w);
    row("energy [J]", &report.energy_j);
    if !report.verification.is_empty() {
        println!(
            "\nverification (pre-gate):\n{:<width$} {:>8} {:>18} {:>8}",
            "cell", "verdict", "envelope peak C", "trip C"
        );
        for v in &report.verification {
            println!(
                "{:<width$} {:>8} [{:>6.1}, {:>6.1}] C {:>8.1}",
                v.label,
                v.summary.verdict,
                v.summary.peak_lower_c,
                v.summary.peak_upper_c,
                v.summary.trip_c
            );
        }
    }
    if !report.fleet.is_empty() {
        println!(
            "\nfleet ({} devices/cell):\n{:<width$} {:>8} {:>10} {:>10} {:>10}",
            report.fleet[0].devices, "cell", "tripped", "onset p50", "peak p50 C", "peak max C"
        );
        for cell in &report.fleet {
            let onset = cell
                .throttle_onset_cdf
                .iter()
                .find(|q| (q.p - 50.0).abs() < f64::EPSILON)
                .map_or_else(|| "-".to_owned(), |q| format!("{:.1} s", q.value));
            println!(
                "{:<width$} {:>8} {:>10} {:>10.1} {:>10.1}",
                cell.label,
                cell.tripped_devices,
                onset,
                cell.peak_temp_median_c,
                cell.peak_temp_max_c
            );
        }
    }
    if report.analysis.alerts_total > 0 {
        let by_rule = report
            .analysis
            .alerts_by_rule
            .iter()
            .map(|(rule, n)| format!("{rule}={n}"))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "alerts             {} across {} cell(s): {by_rule}",
            report.analysis.alerts_total,
            report
                .analysis
                .cell_alerts
                .iter()
                .filter(|c| c.total > 0)
                .count(),
        );
    }
    println!(
        "\n{} cells in {:.2} s wall clock on {} worker{}",
        report.cells.len(),
        report.wall_clock_s,
        report.workers,
        if report.workers == 1 { "" } else { "s" }
    );
    let busy: f64 = report.worker_busy_s.iter().sum();
    let span = report.wall_clock_s * report.workers as f64;
    if span > 0.0 {
        println!(
            "worker occupancy {:.0}% ({:.2} s busy / {:.2} s capacity)",
            busy / span * 100.0,
            busy,
            span
        );
    }
    let cells_frame = report.cells_frame();
    if !spec.queries.is_empty() || !args.queries.is_empty() {
        println!("\nqueries:");
        for expr in spec.queries.iter().chain(&args.queries) {
            let query = Query::parse(expr)?;
            // Per-cell metric channels resolve on the metrics frame; a
            // telemetry channel (absent there) falls back to the
            // per-cell time-series assembled zero-copy from the frames,
            // then to the per-device fleet frames (peak_temp_c and
            // friends) when the campaign ran a fleet.
            let result = match query.run(&cells_frame) {
                Ok(result) => result,
                Err(QueryError::UnknownChannel { .. }) => {
                    match query.run_campaign(&frames.campaign_frame()) {
                        Ok(result) => result,
                        Err(QueryError::UnknownChannel { .. })
                            if !frames.fleet_cells.is_empty() =>
                        {
                            query.run_campaign(&frames.fleet_campaign_frame())?
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
                Err(e) => return Err(e.into()),
            };
            print_query_result(&result, args.query_json);
        }
    }
    if let Some(path) = &args.columnar_out {
        write_frame(path, &cells_frame)?;
    }
    if let Some(path) = &args.report_out {
        std::fs::write(path, serde_json::to_string_pretty(&report)?)?;
        eprintln!("campaign report written to {path}");
    }
    if let Some(path) = &args.fleet_out {
        if report.fleet.is_empty() {
            eprintln!("run_scenario: --fleet-out given but the campaign has no fleet block");
            std::process::exit(1);
        }
        std::fs::write(path, serde_json::to_string_pretty(&report.fleet)?)?;
        eprintln!(
            "fleet rollups written to {path} ({} cells x {} devices)",
            report.fleet.len(),
            report.fleet[0].devices
        );
    }
    // Each cell renders its own track set, named after its label.
    let cell_frames: Vec<(String, &ColumnFrame)> = frames
        .cells
        .iter()
        .map(|cell| (format!("{}: ", cell.label), &cell.frame))
        .collect();
    export_observability(&recorder, args, &cell_frames)?;
    if let Some(server) = server {
        server.stop();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three rows at 0, 0.1 and 0.25 s: `max_temp_c` misses the middle
    /// row, `fps` has no sample at all and `cell` is not a float.
    fn frame() -> ColumnFrame {
        let mut frame = ColumnFrame::new();
        for (t, temp) in [(0.0, 40.0), (0.1, f64::NAN), (0.25, 41.5)] {
            frame.begin_row(t);
            frame.set_f64("max_temp_c", temp);
            frame.set_f64("fps", f64::NAN);
            frame.set_u32("cell", 0);
            frame.end_row();
        }
        frame
    }

    #[test]
    fn frame_tracks_skip_nan_rows_and_sampleless_channels() {
        let tracks = frame_tracks(&frame(), "");
        assert_eq!(tracks.len(), 1, "only max_temp_c has samples: {tracks:?}");
        assert_eq!(tracks[0].name, "max_temp_c");
        assert_eq!(tracks[0].samples.len(), 2);
    }

    #[test]
    fn frame_tracks_stamp_simulation_time_in_microseconds() {
        let tracks = frame_tracks(&frame(), "");
        assert_eq!(tracks[0].samples, vec![(0, 40.0), (250_000, 41.5)]);
    }

    #[test]
    fn frame_tracks_carry_the_cell_label_prefix() {
        let tracks = frame_tracks(&frame(), "ambient=35C: ");
        assert_eq!(tracks[0].name, "ambient=35C: max_temp_c");
    }
}
