//! The ops the benchmark times, driven through the program's public
//! entry points the way `run_scenario` drives them, and the digests and
//! checks applied to what they produce.

use std::sync::Arc;
use std::time::Instant;

use mpt_core::campaign::{run_cells_framed, CampaignFrames, CampaignReport};
use mpt_core::report::{SessionAnalysis, VerificationSummary};
use mpt_core::scenario::{
    run_scenario_framed_cached, CampaignCell, CampaignSpec, ScenarioOutcome, ScenarioSpec,
    WorkloadKind,
};
use mpt_daq::columnar::ColumnData;
use mpt_daq::{ColumnFrame, Query, QueryError, QueryResult};
use mpt_obs::Recorder;
use mpt_sim::Simulator;
use mpt_thermal::TransitionCache;

use crate::gen::OpKind;

/// FNV-1a over a stream of typed values: the output digest.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn frame(&mut self, frame: &ColumnFrame) {
        self.u64(frame.rows() as u64);
        frame.times().iter().for_each(|&t| self.f64(t));
        for col in frame.columns() {
            self.str(col.name());
            match col.data() {
                ColumnData::F64(v) => v.iter().for_each(|&x| self.f64(x)),
                ColumnData::U32(v) => v.iter().for_each(|&x| self.u64(u64::from(x))),
                ColumnData::Str { codes, values } => {
                    codes.iter().for_each(|&c| self.u64(u64::from(c)));
                    values.iter().for_each(|s| self.str(s));
                }
            }
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The fields of a session outcome the checks read, taken either from a
/// [`ScenarioOutcome`] or straight from a finished [`Simulator`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionView {
    pub peak_temperature_c: f64,
    pub average_power_w: f64,
    pub energy_j: f64,
    pub migrations: u64,
    pub events: String,
    /// `(name, median FPS, final cluster)` per workload.
    pub workloads: Vec<(String, Option<f64>, String)>,
}

impl SessionView {
    pub fn of_outcome(o: &ScenarioOutcome) -> Self {
        SessionView {
            peak_temperature_c: o.peak_temperature_c,
            average_power_w: o.average_power_w,
            energy_j: o.energy_j,
            migrations: o.migrations,
            events: o.events.clone(),
            workloads: o
                .workloads
                .iter()
                .map(|w| (w.name.clone(), w.median_fps, w.final_cluster.clone()))
                .collect(),
        }
    }

    /// Reads the outcome off a finished simulator, as the scenario
    /// runner assembles it.
    pub fn of_sim(spec: &ScenarioSpec, sim: &Simulator, migrations: u64) -> Self {
        let workloads = spec
            .workloads
            .iter()
            .map(|w| {
                let name = display_name(&w.kind);
                let pid = sim.pid_of(&name);
                let fps = pid.and_then(|p| sim.median_fps(p));
                let cluster = pid
                    .and_then(|p| sim.scheduler().process(p))
                    .map_or_else(|| "?".to_owned(), |p| p.cluster().to_string());
                (name, fps, cluster)
            })
            .collect();
        SessionView {
            peak_temperature_c: sim.telemetry().max_temperature().max().unwrap_or(f64::NAN),
            average_power_w: sim.telemetry().average_total_power().value(),
            energy_j: sim.telemetry().total_energy(),
            migrations,
            events: sim.events().render(),
            workloads,
        }
    }
}

/// The process name a generated workload runs under.
fn display_name(kind: &WorkloadKind) -> String {
    match kind {
        WorkloadKind::App { name } => match name.as_str() {
            "paper_io" => "Paper.io",
            "stickman_hook" => "Stickman Hook",
            "amazon" => "Amazon",
            "google_hangouts" => "Google Hangouts",
            "facebook" => "Facebook",
            other => other,
        }
        .to_owned(),
        WorkloadKind::ThreeDMark { .. } => "3DMark".to_owned(),
        WorkloadKind::Nenamark => "Nenamark".to_owned(),
        WorkloadKind::BasicMath => "basicmath_large".to_owned(),
        WorkloadKind::Steady { name, .. }
        | WorkloadKind::Bursty { name, .. }
        | WorkloadKind::Phased { name, .. } => name.clone(),
    }
}

fn finite(what: &str, v: f64) -> Result<(), String> {
    if v.is_finite() {
        Ok(())
    } else {
        Err(format!("{what} is not finite ({v})"))
    }
}

fn finite_opt(what: &str, v: Option<f64>) -> Result<(), String> {
    v.map_or(Ok(()), |v| finite(what, v))
}

/// Digests a session's outcome, analysis and telemetry frame, failing if
/// any reported statistic is not finite. The frame's `NaN` cells are its
/// "no sample" marker and are digested, not rejected.
pub fn session_digest(
    view: &SessionView,
    analysis: &SessionAnalysis,
    frame: &ColumnFrame,
) -> Result<u64, String> {
    finite("peak temperature", view.peak_temperature_c)?;
    finite("average power", view.average_power_w)?;
    finite("energy", view.energy_j)?;
    for (name, fps, _) in &view.workloads {
        finite_opt(&format!("{name} median FPS"), *fps)?;
    }
    let d = &analysis.derived;
    finite("elapsed", d.elapsed_s)?;
    finite("time above trip", d.time_above_trip_s)?;
    finite("time throttled", d.time_throttled_s)?;
    finite("temperature trend", d.temp_trend_c_per_s)?;
    finite("power-temperature coupling", d.power_temp_coupling_w_per_c)?;
    finite_opt("peak control temperature", d.peak_temp_c)?;
    finite_opt("FPS loss", d.throttle_fps_loss)?;
    finite_opt("margin drift", d.stability_margin_drift_c_per_s)?;
    for c in &analysis.residency {
        for s in &c.states {
            finite("residency", s.time_s)?;
        }
    }
    if frame.times().iter().any(|t| !t.is_finite()) {
        return Err("telemetry time column is not finite".to_owned());
    }
    let mut h = Digest::new();
    h.f64(view.peak_temperature_c);
    h.f64(view.average_power_w);
    h.f64(view.energy_j);
    h.u64(view.migrations);
    h.str(&view.events);
    for (name, fps, cluster) in &view.workloads {
        h.str(name);
        h.f64(fps.unwrap_or(f64::NAN));
        h.str(cluster);
    }
    h.str(&serde_json::to_string(analysis).map_err(|e| e.to_string())?);
    h.frame(frame);
    Ok(h.finish())
}

/// The lint gate `run_scenario` applies before parsing: any error
/// diagnostic refuses the op.
pub fn lint_gate(kind: &OpKind) -> Result<(), String> {
    let report = if kind.campaign {
        mpt_lint::config::check_campaign_json(&kind.json, &kind.label)
    } else {
        mpt_lint::config::check_scenario_json(&kind.json, &kind.label)
    };
    match report.errors() {
        0 => Ok(()),
        n => Err(format!(
            "lint reported {n} error(s): {}",
            report
                .diagnostics
                .iter()
                .map(|d| d.render_text())
                .collect::<Vec<_>>()
                .join("; ")
        )),
    }
}

pub fn parse_scenario(kind: &OpKind) -> Result<ScenarioSpec, String> {
    serde_json::from_str(&kind.json).map_err(|e| format!("bad scenario json: {e}"))
}

pub fn parse_campaign(kind: &OpKind) -> Result<(CampaignSpec, Vec<CampaignCell>), String> {
    let spec: CampaignSpec =
        serde_json::from_str(&kind.json).map_err(|e| format!("bad campaign json: {e}"))?;
    let cells = spec.expand().map_err(|e| e.to_string())?;
    Ok((spec, cells))
}

/// The `--verify` pre-gate over every cell: an MPT603 (guaranteed trip)
/// refuses the op, as it makes `run_scenario` refuse to simulate.
pub fn verify_gate(
    cells: &[CampaignCell],
    origin: &str,
) -> Result<Vec<VerificationSummary>, String> {
    cells
        .iter()
        .map(|cell| {
            let v = mpt_lint::verify::verify_cell(&cell.scenario, cell.fleet.as_ref(), origin)?;
            if v.report.errors() > 0 {
                return Err(format!("certifier refused {origin}: {}", v.summary.verdict));
            }
            Ok(v.summary)
        })
        .collect()
}

/// Host times of one op, seconds.
#[derive(Debug, Clone, Copy)]
pub struct OpTimes {
    pub setup_s: f64,
    pub whole_s: f64,
}

/// A fresh transition cache: every op pays for its own discretizations.
pub fn fresh_cache() -> Option<Arc<TransitionCache>> {
    Some(Arc::new(TransitionCache::new()))
}

/// One untraced session op. Set-up — lint gate, parsing, building with a
/// fresh transition cache — is timed on its own; the whole op then runs
/// from the JSON text through `run_scenario_framed_cached` to the
/// outcome, session analysis and telemetry frame.
pub fn session(kind: &OpKind) -> (Option<OpTimes>, Result<u64, String>) {
    let t0 = Instant::now();
    let built = lint_gate(kind)
        .and_then(|()| parse_scenario(kind))
        .and_then(|spec| {
            mpt_core::scenario::build_scenario_cached(&spec, None, fresh_cache())
                .map_err(|e| e.to_string())
        });
    let setup_s = t0.elapsed().as_secs_f64();
    match built {
        Ok(built) => drop(built),
        Err(e) => return (None, Err(e)),
    }
    let t1 = Instant::now();
    let ran = lint_gate(kind)
        .and_then(|()| parse_scenario(kind))
        .and_then(|spec| {
            run_scenario_framed_cached(&spec, None, fresh_cache()).map_err(|e| e.to_string())
        });
    let whole_s = t1.elapsed().as_secs_f64();
    let digest = ran.and_then(|(outcome, analysis, frame)| {
        session_digest(&SessionView::of_outcome(&outcome), &analysis, &frame)
    });
    (Some(OpTimes { setup_s, whole_s }), digest)
}

/// Runs the embedded queries the way `run_scenario` resolves them: the
/// per-cell metrics frame first, then per-cell telemetry, then the
/// per-device fleet frames.
pub fn run_queries(
    queries: &[String],
    report: &CampaignReport,
    frames: &CampaignFrames,
) -> Result<Vec<QueryResult>, String> {
    let cells_frame = report.cells_frame();
    let mut out = Vec::with_capacity(queries.len());
    for expr in queries {
        let query = Query::parse(expr).map_err(|e| e.to_string())?;
        let result = match query.run(&cells_frame) {
            Ok(result) => Ok(result),
            Err(QueryError::UnknownChannel { .. }) => {
                match query.run_campaign(&frames.campaign_frame()) {
                    Err(QueryError::UnknownChannel { .. }) if !frames.fleet_cells.is_empty() => {
                        query.run_campaign(&frames.fleet_campaign_frame())
                    }
                    other => other,
                }
            }
            Err(e) => Err(e),
        };
        out.push(result.map_err(|e| format!("query {expr}: {e}"))?);
    }
    Ok(out)
}

/// Digests a fleet op's cell outcomes, population rollups, telemetry and
/// device frames and query results, failing on non-finite statistics.
pub fn fleet_digest(
    report: &CampaignReport,
    frames: &CampaignFrames,
    queries: &[QueryResult],
) -> Result<u64, String> {
    let mut h = Digest::new();
    for cell in &report.cells {
        let view = SessionView::of_outcome(&cell.outcome);
        finite("cell peak temperature", view.peak_temperature_c)?;
        finite("cell average power", view.average_power_w)?;
        finite("cell energy", view.energy_j)?;
    }
    for f in &report.fleet {
        finite("fleet peak min", f.peak_temp_min_c)?;
        finite("fleet peak median", f.peak_temp_median_c)?;
        finite("fleet peak max", f.peak_temp_max_c)?;
        for q in f.time_above_trip_s.iter().chain(&f.throttle_onset_cdf) {
            finite("fleet quantile", q.value)?;
        }
    }
    for cell in &frames.fleet_cells {
        for channel in ["peak_temp_c", "time_above_trip_s"] {
            let column = cell
                .frame
                .f64_column(channel)
                .ok_or_else(|| format!("device frame lacks {channel}"))?;
            if column.iter().any(|v| !v.is_finite()) {
                return Err(format!("device {channel} is not finite"));
            }
        }
    }
    let json = |r: Result<String, serde_json::Error>| r.map_err(|e| e.to_string());
    h.str(&json(serde_json::to_string(&report.cells))?);
    h.str(&json(serde_json::to_string(&report.fleet))?);
    h.str(&json(serde_json::to_string(&report.analysis))?);
    for cell in frames.cells.iter().chain(&frames.fleet_cells) {
        h.frame(&cell.frame);
    }
    for q in queries {
        h.str(&q.to_csv());
    }
    Ok(h.finish())
}

/// One untraced fleet op: lint gate, parsing, expansion and the MPT6xx
/// pre-gate (set-up), then `run_cells_framed` with one worker — the
/// canonical run with trace capture, batched replay, rollup and device
/// frame — and the campaign's embedded queries.
pub fn fleet(kind: &OpKind) -> (Option<OpTimes>, Result<u64, String>) {
    let t0 = Instant::now();
    let gated = lint_gate(kind)
        .and_then(|()| parse_campaign(kind))
        .and_then(|(spec, cells)| verify_gate(&cells, &kind.label).map(|_| (spec, cells)));
    let setup_s = t0.elapsed().as_secs_f64();
    let (spec, cells) = match gated {
        Ok(parsed) => parsed,
        Err(e) => return (None, Err(e)),
    };
    let recorder = Arc::new(Recorder::new());
    let ran = run_cells_framed(&cells, 1, &recorder, None)
        .map_err(|e| e.to_string())
        .and_then(|(report, frames)| {
            run_queries(&spec.queries, &report, &frames).map(|q| (report, frames, q))
        });
    let whole_s = t0.elapsed().as_secs_f64();
    let digest = ran.and_then(|(report, frames, queries)| fleet_digest(&report, &frames, &queries));
    (Some(OpTimes { setup_s, whole_s }), digest)
}

/// Runs one untraced op of either shape.
pub fn run(kind: &OpKind) -> (Option<OpTimes>, Result<u64, String>) {
    if kind.campaign {
        fleet(kind)
    } else {
        session(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{kinds, Workload};

    #[test]
    fn every_generated_input_passes_lint_and_the_certifier() {
        for seed in 0..25 {
            for w in Workload::ALL {
                for kind in kinds(w, seed) {
                    lint_gate(&kind).unwrap_or_else(|e| panic!("{}: {e}", kind.label));
                    let verdicts = if kind.campaign {
                        let (_, cells) = parse_campaign(&kind).expect("parses");
                        verify_gate(&cells, &kind.label)
                            .unwrap_or_else(|e| panic!("{}: {e}", kind.label))
                    } else {
                        let spec = parse_scenario(&kind).expect("parses");
                        let v = mpt_lint::verify::verify_scenario(&spec, &kind.label)
                            .unwrap_or_else(|e| panic!("{}: {e}", kind.label));
                        assert_eq!(v.report.errors(), 0, "{}", kind.label);
                        vec![v.summary]
                    };
                    for v in verdicts {
                        assert_ne!(v.verdict, "MPT603", "{}", kind.label);
                    }
                }
            }
        }
    }

    #[test]
    fn step_wise_kinds_cross_their_trips() {
        for seed in 0..2 {
            for w in [Workload::PaperFixed, Workload::PhasedEvent] {
                for kind in kinds(w, seed) {
                    if !kind.label.contains("step_wise") {
                        continue;
                    }
                    let spec = parse_scenario(&kind).expect("parses");
                    let (_, analysis, _) =
                        run_scenario_framed_cached(&spec, None, None).expect("runs");
                    assert!(analysis.derived.throttle_events > 0, "{}", kind.label);
                }
            }
        }
    }

    #[test]
    fn the_digest_tells_frames_apart_bitwise() {
        let mut a = ColumnFrame::new();
        a.begin_row(0.0);
        a.set_f64("x", 0.0);
        a.end_row();
        let mut b = ColumnFrame::new();
        b.begin_row(0.0);
        b.set_f64("x", -0.0);
        b.end_row();
        let digest = |f: &ColumnFrame| {
            let mut h = Digest::new();
            h.frame(f);
            h.finish()
        };
        assert_eq!(digest(&a), digest(&a.clone()));
        assert_ne!(digest(&a), digest(&b));
    }
}
