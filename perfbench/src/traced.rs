//! The traced run: the same ops with the counting allocator on, a timer
//! and span around each call into a layer, and the program's own
//! counters and stage histograms read back after every op. Session ops
//! run through `Simulator::run_until` with a per-pass timestamp; fleet
//! ops are replayed a second time through the public building blocks.
//! Per-layer times are scored by each kind's fastest repetition, counts
//! by each kind's first traced repetition, so they repeat exactly.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mpt_core::fleet::{device_frame, replay_fleet, trip_reference_c};
use mpt_core::report::SessionAnalysis;
use mpt_core::scenario::{build_scenario_cached, EngineSpec, ScenarioSpec};
use mpt_core::GovernorStats;
use mpt_obs::Recorder;
use mpt_sim::Simulator;
use mpt_thermal::{ExactLti, FleetState, ThermalSolver, TransitionCache};
use mpt_units::{Celsius, Kelvin, Seconds};
use mpt_workloads::FleetInputs;

use crate::alloc::{self, Counts};
use crate::estimate::{best, quantile};
use crate::gen::OpKind;
use crate::ops::{self, SessionView};
use crate::spans::Tracer;

/// The simulator's pipeline stages, in tick order, as their `stage:*`
/// histograms name them.
pub const STAGES: [&str; 9] = [
    "sysfs-control",
    "demand",
    "schedule",
    "power",
    "thermal",
    "telemetry",
    "govern",
    "events",
    "analyze",
];

/// Per-pass timing of one simulator run.
#[derive(Debug, Clone, PartialEq)]
pub struct PassStats {
    pub mean_ns: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    /// Mean of the `tick` histogram: the span around all stages.
    pub tick_ns: f64,
    /// Mean per pass of each stage histogram, in [`STAGES`] order.
    pub stage_ns: Vec<f64>,
}

/// Deterministic counts of one op (taken from a kind's first traced
/// repetition).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpCounts {
    /// Simulated seconds of the single simulator run (the canonical run
    /// for fleet cells).
    pub run_sim_s: f64,
    pub passes: u64,
    pub build: Counts,
    pub run: Counts,
    pub peak_live_bytes: u64,
    pub cache_builds: u64,
    pub cache_hits: u64,
    pub freq_changes: u64,
    pub sysfs_writes: u64,
    pub spans_kept: u64,
    pub spans_dropped: u64,
    pub events_popped: u64,
    pub wakes_coalesced: u64,
    pub trip_bisection_iters: u64,
    pub governor_evals: u64,
    pub cells: u64,
    pub certified_cells: u64,
    pub device_ticks: u64,
}

/// One traced repetition's measurements.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    pub timers: BTreeMap<&'static str, f64>,
    pub pass: Option<PassStats>,
    pub counts: OpCounts,
}

/// A finished simulator run with its traced timings.
struct SimRun {
    sim: Simulator,
    governor: Option<Arc<GovernorStats>>,
    pass_ns: Vec<f64>,
    build: Counts,
    run: Counts,
}

/// `build_scenario_cached` then `run_until` over the spec's duration
/// with a timestamp per pass, inside `core.build` and `sim.run` spans.
fn sim_run(
    t: &mut Tracer,
    s: &mut Sample,
    spec: &ScenarioSpec,
    recorder: Option<Arc<Recorder>>,
    cache: Arc<TransitionCache>,
    power_trace: bool,
) -> Result<SimRun, String> {
    let before = Counts::now();
    let (built, build_s) = t.time("core.build", || {
        build_scenario_cached(spec, recorder, Some(cache))
    });
    let build = Counts::now().since(before);
    s.timers.insert("core.build", build_s);
    let (mut sim, governor) = built.map_err(|e| e.to_string())?;
    if power_trace {
        sim.enable_power_trace();
    }
    let ticks = (spec.duration_s / sim.dt().value()).ceil() as usize;
    let mut marks: Vec<Instant> = Vec::with_capacity(ticks + 2);
    let before = Counts::now();
    let (ran, run_s) = t.time("sim.run", || {
        sim.run_until(
            |_| {
                marks.push(Instant::now());
                false
            },
            Seconds::new(spec.duration_s),
        )
    });
    let run = Counts::now().since(before);
    s.timers.insert("sim.run", run_s);
    ran.map_err(|e| e.to_string())?;
    let pass_ns = marks
        .windows(2)
        .map(|w| (w[1] - w[0]).as_nanos() as f64)
        .collect();
    Ok(SimRun {
        sim,
        governor,
        pass_ns,
        build,
        run,
    })
}

/// Reads pass timing, stage histograms, engine stats and counters off a
/// finished run into the sample.
fn record_sim(s: &mut Sample, run: &SimRun, run_sim_s: f64) {
    let snap = run.sim.recorder().snapshot();
    let hist_mean = |name: &str| {
        snap.histograms
            .iter()
            .find(|h| h.name == name)
            .map_or(0.0, |h| h.mean_ns)
    };
    let n = run.pass_ns.len().max(1) as f64;
    s.pass = Some(PassStats {
        mean_ns: run.pass_ns.iter().sum::<f64>() / n,
        p50_ns: quantile(&run.pass_ns, 0.5).unwrap_or(0.0),
        p99_ns: quantile(&run.pass_ns, 0.99).unwrap_or(0.0),
        tick_ns: hist_mean("tick"),
        stage_ns: STAGES
            .iter()
            .map(|name| hist_mean(&format!("stage:{name}")))
            .collect(),
    });
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let macro_stats = run.sim.macro_stats();
    let c = &mut s.counts;
    c.run_sim_s = run_sim_s;
    c.passes = run.pass_ns.len() as u64;
    c.build = run.build;
    c.run = run.run;
    c.cache_builds = counter("mpt_solver_cache_builds_total");
    c.cache_hits = counter("mpt_solver_cache_hits_total");
    c.freq_changes = counter("mpt_governor_freq_changes_total");
    c.sysfs_writes = counter("mpt_sysfs_writes_total");
    c.spans_dropped = counter("mpt_spans_dropped_total");
    c.events_popped = macro_stats.events_popped;
    c.wakes_coalesced = macro_stats.wakes_coalesced;
    c.trip_bisection_iters = macro_stats.trip_bisection_iters;
    c.governor_evals = run.governor.as_ref().map_or(0, |g| g.evaluations());
}

/// One traced session op: lint gate, parse, build, `run_until`, then the
/// session analysis, outcome and frame copy. Returns the output digest.
fn session(t: &mut Tracer, kind: &OpKind, s: &mut Sample) -> Result<u64, String> {
    t.next_op();
    t.enter("op");
    let baseline = alloc::reset_peak();
    let body = (|| -> Result<_, String> {
        let (gate, gate_s) = t.time("lint.gate", || ops::lint_gate(kind));
        s.timers.insert("lint.gate", gate_s);
        gate?;
        let (spec, _) = t.time("parse", || ops::parse_scenario(kind));
        let spec = spec?;
        let run = sim_run(t, s, &spec, None, Arc::new(TransitionCache::new()), false)?;
        let (out, report_s) = t.time("core.report", || {
            let analysis = SessionAnalysis::from_sim(&run.sim);
            let migrations = run.governor.as_ref().map_or(0, |g| g.migrations());
            let view = SessionView::of_sim(&spec, &run.sim, migrations);
            let frame = run.sim.telemetry().frame().clone();
            (view, analysis, frame)
        });
        s.timers.insert("core.report", report_s);
        Ok((run, out, spec.duration_s))
    })();
    let whole_s = t.exit();
    s.timers.insert("op", whole_s);
    let (run, (view, analysis, frame), duration) = body?;
    s.counts.peak_live_bytes = alloc::peak_above(baseline);
    record_sim(s, &run, duration);
    s.counts.spans_kept = run.sim.recorder().spans().len() as u64;
    ops::session_digest(&view, &analysis, &frame)
}

/// One traced fleet op: lint gate, parse and expand, the MPT6xx
/// pre-gate, `run_cells_framed` and the embedded queries; then every
/// cell again through the public building blocks — canonical run with
/// trace capture, device parameters, `replay_fleet`, `device_frame` —
/// failing the op if the device frames differ, and the bare
/// `step_batch` kernel over the same inputs.
fn fleet(t: &mut Tracer, kind: &OpKind, s: &mut Sample) -> Result<u64, String> {
    t.next_op();
    t.enter("op");
    let baseline = alloc::reset_peak();
    let body = (|| -> Result<_, String> {
        let (gate, gate_s) = t.time("lint.gate", || ops::lint_gate(kind));
        s.timers.insert("lint.gate", gate_s);
        gate?;
        let (parsed, _) = t.time("parse", || ops::parse_campaign(kind));
        let (spec, cells) = parsed?;
        let (verdicts, verify_s) = t.time("lint.verify", || ops::verify_gate(&cells, &kind.label));
        s.timers.insert("lint.verify", verify_s);
        let verdicts = verdicts?;
        s.counts.cells = verdicts.len() as u64;
        s.counts.certified_cells = verdicts.iter().filter(|v| v.verdict == "MPT601").count() as u64;
        let recorder = Arc::new(Recorder::new());
        let (ran, cell_s) = t.time("core.cell", || {
            mpt_core::campaign::run_cells_framed(&cells, 1, &recorder, None)
        });
        s.timers.insert("core.cell", cell_s);
        let (report, frames) = ran.map_err(|e| e.to_string())?;
        let (queries, query_s) = t.time("daq.query", || {
            ops::run_queries(&spec.queries, &report, &frames)
        });
        s.timers.insert("daq.query", query_s);
        Ok((cells, report, frames, queries?))
    })();
    let whole_s = t.exit();
    s.timers.insert("op", whole_s);
    let (cells, report, frames, queries) = body?;
    s.counts.peak_live_bytes = alloc::peak_above(baseline);
    let digest = ops::fleet_digest(&report, &frames, &queries)?;

    t.enter("check");
    let checked = (|| -> Result<(), String> {
        for (cell, produced) in cells.iter().zip(&frames.fleet_cells) {
            let fleet = cell
                .fleet
                .as_ref()
                .ok_or_else(|| "fleet cell without a fleet".to_owned())?;
            let mut canonical = cell.scenario.clone();
            canonical.engine = EngineSpec::Fixed;
            let cache = Arc::new(TransitionCache::new());
            let recorder = Arc::new(Recorder::new());
            t.enter("core.canonical");
            let ran = sim_run(
                t,
                s,
                &canonical,
                Some(Arc::clone(&recorder)),
                Arc::clone(&cache),
                true,
            )
            .and_then(|mut run| {
                let trace = run.sim.take_power_trace();
                trace
                    .map(|trace| (run, trace))
                    .ok_or_else(|| "no power trace captured".to_owned())
            });
            s.timers.insert("core.canonical", t.exit());
            let (run, trace) = ran?;
            record_sim(s, &run, canonical.duration_s);
            s.counts.spans_kept = recorder.spans().len() as u64;
            drop(run);

            let lti = cell
                .scenario
                .platform
                .build()
                .thermal_spec()
                .lti()
                .map_err(|e| e.to_string())?;
            let trip_c = trip_reference_c(fleet, &cell.scenario.thermal);
            let (params, params_s) = t.time("soc.params", || {
                (0..fleet.devices)
                    .map(|d| fleet.device_params(cell.seed, d))
                    .collect::<Vec<_>>()
            });
            s.timers.insert("soc.params", params_s);
            let (devices, replay_s) = t.time("core.replay", || {
                replay_fleet(
                    &lti,
                    trace.clone(),
                    &params,
                    cell.scenario.initial_temperature_c,
                    trip_c,
                    &recorder,
                    Some(Arc::clone(&cache)),
                )
            });
            s.timers.insert("core.replay", replay_s);
            let devices = devices.map_err(|e| e.to_string())?;
            let (frame, frame_s) = t.time("core.device_frame", || device_frame(&devices));
            s.timers.insert("core.device_frame", frame_s);
            if frame != produced.frame {
                return Err(format!(
                    "{}: building-block replay disagrees with run_cells_framed",
                    kind.label
                ));
            }
            s.counts.device_ticks = (params.len() * trace.ticks()) as u64;

            // The bare batched kernel over the same inputs and initial
            // state, without the per-device observation.
            let mut state = FleetState::new(lti.len(), params.len(), lti.ambient, lti.ambient);
            for (d, p) in params.iter().enumerate() {
                let ambient = Kelvin::new(lti.ambient.value() + p.ambient_offset_c);
                state.set_ambient(d, ambient);
                let initial = cell
                    .scenario
                    .initial_temperature_c
                    .map_or(ambient, |c| Celsius::new(c).to_kelvin());
                for node in 0..lti.len() {
                    state.set_temp(node, d, initial);
                }
            }
            let mut solver = ExactLti::with_cache(cache);
            let ticks = trace.ticks();
            let dt = Seconds::new(trace.dt_s());
            let inputs = FleetInputs::new(trace, &params);
            let (stepped, batch_s) = t.time("thermal.step_batch", || {
                for tick in 0..ticks {
                    inputs.fill_tick(tick, state.power_raw_mut());
                    solver.step_batch(&lti, &mut state, dt)?;
                }
                Ok::<(), mpt_thermal::ThermalError>(())
            });
            s.timers.insert("thermal.step_batch", batch_s);
            stepped.map_err(|e| e.to_string())?;
            std::hint::black_box(state.temps_raw());
        }
        Ok(())
    })();
    t.exit();
    checked.map(|()| digest)
}

/// Runs one traced op of either shape.
pub fn run_op(t: &mut Tracer, kind: &OpKind) -> (Sample, Result<u64, String>) {
    let mut s = Sample::default();
    let digest = if kind.campaign {
        fleet(t, kind, &mut s)
    } else {
        session(t, kind, &mut s)
    };
    (s, digest)
}

/// One kind's traced repetitions.
#[derive(Debug, Clone, Default)]
pub struct KindTrace {
    pub sim_s: f64,
    pub timers: BTreeMap<&'static str, Vec<f64>>,
    /// Pass timing of the repetition with the fastest mean pass.
    pub pass: Option<PassStats>,
    /// Counts of the first successful repetition.
    pub counts: Option<OpCounts>,
}

impl KindTrace {
    pub fn add(&mut self, s: Sample) {
        for (name, v) in s.timers {
            self.timers.entry(name).or_default().push(v);
        }
        if let Some(p) = s.pass {
            if self.pass.as_ref().is_none_or(|b| p.mean_ns < b.mean_ns) {
                self.pass = Some(p);
            }
        }
        if self.counts.is_none() {
            self.counts = Some(s.counts);
        }
    }

    pub fn best(&self, timer: &str) -> Option<f64> {
        self.timers.get(timer).and_then(|v| best(v))
    }
}

/// Per-layer metrics of a workload from its kinds' traces, as
/// `(name, value, unit)` in `BENCHMARK.json` order. Layers a workload
/// does not exercise read 0.
pub fn per_layer(kinds: &[KindTrace]) -> Vec<(String, f64, &'static str)> {
    let mean_best = |timer: &str, scale: f64| {
        let v: Vec<f64> = kinds.iter().filter_map(|k| k.best(timer)).collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64 * scale
        }
    };
    let counts: Vec<&OpCounts> = kinds.iter().filter_map(|k| k.counts.as_ref()).collect();
    let sum = |f: &dyn Fn(&OpCounts) -> f64| counts.iter().map(|c| f(c)).sum::<f64>();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let passes = sum(&|c| c.passes as f64);
    let run_sim_s = sum(&|c| c.run_sim_s);
    let ops = counts.len().max(1) as f64;
    let passes_of: Vec<&PassStats> = kinds.iter().filter_map(|k| k.pass.as_ref()).collect();
    let pass_mean = |f: &dyn Fn(&PassStats) -> f64| {
        if passes_of.is_empty() {
            0.0
        } else {
            passes_of.iter().map(|p| f(p)).sum::<f64>() / passes_of.len() as f64
        }
    };
    let rate = |timer: &str| {
        let (mut work, mut time) = (0.0, 0.0);
        for k in kinds {
            if let (Some(c), Some(t)) = (&k.counts, k.best(timer)) {
                work += c.device_ticks as f64;
                time += t;
            }
        }
        ratio(work, time) / 1e6
    };
    let parts = [
        "core.canonical",
        "soc.params",
        "core.replay",
        "core.device_frame",
    ];
    let (mut cell_sum, mut parts_sum) = (0.0, 0.0);
    for k in kinds {
        if let Some(cell) = k.best("core.cell") {
            cell_sum += cell;
            parts_sum += parts.iter().filter_map(|p| k.best(p)).sum::<f64>();
        }
    }
    let rollup_ms = if kinds.iter().any(|k| k.best("core.cell").is_some()) {
        (cell_sum - parts_sum) / kinds.len() as f64 * 1e3
    } else {
        0.0
    };
    let stage_total = pass_mean(&|p| p.stage_ns.iter().sum());

    let mut m: Vec<(String, f64, &'static str)> = vec![
        ("lint.gate_us".into(), mean_best("lint.gate", 1e6), "us"),
        ("lint.verify_ms".into(), mean_best("lint.verify", 1e3), "ms"),
        (
            "lint.certified_ratio".into(),
            ratio(sum(&|c| c.certified_cells as f64), sum(&|c| c.cells as f64)),
            "ratio",
        ),
        ("core.build_us".into(), mean_best("core.build", 1e6), "us"),
        (
            "alloc.per_build".into(),
            sum(&|c| c.build.allocs as f64) / ops,
            "count",
        ),
        (
            "sim.passes_per_sim_s".into(),
            ratio(passes, run_sim_s),
            "1/s",
        ),
        (
            "sim.pass_us_p50".into(),
            pass_mean(&|p| p.p50_ns) / 1e3,
            "us",
        ),
        (
            "sim.pass_us_p99".into(),
            pass_mean(&|p| p.p99_ns) / 1e3,
            "us",
        ),
    ];
    for (i, stage) in STAGES.iter().enumerate() {
        m.push((
            format!("sim.stage.{stage}_ns"),
            pass_mean(&|p| p.stage_ns[i]),
            "ns",
        ));
    }
    m.extend([
        ("sim.tick_us".into(), pass_mean(&|p| p.tick_ns) / 1e3, "us"),
        (
            "sim.pass_self_us".into(),
            (pass_mean(&|p| p.mean_ns) - stage_total) / 1e3,
            "us",
        ),
        (
            "sim.stage_coverage".into(),
            ratio(stage_total, pass_mean(&|p| p.mean_ns)),
            "ratio",
        ),
        (
            "sim.events_popped_per_pass".into(),
            ratio(sum(&|c| c.events_popped as f64), passes),
            "count",
        ),
        (
            "sim.wakes_coalesced_per_pass".into(),
            ratio(sum(&|c| c.wakes_coalesced as f64), passes),
            "count",
        ),
        (
            "sim.trip_bisection_iters".into(),
            sum(&|c| c.trip_bisection_iters as f64) / ops,
            "count",
        ),
        (
            "thermal.cache_builds".into(),
            sum(&|c| c.cache_builds as f64) / ops,
            "count",
        ),
        (
            "thermal.cache_hit_ratio".into(),
            ratio(
                sum(&|c| c.cache_hits as f64),
                sum(&|c| (c.cache_hits + c.cache_builds) as f64),
            ),
            "ratio",
        ),
        (
            "kernel.freq_changes_per_sim_s".into(),
            ratio(sum(&|c| c.freq_changes as f64), run_sim_s),
            "1/s",
        ),
        (
            "core.governor_evals_per_sim_s".into(),
            ratio(sum(&|c| c.governor_evals as f64), run_sim_s),
            "1/s",
        ),
        (
            "sysfs.writes_per_pass".into(),
            ratio(sum(&|c| c.sysfs_writes as f64), passes),
            "count",
        ),
        (
            "obs.span_drop_ratio".into(),
            ratio(
                sum(&|c| c.spans_dropped as f64),
                sum(&|c| (c.spans_dropped + c.spans_kept) as f64),
            ),
            "ratio",
        ),
        (
            "alloc.per_pass".into(),
            ratio(sum(&|c| c.run.allocs as f64), passes),
            "count",
        ),
        (
            "alloc.bytes_per_pass".into(),
            ratio(sum(&|c| c.run.bytes as f64), passes),
            "B",
        ),
        ("core.report_us".into(), mean_best("core.report", 1e6), "us"),
        ("core.cell_ms".into(), mean_best("core.cell", 1e3), "ms"),
        (
            "core.canonical_ms".into(),
            mean_best("core.canonical", 1e3),
            "ms",
        ),
        ("soc.params_ms".into(), mean_best("soc.params", 1e3), "ms"),
        ("core.replay_ms".into(), mean_best("core.replay", 1e3), "ms"),
        ("core.replay_mdt_per_s".into(), rate("core.replay"), "M/s"),
        (
            "thermal.step_batch_mdt_per_s".into(),
            rate("thermal.step_batch"),
            "M/s",
        ),
        (
            "core.device_frame_ms".into(),
            mean_best("core.device_frame", 1e3),
            "ms",
        ),
        ("core.rollup_ms".into(), rollup_ms, "ms"),
        (
            "core.cell_coverage".into(),
            ratio(parts_sum, cell_sum),
            "ratio",
        ),
        ("daq.query_us".into(), mean_best("daq.query", 1e6), "us"),
        (
            "alloc.peak_live_mb".into(),
            counts.iter().map(|c| c.peak_live_bytes).max().unwrap_or(0) as f64 / 1e6,
            "MB",
        ),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(op: f64, pass_mean: f64, passes: u64) -> Sample {
        let mut s = Sample::default();
        s.timers.insert("op", op);
        s.timers.insert("lint.gate", op / 100.0);
        s.pass = Some(PassStats {
            mean_ns: pass_mean,
            p50_ns: pass_mean,
            p99_ns: 2.0 * pass_mean,
            tick_ns: pass_mean,
            stage_ns: vec![pass_mean / 10.0; STAGES.len()],
        });
        s.counts.passes = passes;
        s.counts.run_sim_s = passes as f64 / 100.0;
        s
    }

    #[test]
    fn per_layer_times_use_the_fastest_repetition_and_counts_the_first() {
        let mut k = KindTrace::default();
        k.add(sample(0.050, 20_000.0, 2000));
        k.add(sample(0.030, 15_000.0, 9999));
        k.add(sample(0.040, 18_000.0, 1));
        assert_eq!(k.best("op"), Some(0.030));
        assert_eq!(k.pass.as_ref().map(|p| p.mean_ns), Some(15_000.0));
        assert_eq!(k.counts.as_ref().map(|c| c.passes), Some(2000));
        let m = per_layer(&[k]);
        let get = |name: &str| m.iter().find(|(n, ..)| n == name).map(|x| x.1);
        assert_eq!(get("lint.gate_us"), Some(300.0));
        assert_eq!(get("sim.passes_per_sim_s"), Some(100.0));
        assert_eq!(get("sim.pass_us_p99"), Some(30.0));
        assert!((get("sim.stage_coverage").unwrap() - 0.9).abs() < 1e-12);
        assert!((get("sim.pass_self_us").unwrap() - 1.5).abs() < 1e-12);
        assert_eq!(get("core.cell_ms"), Some(0.0));
        assert_eq!(m.len(), 43);
    }
}
