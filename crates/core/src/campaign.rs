//! Parallel scenario-campaign execution.
//!
//! A [`CampaignSpec`] expands into a grid of scenarios (cells); this
//! module runs the cells on a scoped thread pool and aggregates their
//! outcomes into a [`CampaignReport`]. Simulators are built *inside* the
//! worker threads (a [`Simulator`](mpt_sim::Simulator) is not `Send`),
//! and every cell's seed is fixed at expansion time, so the report is
//! bit-identical whatever the worker count:
//!
//! ```
//! use mpt_core::campaign::run_campaign;
//! use mpt_core::scenario::{
//!     CampaignSpec, ClusterSpec, EngineSpec, PlatformSpec, ScenarioSpec, SweepAxes,
//!     ThermalPolicySpec, WorkloadKind, WorkloadSpec,
//! };
//!
//! let spec = CampaignSpec {
//!     base: ScenarioSpec {
//!         platform: PlatformSpec::Exynos5422,
//!         duration_s: 1.0,
//!         initial_temperature_c: Some(50.0),
//!         thermal: ThermalPolicySpec::Disabled,
//!         app_aware: None,
//!         alerts: Vec::new(),
//!         engine: EngineSpec::default(),
//!         control_sensor: None,
//!         workloads: vec![WorkloadSpec {
//!             kind: WorkloadKind::BasicMath,
//!             cluster: ClusterSpec::Big,
//!             foreground: false,
//!             realtime: false,
//!             seed: 0,
//!         }],
//!         queries: Vec::new(),
//!     },
//!     sweep: SweepAxes {
//!         initial_temperatures_c: vec![35.0, 50.0],
//!         ..SweepAxes::default()
//!     },
//!     seed: 0,
//!     queries: Vec::new(),
//!     fleet: None,
//! };
//! let report = run_campaign(&spec, 2)?;
//! assert_eq!(report.cells.len(), 2);
//! # Ok::<(), mpt_sim::SimError>(())
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use mpt_daq::stats;
use mpt_obs::journal::JournalKind;
use mpt_obs::{Counter, Recorder};
use mpt_sim::Result;

use crate::report::SessionAnalysis;
use crate::scenario::{self, CampaignCell, CampaignSpec, ScenarioOutcome};

/// Runs `count` independent jobs on up to `jobs` scoped worker threads
/// and returns their results in index order.
///
/// `jobs == 0` means one worker per available CPU. Work is handed out
/// through a shared counter, so threads never contend for more than an
/// index increment; results land in their own slots, so the output order
/// (and therefore any downstream aggregation) is independent of thread
/// scheduling.
///
/// This is the escape hatch the experiment drivers use for grids that
/// need richer products than [`ScenarioOutcome`] (time series,
/// residencies, downcast benchmark scores).
pub fn run_parallel<T, F>(count: usize, jobs: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_parallel_workers(count, jobs, |i, _worker| run(i))
}

/// [`run_parallel`] with the executing worker's index (0-based, dense)
/// passed alongside each job index — the campaign runner uses it to
/// attribute per-cell wall time to workers for the occupancy report.
pub fn run_parallel_workers<T, F>(count: usize, jobs: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let workers = effective_jobs(jobs).min(count.max(1));
    let mut slots: Vec<Option<T>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);
    let slots = Mutex::new(slots);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let slots = &slots;
            let next = &next;
            let run = &run;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let result = run(i, worker);
                slots.lock().expect("result mutex is never poisoned")[i] = Some(result);
            });
        }
    });
    slots
        .into_inner()
        .expect("result mutex is never poisoned")
        .into_iter()
        .map(|slot| slot.expect("every index was executed"))
        .collect()
}

fn effective_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

/// Five-number summary (plus mean/standard deviation) of one metric
/// across a campaign's cells, computed with [`mpt_daq::stats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryStats {
    /// Smallest cell value.
    pub min: f64,
    /// Median across cells.
    pub median: f64,
    /// Mean across cells.
    pub mean: f64,
    /// 95th percentile across cells.
    pub p95: f64,
    /// Largest cell value.
    pub max: f64,
    /// Population standard deviation across cells.
    pub std_dev: f64,
}

impl SummaryStats {
    fn of(values: &[f64]) -> Self {
        Self {
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            median: stats::median(values).unwrap_or(f64::NAN),
            mean: stats::mean(values).unwrap_or(f64::NAN),
            p95: stats::percentile(values, 95.0).unwrap_or(f64::NAN),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            std_dev: stats::std_dev(values).unwrap_or(f64::NAN),
        }
    }
}

/// Wall-clock timing of one executed cell: which worker ran it and for
/// how long. Lives in [`CampaignReport::timings`], *not* in
/// [`CellOutcome`], so the deterministic part of the report stays
/// bit-identical across worker counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellTiming {
    /// Position in the expansion order.
    pub index: usize,
    /// Worker thread (0-based, dense) that executed the cell.
    pub worker: usize,
    /// Wall-clock seconds the cell took, including simulator build.
    pub wall_clock_s: f64,
}

/// Alert firings of one campaign cell, keyed for the campaign-level
/// rollup. Lives next to — not inside — [`CellOutcome`], so the classic
/// outcome surface is unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellAlerts {
    /// Position in the expansion order.
    pub index: usize,
    /// The cell's axis-value label.
    pub label: String,
    /// Total alerts fired in this cell.
    pub total: u64,
    /// Firings per rule key.
    pub by_rule: BTreeMap<String, u64>,
}

/// Campaign-level rollup of the online analysis: alert totals and
/// summary statistics of the derived observables across cells. Every
/// field is driven only by simulated time, so the rollup is
/// bit-identical across worker counts (the determinism tests compare
/// it alongside [`CampaignReport::cells`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignAnalysis {
    /// Total alerts fired across all cells.
    pub alerts_total: u64,
    /// Campaign-wide firings per rule key.
    pub alerts_by_rule: BTreeMap<String, u64>,
    /// Per-cell alert counts, in expansion order.
    pub cell_alerts: Vec<CellAlerts>,
    /// Time-above-trip summary over the cells that had a trip reference
    /// (`None` when no cell configured throttling).
    pub time_above_trip_s: Option<SummaryStats>,
    /// Time-throttled summary across all cells.
    pub time_throttled_s: SummaryStats,
    /// Throttle-attributed FPS loss (percent) over the cells where it
    /// was defined.
    pub throttle_fps_loss_pct: Option<SummaryStats>,
    /// Temperature-trend summary across all cells, Celsius per second.
    pub temp_trend_c_per_s: SummaryStats,
}

impl CampaignAnalysis {
    fn of(cells: &[CellOutcome], analyses: &[SessionAnalysis]) -> Self {
        let mut alerts_by_rule = BTreeMap::new();
        let mut cell_alerts = Vec::with_capacity(analyses.len());
        for (cell, analysis) in cells.iter().zip(analyses) {
            let by_rule = analysis.alert_counts();
            for (rule, n) in &by_rule {
                *alerts_by_rule.entry(rule.clone()).or_insert(0) += n;
            }
            cell_alerts.push(CellAlerts {
                index: cell.index,
                label: cell.label.clone(),
                total: analysis.alerts.len() as u64,
                by_rule,
            });
        }
        let over_some = |f: fn(&SessionAnalysis) -> Option<f64>| {
            let values: Vec<f64> = analyses.iter().filter_map(f).collect();
            if values.is_empty() {
                None
            } else {
                Some(SummaryStats::of(&values))
            }
        };
        Self {
            alerts_total: alerts_by_rule.values().sum(),
            alerts_by_rule,
            cell_alerts,
            time_above_trip_s: over_some(|a| a.derived.trip_c.map(|_| a.derived.time_above_trip_s)),
            time_throttled_s: SummaryStats::of(
                &analyses
                    .iter()
                    .map(|a| a.derived.time_throttled_s)
                    .collect::<Vec<_>>(),
            ),
            throttle_fps_loss_pct: over_some(|a| a.derived.throttle_fps_loss_pct),
            temp_trend_c_per_s: SummaryStats::of(
                &analyses
                    .iter()
                    .map(|a| a.derived.temp_trend_c_per_s)
                    .collect::<Vec<_>>(),
            ),
        }
    }
}

/// One executed campaign cell: the expansion metadata plus the scenario
/// outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellOutcome {
    /// Position in the expansion order.
    pub index: usize,
    /// The cell's axis-value label.
    pub label: String,
    /// The seed mixed into the cell's workloads.
    pub seed: u64,
    /// The scenario outcome.
    pub outcome: ScenarioOutcome,
}

/// One cell's columnar telemetry: the expansion metadata plus the
/// session [`ColumnFrame`](mpt_daq::ColumnFrame) its simulator recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFrame {
    /// Position in the expansion order.
    pub index: usize,
    /// The cell's axis-value label.
    pub label: String,
    /// Sweep-axis pairs parsed from the label (see
    /// [`CampaignCell::axes`]).
    pub axes: Vec<(String, String)>,
    /// The cell's decimated telemetry frame.
    pub frame: mpt_daq::ColumnFrame,
}

/// Owned per-cell telemetry frames of one campaign run, in expansion
/// order. Produced by [`run_cells_framed`]; lives *outside*
/// [`CampaignReport`] so the serialized report surface is unchanged.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignFrames {
    /// Every cell's frame, in expansion order.
    pub cells: Vec<CellFrame>,
    /// Per-device fleet frames (one row per device, keyed by the
    /// `device` dictionary column), in expansion order. Empty for
    /// campaigns without a fleet.
    pub fleet_cells: Vec<CellFrame>,
}

impl CampaignFrames {
    /// Borrows the cells as a zero-copy
    /// [`CampaignFrame`](mpt_daq::CampaignFrame) query target.
    #[must_use]
    pub fn campaign_frame(&self) -> mpt_daq::CampaignFrame<'_> {
        let mut cf = mpt_daq::CampaignFrame::new();
        for cell in &self.cells {
            cf.push_cell(&cell.axes, &cell.frame);
        }
        cf
    }

    /// Borrows the per-device fleet frames as a campaign query target:
    /// `p99(peak_temp_c) by ambient` aggregates device rows across every
    /// cell sharing an axis value. Empty outside fleet campaigns.
    #[must_use]
    pub fn fleet_campaign_frame(&self) -> mpt_daq::CampaignFrame<'_> {
        let mut cf = mpt_daq::CampaignFrame::new();
        for cell in &self.fleet_cells {
            cf.push_cell(&cell.axes, &cell.frame);
        }
        cf
    }
}

/// The results of a campaign: per-cell outcomes (in expansion order,
/// independent of worker count) and aggregate statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Every cell, in expansion order.
    pub cells: Vec<CellOutcome>,
    /// Peak-temperature summary across cells.
    pub peak_temperature_c: SummaryStats,
    /// Average-power summary across cells.
    pub average_power_w: SummaryStats,
    /// Energy summary across cells.
    pub energy_j: SummaryStats,
    /// Wall-clock execution time in seconds. Excluded from nothing but
    /// comparisons: compare [`cells`](Self::cells) when checking
    /// determinism across worker counts.
    pub wall_clock_s: f64,
    /// Number of worker threads the campaign actually used.
    pub workers: usize,
    /// Per-cell wall time and worker attribution, in expansion order.
    /// Timing-dependent: compare [`cells`](Self::cells), not this, when
    /// checking determinism.
    pub timings: Vec<CellTiming>,
    /// Busy seconds per worker (sum of its cells' wall times) — the
    /// occupancy picture of the pool.
    pub worker_busy_s: Vec<f64>,
    /// Alert totals and derived-observable summaries across cells.
    pub analysis: CampaignAnalysis,
    /// Per-cell fleet population rollups, in expansion order (empty for
    /// campaigns without a fleet). Deterministic across worker counts,
    /// like [`cells`](Self::cells).
    #[serde(default)]
    pub fleet: Vec<crate::fleet::FleetCellOutcome>,
    /// Per-cell static-certifier verdicts, in expansion order, when the
    /// campaign was run with `--verify` (empty otherwise). Computed
    /// before any cell simulates, so it is worker-count independent.
    #[serde(default)]
    pub verification: Vec<crate::report::CellVerification>,
}

impl CampaignReport {
    /// The per-cell metric channels of [`cells_frame`](Self::cells_frame),
    /// in column order — the static schema campaign queries (and the
    /// MPT401 lint) validate against.
    pub const METRIC_CHANNELS: [&'static str; 7] = [
        "cell",
        "peak_temperature_c",
        "average_power_w",
        "energy_j",
        "migrations",
        "median_fps",
        "alerts",
    ];

    /// Builds a one-row-per-cell metrics frame: the cell index, the
    /// sweep-axis values as dictionary-encoded string columns, and the
    /// headline outcome metrics. Rebuilt purely from the report, so a
    /// deserialized report yields the identical frame — this is the
    /// default target for campaign `--query` expressions (axis columns
    /// make `by platform`-style group-bys work).
    #[must_use]
    pub fn cells_frame(&self) -> mpt_daq::ColumnFrame {
        let mut frame = mpt_daq::ColumnFrame::new();
        for (cell, alerts) in self.cells.iter().zip(&self.analysis.cell_alerts) {
            frame.begin_row(cell.index as f64);
            frame.set_u32("cell", u32::try_from(cell.index).unwrap_or(u32::MAX));
            for (key, value) in scenario::label_axes(&cell.label) {
                frame.set_str(&key, &value);
            }
            frame.set_f64("peak_temperature_c", cell.outcome.peak_temperature_c);
            frame.set_f64("average_power_w", cell.outcome.average_power_w);
            frame.set_f64("energy_j", cell.outcome.energy_j);
            frame.set_u32(
                "migrations",
                u32::try_from(cell.outcome.migrations).unwrap_or(u32::MAX),
            );
            if let Some(fps) = cell.outcome.workloads.iter().find_map(|w| w.median_fps) {
                frame.set_f64("median_fps", fps);
            }
            frame.set_u32("alerts", u32::try_from(alerts.total).unwrap_or(u32::MAX));
            frame.end_row();
        }
        frame
    }
}

/// Runs every expanded cell of a campaign on up to `jobs` worker threads
/// (`0` = one per CPU).
///
/// # Errors
///
/// [`SimError::InvalidConfig`](mpt_sim::SimError::InvalidConfig) for a
/// malformed campaign or cell; the first failing cell's error otherwise.
pub fn run_campaign(spec: &CampaignSpec, jobs: usize) -> Result<CampaignReport> {
    run_cells_framed(&spec.expand()?, jobs, &Arc::new(Recorder::new()), None)
        .map(|(report, _frames)| report)
}

/// Runs pre-expanded campaign cells against a caller-supplied recorder
/// and returns the per-cell telemetry frames alongside the report — the
/// primary runner, behind [`run_campaign`] and `run_scenario`'s campaign
/// mode, for callers that build or filter the grid themselves.
///
/// Every simulator in the campaign shares the recorder (histogram
/// registration is idempotent, counter adds commute, and each worker's
/// spans land on its own lane), each cell gets a `cell` span plus `cell`
/// latency histogram sample, and `progress(done, total)` fires after
/// every completed cell. Counter totals on the recorder depend only on
/// the simulated events, so they are bit-identical whatever `jobs` is;
/// spans and histograms carry the actual wall-clock timing.
///
/// Frames land in expansion order, so columnar campaign queries are
/// bit-identical whatever the worker count. They are decimated, so a
/// caller that only wants the report holds kilobytes per cell
/// transiently.
///
/// # Errors
///
/// The first failing cell's error, by expansion order.
pub fn run_cells_framed(
    cells: &[CampaignCell],
    jobs: usize,
    recorder: &Arc<Recorder>,
    progress: Option<&(dyn Fn(usize, usize) + Sync)>,
) -> Result<(CampaignReport, CampaignFrames)> {
    let start = mpt_obs::clock::now();
    let cell_hist = recorder.register_histogram("cell");
    let done = AtomicUsize::new(0);
    let journal = recorder.journal();
    journal.emit(
        None,
        JournalKind::CampaignStarted {
            cells: cells.len() as u64,
        },
    );
    // One immutable transition-matrix cache for the whole campaign:
    // cells sweeping the same platform at the same tick reuse one
    // discretization instead of re-factoring it per cell. Builds happen
    // atomically inside the cache, so the hit/build counter totals are
    // independent of the worker count.
    let solver_cache = Arc::new(mpt_thermal::TransitionCache::new());
    let results = run_parallel_workers(cells.len(), jobs, |i, worker| {
        let cell_start = mpt_obs::clock::now();
        let result = {
            // Every journal event the cell emits (alerts, rollups, queue
            // stats) is stamped with its expansion index, which is what
            // lets the deterministic replay regroup events per cell
            // whatever the worker interleaving.
            let _cell_scope =
                mpt_obs::journal::cell_scope(u32::try_from(cells[i].index).unwrap_or(u32::MAX));
            journal.emit(
                None,
                JournalKind::CellStarted {
                    label: cells[i].label.clone(),
                },
            );
            let result = {
                let _span = recorder.span_with_hist("cell", cells[i].label.clone(), cell_hist);
                match &cells[i].fleet {
                    Some(fleet) => {
                        crate::fleet::run_cell_fleet(&cells[i], fleet, recorder, &solver_cache).map(
                            |run| {
                                (
                                    run.outcome,
                                    run.analysis,
                                    run.frame,
                                    Some((run.fleet, run.device_frame)),
                                )
                            },
                        )
                    }
                    None => scenario::run_scenario_framed_cached(
                        &cells[i].scenario,
                        Some(Arc::clone(recorder)),
                        Some(Arc::clone(&solver_cache)),
                    )
                    .map(|(outcome, analysis, frame)| (outcome, analysis, frame, None)),
                }
            };
            if let Ok((outcome, ..)) = &result {
                journal.emit(
                    None,
                    JournalKind::CellFinished {
                        label: cells[i].label.clone(),
                        peak_temp_c: outcome.peak_temperature_c,
                    },
                );
            }
            result
        };
        recorder.incr(Counter::CellsCompleted);
        journal.sample_counters(recorder);
        if let Some(cb) = progress {
            cb(done.fetch_add(1, Ordering::Relaxed) + 1, cells.len());
        }
        (
            result,
            mpt_obs::clock::elapsed(cell_start).as_secs_f64(),
            worker,
        )
    });
    journal.emit(
        None,
        JournalKind::SolverCacheSummary {
            hits: recorder.counter(Counter::SolverCacheHits),
            builds: recorder.counter(Counter::SolverCacheBuilds),
        },
    );
    journal.sample_counters(recorder);
    let workers = effective_jobs(jobs).min(cells.len().max(1));
    let mut worker_busy_s = vec![0.0; workers];
    let mut timings = Vec::with_capacity(cells.len());
    let mut outcomes = Vec::with_capacity(cells.len());
    let mut analyses = Vec::with_capacity(cells.len());
    let mut frames = Vec::with_capacity(cells.len());
    let mut fleet_rollups = Vec::new();
    let mut fleet_frames = Vec::new();
    for (cell, (result, wall_clock_s, worker)) in cells.iter().zip(results) {
        worker_busy_s[worker] += wall_clock_s;
        timings.push(CellTiming {
            index: cell.index,
            worker,
            wall_clock_s,
        });
        let (outcome, analysis, frame, fleet) = result?;
        outcomes.push(CellOutcome {
            index: cell.index,
            label: cell.label.clone(),
            seed: cell.seed,
            outcome,
        });
        analyses.push(analysis);
        frames.push(CellFrame {
            index: cell.index,
            label: cell.label.clone(),
            axes: cell.axes(),
            frame,
        });
        if let Some((rollup, device_frame)) = fleet {
            fleet_rollups.push(rollup);
            fleet_frames.push(CellFrame {
                index: cell.index,
                label: cell.label.clone(),
                axes: cell.axes(),
                frame: device_frame,
            });
        }
    }
    let metric = |f: fn(&ScenarioOutcome) -> f64| {
        SummaryStats::of(&outcomes.iter().map(|c| f(&c.outcome)).collect::<Vec<_>>())
    };
    Ok((
        CampaignReport {
            peak_temperature_c: metric(|o| o.peak_temperature_c),
            average_power_w: metric(|o| o.average_power_w),
            energy_j: metric(|o| o.energy_j),
            wall_clock_s: mpt_obs::clock::elapsed(start).as_secs_f64(),
            workers,
            timings,
            worker_busy_s,
            analysis: CampaignAnalysis::of(&outcomes, &analyses),
            fleet: fleet_rollups,
            verification: Vec::new(),
            cells: outcomes,
        },
        CampaignFrames {
            cells: frames,
            fleet_cells: fleet_frames,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        ClusterSpec, EngineSpec, PlatformSpec, ScenarioSpec, SweepAxes, ThermalPolicySpec,
        WorkloadKind, WorkloadSpec,
    };

    fn small_campaign() -> CampaignSpec {
        CampaignSpec {
            base: ScenarioSpec {
                platform: PlatformSpec::Exynos5422,
                duration_s: 2.0,
                initial_temperature_c: Some(50.0),
                thermal: ThermalPolicySpec::Disabled,
                app_aware: None,
                alerts: Vec::new(),
                engine: EngineSpec::default(),
                control_sensor: None,
                workloads: vec![WorkloadSpec {
                    kind: WorkloadKind::BasicMath,
                    cluster: ClusterSpec::Big,
                    foreground: false,
                    realtime: false,
                    seed: 0,
                }],
                queries: Vec::new(),
            },
            sweep: SweepAxes {
                platforms: vec![PlatformSpec::Exynos5422, PlatformSpec::Snapdragon810],
                initial_temperatures_c: vec![35.0, 50.0],
                ..SweepAxes::default()
            },
            seed: 7,
            queries: Vec::new(),
            fleet: None,
        }
    }

    #[test]
    fn run_parallel_preserves_index_order() {
        let out = run_parallel(100, 8, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_parallel_zero_jobs_uses_available_cpus() {
        let out = run_parallel(3, 0, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn expansion_is_the_cartesian_product() {
        let spec = small_campaign();
        let cells = spec.expand().unwrap();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells.len(), spec.sweep.cell_count());
        assert!(cells[0].label.contains("platform=exynos5422"));
        assert!(cells[0].label.contains("ambient=35C"));
        assert!(cells[3].label.contains("platform=snapdragon810"));
        assert!(cells[3].label.contains("ambient=50C"));
        // A nonzero campaign seed decorrelates the cells.
        let seeds: std::collections::BTreeSet<u64> = cells.iter().map(|c| c.seed).collect();
        assert_eq!(seeds.len(), 4);
    }

    #[test]
    fn zero_seed_keeps_workload_seeds() {
        let mut spec = small_campaign();
        spec.seed = 0;
        spec.base.workloads[0].seed = 42;
        let cells = spec.expand().unwrap();
        assert!(cells.iter().all(|c| c.seed == 0));
        assert!(cells.iter().all(|c| c.scenario.workloads[0].seed == 42));
    }

    #[test]
    fn trips_sweep_requires_step_wise() {
        let mut spec = small_campaign();
        spec.sweep.trips_c = vec![vec![40.0, 43.0]];
        assert!(spec.expand().is_err());
        spec.base.thermal = ThermalPolicySpec::StepWise {
            trips_c: vec![45.0],
            period_s: 1.0,
        };
        let cells = spec.expand().unwrap();
        assert!(cells.iter().all(|c| matches!(
            &c.scenario.thermal,
            ThermalPolicySpec::StepWise { trips_c, .. } if trips_c == &vec![40.0, 43.0]
        )));
    }

    #[test]
    fn report_is_identical_across_worker_counts() {
        let spec = small_campaign();
        let serial = run_campaign(&spec, 1).unwrap();
        let parallel = run_campaign(&spec, 4).unwrap();
        assert_eq!(serial.cells, parallel.cells);
        assert_eq!(serial.analysis, parallel.analysis);
        assert_eq!(serial.peak_temperature_c, parallel.peak_temperature_c);
        assert_eq!(serial.cells.len(), 4);
        assert!(serial.peak_temperature_c.max >= serial.peak_temperature_c.min);
        assert!(serial.average_power_w.mean > 0.0);
    }

    #[test]
    fn event_engine_report_is_identical_across_worker_counts() {
        // Event-mode macro-stepping depends only on simulated time, so
        // the campaign report stays bit-identical whatever the worker
        // count, exactly as in fixed-dt mode.
        let mut spec = small_campaign();
        spec.base.engine = EngineSpec::Event;
        let serial = run_campaign(&spec, 1).unwrap();
        let parallel = run_campaign(&spec, 8).unwrap();
        assert_eq!(serial.cells, parallel.cells);
        assert_eq!(serial.analysis, parallel.analysis);
        assert_eq!(serial.peak_temperature_c, parallel.peak_temperature_c);
    }

    #[test]
    fn observed_run_records_timings_and_occupancy() {
        let spec = small_campaign();
        let recorder = Arc::new(Recorder::new());
        let calls = AtomicUsize::new(0);
        let progress = |_done: usize, total: usize| {
            assert_eq!(total, 4);
            calls.fetch_add(1, Ordering::Relaxed);
        };
        let (report, _) =
            run_cells_framed(&spec.expand().unwrap(), 2, &recorder, Some(&progress)).unwrap();
        assert_eq!(report.workers, 2);
        assert_eq!(report.timings.len(), report.cells.len());
        assert!(report.timings.iter().all(|t| t.worker < report.workers));
        assert_eq!(report.worker_busy_s.len(), 2);
        let busy: f64 = report.worker_busy_s.iter().sum();
        let cells: f64 = report.timings.iter().map(|t| t.wall_clock_s).sum();
        assert!((busy - cells).abs() < 1e-9);
        assert_eq!(calls.load(Ordering::Relaxed), 4);
        assert_eq!(recorder.counter(Counter::CellsCompleted), 4);
        assert!(recorder.histogram_names().iter().any(|n| n == "cell"));
        assert!(recorder.spans().iter().any(|s| s.cat == "cell"));
        // Stage timing lands in histograms, not spans: every pass of
        // every cell records each of the nine stages once.
        let ticks = recorder.counter(Counter::Ticks);
        assert!(ticks > 0);
        let snap = recorder.snapshot();
        let stages: Vec<_> = snap
            .histograms
            .iter()
            .filter(|h| h.name.starts_with("stage:"))
            .collect();
        assert_eq!(stages.len(), 9);
        for h in stages {
            assert_eq!(h.count, ticks, "{}", h.name);
        }
    }

    #[test]
    fn observed_counters_match_across_worker_counts() {
        let spec = small_campaign();
        let serial = Arc::new(Recorder::new());
        let parallel = Arc::new(Recorder::new());
        run_cells_framed(&spec.expand().unwrap(), 1, &serial, None).unwrap();
        run_cells_framed(&spec.expand().unwrap(), 4, &parallel, None).unwrap();
        assert_eq!(
            serial.snapshot().deterministic_counters(),
            parallel.snapshot().deterministic_counters()
        );
    }

    #[test]
    fn campaign_builds_one_discretization_per_platform() {
        // 2 platforms × 2 ambients = 4 cells, all at the default tick.
        // Ambient does not enter the dynamics, so the shared cache
        // factors each platform exactly once: 2 builds, 2 hits —
        // whatever the worker count.
        let spec = small_campaign();
        for jobs in [1, 4] {
            let recorder = Arc::new(Recorder::new());
            run_cells_framed(&spec.expand().unwrap(), jobs, &recorder, None).unwrap();
            assert_eq!(
                recorder.counter(Counter::SolverCacheBuilds),
                2,
                "jobs={jobs}"
            );
            assert_eq!(recorder.counter(Counter::SolverCacheHits), 2, "jobs={jobs}");
        }
    }

    #[test]
    fn framed_run_exposes_queryable_frames() {
        let spec = small_campaign();
        let recorder = Arc::new(Recorder::new());
        let (report, frames) =
            run_cells_framed(&spec.expand().unwrap(), 2, &recorder, None).unwrap();
        assert_eq!(frames.cells.len(), 4);
        assert!(frames.cells.iter().all(|c| !c.frame.is_empty()));
        assert!(frames.cells[0].axes.iter().any(|(k, _)| k == "platform"));
        // The per-cell metrics frame carries axis dictionary columns, so
        // campaign group-bys work directly on it.
        let cells = report.cells_frame();
        assert_eq!(cells.rows(), 4);
        for name in CampaignReport::METRIC_CHANNELS {
            assert!(
                cells.channel_names().iter().any(|n| n == name) || name == "median_fps",
                "missing metric channel {name}"
            );
        }
        let q = mpt_daq::Query::parse("max(peak_temperature_c) by platform").unwrap();
        let by_platform = q.run(&cells).unwrap();
        assert_eq!(by_platform.rows.len(), 2);
        assert!(by_platform.rows.iter().all(|r| r.count == 2));
        // Campaign time-channel queries aggregate every cell's samples.
        let q = mpt_daq::Query::parse("mean(total_power_w) by platform").unwrap();
        let over_time = q.run_campaign(&frames.campaign_frame()).unwrap();
        assert_eq!(over_time.rows.len(), 2);
        assert!(over_time.rows.iter().all(|r| r.count > 0));
    }

    #[test]
    fn framed_queries_are_identical_across_worker_counts() {
        let spec = small_campaign();
        let (r1, f1) =
            run_cells_framed(&spec.expand().unwrap(), 1, &Arc::new(Recorder::new()), None).unwrap();
        let (r8, f8) =
            run_cells_framed(&spec.expand().unwrap(), 8, &Arc::new(Recorder::new()), None).unwrap();
        assert_eq!(f1, f8);
        assert_eq!(r1.cells_frame(), r8.cells_frame());
        let q = mpt_daq::Query::parse("p95(max_temp_c) by ambient").unwrap();
        let serial = q.run_campaign(&f1.campaign_frame()).unwrap();
        let parallel = q.run_campaign(&f8.campaign_frame()).unwrap();
        assert_eq!(serial.to_csv(), parallel.to_csv());
    }

    #[test]
    fn campaign_spec_round_trips_through_json() {
        let spec = small_campaign();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: CampaignSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    fn fleet_campaign() -> CampaignSpec {
        let mut spec = small_campaign();
        spec.base.duration_s = 1.0;
        spec.sweep.platforms = vec![PlatformSpec::Exynos5422];
        spec.fleet = Some(mpt_soc::FleetSpec {
            devices: 40,
            leakage_scale: mpt_soc::ParamJitter::Normal {
                mean: 1.0,
                std: 0.08,
            },
            ambient_c: mpt_soc::ParamJitter::Uniform {
                min: -5.0,
                max: 10.0,
            },
            phase_offset_s: mpt_soc::ParamJitter::Uniform { min: 0.0, max: 0.5 },
            workload_mix: mpt_soc::ParamJitter::fixed(1.0),
            trip_c: Some(52.0),
        });
        spec
    }

    #[test]
    fn fleet_campaign_reports_population_rollups() {
        let spec = fleet_campaign();
        let recorder = Arc::new(Recorder::new());
        let (report, frames) =
            run_cells_framed(&spec.expand().unwrap(), 2, &recorder, None).unwrap();
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.fleet.len(), 2, "one rollup per cell");
        for cell in &report.fleet {
            assert_eq!(cell.devices, 40);
            assert!(cell.ticks > 0);
            assert_eq!(cell.trip_c, Some(52.0));
            assert!(cell.peak_temp_max_c >= cell.peak_temp_median_c);
            assert!(cell.peak_temp_median_c >= cell.peak_temp_min_c);
            let binned: u64 = cell.peak_temp_histogram.iter().map(|b| b.count).sum();
            assert_eq!(binned, 40, "histogram covers every device");
            assert_eq!(cell.time_above_trip_s.len(), 7);
        }
        // The 50 C pre-warm cell starts hotter, so its population trips
        // no later than the 35 C one.
        assert!(report.fleet[1].tripped_devices >= report.fleet[0].tripped_devices);
        // Device frames: one row per device with the dictionary column.
        assert_eq!(frames.fleet_cells.len(), 2);
        for cell in &frames.fleet_cells {
            assert_eq!(cell.frame.rows(), 40);
            assert!(cell.frame.channel_names().iter().any(|n| n == "device"));
        }
        let q = mpt_daq::Query::parse("p99(peak_temp_c) by ambient").unwrap();
        let by_ambient = q.run_campaign(&frames.fleet_campaign_frame()).unwrap();
        assert_eq!(by_ambient.rows.len(), 2);
        assert!(by_ambient.rows.iter().all(|r| r.count == 40));
        // The batched replay actually went through the solver: device
        // ticks landed on the shared recorder.
        assert!(recorder.counter(Counter::DeviceTicks) > 0);
    }

    #[test]
    fn fleet_campaign_is_identical_across_worker_counts() {
        let spec = fleet_campaign();
        let (r1, f1) =
            run_cells_framed(&spec.expand().unwrap(), 1, &Arc::new(Recorder::new()), None).unwrap();
        let (r8, f8) =
            run_cells_framed(&spec.expand().unwrap(), 8, &Arc::new(Recorder::new()), None).unwrap();
        assert_eq!(r1.fleet, r8.fleet);
        assert_eq!(r1.cells, r8.cells);
        assert_eq!(f1.fleet_cells, f8.fleet_cells);
        let json1 = serde_json::to_string(&r1.fleet).unwrap();
        let json8 = serde_json::to_string(&r8.fleet).unwrap();
        assert_eq!(json1, json8, "serialized rollups byte-identical");
    }

    #[test]
    fn fleet_mix_axis_expands_and_scales_exposure() {
        let mut spec = fleet_campaign();
        spec.sweep.fleet_mix = vec![0.25, 1.5];
        let cells = spec.expand().unwrap();
        assert_eq!(cells.len(), 4);
        assert!(cells[0].label.contains("mix=0.25"));
        assert!(cells.iter().all(|c| c.fleet.is_some()));
        assert_eq!(
            cells[0].fleet.as_ref().unwrap().workload_mix,
            mpt_soc::ParamJitter::fixed(0.25),
            "axis value pins the jitter"
        );
        let (report, _) = run_cells_framed(&cells, 2, &Arc::new(Recorder::new()), None).unwrap();
        assert_eq!(report.fleet.len(), 4);
        // Heavier mix never cools the population: compare same-ambient
        // pairs (cells 0/1 are ambient 35, mix 0.25/1.5).
        assert!(report.fleet[1].peak_temp_max_c >= report.fleet[0].peak_temp_max_c);
    }

    #[test]
    fn fleet_mix_without_fleet_is_invalid() {
        let mut spec = small_campaign();
        spec.sweep.fleet_mix = vec![1.0];
        assert!(spec.expand().is_err());
    }
}
