//! The Odroid-XU3 case study (paper Section IV-C): Figures 8–9 and
//! Table II.
//!
//! Each condition's session is a file under `scenarios/`, built by
//! [`build_scenario`].

use mpt_daq::TimeSeries;
use mpt_sim::Result;
use mpt_units::{Seconds, Watts};
use mpt_workloads::benchmarks::{Nenamark, ThreeDMark};
use mpt_workloads::Workload;

use crate::scenario::{build_scenario, ScenarioSpec, WorkloadKind};

/// The three experimental conditions of the paper's Section IV-C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OdroidScenario {
    /// The GPU benchmark alone, stock kernel policy ("App. Alone").
    Alone,
    /// Benchmark + `basicmath_large` in the background, stock kernel
    /// policy ("App. + BML").
    WithBml,
    /// Benchmark + BML under the proposed application-aware governor
    /// ("App. + BML with Proposed Control").
    WithBmlProposed,
}

impl OdroidScenario {
    /// All three scenarios in Table II column order.
    pub const ALL: [OdroidScenario; 3] = [
        OdroidScenario::Alone,
        OdroidScenario::WithBml,
        OdroidScenario::WithBmlProposed,
    ];

    /// Display label matching the paper's Table II columns.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            OdroidScenario::Alone => "App. Alone",
            OdroidScenario::WithBml => "App. + BML",
            OdroidScenario::WithBmlProposed => "App. + BML with Proposed Control",
        }
    }

    /// The condition's 3DMark session (see [`threedmark_run`]), parsed
    /// from its file under `scenarios/`.
    fn spec(self) -> ScenarioSpec {
        let json = match self {
            OdroidScenario::Alone => include_str!("../../../../scenarios/odroid_alone.json"),
            OdroidScenario::WithBml => {
                include_str!("../../../../scenarios/odroid_default_ipa.json")
            }
            OdroidScenario::WithBmlProposed => {
                include_str!("../../../../scenarios/odroid_proposed.json")
            }
        };
        serde_json::from_str(json).expect("the shipped Odroid scenarios parse")
    }
}

/// The measurement products of one Odroid-XU3 run.
#[derive(Debug, Clone)]
pub struct OdroidRun {
    /// Which condition.
    pub scenario: OdroidScenario,
    /// The maximum-temperature trace (Figure 8).
    pub max_temp: TimeSeries,
    /// Average power per rail over the run (Figure 9's pie slices), in
    /// rail order (little, big, gpu, mem).
    pub shares: Vec<(&'static str, f64)>,
    /// Average total power (the paper quotes 3.65 W for 3DMark + BML).
    pub total_power: Watts,
    /// Median FPS of 3DMark Graphics Test 1 (Table II row 1).
    pub gt1: Option<f64>,
    /// Median FPS of 3DMark Graphics Test 2 (Table II row 2).
    pub gt2: Option<f64>,
    /// Migrations performed by the proposed governor (0 for baselines).
    pub migrations: u64,
    /// When the first migration happened, from the run's event log.
    pub first_migration: Option<mpt_units::Seconds>,
}

/// Runs the 3DMark case study under the given scenario. The sessions are
/// the files `scenarios/odroid_alone.json`, `odroid_default_ipa.json` and
/// `odroid_proposed.json`, one per condition.
///
/// All three run 3DMark's two graphics tests for 125 s each (the 250 s
/// span of Figure 8) on a board pre-warmed to Figure 8's starting 50 °C.
/// The benchmark registers itself as a real-time process, as
/// the paper's governor allows, so the proposed controller never migrates
/// it. A resident `system_server` load (Android's platform services) on
/// the little cluster draws the little-rail baseline visible in every
/// Figure 9 pie; the BML conditions add `basicmath_large` on the big
/// cluster.
///
/// The first two conditions run the stock kernel policy, ARM Intelligent
/// Power Allocation over the big cluster and GPU with a 95 °C control
/// temperature (Linux 3.10.9 style "trip points and ARM intelligent power
/// allocation"). The GPU is weighted 1.2 against the big cluster's 1.0,
/// as vendor IPA device trees do for the graphics pipeline, so the budget
/// squeeze lands on the CPU first. The third runs the proposed governor
/// with its default 95 °C limit and 60 s horizon instead.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn threedmark_run(scenario: OdroidScenario) -> Result<OdroidRun> {
    let spec = scenario.spec();
    let (mut sim, stats) = build_scenario(&spec)?;
    sim.run_for(Seconds::new(spec.duration_s))?;
    let threedmark = sim
        .pid_of("3DMark")
        .and_then(|pid| sim.workload_as::<ThreeDMark>(pid));
    Ok(OdroidRun {
        scenario,
        max_temp: sim.telemetry().max_temperature(),
        shares: sim.telemetry().power_shares(),
        total_power: sim.telemetry().average_total_power(),
        gt1: threedmark.and_then(ThreeDMark::gt1_fps),
        gt2: threedmark.and_then(ThreeDMark::gt2_fps),
        migrations: stats.map_or(0, |stats| stats.migrations()),
        first_migration: sim.events().first_migration(),
    })
}

/// Runs the Nenamark case study under the given scenario and returns the
/// score in levels (Table II row 3). The session is [`threedmark_run`]'s
/// with Nenamark in the benchmark's place (still real-time and in the
/// foreground), run until the benchmark finishes or 300 s pass.
///
/// # Errors
///
/// Propagates simulator errors.
pub(crate) fn nenamark_run(scenario: OdroidScenario) -> Result<f64> {
    let mut spec = scenario.spec();
    for workload in &mut spec.workloads {
        if matches!(workload.kind, WorkloadKind::ThreeDMark { .. }) {
            workload.kind = WorkloadKind::Nenamark;
        }
    }
    let (mut sim, _) = build_scenario(&spec)?;
    let pid = sim.pid_of("Nenamark").expect("nenamark attached");
    sim.run_until(
        |s| {
            s.workload_as::<Nenamark>(pid)
                .is_some_and(Workload::is_finished)
        },
        Seconds::new(300.0),
    )?;
    let bench = sim
        .workload_as::<Nenamark>(pid)
        .expect("nenamark still attached");
    Ok(if Workload::is_finished(bench) {
        bench.score()
    } else {
        // Never failed within the horizon: report the level reached.
        bench.current_level() as f64
    })
}

/// The paper's Table II: application performance under the three
/// scenarios.
#[derive(Debug, Clone, Copy)]
pub struct Table2 {
    /// 3DMark GT1 median FPS per scenario (paper: 97 / 86 / 93).
    pub gt1: [f64; 3],
    /// 3DMark GT2 median FPS per scenario (paper: 51 / 49 / 51).
    pub gt2: [f64; 3],
    /// Nenamark levels per scenario (paper: 3.5 / 3.4 / 3.5).
    pub nenamark: [f64; 3],
}

/// Regenerates the paper's Table II.
///
/// The six runs (3DMark and Nenamark under each of the three scenarios)
/// execute on one worker per CPU through the campaign layer's
/// [`run_parallel`](crate::campaign::run_parallel), not its campaign
/// runner: GT1, GT2 and the Nenamark score are read off the benchmark
/// workloads inside the simulator, which a
/// [`ScenarioOutcome`](crate::scenario::ScenarioOutcome) does not carry.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn table2() -> Result<Table2> {
    enum Cell {
        ThreeDMark(OdroidRun),
        Nenamark(f64),
    }
    let runs = crate::campaign::run_parallel(6, 0, |i| {
        let scenario = OdroidScenario::ALL[i % 3];
        if i < 3 {
            threedmark_run(scenario).map(Cell::ThreeDMark)
        } else {
            nenamark_run(scenario).map(Cell::Nenamark)
        }
    });
    let mut gt1 = [0.0; 3];
    let mut gt2 = [0.0; 3];
    let mut nenamark = [0.0; 3];
    for (i, run) in runs.into_iter().enumerate() {
        match run? {
            Cell::ThreeDMark(run) => {
                gt1[i % 3] = run.gt1.unwrap_or(0.0);
                gt2[i % 3] = run.gt2.unwrap_or(0.0);
            }
            Cell::Nenamark(score) => nenamark[i % 3] = score,
        }
    }
    Ok(Table2 { gt1, gt2, nenamark })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alone_run_is_gpu_dominant_like_figure9a() {
        let run = threedmark_run(OdroidScenario::Alone).unwrap();
        let gpu = run.shares.iter().find(|(k, _)| *k == "gpu").unwrap().1;
        let big = run.shares.iter().find(|(k, _)| *k == "big").unwrap().1;
        assert!(
            gpu > big,
            "3DMark alone: GPU ({gpu} W) should dominate big ({big} W)"
        );
        assert!(run.gt1.unwrap() > 80.0, "GT1 {:?}", run.gt1);
    }

    #[test]
    fn bml_raises_power_and_big_share_like_figure9b() {
        let alone = threedmark_run(OdroidScenario::Alone).unwrap();
        let with = threedmark_run(OdroidScenario::WithBml).unwrap();
        assert!(
            with.total_power > alone.total_power,
            "BML must raise total power: {} vs {}",
            with.total_power,
            alone.total_power
        );
        let share = |run: &OdroidRun, key: &str| {
            let total: f64 = run.shares.iter().map(|(_, v)| v).sum();
            run.shares.iter().find(|(k, _)| *k == key).unwrap().1 / total * 100.0
        };
        assert!(
            share(&with, "big") > share(&alone, "big") + 10.0,
            "big share must jump (paper: 38% -> 60%): {} -> {}",
            share(&alone, "big"),
            share(&with, "big")
        );
    }

    #[test]
    fn proposed_control_migrates_and_shifts_power_to_little() {
        let with = threedmark_run(OdroidScenario::WithBml).unwrap();
        let proposed = threedmark_run(OdroidScenario::WithBmlProposed).unwrap();
        assert!(
            proposed.migrations >= 1,
            "proposed governor must migrate BML"
        );
        let share = |run: &OdroidRun, key: &str| {
            let total: f64 = run.shares.iter().map(|(_, v)| v).sum();
            run.shares.iter().find(|(k, _)| *k == key).unwrap().1 / total * 100.0
        };
        // Paper Fig. 9c: big 60% -> 42%, little 7% -> 16%.
        assert!(
            share(&proposed, "big") < share(&with, "big") - 5.0,
            "big share must fall: {} -> {}",
            share(&with, "big"),
            share(&proposed, "big")
        );
        assert!(
            share(&proposed, "little") > share(&with, "little"),
            "little share must rise"
        );
    }

    #[test]
    fn table2_shape_matches_the_paper() {
        let t = table2().unwrap();
        // Who wins: alone >= proposed >= default, for both tests.
        assert!(
            t.gt1[0] > t.gt1[1],
            "GT1 alone {} > default {}",
            t.gt1[0],
            t.gt1[1]
        );
        assert!(
            t.gt1[2] > t.gt1[1],
            "GT1 proposed {} > default {}",
            t.gt1[2],
            t.gt1[1]
        );
        assert!(t.gt2[2] >= t.gt2[1] - 0.5);
        // Nenamark: proposed recovers the baseline score.
        assert!(t.nenamark[0] >= t.nenamark[1]);
        assert!(t.nenamark[2] >= t.nenamark[1]);
    }
}
