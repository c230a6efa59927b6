//! The Odroid-XU3 case study (paper Section IV-C): Figures 8–9 and
//! Table II.

use mpt_daq::TimeSeries;
use mpt_kernel::{IpaConfig, IpaGovernor, ProcessClass};
use mpt_sim::{Result, SimBuilder, Simulator};
use mpt_soc::{platforms, ComponentId, Platform};
use mpt_units::{Celsius, Seconds, Watts};
use mpt_workloads::benchmarks::{BasicMathLarge, Nenamark, SteadyCompute, ThreeDMark};
use mpt_workloads::Workload;

use crate::{AppAwareConfig, AppAwareGovernor};

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

/// The stock kernel thermal policy of the paper's baseline: ARM
/// Intelligent Power Allocation over the big cluster and GPU with a 95 °C
/// control temperature (Linux 3.10.9 style "trip points and ARM
/// intelligent power allocation").
fn stock_ipa(soc: &Platform) -> Box<IpaGovernor> {
    Box::new(IpaGovernor::with_weights(
        IpaConfig {
            control_temp: Celsius::new(95.0),
            sustainable_power: Watts::new(2.6),
            ..IpaConfig::default()
        },
        vec![
            (
                soc.component(ComponentId::BigCluster)
                    .expect("exynos has a big cluster")
                    .clone(),
                1.0,
            ),
            // The GPU is weighted heavily, as vendor IPA device trees do
            // for the graphics pipeline: the budget squeeze lands on the
            // CPU first.
            (
                soc.component(ComponentId::Gpu)
                    .expect("exynos has a gpu")
                    .clone(),
                1.2,
            ),
        ],
    ))
}

fn scenario_builder(
    scenario: OdroidScenario,
    soc: &Platform,
) -> (SimBuilder, Option<std::sync::Arc<crate::GovernorStats>>) {
    let mut builder = SimBuilder::new(soc.clone())
        // The board starts pre-warmed at 50 °C, the starting point of
        // the paper's Figure 8.
        .initial_temperature(Celsius::new(50.0))
        // Resident platform services on the little cluster (Android's
        // system_server etc.), the baseline little-rail draw visible in
        // every Figure 9 pie.
        .attach(
            Box::new(SteadyCompute::new("system_server", 0.5e9, 2.0)),
            ProcessClass::Background,
            ComponentId::LittleCluster,
        );
    let mut stats = None;
    match scenario {
        OdroidScenario::Alone | OdroidScenario::WithBml => {
            builder = builder.thermal_governor(stock_ipa(soc));
        }
        OdroidScenario::WithBmlProposed => {
            let gov = AppAwareGovernor::new(AppAwareConfig::default());
            stats = Some(gov.stats());
            builder = builder.system_policy(Box::new(gov));
        }
    }
    (builder, stats)
}

fn attach_background(builder: SimBuilder, scenario: OdroidScenario) -> SimBuilder {
    match scenario {
        OdroidScenario::Alone => builder,
        OdroidScenario::WithBml | OdroidScenario::WithBmlProposed => builder.attach(
            Box::new(BasicMathLarge::new()),
            ProcessClass::Background,
            ComponentId::BigCluster,
        ),
    }
}

fn finish(
    sim: &Simulator,
    scenario: OdroidScenario,
    stats: Option<&crate::GovernorStats>,
) -> OdroidRun {
    let threedmark = sim
        .pid_of("3DMark")
        .and_then(|pid| sim.workload_as::<ThreeDMark>(pid));
    OdroidRun {
        scenario,
        max_temp: sim.telemetry().max_temperature(),
        shares: sim.telemetry().power_shares(),
        total_power: sim.telemetry().average_total_power(),
        gt1: threedmark.and_then(ThreeDMark::gt1_fps),
        gt2: threedmark.and_then(ThreeDMark::gt2_fps),
        migrations: stats.map_or(0, crate::GovernorStats::migrations),
        first_migration: sim.events().first_migration(),
    }
}

/// Runs the 3DMark case study (GT1 for 125 s, then GT2 for 125 s — the
/// 250 s span of the paper's Figure 8) under the given scenario.
///
/// The benchmark registers itself as a real-time process, exactly as the
/// paper's governor allows, so the proposed controller never migrates the
/// foreground benchmark.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn threedmark_run(scenario: OdroidScenario) -> Result<OdroidRun> {
    let soc = platforms::exynos_5422();
    let (builder, stats) = scenario_builder(scenario, &soc);
    let builder = builder.attach_realtime(
        Box::new(ThreeDMark::with_durations(
            Seconds::new(125.0),
            Seconds::new(125.0),
        )),
        ProcessClass::Foreground,
        ComponentId::BigCluster,
    );
    let builder = attach_background(builder, scenario);
    let mut sim = builder.build()?;
    sim.run_for(Seconds::new(250.0))?;
    Ok(finish(&sim, scenario, stats.as_deref()))
}

/// Runs the Nenamark case study under the given scenario and returns the
/// score in levels (Table II row 3).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn nenamark_run(scenario: OdroidScenario) -> Result<f64> {
    let soc = platforms::exynos_5422();
    let (builder, _stats) = scenario_builder(scenario, &soc);
    let builder = builder.attach_realtime(
        Box::new(Nenamark::new()),
        ProcessClass::Foreground,
        ComponentId::BigCluster,
    );
    let builder = attach_background(builder, scenario);
    let mut sim = builder.build()?;
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
/// [`run_parallel`](crate::campaign::run_parallel).
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
