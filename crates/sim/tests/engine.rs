//! End-to-end engine behavior through the public API.

use std::sync::Arc;

use mpt_kernel::{StepWiseGovernor, ThermalGovernor, TripPoint};
use mpt_obs::{Counter, Recorder};
use mpt_sim::{SimBuilder, SimError, Simulator, SteppingMode};
use mpt_soc::{platforms, ComponentId, Platform};
use mpt_units::{Celsius, Hertz, Seconds};
use mpt_workloads::apps;
use mpt_workloads::benchmarks::{BasicMathLarge, SteadyCompute};

/// The pipeline stages, in tick order.
const STAGES: [&str; 9] = [
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

fn game_sim() -> Simulator {
    SimBuilder::new(platforms::snapdragon_810())
        .attach(Box::new(apps::paper_io(42)), ComponentId::BigCluster)
        .build()
        .unwrap()
}

#[test]
fn time_advances_by_ticks() {
    let mut sim = game_sim();
    sim.run_for(Seconds::new(1.0)).unwrap();
    assert!((sim.time().value() - 1.0).abs() < 0.011);
}

#[test]
fn pipeline_has_the_expected_stages() {
    let sim = game_sim();
    assert_eq!(sim.stage_names(), STAGES);
}

#[test]
fn running_a_game_heats_the_phone() {
    let mut sim = game_sim();
    let start = sim.temperature_of("package").unwrap();
    sim.run_for(Seconds::new(60.0)).unwrap();
    let end = sim.temperature_of("package").unwrap();
    assert!(
        end.value() > start.value() + 3.0,
        "package {start} -> {end} should warm by several degrees"
    );
}

#[test]
fn game_achieves_a_playable_framerate() {
    let mut sim = game_sim();
    sim.run_for(Seconds::new(30.0)).unwrap();
    let pid = sim.pid_of("Paper.io").unwrap();
    let fps = sim.median_fps(pid).unwrap();
    assert!(fps > 20.0 && fps <= 60.5, "fps = {fps}");
}

#[test]
fn gpu_clocks_up_under_game_load() {
    let mut sim = game_sim();
    sim.run_for(Seconds::new(10.0)).unwrap();
    let f = sim.current_frequency(ComponentId::Gpu).unwrap();
    assert!(f >= Hertz::from_mhz(450), "gpu at {f}");
}

fn nexus_stock_thermal(soc: &Platform) -> Box<dyn ThermalGovernor> {
    // GPU may throttle down to 390 MHz (state 3), the big cluster no
    // lower than 960 MHz (state 7 of 13) — cooling-device ranges like
    // the vendor thermal engine's.
    Box::new(StepWiseGovernor::with_state_limits(
        vec![
            TripPoint::new(Celsius::new(42.0), Celsius::new(1.5)),
            TripPoint::new(Celsius::new(45.0), Celsius::new(1.5)),
        ],
        vec![
            (soc.component(ComponentId::Gpu).unwrap().clone(), 3),
            (soc.component(ComponentId::BigCluster).unwrap().clone(), 7),
        ],
    ))
}

#[test]
fn thermal_governor_caps_via_sysfs() {
    let soc = platforms::snapdragon_810();
    let gov = nexus_stock_thermal(&soc);
    let mut sim = SimBuilder::new(soc)
        .attach(Box::new(apps::paper_io(42)), ComponentId::BigCluster)
        .thermal_governor(gov)
        .thermal_period(Seconds::new(1.0))
        .control_sensor("package")
        .initial_temperature(Celsius::new(35.0))
        .build()
        .unwrap();
    sim.run_for(Seconds::new(200.0)).unwrap();
    // The governor must keep the package well below the unthrottled
    // steady state (~50 C).
    let t = sim.temperature_of("package").unwrap();
    assert!(t.value() < 47.0, "throttled package at {t}");
    // And the GPU must have spent real time below its top OPP.
    let res = sim.telemetry().residency(ComponentId::Gpu).unwrap();
    let pct = res.percentages();
    let top = pct.get(&Hertz::from_mhz(600)).copied().unwrap_or(0.0);
    assert!(top < 80.0, "gpu spent {top}% at 600 MHz despite throttling");
}

#[test]
fn unthrottled_runs_hotter_but_faster() {
    let soc = platforms::snapdragon_810();
    let gov = nexus_stock_thermal(&soc);
    let mut free = SimBuilder::new(platforms::snapdragon_810())
        .attach(Box::new(apps::paper_io(42)), ComponentId::BigCluster)
        .initial_temperature(Celsius::new(35.0))
        .build()
        .unwrap();
    let mut throttled = SimBuilder::new(soc)
        .attach(Box::new(apps::paper_io(42)), ComponentId::BigCluster)
        .thermal_governor(gov)
        .thermal_period(Seconds::new(1.0))
        .control_sensor("package")
        .initial_temperature(Celsius::new(35.0))
        .build()
        .unwrap();
    free.run_for(Seconds::new(140.0)).unwrap();
    throttled.run_for(Seconds::new(140.0)).unwrap();
    let t_free = free.temperature_of("package").unwrap();
    let t_thr = throttled.temperature_of("package").unwrap();
    assert!(
        t_free.value() > t_thr.value() + 2.0,
        "throttling must lower temperature: {t_free} vs {t_thr}"
    );
    let fps_free = free.median_fps(free.pid_of("Paper.io").unwrap()).unwrap();
    let fps_thr = throttled
        .median_fps(throttled.pid_of("Paper.io").unwrap())
        .unwrap();
    assert!(
        fps_free > fps_thr + 3.0,
        "throttling must cost FPS: {fps_free} vs {fps_thr}"
    );
}

#[test]
fn writing_sysfs_cap_takes_effect() {
    let mut sim = game_sim();
    sim.run_for(Seconds::new(5.0)).unwrap();
    assert!(sim.current_frequency(ComponentId::Gpu).unwrap() > Hertz::from_mhz(390));
    sim.sysfs()
        .write(&mpt_kernel::paths::max_freq(ComponentId::Gpu), "390000")
        .unwrap();
    sim.run_for(Seconds::new(1.0)).unwrap();
    assert!(sim.current_frequency(ComponentId::Gpu).unwrap() <= Hertz::from_mhz(390));
}

#[test]
fn bml_saturates_one_big_core() {
    let mut sim = SimBuilder::new(platforms::exynos_5422())
        .attach(Box::new(BasicMathLarge::new()), ComponentId::BigCluster)
        .build()
        .unwrap();
    sim.run_for(Seconds::new(10.0)).unwrap();
    let pid = sim.pid_of("basicmath_large").unwrap();
    let util = sim.scheduler().process(pid).unwrap().windowed_utilization();
    assert!((util - 1.0).abs() < 0.05, "bml busy-cores = {util}");
    let bml: &BasicMathLarge = sim.workload_as(pid).unwrap();
    assert!(bml.iterations() > 100.0);
}

#[test]
fn migration_moves_load_to_little_cluster() {
    let mut sim = SimBuilder::new(platforms::exynos_5422())
        .attach(Box::new(BasicMathLarge::new()), ComponentId::BigCluster)
        .build()
        .unwrap();
    sim.run_for(Seconds::new(5.0)).unwrap();
    let big_power = sim.last_powers()[ComponentId::BigCluster as usize]
        .unwrap()
        .total();
    let pid = sim.pid_of("basicmath_large").unwrap();
    // Simulate the governor's decision through the cpuset control plane,
    // as a thermal daemon would.
    sim.sysfs()
        .write(&mpt_kernel::paths::cpuset_cluster(pid.value()), "little")
        .unwrap();
    sim.run_for(Seconds::new(5.0)).unwrap();
    let big_after = sim.last_powers()[ComponentId::BigCluster as usize]
        .unwrap()
        .total();
    let little_after = sim.last_powers()[ComponentId::LittleCluster as usize]
        .unwrap()
        .total();
    assert!(
        big_after < big_power * 0.5,
        "big {big_power} -> {big_after}"
    );
    assert!(
        little_after.value() > 0.1,
        "little now busy: {little_after}"
    );
}

#[test]
fn telemetry_accumulates() {
    let mut sim = game_sim();
    sim.run_for(Seconds::new(10.0)).unwrap();
    assert!(sim.telemetry().total_energy() > 0.0);
    assert!(sim.telemetry().temperature("package").is_some());
    let res = sim.telemetry().residency(ComponentId::Gpu).unwrap();
    assert!((res.total().value() - 10.0).abs() < 0.1);
}

#[test]
fn invalid_configs_are_rejected() {
    let err = SimBuilder::new(platforms::snapdragon_810())
        .control_sensor("nonexistent")
        .build()
        .unwrap_err();
    assert!(matches!(err, SimError::InvalidConfig { .. }));

    let err = SimBuilder::new(platforms::snapdragon_810())
        .tick(Seconds::ZERO)
        .build()
        .unwrap_err();
    assert!(matches!(err, SimError::InvalidConfig { .. }));

    let err = SimBuilder::new(platforms::snapdragon_810())
        .attach(Box::new(apps::paper_io(1)), ComponentId::Gpu)
        .build()
        .unwrap_err();
    assert!(matches!(err, SimError::InvalidConfig { .. }));
}

#[test]
fn run_until_stops_on_predicate() {
    let mut sim = game_sim();
    let hit = sim
        .run_until(|s| s.time() >= Seconds::new(1.0), Seconds::new(10.0))
        .unwrap();
    assert!(hit);
    assert!(sim.time() < Seconds::new(1.1));
    // An immediately true predicate never steps.
    let t = sim.time();
    let hit = sim.run_until(|_| true, Seconds::new(10.0)).unwrap();
    assert!(hit);
    assert_eq!(sim.time(), t);
    // A never-true predicate runs out the clock and reports false.
    let hit = sim.run_until(|_| false, Seconds::new(0.5)).unwrap();
    assert!(!hit);
}

#[test]
fn lookups_for_unknown_names_are_none() {
    let sim = game_sim();
    assert!(sim.pid_of("nonexistent").is_none());
    let pid = sim.pid_of("Paper.io").unwrap();
    // Wrong type downcast yields None, not a panic.
    assert!(sim.workload_as::<BasicMathLarge>(pid).is_none());
}

#[test]
fn non_rendering_workloads_report_no_fps() {
    let mut sim = SimBuilder::new(platforms::exynos_5422())
        .attach(Box::new(BasicMathLarge::new()), ComponentId::BigCluster)
        .build()
        .unwrap();
    sim.run_for(Seconds::new(2.0)).unwrap();
    let pid = sim.pid_of("basicmath_large").unwrap();
    assert!(sim.median_fps(pid).is_none());
    assert!(!sim.all_finished(), "BML never finishes");
}

#[test]
fn analysis_tracks_alerts_and_derived_observables() {
    use mpt_obs::AlertRule;

    let soc = platforms::snapdragon_810();
    let gov = nexus_stock_thermal(&soc);
    let mut sim = SimBuilder::new(soc)
        .attach(Box::new(apps::paper_io(42)), ComponentId::BigCluster)
        .thermal_governor(gov)
        .thermal_period(Seconds::new(1.0))
        .control_sensor("package")
        .initial_temperature(Celsius::new(35.0))
        .trip_reference(Celsius::new(42.0))
        .alert_rules(vec![
            AlertRule::TempAbove {
                threshold_c: 41.0,
                sustain_s: 2.0,
            },
            AlertRule::FpsBelow {
                target: 30.0,
                sustain_s: 2.0,
            },
        ])
        .build()
        .unwrap();
    sim.run_for(Seconds::new(140.0)).unwrap();

    // Derived observables: the throttled game crosses the trip and
    // spends real time above it.
    let d = sim.analysis().summary();
    assert_eq!(d.trip_c, Some(42.0));
    assert!(d.peak_temp_c.unwrap() > 42.0);
    assert!(
        d.time_above_trip_s > 1.0,
        "above trip {}",
        d.time_above_trip_s
    );
    assert!(d.time_throttled_s > 10.0);
    assert!(d.throttle_events > 0);
    // Throttling costs frames (Table I row 1: ~35 -> ~23 FPS).
    assert!(d.fps_mean_free.unwrap() > d.fps_mean_throttled.unwrap());
    assert!(d.throttle_fps_loss.unwrap() > 0.0);

    // Alerts fired and landed in the event log as alert events.
    let alerts = sim.analysis().alerts();
    assert!(alerts.iter().any(|a| a.rule == "temp_above"));
    assert!(alerts.iter().any(|a| a.rule == "fps_below"));
    let counts = sim.events().counts_by_kind();
    assert_eq!(counts[&"alert"], alerts.len() as u64);
    assert_eq!(
        sim.recorder().counter(mpt_obs::Counter::AlertsFired),
        alerts.len() as u64
    );

    // The telemetry frame carries the figure curves the trace renders:
    // temperature, total power, big-cluster + GPU frequency, and FPS.
    let frame = sim.telemetry().frame();
    for name in [
        "max_temp_c",
        "total_power_w",
        "freq_big_mhz",
        "freq_gpu_mhz",
        "fps",
    ] {
        let values = frame.f64_column(name).expect(name);
        assert!(
            values.iter().any(|v| v.is_finite()),
            "{name} has no samples"
        );
    }
}

/// Frame-based apps make no phase promise, so the event engine stays on
/// the every-tick path — and that path must accumulate time exactly like
/// the fixed loop: bit-identical temperatures, energy and event log.
#[test]
fn event_stepping_is_bit_identical_on_app_scenarios() {
    let run = |mode| {
        let mut sim = SimBuilder::new(platforms::snapdragon_810())
            .stepping(mode)
            .attach(Box::new(apps::paper_io(42)), ComponentId::BigCluster)
            .initial_temperature(Celsius::new(35.0))
            .build()
            .unwrap();
        sim.run_for(Seconds::new(30.0)).unwrap();
        (
            sim.temperature_of("package").unwrap().value(),
            sim.telemetry().total_energy(),
            sim.events().render(),
        )
    };
    assert_eq!(run(SteppingMode::FixedDt), run(SteppingMode::EventDriven));
}

/// A steady workload with sparse sample points lets the event engine
/// cover the run in analytic macro steps: an order of magnitude fewer
/// passes, with the outcome inside the equivalence tolerance.
#[test]
fn event_stepping_macro_jumps_a_steady_scenario() {
    let run = |mode| {
        // Pinned governors: a hunting DVFS loop re-decides every few
        // ticks and legitimately caps the jump length, so pin the
        // frequencies to expose the macro-stepping headroom.
        let mut sim = SimBuilder::new(platforms::snapdragon_810())
            .stepping(mode)
            .governor(
                ComponentId::BigCluster,
                mpt_kernel::GovernorKind::Performance,
            )
            .governor(
                ComponentId::LittleCluster,
                mpt_kernel::GovernorKind::Performance,
            )
            .telemetry_period(Seconds::new(5.0))
            .attach(
                Box::new(SteadyCompute::new("load", 2.0e9, 2.0)),
                ComponentId::BigCluster,
            )
            .initial_temperature(Celsius::new(35.0))
            .build()
            .unwrap();
        sim.run_for(Seconds::new(60.0)).unwrap();
        (
            sim.temperature_of("package").unwrap().value(),
            sim.recorder().counter(mpt_obs::Counter::Ticks),
        )
    };
    let (t_fixed, passes_fixed) = run(SteppingMode::FixedDt);
    let (t_event, passes_event) = run(SteppingMode::EventDriven);
    assert!(
        (t_fixed - t_event).abs() < 0.1,
        "fixed {t_fixed} C vs event {t_event} C"
    );
    assert!(
        passes_event * 10 < passes_fixed,
        "event mode took {passes_event} passes vs {passes_fixed} fixed ticks"
    );
}

/// Trip-crossing prediction and scheduled alert deadlines keep the
/// macro-stepper's alert stream equivalent to the fixed loop: the same
/// rules fire the same number of times, within a tick-quantization
/// tolerance on the firing times.
#[test]
fn event_stepping_preserves_alert_firings_across_trip_crossings() {
    let run = |mode| {
        let soc = platforms::snapdragon_810();
        let gov = nexus_stock_thermal(&soc);
        let mut sim = SimBuilder::new(soc)
            .stepping(mode)
            .attach(
                Box::new(SteadyCompute::new("load", 3.0e9, 3.0)),
                ComponentId::BigCluster,
            )
            .thermal_governor(gov)
            .thermal_period(Seconds::new(1.0))
            .control_sensor("package")
            .initial_temperature(Celsius::new(35.0))
            .trip_reference(Celsius::new(42.0))
            .alert_rules(vec![mpt_obs::AlertRule::TempAbove {
                threshold_c: 41.0,
                sustain_s: 2.0,
            }])
            .build()
            .unwrap();
        sim.run_for(Seconds::new(120.0)).unwrap();
        let alerts: Vec<(String, f64)> = sim
            .analysis()
            .alerts()
            .iter()
            .map(|a| (a.rule.to_owned(), a.t_s))
            .collect();
        (sim.analysis().summary().peak_temp_c.unwrap(), alerts)
    };
    let (peak_fixed, alerts_fixed) = run(SteppingMode::FixedDt);
    let (peak_event, alerts_event) = run(SteppingMode::EventDriven);
    assert!(
        (peak_fixed - peak_event).abs() < 0.1,
        "fixed peak {peak_fixed} C vs event {peak_event} C"
    );
    assert!(!alerts_fixed.is_empty(), "scenario must fire alerts");
    assert_eq!(alerts_fixed.len(), alerts_event.len());
    // A steady workload crosses the threshold near the thermal
    // asymptote, where a sub-0.1 C trajectory difference legitimately
    // shifts the crossing by seconds — so the firing-time check is
    // coarse. Exact firing equivalence is asserted on the app scenarios,
    // which run the bit-identical every-tick path.
    for ((rule_f, t_f), (rule_e, t_e)) in alerts_fixed.iter().zip(&alerts_event) {
        assert_eq!(rule_f, rule_e);
        assert!(
            (t_f - t_e).abs() < 5.0,
            "{rule_f} fired at {t_f} s fixed vs {t_e} s event"
        );
    }
}

/// An event-engine telemetry row is stamped with its pass's start time
/// but holds the temperatures at the pass's end, so the recording pass
/// must stay one base tick long: then every row the two engines share
/// holds the same temperature, even though the event engine macro-steps
/// between sample points.
#[test]
fn event_stepping_rows_keep_their_timestamps() {
    let run = |mode| {
        let mut sim = SimBuilder::new(platforms::snapdragon_810())
            .stepping(mode)
            .governor(
                ComponentId::BigCluster,
                mpt_kernel::GovernorKind::Performance,
            )
            .governor(
                ComponentId::LittleCluster,
                mpt_kernel::GovernorKind::Performance,
            )
            .telemetry_period(Seconds::new(1.0))
            .attach(
                Box::new(SteadyCompute::new("load", 2.0e9, 2.0)),
                ComponentId::BigCluster,
            )
            .initial_temperature(Celsius::new(35.0))
            .build()
            .unwrap();
        sim.run_for(Seconds::new(60.0)).unwrap();
        let frame = sim.telemetry().frame();
        let rows: Vec<(f64, f64)> = frame
            .times()
            .iter()
            .copied()
            .zip(frame.f64_column("max_temp_c").unwrap().iter().copied())
            .collect();
        (rows, sim.recorder().counter(mpt_obs::Counter::Ticks))
    };
    let (fixed, fixed_passes) = run(SteppingMode::FixedDt);
    let (event, event_passes) = run(SteppingMode::EventDriven);
    assert!(
        event_passes * 10 < fixed_passes,
        "the event engine must macro-step: {event_passes} vs {fixed_passes} passes"
    );
    let mut shared = 0;
    for &(t, temp) in &event {
        let Some(&(_, fixed_temp)) = fixed.iter().find(|(ft, _)| (ft - t).abs() < 1e-9) else {
            continue;
        };
        shared += 1;
        assert!(
            (temp - fixed_temp).abs() < 1e-3,
            "row at {t} s: event {temp} C vs fixed {fixed_temp} C"
        );
    }
    assert!(shared >= 55, "only {shared} rows at shared times");
}

#[test]
fn unthrottled_run_reports_absent_trip_metrics() {
    let mut sim = SimBuilder::new(platforms::snapdragon_810())
        .attach(Box::new(apps::paper_io(42)), ComponentId::BigCluster)
        .initial_temperature(Celsius::new(35.0))
        .build()
        .unwrap();
    sim.run_for(Seconds::new(5.0)).unwrap();
    let d = sim.analysis().summary();
    assert_eq!(d.trip_c, None);
    assert_eq!(d.thermal_headroom_c, None);
    assert_eq!(d.time_above_trip_s, 0.0);
    assert_eq!(d.time_throttled_s, 0.0);
    assert!(sim.analysis().alerts().is_empty());
}

/// One pipeline pass in this many is timed into the histograms: the
/// last of each run of 64.
const TIMED_EVERY: u64 = 64;

/// The `tick` histogram's count, then each stage histogram's, in
/// [`STAGES`] order.
fn hist_counts(recorder: &Recorder) -> Vec<u64> {
    let snap = recorder.snapshot();
    let count = |name: &str| {
        snap.histograms
            .iter()
            .find(|h| h.name == name)
            .map_or_else(|| panic!("no {name} histogram"), |h| h.count)
    };
    std::iter::once("tick".to_owned())
        .chain(STAGES.iter().map(|s| format!("stage:{s}")))
        .map(|n| count(&n))
        .collect()
}

/// Stage timing is exact-count: one pass in 64 records the `tick`
/// histogram and each stage histogram once, no pass pushes a span, and
/// a null recorder records nothing. Counts, not durations, so this gates
/// without a wall clock.
#[test]
fn passes_time_stages_into_histograms_without_spans() {
    let run = |recorder: Arc<Recorder>| {
        let mut sim = SimBuilder::new(platforms::snapdragon_810())
            .recorder(recorder)
            .attach(Box::new(apps::paper_io(42)), ComponentId::BigCluster)
            .build()
            .unwrap();
        sim.run_for(Seconds::new(5.0)).unwrap();
        sim
    };

    let sim = run(Arc::new(Recorder::new()));
    let recorder = sim.recorder();
    let ticks = recorder.counter(Counter::Ticks);
    assert!(ticks >= 500, "5 s at the 10 ms base tick: {ticks} passes");
    assert_eq!(sim.stage_names(), STAGES);
    assert!(recorder.spans().is_empty(), "passes push no spans");
    assert_eq!(
        hist_counts(recorder),
        vec![ticks / TIMED_EVERY; 1 + STAGES.len()]
    );

    let sim = run(Arc::new(Recorder::null()));
    let recorder = sim.recorder();
    assert_eq!(recorder.counter(Counter::Ticks), 0);
    assert!(recorder.spans().is_empty());
    assert_eq!(hist_counts(recorder), vec![0; 1 + STAGES.len()]);
}

/// The tick and stage-run counters are added on each timed pass and as
/// each driving call returns, not per pass: they match the clock's pass
/// count after `step`, `run_for` in either engine and a `run_until`
/// whose predicate fires part way or at once, and trail it by under 64
/// passes inside a call. A null recorder counts and times nothing.
#[test]
fn pass_counters_stay_exact_through_every_driving_call() {
    let build = |recorder: Arc<Recorder>, stepping: SteppingMode| {
        SimBuilder::new(platforms::exynos_5422())
            .recorder(recorder)
            .stepping(stepping)
            .attach(Box::new(BasicMathLarge::new()), ComponentId::BigCluster)
            .build()
            .unwrap()
    };
    let totals = |sim: &Simulator| {
        let recorder = sim.recorder();
        (
            recorder.counter(Counter::Ticks),
            recorder.counter(Counter::StageRuns),
        )
    };
    let exact = |sim: &Simulator| {
        let passes = sim.clock().steps();
        (passes, passes * STAGES.len() as u64)
    };

    let mut sim = build(Arc::new(Recorder::new()), SteppingMode::FixedDt);
    for _ in 0..70 {
        sim.step().unwrap();
    }
    assert_eq!(totals(&sim), exact(&sim));
    sim.run_for(Seconds::new(1.0)).unwrap();
    assert_eq!(totals(&sim), exact(&sim));
    let stop = sim.time() + Seconds::new(1.5);
    let mut lag = 0;
    let fired = sim
        .run_until(
            |s| {
                lag = lag.max(s.clock().steps() - totals(s).0);
                s.time() >= stop
            },
            Seconds::new(10.0),
        )
        .unwrap();
    assert!(fired);
    assert!((1..64).contains(&lag), "live totals {lag} passes behind");
    assert_eq!(totals(&sim), exact(&sim));
    let before = totals(&sim);
    assert!(sim.run_until(|_| true, Seconds::new(10.0)).unwrap());
    assert_eq!(totals(&sim), before, "no pass ran, none is counted");
    let passes = sim.clock().steps();
    assert!(passes >= 220, "{passes}");
    assert_eq!(
        hist_counts(sim.recorder()),
        vec![passes / TIMED_EVERY; 1 + STAGES.len()]
    );

    let mut event = build(Arc::new(Recorder::new()), SteppingMode::EventDriven);
    event.run_for(Seconds::new(3.0)).unwrap();
    assert_eq!(totals(&event), exact(&event));

    let mut null = build(Arc::new(Recorder::null()), SteppingMode::FixedDt);
    null.run_for(Seconds::new(2.0)).unwrap();
    null.step().unwrap();
    assert!(null.clock().steps() > TIMED_EVERY);
    assert_eq!(totals(&null), (0, 0));
    assert_eq!(hist_counts(null.recorder()), vec![0; 1 + STAGES.len()]);
}
