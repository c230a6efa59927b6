//! Regenerates one paper artifact per call (`repro table1`, `repro fig7`,
//! …), the ablations and the app-developer advisor that go beyond the
//! paper included, or all of them in turn (`repro all`).
//!
//! `all` closes with a per-artifact wall-time summary so slow
//! regenerators are easy to spot, plus a per-engine wall-time line
//! pitting the fixed-dt stepper against the event-driven macro-stepper on
//! a steady scenario. Artifacts that plot the same runs share them
//! through [`Runs`], so under `all` Figs. 2, 4, 6 and 9 simulate nothing.

use std::collections::hash_map::{Entry, HashMap};

use mpt_bench::{format_residency, format_table1, format_table2};
use mpt_core::advisor::sustainable_complexity;
use mpt_core::experiments::ablations::{
    action_ablation, horizon_ablation, period_ablation, prediction_accuracy, window_ablation,
};
use mpt_core::experiments::{
    self, fig7_curves, nexus_run, threedmark_run, NexusApp, NexusRun, OdroidRun, OdroidScenario,
};
use mpt_daq::{chart, Residency, TimeSeries};
use mpt_kernel::GovernorKind;
use mpt_obs::clock;
use mpt_sim::{SimBuilder, SteppingMode};
use mpt_soc::{platforms, ComponentId};
use mpt_thermal::Stability;
use mpt_units::{Celsius, Seconds, Watts};
use mpt_workloads::apps;
use mpt_workloads::benchmarks::SteadyCompute;

type Result<T = ()> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Prints one artifact, simulating only the runs `Runs` does not hold yet.
type Regenerate = fn(&mut Runs) -> Result;

/// One regenerator per artifact, in the order `all` runs them.
const ARTIFACTS: [(&str, Regenerate); 13] = [
    ("fig1", |runs| {
        temperature_figure(
            runs,
            "Fig. 1: Temperature profile for Paper.io game",
            NexusApp::PaperIo,
            42,
        )
    }),
    ("fig2", |runs| {
        residency_figure(
            runs,
            "Fig. 2: Usage of GPU frequencies in the Paper.io game",
            NexusApp::PaperIo,
            42,
            |run| &run.gpu_residency,
        )
    }),
    ("fig3", |runs| {
        temperature_figure(
            runs,
            "Fig. 3: Temperature profile for Stickman Hook game",
            NexusApp::StickmanHook,
            43,
        )
    }),
    ("fig4", |runs| {
        residency_figure(
            runs,
            "Fig. 4: Usage of GPU frequencies in the Stickman Hook game",
            NexusApp::StickmanHook,
            43,
            |run| &run.gpu_residency,
        )
    }),
    ("fig5", |runs| {
        temperature_figure(
            runs,
            "Fig. 5: Temperature profile for Amazon shopping app",
            NexusApp::Amazon,
            44,
        )
    }),
    ("fig6", |runs| {
        residency_figure(
            runs,
            "Fig. 6: Usage of big core frequencies in the Amazon app",
            NexusApp::Amazon,
            44,
            |run| &run.big_residency,
        )
    }),
    ("table1", |_| table1()),
    ("fig7", |_| fig7()),
    ("fig8", fig8),
    ("fig9", fig9),
    ("table2", |_| table2()),
    ("ablations", |_| ablations()),
    ("advisor", |_| advisor()),
];

/// Simulation runs that more than one artifact plots, made on first use.
#[derive(Default)]
struct Runs {
    /// The 140 s (unthrottled, throttled) runs per app and seed (Figs. 1–6).
    nexus: HashMap<(NexusApp, u64), [NexusRun; 2]>,
    /// The three 250 s 3DMark runs in [`OdroidScenario::ALL`] order
    /// (Figs. 8–9); empty until first asked for.
    threedmark: Vec<OdroidRun>,
}

impl Runs {
    fn nexus_pair(&mut self, app: NexusApp, seed: u64) -> Result<&[NexusRun; 2]> {
        Ok(match self.nexus.entry((app, seed)) {
            Entry::Occupied(pair) => pair.into_mut(),
            Entry::Vacant(slot) => {
                let run = |throttled| nexus_run(app, throttled, seed, Seconds::new(140.0));
                slot.insert([run(false)?, run(true)?])
            }
        })
    }

    fn threedmark(&mut self) -> Result<&[OdroidRun]> {
        if self.threedmark.is_empty() {
            self.threedmark = OdroidScenario::ALL
                .iter()
                .map(|&s| threedmark_run(s))
                .collect::<std::result::Result<_, _>>()?;
        }
        Ok(&self.threedmark)
    }
}

/// Figures 1, 3 and 5: package temperature with and without throttling.
fn temperature_figure(runs: &mut Runs, title: &str, app: NexusApp, seed: u64) -> Result {
    let [without, with] = runs.nexus_pair(app, seed)?;
    println!("{title}\n");
    println!(
        "{}",
        chart::line_chart(&[&without.package_temp, &with.package_temp], 70, 14)
    );
    println!("          (* = without throttling, + = with throttling)");
    Ok(())
}

/// Figures 2, 4 and 6: one cluster's frequency residency with and
/// without throttling.
fn residency_figure(
    runs: &mut Runs,
    title: &str,
    app: NexusApp,
    seed: u64,
    residency: fn(&NexusRun) -> &Residency,
) -> Result {
    let [without, with] = runs.nexus_pair(app, seed)?;
    println!("{title}\n");
    print!(
        "{}",
        format_residency("without throttling:", residency(without))
    );
    println!();
    print!("{}", format_residency("with throttling:", residency(with)));
    Ok(())
}

/// Table I: median FPS with and without throttling.
fn table1() -> Result {
    println!("regenerating Table I (10 runs of 140 s)...\n");
    let rows = experiments::table1()?;
    print!("{}", format_table1(&rows));
    println!(
        "\npaper reference: 35->23 (34%), 59->40 (32%), 35->28 (20%), 42->38 (10%), 35->24 (31%)"
    );
    Ok(())
}

/// Figure 7: the fixed-point functions for three power consumption values.
fn fig7() -> Result {
    println!("Fig. 7: Fixed point functions (Odroid-XU3 lumped calibration)\n");
    for curve in fig7_curves() {
        // Reuse the line chart by treating theta as the time axis.
        let mut ts = TimeSeries::new(format!("F(theta) at {:.1} W", curve.power.value()));
        for &(theta, f) in &curve.points {
            ts.push(Seconds::new(theta), f);
        }
        let class = match curve.stability {
            Stability::Stable(fp) => format!(
                "stable fixed point {:.1} C, unstable {:.1} C",
                fp.stable.to_celsius().value(),
                fp.unstable.to_celsius().value()
            ),
            Stability::CriticallyStable { point } => {
                format!("critically stable at {:.1} C", point.to_celsius().value())
            }
            Stability::Runaway => "no fixed points (thermal runaway)".to_owned(),
        };
        println!(
            "{} Total Power = {:.1} W -> {class}",
            curve.label,
            curve.power.value()
        );
        print!("{}", chart::line_chart(&[&ts], 70, 12));
        println!("          x-axis: auxiliary temperature theta = beta/T (increasing = cooler)\n");
    }
    Ok(())
}

/// Figure 8: maximum temperature while running 3DMark under the three
/// scenarios.
fn fig8(runs: &mut Runs) -> Result {
    println!("Fig. 8: Maximum temperature while running 3DMark (250 s)\n");
    let runs = runs.threedmark()?;
    let series: Vec<&TimeSeries> = runs.iter().map(|r| &r.max_temp).collect();
    print!("{}", chart::line_chart(&series, 72, 16));
    println!("          (* = 3DMark, + = 3DMark+BML, o = Proposed Control)");
    for r in runs {
        println!(
            "  {:<34} peak {:.1} C",
            r.scenario.label(),
            r.max_temp.max().unwrap_or(f64::NAN)
        );
    }
    Ok(())
}

/// Figure 9: power consumption distribution of 3DMark under the three
/// scenarios (the paper's pie charts, as share tables).
fn fig9(runs: &mut Runs) -> Result {
    println!("Fig. 9: Power consumption distribution of 3DMark\n");
    for run in runs.threedmark()? {
        print!("{}", chart::share_table(run.scenario.label(), &run.shares));
        println!();
    }
    println!("paper reference: (a) GPU-dominant, big 38%  (b) 3.65 W total, big 60%  (c) big 42%, little 16%");
    Ok(())
}

/// Table II: 3DMark GT1/GT2 FPS and Nenamark levels.
fn table2() -> Result {
    println!("regenerating Table II (six Odroid-XU3 runs)...\n");
    let t = experiments::table2()?;
    print!("{}", format_table2(&t));
    println!("\npaper reference: GT1 97/86/93, GT2 51/49/51, Nenamark 3.5/3.4/3.5");
    Ok(())
}

/// Ablation studies on the paper's design constants (beyond the paper's
/// own evaluation): the 1 s utilization window, the 100 ms governor
/// period, migration vs whole-cluster capping, the violation horizon —
/// plus a validation of the stability analysis against simulated ground
/// truth.
fn ablations() -> Result {
    println!("== utilization-window ablation (paper: 1 s) ==");
    println!("a bursty decoy competes with the steady basicmath_large offender");
    for r in window_ablation(&[
        Seconds::from_millis(100.0),
        Seconds::from_millis(500.0),
        Seconds::new(1.0),
        Seconds::new(3.0),
    ])? {
        println!(
            "  window {:>6.1} ms -> first victim {:<16} ({})",
            r.window.as_millis(),
            r.first_victim,
            if r.victim_correct {
                "correct"
            } else {
                "fooled by the burst"
            }
        );
    }

    println!("\n== governor-period ablation (paper: 100 ms) ==");
    for r in period_ablation(&[
        Seconds::from_millis(50.0),
        Seconds::from_millis(100.0),
        Seconds::new(1.0),
        Seconds::new(5.0),
    ])? {
        println!(
            "  period {:>6.0} ms -> first migration at {:>6}, peak {:.1}",
            r.period.as_millis(),
            r.first_migration
                .map_or_else(|| "never".to_owned(), |t| format!("{:.1} s", t.value())),
            r.peak
        );
    }

    println!("\n== throttling-mechanism ablation (paper: migration) ==");
    for r in action_ablation()? {
        println!(
            "  {:<16?} -> GT1 {:>5.1} FPS, offender progress {:>6.0} iterations, peak {:.1}",
            r.action, r.gt1, r.bml_iterations, r.peak
        );
    }

    println!("\n== horizon ablation (paper: 'user-defined limit') ==");
    for r in horizon_ablation(&[
        Seconds::new(5.0),
        Seconds::new(20.0),
        Seconds::new(60.0),
        Seconds::new(300.0),
    ])? {
        println!(
            "  horizon {:>5.0} s -> first migration at {:>6}, peak {:.1}",
            r.horizon.value(),
            r.first_migration
                .map_or_else(|| "never".to_owned(), |t| format!("{:.1} s", t.value())),
            r.peak
        );
    }

    println!("\n== prediction accuracy (lumped analysis vs full RC network) ==");
    for r in prediction_accuracy(&[
        Watts::new(0.5),
        Watts::new(1.0),
        Watts::new(2.0),
        Watts::new(3.0),
        Watts::new(4.0),
    ])? {
        let fmt = |o: Option<Celsius>| {
            o.map_or_else(|| "runaway".to_owned(), |c| format!("{:.1} C", c.value()))
        };
        println!(
            "  {:>4.1} W -> predicted {:>8}, simulated {:>8}",
            r.power.value(),
            fmt(r.predicted),
            fmt(r.simulated)
        );
    }
    Ok(())
}

/// Extension (paper conclusion: "can be used by application developers
/// to optimize their apps such that they do not experience thermal
/// throttling"): the app-developer advisor, applied to the two games
/// from the Nexus 6P study.
fn advisor() -> Result {
    let trip = Celsius::new(41.0);
    println!("advisor: largest scene complexity that avoids throttling (trip {trip:.0})\n");
    for spec in [apps::PAPER_IO, apps::STICKMAN_HOOK] {
        let r = sustainable_complexity(&spec, trip, 42)?;
        println!(
            "{:<14} full complexity: {:>4.0} FPS (throttles)  ->  {:>3.0}% complexity: {:>4.0} FPS, steady {:.1}",
            spec.name,
            r.fps_at_full,
            r.sustainable_scale * 100.0,
            r.fps_at_sustainable,
            r.steady_temp,
        );
    }
    println!("\n(a developer shipping at the sustainable complexity never hits the governor,\n so the frame rate is *predictable* instead of sawtoothing under trips)");
    Ok(())
}

/// Simulates the BENCH_events showcase (steady load, pinned governors,
/// 100 ms base tick) for 600 s under `mode`, returning
/// `(wall seconds, simulated-seconds-per-wall-second)`.
fn time_engine(mode: SteppingMode) -> (f64, f64) {
    const SIM_SPAN_S: f64 = 600.0;
    let mut sim = SimBuilder::new(platforms::snapdragon_810())
        .stepping(mode)
        .tick(Seconds::from_millis(100.0))
        .telemetry_period(Seconds::new(30.0))
        .governor(ComponentId::BigCluster, GovernorKind::Performance)
        .governor(ComponentId::LittleCluster, GovernorKind::Performance)
        .attach(
            Box::new(SteadyCompute::new("load", 2.0e9, 2.0)),
            ComponentId::BigCluster,
        )
        .build()
        .expect("valid sim");
    let start = clock::now();
    sim.run_for(Seconds::new(SIM_SPAN_S)).expect("run");
    let wall = clock::elapsed(start).as_secs_f64();
    (wall, SIM_SPAN_S / wall)
}

/// Runs every artifact in table order, then prints the wall-time
/// summaries.
fn all(runs: &mut Runs) -> Result {
    let mut timings = Vec::with_capacity(ARTIFACTS.len());
    let total = clock::now();
    for (name, regenerate) in ARTIFACTS {
        println!("\n=============== {name} ===============");
        let start = clock::now();
        regenerate(runs)?;
        timings.push((name, clock::elapsed(start).as_secs_f64()));
    }
    let total = clock::elapsed(total).as_secs_f64();
    println!("\n=============== wall time ===============");
    for (name, secs) in &timings {
        println!("{name:<16} {secs:>8.2} s  ({:>4.1}%)", secs / total * 100.0);
    }
    println!("{:<16} {total:>8.2} s", "total");

    println!("\n=============== per-engine wall time (600 simulated s) ===============");
    for (name, mode) in [
        ("fixed", SteppingMode::FixedDt),
        ("event", SteppingMode::EventDriven),
    ] {
        let (wall, throughput) = time_engine(mode);
        println!("{name:<16} {wall:>8.4} s  ({throughput:>10.0} sim-s/wall-s)");
    }
    Ok(())
}

fn usage() -> ! {
    let names = ARTIFACTS.map(|(name, _)| name).join(" ");
    eprintln!("usage: repro <artifact>|all\n\nartifacts: {names}\nall: every artifact in turn, then wall-time summaries");
    std::process::exit(2);
}

fn main() -> Result {
    let mut args = std::env::args().skip(1);
    let (Some(target), None) = (args.next(), args.next()) else {
        usage();
    };
    let mut runs = Runs::default();
    if target == "all" {
        return all(&mut runs);
    }
    match ARTIFACTS.iter().find(|(name, _)| *name == target) {
        Some((_, regenerate)) => regenerate(&mut runs),
        None => {
            eprintln!("repro: unknown artifact `{target}`");
            usage()
        }
    }
}
