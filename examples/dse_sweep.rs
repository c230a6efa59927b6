//! Parallel design-space exploration over the thermal-policy knobs.
//!
//! The paper belongs to the DATE 2019 special session on "Smart Resource
//! Management and Design Space Exploration for Heterogeneous Processors";
//! this example shows the exploration workflow the library enables: a
//! [`CampaignSpec`] sweeps IPA's sustainable power over the 3DMark+BML
//! scenario, the campaign layer fans the cells out across worker threads
//! (cell seeds are fixed at expansion time, so the frontier is identical
//! at any worker count), and the frontier is compared against the single
//! point the application-aware governor achieves.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example dse_sweep
//! ```

use std::time::Instant;

use mobile_thermal::core::campaign::run_parallel;
use mobile_thermal::core::scenario::{
    build_scenario, AppAwareSpec, CampaignSpec, PlatformSpec, ScenarioSpec, SweepAxes,
    ThermalPolicySpec, WorkloadKind, WorkloadSpec,
};
use mobile_thermal::units::Seconds;
use mobile_thermal::workloads::benchmarks::ThreeDMark;

/// Runs a spec and extracts (GT1, GT2, peak C, avg W).
fn run(spec: &ScenarioSpec) -> Result<(f64, f64, f64, f64), Box<dyn std::error::Error>> {
    let (mut sim, _stats) = build_scenario(spec)?;
    sim.run_for(Seconds::new(spec.duration_s))?;
    let pid = sim.pid_of("3DMark").expect("attached");
    let bench = sim.workload_as::<ThreeDMark>(pid).expect("type");
    Ok((
        bench.gt1_fps().unwrap_or(0.0),
        bench.gt2_fps().unwrap_or(0.0),
        sim.telemetry().max_temperature().max().unwrap_or(f64::NAN),
        sim.telemetry().average_total_power().value(),
    ))
}

fn base_workloads() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            kind: WorkloadKind::ThreeDMark {
                test_duration_s: 60.0,
            },
            cluster: Default::default(),
            foreground: true,
            realtime: true,
            seed: 1,
        },
        WorkloadSpec {
            kind: WorkloadKind::BasicMath,
            cluster: Default::default(),
            foreground: false,
            realtime: false,
            seed: 1,
        },
    ]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("3DMark + BML on the Odroid-XU3, 120 s, board pre-warmed to 50 C\n");

    // The baseline frontier as a campaign: IPA at different
    // sustainable-power settings, expanded up front, executed in
    // parallel.
    let campaign = CampaignSpec {
        base: ScenarioSpec {
            platform: PlatformSpec::Exynos5422,
            duration_s: 120.0,
            initial_temperature_c: Some(50.0),
            thermal: ThermalPolicySpec::Disabled,
            app_aware: None,
            alerts: Vec::new(),
            queries: Vec::new(),
            engine: Default::default(),
            control_sensor: None,
            workloads: base_workloads(),
        },
        sweep: SweepAxes {
            thermal: [2.0, 2.6, 3.2, 3.8]
                .iter()
                .map(|&sustainable_w| ThermalPolicySpec::Ipa {
                    control_c: 95.0,
                    sustainable_w,
                    gpu_weight: 1.2,
                })
                .collect(),
            ..SweepAxes::default()
        },
        queries: Vec::new(),
        seed: 0,
        fleet: None,
    };
    let cells = campaign.expand()?;
    let start = Instant::now();
    // The GT1/GT2 split needs the concrete benchmark object, so this uses
    // the campaign layer's `run_parallel` escape hatch instead of
    // `run_campaign` (which summarizes to `ScenarioOutcome`).
    let frontier = run_parallel(cells.len(), 0, |i| run(&cells[i].scenario).ok());
    let frontier_elapsed = start.elapsed().as_secs_f64();
    println!(
        "{:<34} {:>8} {:>8} {:>12} {:>12}",
        "policy", "GT1", "GT2", "peak temp", "avg power"
    );
    println!("{}", "-".repeat(78));
    for (cell, result) in cells.iter().zip(&frontier) {
        let (gt1, gt2, peak, power) = result.expect("cell runs");
        println!(
            "{:<34} {:>8.0} {:>8.0} {:>11.1}C {:>11.2}W",
            cell.label, gt1, gt2, peak, power,
        );
    }

    // The proposed governor: one point that dominates the frontier for
    // the foreground app (it pays with background-app throughput, which
    // IPA's whole-system caps preserve better).
    let spec = ScenarioSpec {
        platform: PlatformSpec::Exynos5422,
        duration_s: 120.0,
        initial_temperature_c: Some(50.0),
        thermal: ThermalPolicySpec::Disabled,
        app_aware: Some(AppAwareSpec {
            limit_c: 95.0,
            horizon_s: 60.0,
            cap_instead_of_migrate: false,
        }),
        alerts: Vec::new(),
        queries: Vec::new(),
        engine: Default::default(),
        control_sensor: None,
        workloads: base_workloads(),
    };
    let (gt1, gt2, peak, power) = run(&spec)?;
    println!(
        "{:<34} {:>8.0} {:>8.0} {:>11.1}C {:>11.2}W   <- proposed",
        "app-aware migration, limit 95 C", gt1, gt2, peak, power,
    );
    println!(
        "\n({} frontier cells in {:.2} s wall clock, one worker per CPU)",
        cells.len(),
        frontier_elapsed,
    );
    println!(
        "(the proposed governor sits off the IPA frontier: foreground FPS of the most\n permissive IPA setting at the peak temperature of a much stricter one)"
    );
    Ok(())
}
