//! Quickstart: simulate a game on a Nexus 6P-class phone, watch it heat
//! up, then enable the stock thermal governor and compare.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mobile_thermal::kernel::{StepWiseGovernor, TripPoint};
use mobile_thermal::sim::SimBuilder;
use mobile_thermal::soc::{platforms, ComponentId};
use mobile_thermal::units::{Celsius, Seconds};
use mobile_thermal::workloads::apps;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A platform model: the Snapdragon 810 as shipped in the Nexus 6P.
    let soc = platforms::snapdragon_810();
    println!("platform: {}", soc.name());
    for c in soc.components() {
        println!(
            "  {:<7} {:<12} {} cores, {}..{}",
            c.id().to_string(),
            c.name(),
            c.core_count(),
            c.opps().lowest().frequency(),
            c.opps().highest().frequency(),
        );
    }

    // 2. Run Paper.io for two simulated minutes without thermal limits.
    let mut free = SimBuilder::new(soc.clone())
        .attach(Box::new(apps::paper_io(42)), ComponentId::BigCluster)
        .initial_temperature(Celsius::new(35.0))
        .control_sensor("package")
        .build()?;
    free.run_for(Seconds::new(120.0))?;
    let fps_free = free
        .median_fps(free.pid_of("Paper.io").expect("attached"))
        .unwrap_or(0.0);
    println!(
        "\nwithout throttling: package {:.1}, median {fps_free:.0} FPS",
        free.temperature_of("package")?
    );

    // 3. Same game, stock step-wise thermal governor enabled.
    let governed = vec![
        (soc.component(ComponentId::Gpu)?.clone(), 3),
        (soc.component(ComponentId::BigCluster)?.clone(), 5),
    ];
    let mut throttled = SimBuilder::new(soc)
        .attach(Box::new(apps::paper_io(42)), ComponentId::BigCluster)
        .thermal_governor(Box::new(StepWiseGovernor::with_state_limits(
            vec![
                TripPoint::new(Celsius::new(41.0), Celsius::new(1.5)),
                TripPoint::new(Celsius::new(44.0), Celsius::new(1.5)),
            ],
            governed,
        )))
        .thermal_period(Seconds::new(1.0))
        .initial_temperature(Celsius::new(35.0))
        .control_sensor("package")
        .build()?;
    throttled.run_for(Seconds::new(120.0))?;
    let fps_thr = throttled
        .median_fps(throttled.pid_of("Paper.io").expect("attached"))
        .unwrap_or(0.0);
    println!(
        "with throttling:    package {:.1}, median {fps_thr:.0} FPS",
        throttled.temperature_of("package")?
    );

    // 4. The paper's observation in one line.
    println!(
        "\nthermal throttling kept the phone cooler but cost {:.0}% of the frame rate",
        (fps_free - fps_thr) / fps_free * 100.0
    );

    // 5. The control plane is sysfs files at their Linux paths.
    let khz: u64 = throttled
        .sysfs()
        .read_parsed("/sys/class/devfreq/gpu/scaling_max_freq")?;
    println!("gpu scaling_max_freq after the run: {khz} kHz");

    Ok(())
}
