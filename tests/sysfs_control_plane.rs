//! Integration tests of the sysfs control plane: the simulator is driven
//! exactly like a real embedded platform — by reading and writing small
//! text attributes at Linux paths.

use mobile_thermal::kernel::{paths, ProcessClass};
use mobile_thermal::sim::{SimBuilder, Simulator, SteppingMode};
use mobile_thermal::soc::{platforms, ComponentId};
use mobile_thermal::sysfs::SysFsError;
use mobile_thermal::units::{Hertz, Seconds};
use mobile_thermal::workloads::apps;
use mobile_thermal::workloads::benchmarks::BasicMathLarge;
use mpt_obs::Counter;

const ENGINES: [SteppingMode; 2] = [SteppingMode::FixedDt, SteppingMode::EventDriven];

fn game_sim_with(mode: SteppingMode) -> Simulator {
    SimBuilder::new(platforms::snapdragon_810())
        .attach(
            Box::new(apps::paper_io(1)),
            ProcessClass::Foreground,
            ComponentId::BigCluster,
        )
        .stepping(mode)
        .build()
        .expect("valid sim")
}

fn game_sim() -> Simulator {
    game_sim_with(SteppingMode::FixedDt)
}

#[test]
fn cpufreq_layout_matches_linux() {
    let sim = game_sim();
    let fs = sim.sysfs();
    // Policy directories at the kernel's conventional CPU numbers.
    assert!(fs.exists("/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq"));
    assert!(fs.exists("/sys/devices/system/cpu/cpu4/cpufreq/scaling_max_freq"));
    assert!(fs.exists("/sys/class/devfreq/gpu/scaling_governor"));
    // Available frequencies are advertised in kHz.
    let freqs = fs
        .read(&paths::available_frequencies(ComponentId::Gpu))
        .expect("attribute exists");
    assert_eq!(freqs, "180000 305000 390000 450000 510000 600000");
}

#[test]
fn thermal_zones_report_millidegrees() {
    for mode in ENGINES {
        let mut sim = game_sim_with(mode);
        sim.run_for(Seconds::new(5.0)).expect("run");
        let fs = sim.sysfs();
        let zone_type = fs.read(&paths::thermal_zone_type(0)).expect("zone 0");
        assert_eq!(zone_type, "package");
        let mc: i64 = fs.read_parsed(&paths::thermal_zone_temp(0)).expect("temp");
        // The phone started at ambient and has been gaming for 5 s: the
        // package reads a plausible 25–60 C in millidegrees...
        assert!(
            (25_000..60_000).contains(&mc),
            "{mode}: package reads {mc} m°C"
        );
        // ...and exactly the simulator's own zone temperature.
        for (zone, sensor) in sim.platform().temperature_sensors().iter().enumerate() {
            let c = sim.temperature_of(sensor.thermal_node()).expect("node");
            let mc: i64 = fs
                .read_parsed(&paths::thermal_zone_temp(zone))
                .expect("temp");
            assert_eq!(
                mc,
                (c.value() * 1000.0).round() as i64,
                "{mode}: zone {zone}"
            );
        }
    }
}

#[test]
fn userspace_written_caps_govern_the_hardware() {
    let mut sim = game_sim();
    sim.run_for(Seconds::new(5.0)).expect("warmup");
    assert!(sim.current_frequency(ComponentId::Gpu).expect("gpu") > Hertz::from_mhz(450));
    // A userspace daemon writes a cap, exactly as `thermal-engine` would.
    sim.sysfs()
        .write(&paths::max_freq(ComponentId::Gpu), "305000")
        .expect("writable");
    sim.run_for(Seconds::new(2.0)).expect("run");
    assert!(
        sim.current_frequency(ComponentId::Gpu).expect("gpu") <= Hertz::from_mhz(305),
        "the sysfs cap must bind"
    );
    // Clearing the cap restores full speed.
    sim.sysfs()
        .write(&paths::max_freq(ComponentId::Gpu), "600000")
        .expect("writable");
    sim.run_for(Seconds::new(2.0)).expect("run");
    assert!(sim.current_frequency(ComponentId::Gpu).expect("gpu") > Hertz::from_mhz(450));
}

#[test]
fn current_frequency_is_mirrored_every_tick() {
    for mode in ENGINES {
        let mut sim = game_sim_with(mode);
        sim.run_for(Seconds::new(5.0)).expect("run");
        for id in ComponentId::ALL {
            let khz: u64 = sim
                .sysfs()
                .read_parsed(&paths::cur_freq(id))
                .expect("cur_freq");
            assert_eq!(
                Some(Hertz::from_khz(khz)),
                sim.current_frequency(id),
                "{mode}: {id}"
            );
        }
    }
}

#[test]
fn live_files_cost_no_sysfs_writes() {
    // With thermal management off nothing writes a cap, so a run that
    // keeps every live file current makes no sysfs writes at all.
    let mut sim = game_sim();
    sim.run_for(Seconds::new(5.0)).expect("run");
    assert_eq!(sim.recorder().counter(Counter::SysfsWrites), 0);
}

#[test]
fn odroid_exposes_ina231_rails_in_microwatts() {
    for mode in ENGINES {
        let mut sim = SimBuilder::new(platforms::exynos_5422())
            .attach(
                Box::new(BasicMathLarge::new()),
                ProcessClass::Background,
                ComponentId::BigCluster,
            )
            .stepping(mode)
            .build()
            .expect("valid sim");
        sim.run_for(Seconds::new(5.0)).expect("run");
        let uw: i64 = sim
            .sysfs()
            .read_parsed(&paths::power_rail_uw("vdd_arm"))
            .expect("rail");
        // One busy A15 core: hundreds of mW to a few W, in microwatts...
        assert!(
            (100_000..5_000_000).contains(&uw),
            "{mode}: vdd_arm reads {uw} uW"
        );
        // ...and exactly the simulator's own last-pass rail power.
        for rail in sim.platform().power_rails() {
            let w = sim.last_powers()[rail.component() as usize]
                .unwrap()
                .total()
                .value();
            let uw: i64 = sim
                .sysfs()
                .read_parsed(&paths::power_rail_uw(rail.name()))
                .expect("rail");
            assert_eq!(uw, (w * 1e6).round() as i64, "{mode}: {}", rail.name());
        }
    }
    // The Nexus phone, by contrast, has no rails (the paper needed an
    // external DAQ).
    let nexus = game_sim();
    assert!(!nexus.sysfs().exists(&paths::power_rail_uw("vdd_arm")));
}

#[test]
fn invalid_writes_are_rejected_not_applied() {
    let mut sim = game_sim();
    let max = paths::max_freq(ComponentId::Gpu);
    let before = sim.sysfs().read(&max).expect("readable");
    // Like Linux answering EINVAL: a garbage or out-of-range cap is
    // refused, the old cap stays, and the simulator keeps running.
    for value in ["fast please", "18446744073709551615"] {
        let err = sim
            .sysfs()
            .write(&max, value)
            .expect_err("an invalid cap must be rejected");
        assert!(matches!(err, SysFsError::InvalidValue { .. }), "{err}");
        assert_eq!(sim.sysfs().read(&max).expect("readable"), before);
    }
    sim.run_for(Seconds::new(1.0))
        .expect("a rejected write leaves the run healthy");
    // Files whose writes nothing would apply refuse them (EACCES)
    // instead of accepting and ignoring them.
    for (path, value) in [
        (paths::available_frequencies(ComponentId::Gpu), "1"),
        (paths::min_freq(ComponentId::Gpu), "600000"),
        (paths::governor(ComponentId::Gpu), "warp-speed"),
    ] {
        let before = sim.sysfs().read(&path).expect("readable");
        let err = sim
            .sysfs()
            .write(&path, value)
            .expect_err("a read-only file must refuse writes");
        assert!(matches!(err, SysFsError::ReadOnly { .. }), "{err}");
        assert_eq!(sim.sysfs().read(&path).expect("readable"), before);
    }
    assert_eq!(
        sim.sysfs()
            .read(&paths::governor(ComponentId::Gpu))
            .expect("readable"),
        "ondemand"
    );
}

#[test]
fn cpuset_files_move_processes_between_clusters() {
    let mut sim = SimBuilder::new(platforms::exynos_5422())
        .attach(
            Box::new(BasicMathLarge::new()),
            ProcessClass::Background,
            ComponentId::BigCluster,
        )
        .build()
        .expect("valid sim");
    let pid = sim.pid_of("basicmath_large").expect("attached");
    let path = paths::cpuset_cluster(pid.value());
    // The placement file reflects the live cluster.
    assert_eq!(sim.sysfs().read(&path).expect("readable"), "big");
    // A userspace daemon writes the cpuset; the move applies next tick.
    sim.sysfs().write(&path, "little").expect("writable");
    sim.run_for(Seconds::new(0.1)).expect("run");
    assert_eq!(
        sim.scheduler().process(pid).expect("process").cluster(),
        ComponentId::LittleCluster
    );
    assert_eq!(sim.sysfs().read(&path).expect("readable"), "little");
}

#[test]
fn cpuset_rejects_unknown_clusters() {
    let sim = SimBuilder::new(platforms::exynos_5422())
        .attach(
            Box::new(BasicMathLarge::new()),
            ProcessClass::Background,
            ComponentId::BigCluster,
        )
        .build()
        .expect("valid sim");
    let pid = sim.pid_of("basicmath_large").expect("attached");
    let err = sim
        .sysfs()
        .write(&paths::cpuset_cluster(pid.value()), "gpu")
        .expect_err("gpu is not a cpu cluster");
    assert!(err.to_string().contains("unknown cluster"));
}
