//! Soundness pins for the MPT6xx static reachability certifier: every
//! trajectory the simulator can actually produce — single devices on
//! both platforms and both stepping engines, and jittered fleet
//! populations — must lie inside the certified temperature envelope at
//! every base-tick sample. Plus the acceptance verdicts on
//! the shipped Nexus scenarios, byte-pinned campaign verification
//! goldens (regenerate with `MPT_UPDATE_GOLDENS=1`), the MPT604
//! limit-cycle trigger, and a release-mode speed pin for the campaign
//! pre-gate.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

use proptest::prelude::*;

use mpt_core::scenario::{
    build_scenario, CampaignSpec, EngineSpec, ScenarioSpec, ThermalPolicySpec,
};
use mpt_lint::verify::{
    verify_campaign, verify_cell, verify_scenario, Envelope, BASE_DT_S, DEFAULT_MARGIN_C,
};
use mpt_soc::{DeviceParams, FleetSpec, ThermalLti};
use mpt_thermal::{ExactLti, FleetState, ThermalSolver};
use mpt_units::{Celsius, Kelvin, Seconds};
use mpt_workloads::{FleetInputs, PowerTrace};

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

fn load_scenario(name: &str) -> ScenarioSpec {
    let json = std::fs::read_to_string(scenarios_dir().join(name)).expect("readable scenario");
    serde_json::from_str(&json).expect("scenario parses")
}

fn load_campaign(name: &str) -> CampaignSpec {
    let json = std::fs::read_to_string(scenarios_dir().join(name)).expect("readable campaign");
    serde_json::from_str(&json).expect("campaign parses")
}

/// The four shipped single-scenario specs: both platforms (Exynos 5422
/// and the Nexus MPT6xx models), throttled and unthrottled policies.
const SHIPPED_SCENARIOS: [&str; 4] = [
    "nexus_throttled_game.json",
    "nexus_unthrottled_game.json",
    "odroid_default_ipa.json",
    "odroid_proposed.json",
];

// ---------------------------------------------------------------------
// Acceptance verdicts
// ---------------------------------------------------------------------

#[test]
fn throttled_game_gets_a_possible_trip_warning() {
    let spec = load_scenario("nexus_throttled_game.json");
    let v = verify_scenario(&spec, "nexus_throttled_game.json").expect("verifies");
    assert_eq!(v.summary.verdict, "MPT602", "{}", v.report.render_text());
    assert!(
        v.summary.first_straddle_s.is_some(),
        "a straddle verdict names the first possible crossing"
    );
    assert!(
        v.summary.first_guaranteed_s.is_none(),
        "a trip is possible, not guaranteed"
    );
    assert_eq!(v.report.warnings(), 1);
    assert_eq!(v.report.errors(), 0);
}

#[test]
fn unthrottled_game_earns_a_no_trip_certificate() {
    let spec = load_scenario("nexus_unthrottled_game.json");
    let v = verify_scenario(&spec, "nexus_unthrottled_game.json").expect("verifies");
    assert_eq!(v.summary.verdict, "MPT601", "{}", v.report.render_text());
    assert_eq!(v.report.errors() + v.report.warnings(), 0);
    assert_eq!(v.report.infos(), 1);
    let budget = v.summary.sustained_budget_w.expect("budget resolves");
    assert!(budget > 0.0, "headroom exists below the sanity cap");
}

// ---------------------------------------------------------------------
// Single-device containment: both platforms, both engines
// ---------------------------------------------------------------------

/// Steps the simulator a spec describes to completion and asserts every
/// node temperature lies inside the certified envelope, widened by the
/// certificate margin, at every sample that lands on the base-tick grid.
/// Holding the rounding slop to the margin is what makes an MPT601
/// certificate imply that no simulated sample reaches the trip.
fn assert_contained(spec: &ScenarioSpec, label: &str) {
    let v = verify_scenario(spec, label).expect("verifies");
    let env = &v.envelope;
    assert!(
        env.truncated_at_s.is_none(),
        "{label}: shipped scenarios stay under the leakage cap"
    );
    let (mut sim, _) = build_scenario(spec).expect("builds");
    let n = env.nodes();
    assert_eq!(sim.network().temperatures().len(), n, "{label}: node count");
    let mut checked = 0usize;
    let check_sample = |sim: &mpt_sim::Simulator, sample: usize| {
        for node in 0..n {
            let t = sim.network().temperatures()[node].to_celsius().value();
            let lo = env.lower_c(sample, node);
            let hi = env.upper_c(sample, node);
            assert!(
                t >= lo - DEFAULT_MARGIN_C && t <= hi + DEFAULT_MARGIN_C,
                "{label}: node {} = {t:.4} C escapes [{lo:.4}, {hi:.4}] at sample {sample} \
                 (t = {:.2} s)",
                env.node_names[node],
                sample as f64 * BASE_DT_S
            );
        }
    };
    check_sample(&sim, 0);
    while sim.time().value() < spec.duration_s - 1e-9 {
        sim.step().expect("steps");
        let t_s = sim.time().value();
        let sample = (t_s / BASE_DT_S).round() as usize;
        if (t_s - sample as f64 * BASE_DT_S).abs() > 1e-6 || sample >= env.samples() {
            continue;
        }
        check_sample(&sim, sample);
        checked += 1;
    }
    assert!(checked >= 100, "{label}: only {checked} samples checked");
}

#[test]
fn simulated_trajectories_stay_inside_the_certified_envelope() {
    for name in SHIPPED_SCENARIOS {
        let mut spec = load_scenario(name);
        // Three simulated seconds pin the transient (heat-up) regime the
        // envelope must bracket; the long-run steady state is strictly
        // easier and covered by the acceptance verdicts above.
        spec.duration_s = spec.duration_s.min(3.0);
        for engine in [EngineSpec::Fixed, EngineSpec::Event] {
            spec.engine = engine;
            assert_contained(&spec, &format!("{name}[{engine:?}]"));
        }
    }
}

// ---------------------------------------------------------------------
// Fleet containment: the widened envelope vs jittered replay
// ---------------------------------------------------------------------

struct FleetFixture {
    lti: ThermalLti,
    trace: PowerTrace,
    fleet: FleetSpec,
    env: Envelope,
    initial_temperature_c: Option<f64>,
}

/// Captures the canonical power trace and the fleet-widened envelope for
/// the shipped launch campaign's base cell, once, shared across proptest
/// cases (the draw under test is the device jitter, not the trace).
fn fleet_fixture() -> &'static FleetFixture {
    static FIXTURE: OnceLock<FleetFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut spec = load_campaign("nexus_fleet_launch.campaign.json");
        spec.base.duration_s = 2.0;
        let fleet = spec.fleet.clone().expect("launch campaign has a fleet");
        // The fleet runner forces fixed-dt stepping for the canonical
        // run so the trace sits on the uniform base grid; mirror it.
        let mut canonical = spec.base.clone();
        canonical.engine = EngineSpec::Fixed;
        let (mut sim, _) = build_scenario(&canonical).expect("builds");
        sim.enable_power_trace();
        sim.run_for(Seconds::new(canonical.duration_s))
            .expect("runs");
        let trace = sim.take_power_trace().expect("trace captured");
        let v = verify_cell(&spec.base, Some(&fleet), "fleet-fixture").expect("verifies");
        let lti = spec
            .base
            .platform
            .build()
            .thermal_spec()
            .lti()
            .expect("fleet platform has an LTI form");
        FleetFixture {
            lti,
            trace,
            fleet,
            env: v.envelope,
            initial_temperature_c: spec.base.initial_temperature_c,
        }
    })
}

/// Replays `devices` jittered devices one tick at a time through
/// `fill_tick` and `step_batch` and asserts every node of every device
/// sits inside the widened envelope at every tick. `replay_fleet` runs
/// the same strip kernel over the same inputs in chunks of ticks, and
/// its per-device temperatures have these bits (the kernel's bit-identity
/// argument), but it keeps only each device's hottest node.
fn assert_fleet_contained(seed: u64, devices: usize) -> Result<(), String> {
    let fx = fleet_fixture();
    let nodes = fx.lti.len();
    let params: Vec<DeviceParams> = (0..devices)
        .map(|d| fx.fleet.device_params(seed, d))
        .collect();
    let mut state = FleetState::new(nodes, devices, fx.lti.ambient, fx.lti.ambient);
    for (d, p) in params.iter().enumerate() {
        let ambient = Kelvin::new(fx.lti.ambient.value() + p.ambient_offset_c);
        state.set_ambient(d, ambient);
        let initial = fx
            .initial_temperature_c
            .map_or(ambient, |t0| Celsius::new(t0).to_kelvin());
        for node in 0..nodes {
            state.set_temp(node, d, initial);
        }
    }
    for node in 0..nodes {
        let lo = fx.env.lower_c(0, node);
        let hi = fx.env.upper_c(0, node);
        for d in 0..devices {
            let t = state.temp(node, d).to_celsius().value();
            prop_assert!(
                t >= lo - 1e-9 && t <= hi + 1e-9,
                "seed {seed} device {d} node {node}: initial {t} outside [{lo}, {hi}]"
            );
        }
    }
    let inputs = FleetInputs::new(fx.trace.clone(), &params);
    let mut solver = ExactLti::new();
    let dt = Seconds::new(fx.trace.dt_s());
    let ticks = fx.trace.ticks().min(fx.env.samples().saturating_sub(1));
    prop_assert!(ticks >= 100, "the replay covers a real transient");
    for tick in 0..ticks {
        inputs.fill_tick(tick, state.power_raw_mut());
        solver
            .step_batch(&fx.lti, &mut state, dt)
            .expect("batch step");
        let sample = tick + 1;
        for node in 0..nodes {
            let lo = fx.env.lower_c(sample, node);
            let hi = fx.env.upper_c(sample, node);
            for (d, p) in params.iter().enumerate().take(devices) {
                let t = state.temp(node, d).to_celsius().value();
                prop_assert!(
                    t >= lo - 1e-6 && t <= hi + 1e-6,
                    "seed {seed} device {d} node {} = {t:.4} C escapes [{lo:.4}, {hi:.4}] \
                     at t = {:.2} s (leak {:.3}, mix {:.3}, phase {:.3}, amb {:+.2})",
                    fx.env.node_names[node],
                    sample as f64 * BASE_DT_S,
                    p.leakage_scale,
                    p.workload_mix,
                    p.phase_offset_s,
                    p.ambient_offset_c
                );
            }
        }
    }
    Ok(())
}

proptest! {
    // 12 cases x 10 devices = 120 independent jitter draws, every one
    // checked at every node and every base-tick sample.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fleet_replays_stay_inside_the_widened_envelope(seed in 0u64..u64::MAX) {
        assert_fleet_contained(seed, 10)?;
    }
}

// ---------------------------------------------------------------------
// Campaign verification goldens
// ---------------------------------------------------------------------

fn check_verify_golden(name: &str) {
    let spec = load_campaign(name);
    let (report, cells) = verify_campaign(&spec, name).expect("campaign verifies");
    let mut artifact = report.render_text();
    artifact.push('\n');
    artifact.push_str(&serde_json::to_string_pretty(&cells).expect("serializes"));
    artifact.push('\n');
    let golden_path = goldens_dir().join(format!(
        "{}.verify.txt",
        name.trim_end_matches(".campaign.json")
    ));
    if std::env::var_os("MPT_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(goldens_dir()).expect("goldens dir");
        std::fs::write(&golden_path, &artifact).expect("golden written");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} — run with MPT_UPDATE_GOLDENS=1 to (re)generate",
            golden_path.display()
        )
    });
    assert_eq!(
        artifact,
        golden,
        "{name}: verification drifted from {}",
        golden_path.display()
    );
}

#[test]
fn nexus_trip_sweep_verification_matches_golden() {
    check_verify_golden("nexus_trip_sweep.campaign.json");
}

#[test]
fn odroid_policy_sweep_verification_matches_golden() {
    check_verify_golden("odroid_policy_sweep.campaign.json");
}

// ---------------------------------------------------------------------
// MPT604: a trip inside the cooling ladder provably limit-cycles
// ---------------------------------------------------------------------

#[test]
fn a_trip_between_cooling_levels_flags_a_limit_cycle() {
    let mut spec = load_scenario("nexus_throttled_game.json");
    // MPT604 is a steady-state property; the envelope length is noise.
    spec.duration_s = 0.5;
    let mut hit = None;
    let mut trip = 30.0;
    while trip <= 120.0 {
        spec.thermal = ThermalPolicySpec::StepWise {
            trips_c: vec![trip],
            period_s: 1.0,
        };
        let v = verify_scenario(&spec, "trip-sweep").expect("verifies");
        if v.summary.limit_cycle {
            assert!(
                v.report.render_text().contains("MPT604"),
                "the summary flag and the diagnostic agree"
            );
            hit = Some(trip);
            break;
        }
        trip += 0.25;
    }
    assert!(
        hit.is_some(),
        "some trip inside the cooling ladder's steady-state gaps must cycle"
    );
    // And the shipped trip (41 C, below every level's steady state) must
    // NOT be flagged: the governor saturates instead of oscillating.
    let shipped = load_scenario("nexus_throttled_game.json");
    let v = verify_scenario(&shipped, "shipped").expect("verifies");
    assert!(!v.summary.limit_cycle, "{}", v.report.render_text());
}

// ---------------------------------------------------------------------
// Speed: the campaign pre-gate must stay interactive
// ---------------------------------------------------------------------

#[test]
fn full_campaign_verification_is_fast() {
    let campaigns = [
        "nexus_trip_sweep.campaign.json",
        "odroid_policy_sweep.campaign.json",
        "nexus_fleet_launch.campaign.json",
    ];
    let start = Instant::now();
    let mut cells_total = 0;
    for name in campaigns {
        let spec = load_campaign(name);
        let (_, cells) = verify_campaign(&spec, name).expect("campaign verifies");
        cells_total += cells.len();
    }
    let elapsed = start.elapsed();
    assert!(cells_total >= 30, "the sweep covered all shipped cells");
    // The acceptance bound (< 1 s on one core) only holds for optimized
    // builds; debug builds just exercise the path.
    if !cfg!(debug_assertions) {
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "verifying every shipped campaign took {elapsed:?}"
        );
    }
}
