//! Ablation studies on the design choices the paper fixes by fiat:
//! the one-second utilization window, the 100 ms governor period, the
//! migration mechanism, and the violation horizon — plus a validation of
//! the stability analysis's predictions against the simulated ground
//! truth.

use mpt_sim::{Result, SimBuilder, Simulator};
use mpt_soc::{platforms, ComponentId};
use mpt_thermal::RcNetwork;
use mpt_units::{Celsius, Kelvin, Seconds, Watts};
use mpt_workloads::benchmarks::{BasicMathLarge, BurstyCompute, ThreeDMark};

use crate::{AppAwareConfig, AppAwareGovernor, ThrottleAction};

/// Outcome of one window-length ablation run.
#[derive(Debug, Clone)]
pub struct WindowAblation {
    /// The accounting window used.
    pub window: Seconds,
    /// The process migrated first.
    pub first_victim: String,
    /// Whether that was the steady heavy task (the correct choice) and
    /// not the bursty decoy.
    pub victim_correct: bool,
}

/// The paper filters momentary peaks with a one-second window. This
/// ablation pits the steady `basicmath_large` (the true offender) against
/// a bursty decoy whose *instantaneous* power is higher during its short
/// bursts: a too-short window falls for the decoy.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn window_ablation(windows: &[Seconds]) -> Result<Vec<WindowAblation>> {
    crate::campaign::run_parallel(windows.len(), 0, |i| {
        let window = windows[i];
        let gov = AppAwareGovernor::new(AppAwareConfig::default());
        let stats = gov.stats();
        let mut sim = SimBuilder::new(platforms::exynos_5422())
            .accounting_window(window)
            .attach_realtime(
                Box::new(ThreeDMark::with_durations(
                    Seconds::new(60.0),
                    Seconds::new(60.0),
                )),
                ComponentId::BigCluster,
            )
            .attach(Box::new(BasicMathLarge::new()), ComponentId::BigCluster)
            .attach(
                Box::new(BurstyCompute::new(
                    "bursty-decoy",
                    Seconds::new(0.12),
                    Seconds::new(0.88),
                )),
                ComponentId::BigCluster,
            )
            .system_policy(Box::new(gov))
            .initial_temperature(Celsius::new(75.0))
            .build()?;
        sim.run_until(|_| stats.migrations() >= 1, Seconds::new(60.0))?;
        let bml = sim.pid_of("basicmath_large").expect("bml attached");
        let decoy = sim.pid_of("bursty-decoy").expect("decoy attached");
        let first_victim =
            if sim.scheduler().process(bml).expect("bml").cluster() == ComponentId::LittleCluster {
                "basicmath_large".to_owned()
            } else if sim.scheduler().process(decoy).expect("decoy").cluster()
                == ComponentId::LittleCluster
            {
                "bursty-decoy".to_owned()
            } else {
                "(none)".to_owned()
            };
        Ok(WindowAblation {
            window,
            victim_correct: first_victim == "basicmath_large",
            first_victim,
        })
    })
    .into_iter()
    .collect()
}

/// Outcome of one governor-period ablation run.
#[derive(Debug, Clone, Copy)]
pub struct PeriodAblation {
    /// The invocation period used.
    pub period: Seconds,
    /// When the first migration happened.
    pub first_migration: Option<Seconds>,
    /// The peak temperature over the run.
    pub peak: Celsius,
}

/// Sweeps the governor invocation period around the paper's 100 ms: a
/// slower governor reacts later and lets the system run hotter.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn period_ablation(periods: &[Seconds]) -> Result<Vec<PeriodAblation>> {
    crate::campaign::run_parallel(periods.len(), 0, |i| {
        let period = periods[i];
        let gov = AppAwareGovernor::new(AppAwareConfig {
            period,
            ..AppAwareConfig::default()
        });
        let stats = gov.stats();
        let mut sim = bml_scenario(Box::new(gov))?;
        let mut first_migration = None;
        while sim.time() < Seconds::new(120.0) {
            sim.step()?;
            if first_migration.is_none() && stats.migrations() >= 1 {
                first_migration = Some(sim.time());
            }
        }
        Ok(PeriodAblation {
            period,
            first_migration,
            peak: Celsius::new(sim.telemetry().max_temperature().max().unwrap_or(f64::NAN)),
        })
    })
    .into_iter()
    .collect()
}

/// Outcome of one throttling-mechanism ablation run.
#[derive(Debug, Clone, Copy)]
pub struct ActionAblation {
    /// The mechanism used.
    pub action: ThrottleAction,
    /// Foreground benchmark GT1 median FPS.
    pub gt1: f64,
    /// Background `basicmath_large` iterations completed.
    pub bml_iterations: f64,
    /// Peak temperature.
    pub peak: Celsius,
}

/// Compares the paper's migration against whole-cluster capping (what
/// stock governors do): capping also cools the system, but it hurts the
/// foreground app's CPU phase, while migration penalizes only the
/// offender.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn action_ablation() -> Result<Vec<ActionAblation>> {
    let actions = [
        ThrottleAction::MigrateToLittle,
        ThrottleAction::CapBigCluster,
    ];
    crate::campaign::run_parallel(actions.len(), 0, |i| {
        let action = actions[i];
        let gov = AppAwareGovernor::new(AppAwareConfig {
            action,
            ..AppAwareConfig::default()
        });
        let mut sim = bml_scenario(Box::new(gov))?;
        sim.run_for(Seconds::new(120.0))?;
        let gt = sim.pid_of("3DMark").expect("3dmark attached");
        let bml = sim.pid_of("basicmath_large").expect("bml attached");
        let bench = sim.workload_as::<ThreeDMark>(gt).expect("3dmark type");
        let bml_w = sim.workload_as::<BasicMathLarge>(bml).expect("bml type");
        Ok(ActionAblation {
            action,
            gt1: bench.gt1_fps().unwrap_or(0.0),
            bml_iterations: bml_w.iterations(),
            peak: Celsius::new(sim.telemetry().max_temperature().max().unwrap_or(f64::NAN)),
        })
    })
    .into_iter()
    .collect()
}

/// Outcome of one horizon ablation run.
#[derive(Debug, Clone, Copy)]
pub struct HorizonAblation {
    /// The user-defined horizon used.
    pub horizon: Seconds,
    /// When the first migration happened, if any.
    pub first_migration: Option<Seconds>,
    /// Peak temperature over the run.
    pub peak: Celsius,
}

/// Sweeps the "user-defined limit" on the predicted time-to-violation: a
/// longer horizon acts earlier (more conservative), a very short horizon
/// waits until the violation is imminent.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn horizon_ablation(horizons: &[Seconds]) -> Result<Vec<HorizonAblation>> {
    crate::campaign::run_parallel(horizons.len(), 0, |i| {
        let horizon = horizons[i];
        let gov = AppAwareGovernor::new(AppAwareConfig {
            horizon,
            ..AppAwareConfig::default()
        });
        let stats = gov.stats();
        let mut sim = bml_scenario(Box::new(gov))?;
        let mut first_migration = None;
        while sim.time() < Seconds::new(120.0) {
            sim.step()?;
            if first_migration.is_none() && stats.migrations() >= 1 {
                first_migration = Some(sim.time());
            }
        }
        Ok(HorizonAblation {
            horizon,
            first_migration,
            peak: Celsius::new(sim.telemetry().max_temperature().max().unwrap_or(f64::NAN)),
        })
    })
    .into_iter()
    .collect()
}

fn bml_scenario(policy: Box<dyn mpt_sim::SystemPolicy>) -> Result<Simulator> {
    SimBuilder::new(platforms::exynos_5422())
        .attach_realtime(
            Box::new(ThreeDMark::with_durations(
                Seconds::new(60.0),
                Seconds::new(60.0),
            )),
            ComponentId::BigCluster,
        )
        .attach(Box::new(BasicMathLarge::new()), ComponentId::BigCluster)
        .system_policy(policy)
        .initial_temperature(Celsius::new(50.0))
        .build()
}

/// One row of the prediction-accuracy validation.
#[derive(Debug, Clone, Copy)]
pub struct PredictionRow {
    /// Dynamic power injected at the big cluster.
    pub power: Watts,
    /// The fixed point predicted by the lumped stability analysis.
    pub predicted: Option<Celsius>,
    /// The hotspot temperature the full RC network converges to (with
    /// the same leakage law iterated to self-consistency).
    pub simulated: Option<Celsius>,
}

/// Validates the governor's analytical machinery against ground truth:
/// for each power level, compare the lumped model's stable fixed point
/// with the temperature the full thermal network actually converges to
/// when the same leakage feedback is applied.
///
/// # Errors
///
/// Propagates thermal-model errors.
pub fn prediction_accuracy(powers: &[Watts]) -> mpt_thermal::Result<Vec<PredictionRow>> {
    let soc = platforms::exynos_5422();
    let spec = soc.thermal_spec();
    let big_node = spec
        .node_for_component(ComponentId::BigCluster)
        .expect("big node");
    let big = soc.component(ComponentId::BigCluster).expect("big cluster");
    let leak = big.power_params().leakage();
    let v = big.opps().highest().voltage();
    // Only the big cluster is powered here, so its own α·V is the whole
    // leak gain, not the platform's `lumped_leakage` sum.
    let big_cluster_leak_gain = leak.alpha() * v.value();
    powers
        .iter()
        .map(|&p| {
            let net = RcNetwork::from_spec(spec)?;
            let mut node_powers = vec![Watts::ZERO; net.len()];
            node_powers[big_node] = p;
            let lumped = net.reduce(&node_powers, big_node, big_cluster_leak_gain, leak.beta())?;
            let predicted = lumped.steady_state_temperature(p).map(Kelvin::to_celsius);
            // Ground truth: integrate the network with leakage feedback
            // until it settles (or detect runaway).
            let mut net = net;
            let mut simulated = None;
            let mut prev = net.hottest().1;
            for _ in 0..20_000 {
                let hot = net.temperature(big_node);
                let mut inject = node_powers.clone();
                inject[big_node] += leak.power(v, hot);
                net.step(Seconds::new(0.5), &inject)?;
                let now = net.hottest().1;
                if now.to_celsius().value() > 250.0 {
                    break; // runaway
                }
                if (now.value() - prev.value()).abs() < 1e-7 {
                    simulated = Some(now.to_celsius());
                    break;
                }
                prev = now;
            }
            Ok(PredictionRow {
                power: p,
                predicted,
                simulated,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_second_window_picks_the_steady_offender() {
        let results = window_ablation(&[Seconds::from_millis(50.0), Seconds::new(1.0)]).unwrap();
        let short = &results[0];
        let paper = &results[1];
        assert!(
            paper.victim_correct,
            "the paper's 1 s window must pick BML, picked {:?}",
            paper.first_victim
        );
        // The short window is *allowed* to be fooled (that is the point
        // of the ablation); assert only that both migrated someone.
        assert_ne!(short.first_victim, "(none)");
    }

    #[test]
    fn slower_governor_reacts_later() {
        let results = period_ablation(&[Seconds::from_millis(100.0), Seconds::new(5.0)]).unwrap();
        let fast = results[0].first_migration.expect("fast governor migrates");
        let slow = results[1].first_migration.expect("slow governor migrates");
        assert!(
            slow >= fast,
            "a 5 s governor cannot react before a 100 ms one: {slow:?} vs {fast:?}"
        );
    }

    #[test]
    fn migration_beats_capping_for_the_foreground_app() {
        let results = action_ablation().unwrap();
        let migrate = &results[0];
        let cap = &results[1];
        assert_eq!(migrate.action, ThrottleAction::MigrateToLittle);
        // Migration keeps the foreground benchmark at least as fast as
        // whole-cluster capping does.
        assert!(
            migrate.gt1 >= cap.gt1 - 1.0,
            "migrate GT1 {} vs cap GT1 {}",
            migrate.gt1,
            cap.gt1
        );
        // Both mechanisms control the temperature below the 95 C limit
        // band (the capping variant stabilizes a few degrees warmer).
        assert!(migrate.peak.value() < 95.0, "migrate peak {}", migrate.peak);
        assert!(cap.peak.value() < 95.0, "cap peak {}", cap.peak);
        // Migration throttles the offender harder than the equilibrium
        // cluster cap does — the cap stops stepping down as soon as the
        // prediction clears the limit, leaving the offender on a big
        // core.
        assert!(migrate.bml_iterations < cap.bml_iterations);
    }

    #[test]
    fn prediction_matches_simulated_steady_state() {
        let rows =
            prediction_accuracy(&[Watts::new(1.0), Watts::new(2.0), Watts::new(3.0)]).unwrap();
        for row in rows {
            let p = row.predicted.expect("stable at low power");
            let s = row.simulated.expect("network settles");
            assert!(
                (p.value() - s.value()).abs() < 2.0,
                "at {}: predicted {p} vs simulated {s}",
                row.power
            );
        }
    }
}
