//! The application-aware thermal governor (paper Section IV-B).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mpt_sim::{SystemPolicy, SystemView};
use mpt_soc::ComponentId;
use mpt_thermal::Stability;
use mpt_units::{Celsius, Kelvin, Seconds, Watts};

/// What the governor does to the most power-hungry process when a
/// violation is imminent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThrottleAction {
    /// Migrate it to the little cluster (the paper's mechanism).
    #[default]
    MigrateToLittle,
    /// Cap the whole big cluster one OPP lower instead (ablation: this is
    /// closer to what stock governors do and hurts every process on the
    /// cluster).
    CapBigCluster,
}

/// Configuration of [`AppAwareGovernor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppAwareConfig {
    /// The thermal limit the governor defends (the Odroid experiments use
    /// 95 °C, the usual Exynos trip level).
    pub thermal_limit: Celsius,
    /// The user-defined horizon: act when the predicted time to reach the
    /// limit drops below this.
    pub horizon: Seconds,
    /// Governor invocation period (the paper: every 100 ms).
    pub period: Seconds,
    /// Throttling mechanism.
    pub action: ThrottleAction,
    /// If set, a previously migrated process may be restored to the big
    /// cluster once the predicted steady state falls this far below the
    /// limit (an extension beyond the paper, off by default).
    pub restore_margin: Option<Celsius>,
}

impl Default for AppAwareConfig {
    fn default() -> Self {
        Self {
            thermal_limit: Celsius::new(95.0),
            horizon: Seconds::new(60.0),
            period: Seconds::from_millis(100.0),
            action: ThrottleAction::MigrateToLittle,
            restore_margin: None,
        }
    }
}

/// Shared counters exposing what the governor did — readable while the
/// simulator owns the governor.
#[derive(Debug, Default)]
pub struct GovernorStats {
    evaluations: AtomicU64,
    activations: AtomicU64,
    deferrals: AtomicU64,
    migrations: AtomicU64,
    last_prediction_mc: Mutex<Option<i64>>,
}

impl GovernorStats {
    /// How many times the governor ran.
    #[must_use]
    pub fn evaluations(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed)
    }

    /// How many times an imminent violation was detected.
    #[must_use]
    pub fn activations(&self) -> u64 {
        self.activations.load(Ordering::Relaxed)
    }

    /// How many evaluations predicted the limit would be crossed, but not
    /// within the horizon, so the governor held back.
    #[must_use]
    pub fn deferrals(&self) -> u64 {
        self.deferrals.load(Ordering::Relaxed)
    }

    /// How many processes were migrated to the little cluster.
    #[must_use]
    pub fn migrations(&self) -> u64 {
        self.migrations.load(Ordering::Relaxed)
    }

    /// The most recent predicted stable fixed-point temperature, or
    /// `None` if the last evaluation predicted thermal runaway.
    #[must_use]
    pub fn last_prediction(&self) -> Option<Celsius> {
        self.last_prediction_mc
            .lock()
            .expect("stats mutex is never poisoned")
            .map(|mc| Celsius::new(mc as f64 / 1000.0))
    }

    fn set_prediction(&self, p: Option<Kelvin>) {
        *self
            .last_prediction_mc
            .lock()
            .expect("stats mutex is never poisoned") =
            p.map(|k| (k.to_celsius().value() * 1000.0) as i64);
    }
}

/// The paper's application-aware thermal governor.
///
/// See the [crate docs](crate) for the algorithm. Construct, grab a
/// [`stats`](Self::stats) handle, and install into a simulator with
/// [`SimBuilder::system_policy`](mpt_sim::SimBuilder::system_policy).
#[derive(Debug)]
pub struct AppAwareGovernor {
    config: AppAwareConfig,
    stats: Arc<GovernorStats>,
    /// Consecutive calm evaluations (for the restore extension).
    calm_streak: u32,
}

impl AppAwareGovernor {
    /// Creates the governor.
    ///
    /// # Panics
    ///
    /// Panics if the period or horizon is not positive.
    #[must_use]
    pub fn new(config: AppAwareConfig) -> Self {
        assert!(config.period.value() > 0.0, "period must be positive");
        assert!(config.horizon.value() > 0.0, "horizon must be positive");
        Self {
            config,
            stats: Arc::new(GovernorStats::default()),
            calm_streak: 0,
        }
    }

    /// The configuration.
    #[must_use]
    pub const fn config(&self) -> &AppAwareConfig {
        &self.config
    }

    /// A shared handle to the governor's counters.
    #[must_use]
    pub fn stats(&self) -> Arc<GovernorStats> {
        Arc::clone(&self.stats)
    }

    fn act(&mut self, view: &mut SystemView<'_>) {
        match self.config.action {
            ThrottleAction::MigrateToLittle => {
                // Exclude processes already on the little cluster (they
                // are already throttled) and real-time registrants; only
                // rank processes whose one-second window is warm —
                // judging from a cold window is exactly the momentary-
                // peak mistake the window exists to prevent.
                let victim = view
                    .scheduler
                    .most_power_hungry(Some(ComponentId::LittleCluster))
                    .filter(|p| p.window_is_warm())
                    .map(|p| p.pid());
                if let Some(pid) = victim {
                    if view
                        .scheduler
                        .migrate(pid, ComponentId::LittleCluster)
                        .is_ok()
                    {
                        self.stats.migrations.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            ThrottleAction::CapBigCluster => {
                if let Some(policy) = view.policies.get(&ComponentId::BigCluster) {
                    let current_cap = policy
                        .max_cap()
                        .unwrap_or_else(|| policy.opps().highest().frequency());
                    if let Some(lower) = policy.opps().step_down(current_cap) {
                        // Caps go through the sysfs control plane, like
                        // any userspace thermal daemon's would.
                        let path = mpt_kernel::paths::max_freq(ComponentId::BigCluster);
                        if view.sysfs.write(&path, &lower.as_khz().to_string()).is_ok() {
                            self.stats.migrations.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
    }

    fn restore(&mut self, view: &mut SystemView<'_>) {
        match self.config.action {
            ThrottleAction::MigrateToLittle => {
                // Bring back the least power-hungry banished process.
                let candidate = view
                    .scheduler
                    .on_cluster(ComponentId::LittleCluster)
                    .filter(|p| p.migration_count() > 0)
                    .map(|p| p.pid())
                    .next();
                if let Some(pid) = candidate {
                    let _ = view.scheduler.migrate(pid, ComponentId::BigCluster);
                }
            }
            ThrottleAction::CapBigCluster => {
                if let Some(policy) = view.policies.get(&ComponentId::BigCluster) {
                    if let Some(cap) = policy.max_cap() {
                        let next = policy
                            .opps()
                            .step_up(cap)
                            .unwrap_or_else(|| policy.opps().highest().frequency());
                        let path = mpt_kernel::paths::max_freq(ComponentId::BigCluster);
                        let _ = view.sysfs.write(&path, &next.as_khz().to_string());
                    }
                }
            }
        }
    }
}

impl SystemPolicy for AppAwareGovernor {
    fn name(&self) -> &'static str {
        "app_aware"
    }

    fn period(&self) -> Seconds {
        self.config.period
    }

    fn update(&mut self, mut view: SystemView<'_>) {
        self.stats.evaluations.fetch_add(1, Ordering::Relaxed);

        // Dynamic + static power drives the fixed-point function; leakage
        // enters through the lumped model itself.
        let p_dyn: Watts = (view.powers.iter().flatten())
            .map(|b| b.dynamic + b.static_floor)
            .sum();
        // The lumped leak gain is taken at the current operating points.
        let (leak_gain, beta) = view.platform.lumped_leakage(|component| {
            view.policies.get(&component.id()).map_or_else(
                || component.opps().highest().voltage(),
                |p| component.opps().at_or_below(p.current()).voltage(),
            )
        });

        // Reduce the live network to the lumped model seen from the
        // hottest node.
        let (hot_node, hot_temp) = view.network.hottest();
        let Ok(lumped) = view
            .network
            .reduce(view.node_powers, hot_node, leak_gain, beta)
        else {
            return;
        };

        let stability = lumped.stability(p_dyn);
        let predicted = stability.steady_state();
        self.stats.set_prediction(predicted);

        let limit: Kelvin = self.config.thermal_limit.to_kelvin();
        let violation_ahead = match stability {
            Stability::Runaway => true,
            Stability::Stable(_) | Stability::CriticallyStable { .. } => {
                predicted.is_some_and(|t| t > limit)
            }
        };

        if violation_ahead {
            self.calm_streak = 0;
            // Imminent only if the limit is reached within the horizon.
            let eta = lumped.time_to_reach(hot_temp, limit, p_dyn, &stability, self.config.horizon);
            if eta.is_some() {
                self.stats.activations.fetch_add(1, Ordering::Relaxed);
                self.act(&mut view);
            } else {
                self.stats.deferrals.fetch_add(1, Ordering::Relaxed);
            }
        } else if let Some(margin) = self.config.restore_margin {
            let calm =
                predicted.is_some_and(|t| t.to_celsius() < self.config.thermal_limit - margin);
            if calm {
                self.calm_streak += 1;
                // Require a sustained calm spell (10 periods = 1 s by
                // default) so restore/migrate does not oscillate.
                if self.calm_streak >= 10 {
                    self.calm_streak = 0;
                    self.restore(&mut view);
                }
            } else {
                self.calm_streak = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpt_sim::SimBuilder;
    use mpt_soc::platforms;
    use mpt_units::Seconds;
    use mpt_workloads::benchmarks::{BasicMathLarge, ThreeDMark};

    #[test]
    fn config_defaults_match_the_paper() {
        let c = AppAwareConfig::default();
        assert_eq!(c.period, Seconds::from_millis(100.0));
        assert_eq!(c.thermal_limit, Celsius::new(95.0));
        assert_eq!(c.action, ThrottleAction::MigrateToLittle);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_is_a_bug() {
        let _ = AppAwareGovernor::new(AppAwareConfig {
            period: Seconds::ZERO,
            ..AppAwareConfig::default()
        });
    }

    #[test]
    fn governor_migrates_bml_under_thermal_pressure() {
        let gov = AppAwareGovernor::new(AppAwareConfig::default());
        let stats = gov.stats();
        let mut sim = SimBuilder::new(platforms::exynos_5422())
            .attach_realtime(
                Box::new(ThreeDMark::with_durations(
                    Seconds::new(60.0),
                    Seconds::new(60.0),
                )),
                ComponentId::BigCluster,
            )
            .attach(Box::new(BasicMathLarge::new()), ComponentId::BigCluster)
            .system_policy(Box::new(gov))
            .initial_temperature(Celsius::new(50.0))
            .build()
            .unwrap();
        sim.run_for(Seconds::new(120.0)).unwrap();
        assert!(stats.evaluations() > 1000);
        assert!(stats.migrations() >= 1, "BML must be migrated");
        // The victim is BML (the 3DMark process registered as RT).
        let bml = sim.pid_of("basicmath_large").unwrap();
        assert_eq!(
            sim.scheduler().process(bml).unwrap().cluster(),
            ComponentId::LittleCluster
        );
        let gt = sim.pid_of("3DMark").unwrap();
        assert_eq!(
            sim.scheduler().process(gt).unwrap().cluster(),
            ComponentId::BigCluster
        );
        // And the temperature stays at or below the limit band.
        let max_c = sim.max_temperature().to_celsius().value();
        assert!(max_c < 97.0, "max temp {max_c}");
    }

    #[test]
    fn governor_stays_quiet_on_a_cool_system() {
        let gov = AppAwareGovernor::new(AppAwareConfig::default());
        let stats = gov.stats();
        let mut sim = SimBuilder::new(platforms::exynos_5422())
            .attach(Box::new(BasicMathLarge::new()), ComponentId::LittleCluster)
            .system_policy(Box::new(gov))
            .build()
            .unwrap();
        sim.run_for(Seconds::new(20.0)).unwrap();
        assert!(stats.evaluations() > 100);
        assert_eq!(stats.migrations(), 0, "nothing to migrate on a cool system");
        let p = stats.last_prediction().expect("stable prediction");
        assert!(p.value() < 95.0, "predicted {p}");
    }

    #[test]
    fn cap_ablation_caps_the_big_cluster_instead() {
        let gov = AppAwareGovernor::new(AppAwareConfig {
            action: ThrottleAction::CapBigCluster,
            ..AppAwareConfig::default()
        });
        let stats = gov.stats();
        let mut sim = SimBuilder::new(platforms::exynos_5422())
            .attach(Box::new(BasicMathLarge::new()), ComponentId::BigCluster)
            .attach(
                Box::new(ThreeDMark::with_durations(
                    Seconds::new(60.0),
                    Seconds::new(60.0),
                )),
                ComponentId::BigCluster,
            )
            .system_policy(Box::new(gov))
            .initial_temperature(Celsius::new(50.0))
            .build()
            .unwrap();
        sim.run_for(Seconds::new(120.0)).unwrap();
        if stats.migrations() > 0 {
            // The BML process was never migrated — the cluster was capped.
            let bml = sim.pid_of("basicmath_large").unwrap();
            assert_eq!(
                sim.scheduler().process(bml).unwrap().cluster(),
                ComponentId::BigCluster
            );
        }
    }

    #[test]
    fn restore_extension_brings_processes_back() {
        let gov = AppAwareGovernor::new(AppAwareConfig {
            restore_margin: Some(Celsius::new(10.0)),
            ..AppAwareConfig::default()
        });
        let stats = gov.stats();
        // A finite heavy phase: 3DMark ends after 30 s, after which the
        // system cools and BML should be restored.
        let mut sim = SimBuilder::new(platforms::exynos_5422())
            .attach_realtime(
                Box::new(ThreeDMark::with_durations(
                    Seconds::new(15.0),
                    Seconds::new(15.0),
                )),
                ComponentId::BigCluster,
            )
            .attach(Box::new(BasicMathLarge::new()), ComponentId::BigCluster)
            .system_policy(Box::new(gov))
            .initial_temperature(Celsius::new(85.0))
            .build()
            .unwrap();
        sim.run_for(Seconds::new(200.0)).unwrap();
        if stats.migrations() > 0 {
            // Moved to the little cluster, then back.
            let bml = sim.pid_of("basicmath_large").unwrap();
            assert!(
                sim.scheduler().process(bml).unwrap().migration_count() >= 2,
                "cooled system should restore the migrated process"
            );
        }
    }
}
