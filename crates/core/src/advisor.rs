//! App-developer advisor: how heavy can an app be before it throttles?
//!
//! The paper's conclusion: "it can be used by application developers to
//! optimize their apps such that they do not experience thermal
//! throttling." This module operationalizes that: given an app's demand
//! profile, it searches for the largest scene-complexity scale the
//! platform can sustain without the steady-state temperature crossing the
//! throttle trip — using the same lumped stability analysis the governor
//! runs.

use mpt_kernel::ProcessClass;
use mpt_sim::{Result, SimBuilder};
use mpt_soc::{platforms, ComponentId, Platform};
use mpt_units::{Celsius, Kelvin, Seconds, Watts};
use mpt_workloads::apps::{AppModel, AppSpec};

/// The advisor's verdict for one app profile.
#[derive(Debug, Clone, Copy)]
pub struct AdvisorReport {
    /// The largest complexity scale (relative to the given spec) whose
    /// predicted steady-state temperature stays below the trip.
    pub sustainable_scale: f64,
    /// Median FPS at the given (unscaled) complexity.
    pub fps_at_full: f64,
    /// Median FPS at the sustainable complexity.
    pub fps_at_sustainable: f64,
    /// Predicted steady-state package temperature at the sustainable
    /// complexity.
    pub steady_temp: Celsius,
}

fn scaled(spec: &AppSpec, scale: f64) -> AppSpec {
    AppSpec {
        cpu_per_frame: spec.cpu_per_frame * scale,
        gpu_per_frame: spec.gpu_per_frame * scale,
        ..spec.clone()
    }
}

/// Probes one complexity scale: run briefly, then predict the
/// steady-state temperature from the measured power with the lumped
/// analysis. Returns `(predicted steady temp, median fps)`.
fn probe(soc: &Platform, spec: &AppSpec, scale: f64, seed: u64) -> Result<(Option<Kelvin>, f64)> {
    let mut sim = SimBuilder::new(soc.clone())
        .attach(
            Box::new(AppModel::new(&scaled(spec, scale), seed)),
            ProcessClass::Foreground,
            ComponentId::BigCluster,
        )
        .control_sensor("package")
        .build()?;
    sim.run_for(Seconds::new(20.0))?;
    // Reduce the live network around the measured power distribution.
    let p_dyn: Watts = (sim.last_powers().iter().flatten())
        .map(|b| b.dynamic + b.static_floor)
        .sum();
    let mut leak_gain = 0.0;
    let mut beta = 8000.0;
    for component in soc.components() {
        let leak = component.power_params().leakage();
        beta = leak.beta();
        leak_gain += leak.alpha() * component.opps().highest().voltage().value();
    }
    let (hot, _) = sim.network().hottest();
    let lumped = sim
        .network()
        .reduce(sim.node_powers(), hot, leak_gain, beta)?;
    let pid = sim.pid_of(spec.name).expect("app attached");
    Ok((
        lumped.steady_state_temperature(p_dyn),
        sim.median_fps(pid).unwrap_or(0.0),
    ))
}

/// Finds the largest sustainable complexity scale in `(0, 1]` for an app
/// on the Nexus 6P, against the given throttle trip temperature.
///
/// # Errors
///
/// Propagates simulator/thermal errors.
///
/// # Examples
///
/// ```no_run
/// use mpt_core::advisor::sustainable_complexity;
/// use mpt_units::Celsius;
/// use mpt_workloads::apps::AppSpec;
///
/// let spec = AppSpec {
///     name: "my-game",
///     cpu_per_frame: 25.0e6,
///     gpu_per_frame: 15.5e6,
///     target_fps: 60.0,
///     cpu_threads: 2.0,
///     phase_amplitude: 0.2,
///     phase_period: 9.0,
///     jitter: 0.1,
///     interaction_period: 1.0,
/// };
/// let report = sustainable_complexity(&spec, Celsius::new(41.0), 42)?;
/// println!(
///     "render at {:.0}% complexity to stay under the trip ({:.0} FPS)",
///     report.sustainable_scale * 100.0,
///     report.fps_at_sustainable
/// );
/// # Ok::<(), mpt_sim::SimError>(())
/// ```
pub fn sustainable_complexity(spec: &AppSpec, trip: Celsius, seed: u64) -> Result<AdvisorReport> {
    let soc = platforms::snapdragon_810();
    let limit = trip.to_kelvin();
    let (full_temp, fps_at_full) = probe(&soc, spec, 1.0, seed)?;
    // Already sustainable at full complexity?
    if full_temp.is_some_and(|t| t <= limit) {
        return Ok(AdvisorReport {
            sustainable_scale: 1.0,
            fps_at_full,
            fps_at_sustainable: fps_at_full,
            steady_temp: full_temp.expect("checked above").to_celsius(),
        });
    }
    // Binary search on the scale.
    let mut lo = 0.05;
    let mut hi = 1.0;
    for _ in 0..6 {
        let mid = 0.5 * (lo + hi);
        let (temp, _) = probe(&soc, spec, mid, seed)?;
        match temp {
            Some(t) if t <= limit => lo = mid,
            _ => hi = mid,
        }
    }
    let (temp, fps) = probe(&soc, spec, lo, seed)?;
    Ok(AdvisorReport {
        sustainable_scale: lo,
        fps_at_full,
        fps_at_sustainable: fps,
        steady_temp: temp.map_or(Celsius::new(f64::NAN), Kelvin::to_celsius),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpt_workloads::apps;

    #[test]
    fn heavy_game_needs_to_shed_complexity() {
        // Paper.io exceeds the 41 C trip at full complexity (that is why
        // Table I shows it throttled); the advisor must find a scale
        // strictly below 1 that fits.
        let report = sustainable_complexity(&apps::PAPER_IO, Celsius::new(41.0), 42).unwrap();
        assert!(
            report.sustainable_scale < 1.0,
            "scale {}",
            report.sustainable_scale
        );
        assert!(report.sustainable_scale > 0.05);
        assert!(
            report.steady_temp.value() <= 41.5,
            "steady {}",
            report.steady_temp
        );
    }

    #[test]
    fn light_app_is_already_sustainable() {
        let spec = AppSpec {
            name: "lightweight",
            cpu_per_frame: 4.0e6,
            gpu_per_frame: 1.0e6,
            target_fps: 30.0,
            cpu_threads: 1.0,
            phase_amplitude: 0.05,
            phase_period: 10.0,
            jitter: 0.02,
            interaction_period: 5.0,
        };
        let report = sustainable_complexity(&spec, Celsius::new(41.0), 7).unwrap();
        assert_eq!(report.sustainable_scale, 1.0);
        assert!((report.fps_at_full - report.fps_at_sustainable).abs() < 1e-9);
    }
}
