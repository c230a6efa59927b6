//! Models of the popular Android apps from the paper's Nexus 6P study.
//!
//! The paper evaluates "five representative apps from the top 30 apps on
//! the Google play store … two games, one shopping app, one video
//! conferencing app and one social media app". Each preset is an
//! [`AppModel`]: a frame pipeline with app-specific CPU/GPU costs, a
//! scene-complexity oscillation (which is what spreads the GPU frequency
//! residency across OPPs, as in Figures 2/4/6), per-tick cost jitter, and
//! a touch-interaction cadence that triggers the `interactive` governor.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mpt_units::Seconds;

use crate::{Demand, FramePipeline, Workload};

/// A frame-rendering application model.
///
/// # Examples
///
/// ```
/// use mpt_workloads::apps;
/// use mpt_workloads::Workload;
/// use mpt_units::Seconds;
///
/// let mut game = apps::paper_io(42);
/// let d = game.demand(Seconds::ZERO, Seconds::from_millis(10.0));
/// assert!(d.gpu_cycles > 0.0, "games are GPU-heavy");
/// ```
#[derive(Debug)]
pub struct AppModel {
    name: String,
    pipeline: FramePipeline,
    base_cpu_per_frame: f64,
    base_gpu_per_frame: f64,
    cpu_threads: f64,
    /// Scene-complexity oscillation amplitude (fraction of base cost).
    phase_amplitude: f64,
    /// Scene-complexity period in seconds.
    phase_period: f64,
    /// Per-tick multiplicative cost jitter (fraction).
    jitter: f64,
    /// Seconds between touch interactions (0 = none).
    interaction_period: f64,
    next_interaction: f64,
    rng: StdRng,
}

/// Builder-style configuration for [`AppModel`].
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Display name.
    pub name: &'static str,
    /// CPU cycles per frame (big-equivalent).
    pub cpu_per_frame: f64,
    /// GPU cycles per frame.
    pub gpu_per_frame: f64,
    /// Vsync target.
    pub target_fps: f64,
    /// Render/worker thread parallelism.
    pub cpu_threads: f64,
    /// Scene complexity oscillation (fraction of base).
    pub phase_amplitude: f64,
    /// Oscillation period in seconds.
    pub phase_period: f64,
    /// Per-tick cost jitter fraction.
    pub jitter: f64,
    /// Seconds between interactions (0 disables).
    pub interaction_period: f64,
}

impl AppModel {
    /// Creates a model from a spec with a deterministic RNG seed.
    #[must_use]
    pub fn new(spec: &AppSpec, seed: u64) -> Self {
        Self {
            name: spec.name.to_owned(),
            pipeline: FramePipeline::new(spec.cpu_per_frame, spec.gpu_per_frame, spec.target_fps),
            base_cpu_per_frame: spec.cpu_per_frame,
            base_gpu_per_frame: spec.gpu_per_frame,
            cpu_threads: spec.cpu_threads,
            phase_amplitude: spec.phase_amplitude,
            phase_period: spec.phase_period.max(1e-3),
            jitter: spec.jitter,
            interaction_period: spec.interaction_period,
            next_interaction: 0.0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The frame pipeline (FPS statistics).
    #[must_use]
    pub fn pipeline(&self) -> &FramePipeline {
        &self.pipeline
    }

    fn complexity(&mut self, now: Seconds) -> f64 {
        let phase = 1.0
            + self.phase_amplitude
                * (std::f64::consts::TAU * now.value() / self.phase_period).sin();
        let noise = if self.jitter > 0.0 {
            1.0 + self.rng.gen_range(-self.jitter..self.jitter)
        } else {
            1.0
        };
        (phase * noise).max(0.05)
    }
}

impl Workload for AppModel {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn demand(&mut self, now: Seconds, dt: Seconds) -> Demand {
        let factor = self.complexity(now);
        self.pipeline.set_costs(
            self.base_cpu_per_frame * factor,
            self.base_gpu_per_frame * factor,
        );
        let (cpu, gpu) = self.pipeline.demand(now, dt);
        let interaction = if self.interaction_period > 0.0 && now.value() >= self.next_interaction {
            self.next_interaction = now.value() + self.interaction_period;
            true
        } else {
            false
        };
        Demand {
            cpu_cycles: cpu,
            cpu_threads: self.cpu_threads,
            gpu_cycles: gpu,
            interaction,
        }
    }

    fn deliver(&mut self, cpu_cycles: f64, gpu_cycles: f64, now: Seconds, dt: Seconds) {
        self.pipeline.deliver(cpu_cycles, gpu_cycles, now, dt);
    }

    fn median_fps(&self) -> Option<f64> {
        self.pipeline.median_fps()
    }

    fn current_fps(&self) -> Option<f64> {
        self.pipeline.rolling_fps(Seconds::new(1.0))
    }
}

/// The [`paper_io`] spec, which the app-developer advisor also takes.
pub const PAPER_IO: AppSpec = AppSpec {
    name: "Paper.io",
    cpu_per_frame: 25.0e6,
    gpu_per_frame: 15.5e6,
    target_fps: 60.0,
    cpu_threads: 2.0,
    phase_amplitude: 0.18,
    phase_period: 9.0,
    jitter: 0.10,
    interaction_period: 1.0,
};

/// Paper.io — "one of the top five games": GPU-heavy arena rendering.
///
/// Calibrated so the unthrottled Nexus 6P achieves ~35 FPS (Adreno 430
/// mostly at 510/600 MHz) and throttling to ~390 MHz drops it to ~23 FPS
/// (Table I row 1).
#[must_use]
pub fn paper_io(seed: u64) -> AppModel {
    AppModel::new(&PAPER_IO, seed)
}

/// The [`stickman_hook`] spec, which the app-developer advisor also takes.
pub const STICKMAN_HOOK: AppSpec = AppSpec {
    name: "Stickman Hook",
    cpu_per_frame: 20.0e6,
    gpu_per_frame: 9.3e6,
    target_fps: 60.0,
    cpu_threads: 1.0,
    phase_amplitude: 0.25,
    phase_period: 6.0,
    jitter: 0.12,
    interaction_period: 0.8,
};

/// Stickman Hook — a lighter physics game: near-vsync when unthrottled
/// (59 FPS), ~40 FPS under throttling (Table I row 2).
#[must_use]
pub fn stickman_hook(seed: u64) -> AppModel {
    AppModel::new(&STICKMAN_HOOK, seed)
}

/// Amazon shopping — "in contrast to the gaming apps, it primarily uses
/// the CPU when it is active": scroll-driven UI work on the big cluster,
/// 35 → 28 FPS under throttling (Table I row 3).
#[must_use]
pub fn amazon(seed: u64) -> AppModel {
    AppModel::new(
        &AppSpec {
            name: "Amazon",
            cpu_per_frame: 60.0e6,
            gpu_per_frame: 3.0e6,
            target_fps: 60.0,
            cpu_threads: 1.15,
            phase_amplitude: 0.25,
            phase_period: 7.0,
            jitter: 0.10,
            interaction_period: 1.5,
        },
        seed,
    )
}

/// Google Hangouts — steady video-conference decode/encode: modest,
/// constant demand, so throttling costs little (42 → 38 FPS, Table I
/// row 4).
#[must_use]
pub fn google_hangouts(seed: u64) -> AppModel {
    AppModel::new(
        &AppSpec {
            name: "Google Hangouts",
            cpu_per_frame: 46.0e6,
            gpu_per_frame: 4.0e6,
            target_fps: 60.0,
            cpu_threads: 1.0,
            phase_amplitude: 0.06,
            phase_period: 10.0,
            jitter: 0.05,
            interaction_period: 8.0,
        },
        seed,
    )
}

/// Facebook — "playing a game in the app": mixed CPU+GPU load, 35 → 24
/// FPS under throttling (Table I row 5).
#[must_use]
pub fn facebook(seed: u64) -> AppModel {
    AppModel::new(
        &AppSpec {
            name: "Facebook",
            cpu_per_frame: 28.0e6,
            gpu_per_frame: 15.5e6,
            target_fps: 60.0,
            cpu_threads: 2.0,
            phase_amplitude: 0.15,
            phase_period: 8.0,
            jitter: 0.10,
            interaction_period: 1.2,
        },
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: Seconds = Seconds::new(0.01);

    /// Runs an app against fixed CPU/GPU cycle rates and returns median FPS.
    fn run(app: &mut AppModel, seconds: f64, cpu_rate: f64, gpu_rate: f64) -> f64 {
        let ticks = (seconds / DT.value()) as usize;
        for i in 0..ticks {
            let now = Seconds::new(i as f64 * DT.value());
            let d = app.demand(now, DT);
            app.deliver(
                d.cpu_cycles.min(cpu_rate * DT.value()),
                d.gpu_cycles.min(gpu_rate * DT.value()),
                now,
                DT,
            );
        }
        app.median_fps().unwrap_or(0.0)
    }

    #[test]
    fn games_are_gpu_heavy_and_shopping_is_cpu_heavy() {
        let mut game = paper_io(1);
        let mut shop = amazon(1);
        let dg = game.demand(Seconds::ZERO, DT);
        let ds = shop.demand(Seconds::ZERO, DT);
        // Games spend far more of their frame budget on the GPU than the
        // shopping app does.
        let game_ratio = dg.gpu_cycles / dg.cpu_cycles;
        let shop_ratio = ds.gpu_cycles / ds.cpu_cycles;
        assert!(
            game_ratio > 5.0 * shop_ratio,
            "game {game_ratio} vs shop {shop_ratio}"
        );
        assert!(ds.cpu_cycles > ds.gpu_cycles);
    }

    #[test]
    fn paper_io_fps_band_at_adreno_rates() {
        // Unthrottled Adreno mix ~550 MHz; throttled ~370 MHz.
        let unthrottled = run(&mut paper_io(7), 30.0, 4e9, 560.0e6);
        let throttled = run(&mut paper_io(7), 30.0, 4e9, 370.0e6);
        assert!(
            (30.0..41.0).contains(&unthrottled),
            "unthrottled {unthrottled}"
        );
        assert!((19.0..27.0).contains(&throttled), "throttled {throttled}");
        assert!(throttled < unthrottled);
    }

    #[test]
    fn stickman_is_near_vsync_unthrottled() {
        let fps = run(&mut stickman_hook(7), 30.0, 4e9, 520.0e6);
        assert!(fps > 50.0, "stickman unthrottled {fps}");
    }

    #[test]
    fn hangouts_is_robust_to_moderate_throttling() {
        // Rates chosen near the paper's operating point: ~42 FPS free,
        // ~38 FPS throttled (a ~10% drop, the mildest in Table I).
        let free = run(&mut google_hangouts(7), 30.0, 1.96e9, 500.0e6);
        let capped = run(&mut google_hangouts(7), 30.0, 1.77e9, 390.0e6);
        assert!((38.0..48.0).contains(&free), "free {free}");
        let drop = (free - capped) / free.max(1e-9);
        assert!(drop < 0.2, "hangouts should degrade mildly, dropped {drop}");
    }

    #[test]
    fn interactions_fire_at_the_configured_cadence() {
        let mut game = paper_io(3);
        let mut count = 0;
        for i in 0..1000 {
            let d = game.demand(Seconds::new(i as f64 * 0.01), DT);
            if d.interaction {
                count += 1;
            }
        }
        // 10 s at one interaction per second.
        assert!((9..=11).contains(&count), "interactions {count}");
    }

    #[test]
    fn hangouts_rarely_interacts() {
        let mut app = google_hangouts(3);
        let mut count = 0;
        for i in 0..1000 {
            if app.demand(Seconds::new(i as f64 * 0.01), DT).interaction {
                count += 1;
            }
        }
        assert!(count <= 2, "video call should not be touch-driven: {count}");
    }

    #[test]
    fn demand_is_deterministic_per_seed() {
        let mut a = facebook(9);
        let mut b = facebook(9);
        for i in 0..100 {
            let now = Seconds::new(i as f64 * 0.01);
            assert_eq!(a.demand(now, DT), b.demand(now, DT));
        }
    }

    #[test]
    fn complexity_varies_over_time() {
        let mut game = paper_io(5);
        let mut demands = Vec::new();
        for i in 0..2000 {
            let now = Seconds::new(i as f64 * 0.01);
            demands.push(game.demand(now, DT).gpu_cycles);
            game.deliver(0.0, 0.0, now, DT);
        }
        let max = demands.iter().copied().fold(0.0, f64::max);
        let min = demands.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max > min * 1.2, "scene complexity must vary: {min}..{max}");
    }
}
