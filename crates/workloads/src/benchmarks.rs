//! Benchmark workloads for the Odroid-XU3 experiments (paper Section IV-C):
//! a 3DMark-style two-part GPU benchmark, a Nenamark-style level benchmark,
//! and MiBench `basicmath_large` as the power-hungry background task.

use mpt_units::Seconds;
use serde::{Deserialize, Serialize};

use crate::{mibench, Demand, FramePipeline, Workload};

/// A 3DMark-style benchmark: Graphics Test 1 followed by Graphics Test 2,
/// each running for a fixed duration with its own per-frame cost. The
/// reported metrics are the median FPS of each test (paper Table II rows
/// "3DMark GT1" / "3DMark GT2").
///
/// # Examples
///
/// ```
/// use mpt_workloads::benchmarks::ThreeDMark;
/// use mpt_workloads::Workload;
/// use mpt_units::Seconds;
///
/// let mut bench = ThreeDMark::new();
/// assert_eq!(bench.name(), "3DMark");
/// assert!(!bench.is_finished());
/// # let _ = bench.demand(Seconds::ZERO, Seconds::from_millis(10.0));
/// ```
#[derive(Debug)]
pub struct ThreeDMark {
    gt1: FramePipeline,
    gt2: FramePipeline,
    gt1_duration: f64,
    gt2_duration: f64,
}

impl ThreeDMark {
    /// GPU cycles per GT1 frame: calibrated so a Mali-T628 at 600 MHz
    /// renders ~97 FPS (the paper's unthrottled baseline).
    pub(crate) const GT1_GPU_PER_FRAME: f64 = 6.19e6;
    /// GPU cycles per GT2 frame: ~51 FPS at 600 MHz.
    pub(crate) const GT2_GPU_PER_FRAME: f64 = 11.76e6;
    /// CPU cycles per frame: scene preparation and physics on the big
    /// cluster (3DMark's graphics tests keep the CPU meaningfully busy —
    /// the paper's Figure 9a shows the big cluster drawing ~38% of total
    /// power during the benchmark).
    pub(crate) const CPU_PER_FRAME: f64 = 12.0e6;

    /// Creates the benchmark with the default 60 s per graphics test.
    #[must_use]
    pub fn new() -> Self {
        Self::with_durations(Seconds::new(60.0), Seconds::new(60.0))
    }

    /// Creates the benchmark with custom test durations.
    ///
    /// # Panics
    ///
    /// Panics if either duration is not positive.
    #[must_use]
    pub fn with_durations(gt1: Seconds, gt2: Seconds) -> Self {
        assert!(
            gt1.value() > 0.0 && gt2.value() > 0.0,
            "durations must be positive"
        );
        // Benchmarks render as fast as possible; an effectively unbounded
        // vsync target keeps the pipeline saturated.
        Self {
            gt1: FramePipeline::new(Self::CPU_PER_FRAME, Self::GT1_GPU_PER_FRAME, 1000.0),
            gt2: FramePipeline::new(Self::CPU_PER_FRAME, Self::GT2_GPU_PER_FRAME, 1000.0),
            gt1_duration: gt1.value(),
            gt2_duration: gt2.value(),
        }
    }

    fn in_gt1(&self, now: Seconds) -> bool {
        now.value() < self.gt1_duration
    }

    /// Median FPS of Graphics Test 1 so far.
    #[must_use]
    pub fn gt1_fps(&self) -> Option<f64> {
        self.gt1.median_fps()
    }

    /// Median FPS of Graphics Test 2 so far.
    #[must_use]
    pub fn gt2_fps(&self) -> Option<f64> {
        self.gt2.median_fps()
    }
}

impl Default for ThreeDMark {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for ThreeDMark {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "3DMark"
    }

    fn demand(&mut self, now: Seconds, dt: Seconds) -> Demand {
        if self.is_finished() {
            return Demand::IDLE;
        }
        let (cpu, gpu) = if self.in_gt1(now) {
            self.gt1.demand(now, dt)
        } else {
            // GT2's pipeline runs on its own clock, offset by GT1's span.
            let local = Seconds::new(now.value() - self.gt1_duration);
            self.gt2.demand(local, dt)
        };
        Demand {
            cpu_cycles: cpu,
            cpu_threads: 2.0,
            gpu_cycles: gpu,
            interaction: false,
        }
    }

    fn deliver(&mut self, cpu_cycles: f64, gpu_cycles: f64, now: Seconds, dt: Seconds) {
        if self.in_gt1(now) {
            self.gt1.deliver(cpu_cycles, gpu_cycles, now, dt);
        } else if !self.is_finished() {
            let local = Seconds::new(now.value() - self.gt1_duration);
            self.gt2.deliver(cpu_cycles, gpu_cycles, local, dt);
        }
    }

    fn is_finished(&self) -> bool {
        // Finished when GT2's local clock has run out; checked through
        // the recorded history rather than wall time so partial delivery
        // cannot end the benchmark early.
        self.gt2.whole_seconds() as f64 >= self.gt2_duration
    }

    fn median_fps(&self) -> Option<f64> {
        self.gt1_fps()
    }

    fn current_fps(&self) -> Option<f64> {
        // Whichever graphics test is active right now.
        let window = Seconds::new(0.5);
        self.gt2
            .rolling_fps(window)
            .or_else(|| self.gt1.rolling_fps(window))
    }
}

/// A Nenamark-style benchmark: scene difficulty ramps up continuously and
/// the run terminates when the frame rate drops below the desired level.
/// The score is the (fractional) number of levels sustained at the desired
/// frame rate (paper Table II row "Nenamark3": 3.5 / 3.4 / 3.5 levels).
///
/// Difficulty grows geometrically with the *continuous* level index
/// `x = elapsed / level_duration` (per-frame cost `base · growth^x`), so
/// the score responds smoothly to small capacity differences — exactly the
/// sensitivity the paper's 3.5-vs-3.4 comparison relies on.
#[derive(Debug)]
pub struct Nenamark {
    pipeline: FramePipeline,
    base_gpu_per_frame: f64,
    growth: f64,
    level_duration: f64,
    desired_fps: f64,
    grace: f64,
    elapsed: f64,
    score: f64,
    finished: bool,
}

impl Nenamark {
    /// Creates the benchmark with the calibration used for Table II
    /// (score ≈ 3.5 on an unthrottled Mali-T628 at 600 MHz:
    /// `log₁.₂(600e6 / (30 · 10.5e6)) ≈ 3.54`).
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(10.5e6, 1.2, Seconds::new(40.0), 30.0)
    }

    /// Creates the benchmark with custom difficulty parameters.
    ///
    /// `base_gpu_per_frame` is the cost at level 0, multiplied by
    /// `growth` per level (continuously); the run fails when the rolling
    /// FPS drops below `desired_fps`.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is not positive or `growth <= 1`.
    #[must_use]
    pub(crate) fn with_config(
        base_gpu_per_frame: f64,
        growth: f64,
        level_duration: Seconds,
        desired_fps: f64,
    ) -> Self {
        assert!(base_gpu_per_frame > 0.0, "level cost must be positive");
        assert!(growth > 1.0, "levels must get harder");
        assert!(level_duration.value() > 0.0 && desired_fps > 0.0);
        Self {
            pipeline: FramePipeline::new(0.8e6, base_gpu_per_frame, 1000.0),
            base_gpu_per_frame,
            growth,
            level_duration: level_duration.value(),
            desired_fps,
            grace: 3.0,
            elapsed: 0.0,
            score: 0.0,
            finished: false,
        }
    }

    /// The score: the continuous level index reached before the frame
    /// rate fell below the desired level.
    #[must_use]
    pub fn score(&self) -> f64 {
        self.score
    }

    /// The level currently running (0-based integer part of the
    /// continuous index).
    #[must_use]
    pub fn current_level(&self) -> usize {
        (self.elapsed / self.level_duration) as usize
    }

    /// The per-frame GPU cost at the current difficulty.
    #[must_use]
    pub(crate) fn level_cost(&self) -> f64 {
        self.base_gpu_per_frame * self.growth.powf(self.elapsed / self.level_duration)
    }
}

impl Default for Nenamark {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for Nenamark {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "Nenamark"
    }

    fn demand(&mut self, now: Seconds, dt: Seconds) -> Demand {
        if self.finished {
            return Demand::IDLE;
        }
        let (cpu, gpu) = self.pipeline.demand(now, dt);
        Demand {
            cpu_cycles: cpu,
            cpu_threads: 1.5,
            gpu_cycles: gpu,
            interaction: false,
        }
    }

    fn deliver(&mut self, cpu_cycles: f64, gpu_cycles: f64, now: Seconds, dt: Seconds) {
        if self.finished {
            return;
        }
        self.pipeline.deliver(cpu_cycles, gpu_cycles, now, dt);
        self.elapsed += dt.value();
        self.pipeline.set_costs(0.8e6, self.level_cost());
        if self.elapsed >= self.grace {
            if let Some(fps) = self.pipeline.rolling_fps(Seconds::new(1.0)) {
                if fps < self.desired_fps {
                    self.finished = true;
                    self.score = self.elapsed / self.level_duration;
                }
            }
        }
    }

    fn is_finished(&self) -> bool {
        self.finished
    }

    fn median_fps(&self) -> Option<f64> {
        self.pipeline.median_fps()
    }

    fn current_fps(&self) -> Option<f64> {
        self.pipeline.rolling_fps(Seconds::new(1.0))
    }
}

/// MiBench `basicmath_large` ("BML"): a continuously compute-bound,
/// single-threaded CPU task — the background application the paper runs
/// behind 3DMark to heat the big cluster. Each simulated iteration
/// corresponds to one pass of the real kernels in
/// [`mibench`] module.
///
/// # Examples
///
/// ```
/// use mpt_workloads::benchmarks::BasicMathLarge;
/// use mpt_workloads::Workload;
/// use mpt_units::Seconds;
///
/// let mut bml = BasicMathLarge::new();
/// let d = bml.demand(Seconds::ZERO, Seconds::from_millis(10.0));
/// assert_eq!(d.cpu_threads, 1.0);
/// assert_eq!(d.gpu_cycles, 0.0);
/// ```
#[derive(Debug)]
pub struct BasicMathLarge {
    delivered_cycles: f64,
    cycles_per_iteration: f64,
}

impl BasicMathLarge {
    /// Big-equivalent cycles per `basicmath` outer-loop iteration.
    pub(crate) const CYCLES_PER_ITERATION: f64 = 25.0e6;

    /// Creates the background task.
    #[must_use]
    pub fn new() -> Self {
        Self {
            delivered_cycles: 0.0,
            cycles_per_iteration: Self::CYCLES_PER_ITERATION,
        }
    }

    /// Iterations completed so far.
    #[must_use]
    pub fn iterations(&self) -> f64 {
        self.delivered_cycles / self.cycles_per_iteration
    }

    /// Executes one *real* basicmath iteration (the ported MiBench
    /// kernels), returning its checksum. Used by examples to demonstrate
    /// that the background load is genuine computation.
    #[must_use]
    pub fn run_real_iteration(&self, seed: u64) -> f64 {
        mibench::basicmath_iteration(seed)
    }
}

impl Default for BasicMathLarge {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for BasicMathLarge {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "basicmath_large"
    }

    fn demand(&mut self, _now: Seconds, dt: Seconds) -> Demand {
        // A compute-bound loop consumes whatever one core can deliver.
        Demand {
            cpu_cycles: 4.0e9 * dt.value(),
            cpu_threads: 1.0,
            gpu_cycles: 0.0,
            interaction: false,
        }
    }

    fn deliver(&mut self, cpu_cycles: f64, _gpu_cycles: f64, _now: Seconds, _dt: Seconds) {
        self.delivered_cycles += cpu_cycles.max(0.0);
    }
}

/// A steady, partially loaded CPU task: the platform's resident services
/// (Android's `system_server`, audio, sensors). The Odroid scenarios run
/// one on the little cluster, reproducing the small but nonzero little-
/// cluster slice of the paper's Figure 9 pies.
///
/// # Examples
///
/// ```
/// use mpt_workloads::benchmarks::SteadyCompute;
/// use mpt_workloads::Workload;
/// use mpt_units::Seconds;
///
/// let mut svc = SteadyCompute::new("system_server", 0.5e9, 1.0);
/// let d = svc.demand(Seconds::ZERO, Seconds::from_millis(10.0));
/// assert!((d.cpu_cycles - 5.0e6).abs() < 1.0);
/// ```
#[derive(Debug)]
pub struct SteadyCompute {
    name: String,
    rate: f64,
    threads: f64,
}

impl SteadyCompute {
    /// Creates a steady task demanding `rate` big-equivalent cycles per
    /// second across `threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `rate` or `threads` is not positive.
    #[must_use]
    pub fn new(name: impl Into<String>, rate: f64, threads: f64) -> Self {
        assert!(
            rate > 0.0 && threads > 0.0,
            "rate and threads must be positive"
        );
        Self {
            name: name.into(),
            rate,
            threads,
        }
    }
}

impl Workload for SteadyCompute {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn demand(&mut self, _now: Seconds, dt: Seconds) -> Demand {
        Demand {
            cpu_cycles: self.rate * dt.value(),
            cpu_threads: self.threads,
            gpu_cycles: 0.0,
            interaction: false,
        }
    }

    fn deliver(&mut self, _: f64, _: f64, _: Seconds, _: Seconds) {}

    fn next_phase_change(&self, _now: Seconds) -> Option<Seconds> {
        // Demand rate is constant forever: never a phase boundary.
        Some(Seconds::new(f64::INFINITY))
    }
}

/// A bursty CPU task: alternates short heavy bursts with idle gaps.
/// This is the adversarial pattern behind the paper's one-second
/// utilization window — ranking processes by *instantaneous* power would
/// repeatedly pick a bursty-but-light task over a steady heavy one.
///
/// # Examples
///
/// ```
/// use mpt_workloads::benchmarks::BurstyCompute;
/// use mpt_workloads::Workload;
/// use mpt_units::Seconds;
///
/// let mut spiky = BurstyCompute::new("notification-storm", Seconds::new(0.1), Seconds::new(0.9));
/// let in_burst = spiky.demand(Seconds::ZERO, Seconds::from_millis(10.0));
/// let idle = spiky.demand(Seconds::new(0.5), Seconds::from_millis(10.0));
/// assert!(in_burst.cpu_cycles > 0.0);
/// assert_eq!(idle.cpu_cycles, 0.0);
/// ```
#[derive(Debug)]
pub struct BurstyCompute {
    name: String,
    burst: f64,
    idle: f64,
    threads: f64,
}

impl BurstyCompute {
    /// Creates a bursty task: fully busy for `burst`, idle for `idle`,
    /// repeating.
    ///
    /// # Panics
    ///
    /// Panics if either duration is not positive.
    #[must_use]
    pub fn new(name: impl Into<String>, burst: Seconds, idle: Seconds) -> Self {
        assert!(
            burst.value() > 0.0 && idle.value() > 0.0,
            "durations must be positive"
        );
        Self {
            name: name.into(),
            burst: burst.value(),
            idle: idle.value(),
            threads: 2.0,
        }
    }

    fn in_burst(&self, now: Seconds) -> bool {
        let period = self.burst + self.idle;
        now.value().rem_euclid(period) < self.burst
    }
}

impl Workload for BurstyCompute {
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
        if self.in_burst(now) {
            Demand {
                cpu_cycles: 4.0e9 * dt.value(),
                cpu_threads: self.threads,
                gpu_cycles: 0.0,
                interaction: false,
            }
        } else {
            Demand::IDLE
        }
    }

    fn deliver(&mut self, _: f64, _: f64, _: Seconds, _: Seconds) {}

    fn next_phase_change(&self, now: Seconds) -> Option<Seconds> {
        // The demand rate flips at every burst/idle edge.
        let period = self.burst + self.idle;
        let pos = now.value().rem_euclid(period);
        let remaining = if pos < self.burst {
            self.burst - pos
        } else {
            period - pos
        };
        Some(Seconds::new(now.value() + remaining))
    }
}

/// One phase of a [`PhasedCompute`] schedule: a constant demand rate
/// that lasts until an absolute simulated time. Scenario JSON writes
/// phases in this shape.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComputePhase {
    /// Absolute end time of the phase (exclusive), seconds.
    pub until_s: f64,
    /// Big-equivalent cycles demanded per second during the phase
    /// (zero = idle phase).
    pub rate: f64,
    /// Parallelism during the phase.
    #[serde(default = "default_phase_threads")]
    pub threads: f64,
}

fn default_phase_threads() -> f64 {
    1.0
}

/// A piecewise-constant CPU task: an explicit schedule of (rate,
/// threads) phases with absolute end times, finishing after the last
/// phase. The canonical event-mode workload — every phase boundary is a
/// declared wake, so the engine covers each phase in macro steps and
/// never has to poll for a rate change.
///
/// # Examples
///
/// ```
/// use mpt_workloads::benchmarks::{ComputePhase, PhasedCompute};
/// use mpt_workloads::Workload;
/// use mpt_units::Seconds;
///
/// let mut w = PhasedCompute::new("install-then-idle", vec![
///     ComputePhase { until_s: 5.0, rate: 2.0e9, threads: 2.0 },
///     ComputePhase { until_s: 20.0, rate: 0.1e9, threads: 1.0 },
/// ]).unwrap();
/// assert!(w.demand(Seconds::new(1.0), Seconds::from_millis(10.0)).cpu_cycles > 0.0);
/// assert_eq!(w.next_phase_change(Seconds::new(1.0)), Some(Seconds::new(5.0)));
/// ```
#[derive(Debug)]
pub struct PhasedCompute {
    name: String,
    phases: Vec<ComputePhase>,
    finished: bool,
}

impl PhasedCompute {
    /// Creates a phased task from a schedule of phases with strictly
    /// increasing positive end times.
    ///
    /// # Errors
    ///
    /// A message naming the offending phase when the schedule is empty,
    /// an end time is not strictly after its predecessor (or not
    /// positive/finite), a rate is negative, or a busy phase has
    /// non-positive threads.
    pub fn new(name: impl Into<String>, phases: Vec<ComputePhase>) -> Result<Self, String> {
        if phases.is_empty() {
            return Err("phased workload needs at least one phase".into());
        }
        let mut prev = 0.0;
        for (i, p) in phases.iter().enumerate() {
            if !p.until_s.is_finite() || p.until_s <= prev {
                return Err(format!(
                    "phase {i}: until_s {} must be finite and strictly after {}",
                    p.until_s, prev
                ));
            }
            if !p.rate.is_finite() || p.rate < 0.0 {
                return Err(format!("phase {i}: rate {} must be non-negative", p.rate));
            }
            if p.rate > 0.0 && (!p.threads.is_finite() || p.threads <= 0.0) {
                return Err(format!(
                    "phase {i}: threads {} must be positive when the phase is busy",
                    p.threads
                ));
            }
            prev = p.until_s;
        }
        Ok(Self {
            name: name.into(),
            phases,
            finished: false,
        })
    }

    fn phase_at(&self, now: Seconds) -> Option<&ComputePhase> {
        self.phases.iter().find(|p| now.value() < p.until_s)
    }
}

impl Workload for PhasedCompute {
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
        match self.phase_at(now) {
            Some(p) => Demand {
                cpu_cycles: p.rate * dt.value(),
                cpu_threads: p.threads,
                gpu_cycles: 0.0,
                interaction: false,
            },
            None => {
                self.finished = true;
                Demand::IDLE
            }
        }
    }

    fn deliver(&mut self, _cpu_cycles: f64, _gpu_cycles: f64, now: Seconds, dt: Seconds) {
        if (now + dt).value() >= self.phases.last().map_or(0.0, |p| p.until_s) {
            self.finished = true;
        }
    }

    fn is_finished(&self) -> bool {
        self.finished
    }

    fn next_phase_change(&self, now: Seconds) -> Option<Seconds> {
        match self.phase_at(now) {
            Some(p) => Some(Seconds::new(p.until_s)),
            // Past the schedule: idle forever.
            None => Some(Seconds::new(f64::INFINITY)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: Seconds = Seconds::new(0.01);

    /// Runs `w` for `seconds` at the given capacities; returns the CPU
    /// cycles delivered.
    fn drive<W: Workload>(w: &mut W, seconds: f64, cpu_rate: f64, gpu_rate: f64) -> f64 {
        let ticks = (seconds / DT.value()) as usize;
        let mut delivered = 0.0;
        for i in 0..ticks {
            let now = Seconds::new(i as f64 * DT.value());
            if w.is_finished() {
                break;
            }
            let d = w.demand(now, DT);
            let cpu = d
                .cpu_cycles
                .min(cpu_rate * DT.value() * d.cpu_threads.max(1.0));
            delivered += cpu;
            w.deliver(cpu, d.gpu_cycles.min(gpu_rate * DT.value()), now, DT);
        }
        delivered
    }

    #[test]
    fn threedmark_gt1_hits_97fps_at_full_mali_speed() {
        let mut b = ThreeDMark::with_durations(Seconds::new(30.0), Seconds::new(30.0));
        drive(&mut b, 60.0, 4e9, 600.0e6);
        let gt1 = b.gt1_fps().unwrap();
        let gt2 = b.gt2_fps().unwrap();
        assert!((gt1 - 97.0).abs() < 3.0, "GT1 = {gt1}");
        assert!((gt2 - 51.0).abs() < 2.0, "GT2 = {gt2}");
    }

    #[test]
    fn threedmark_finishes_on_the_pass_its_gt2_buckets_fill() {
        // `is_finished` counts GT2's whole seconds off its last history
        // time. It must flip on the same pass as the count of GT2's
        // per-second FPS buckets it replaced, for a whole GT2 duration,
        // fractional ones (perfbench draws durations like 14.4 s) and a
        // tick that does not divide a second.
        for (gt2, dt) in [(3.0, 0.01), (2.4, 0.01), (14.4, 0.007)] {
            let gt1 = 1.5;
            let mut b = ThreeDMark::with_durations(Seconds::new(gt1), Seconds::new(gt2));
            let dt = Seconds::new(dt);
            let mut flipped = None;
            for i in 0..10_000 {
                let now = Seconds::new(f64::from(i) * dt.value());
                let buckets_full = b.gt2.fps_buckets().len() as f64 >= b.gt2_duration;
                assert_eq!(b.is_finished(), buckets_full, "GT2 {gt2} s, pass {i}");
                if buckets_full && flipped.is_none() {
                    flipped = Some(now.value());
                }
                let d = b.demand(now, dt);
                let gpu = d.gpu_cycles.min(600.0e6 * dt.value());
                b.deliver(d.cpu_cycles, gpu, now, dt);
            }
            // GT2 ends once its clock has run whole seconds past its span.
            let flipped = flipped.expect("GT2 finishes");
            let due = gt1 + gt2.ceil();
            assert!(
                (due..due + 2.0 * dt.value()).contains(&flipped),
                "GT2 {gt2} s finished at {flipped} s, due {due} s"
            );
        }
    }

    #[test]
    fn threedmark_fps_drops_when_gpu_is_capped() {
        let mut free = ThreeDMark::with_durations(Seconds::new(20.0), Seconds::new(20.0));
        let mut capped = ThreeDMark::with_durations(Seconds::new(20.0), Seconds::new(20.0));
        drive(&mut free, 40.0, 4e9, 600.0e6);
        drive(&mut capped, 40.0, 4e9, 530.0e6);
        assert!(capped.gt1_fps().unwrap() < free.gt1_fps().unwrap());
        assert!(capped.gt2_fps().unwrap() < free.gt2_fps().unwrap());
    }

    #[test]
    fn nenamark_unthrottled_score_matches_table2() {
        let mut n = Nenamark::new();
        drive(&mut n, 300.0, 4e9, 600.0e6);
        assert!(n.is_finished(), "nenamark must terminate");
        let score = n.score();
        assert!((3.2..3.8).contains(&score), "score = {score}");
    }

    #[test]
    fn nenamark_throttled_scores_lower() {
        let mut free = Nenamark::new();
        let mut slow = Nenamark::new();
        drive(&mut free, 300.0, 4e9, 600.0e6);
        drive(&mut slow, 300.0, 4e9, 520.0e6);
        assert!(
            slow.score() < free.score(),
            "{} !< {}",
            slow.score(),
            free.score()
        );
    }

    #[test]
    fn nenamark_levels_get_harder() {
        let n = Nenamark::new();
        let c0 = n.level_cost();
        let mut n2 = Nenamark::new();
        n2.elapsed = 120.0; // level 3 (40 s per level)
        assert!(n2.level_cost() > c0 * 1.7);
        assert_eq!(n2.current_level(), 3);
    }

    #[test]
    fn nenamark_idle_after_finish() {
        let mut n = Nenamark::new();
        drive(&mut n, 300.0, 4e9, 600.0e6);
        assert!(n.is_finished());
        let d = n.demand(Seconds::new(400.0), DT);
        assert_eq!(d, Demand::IDLE);
        let score = n.score();
        n.deliver(1e9, 1e9, Seconds::new(400.0), DT);
        assert_eq!(n.score(), score, "score frozen after termination");
    }

    #[test]
    fn bml_consumes_one_core_continuously() {
        let mut bml = BasicMathLarge::new();
        // One big core at 1.8 GHz for 10 s.
        drive(&mut bml, 10.0, 1.8e9, 0.0);
        let iters = bml.iterations();
        let expected = 1.8e9 * 10.0 / BasicMathLarge::CYCLES_PER_ITERATION;
        assert!((iters - expected).abs() / expected < 0.01, "iters {iters}");
    }

    #[test]
    fn bml_runs_slower_on_the_little_cluster() {
        let mut fast = BasicMathLarge::new();
        let mut slow = BasicMathLarge::new();
        drive(&mut fast, 10.0, 1.8e9, 0.0);
        // Little cluster: 1.4 GHz * 0.45 IPC = 630 M big-equivalent.
        drive(&mut slow, 10.0, 0.63e9, 0.0);
        assert!(slow.iterations() < fast.iterations() * 0.5);
    }

    #[test]
    fn bml_real_iteration_checksum_is_finite() {
        let bml = BasicMathLarge::new();
        assert!(bml.run_real_iteration(1).is_finite());
    }

    #[test]
    fn steady_compute_consumes_its_rate() {
        let mut svc = SteadyCompute::new("system_server", 0.5e9, 1.0);
        let got = drive(&mut svc, 10.0, 2.0e9, 0.0);
        assert!((got - 5.0e9).abs() / 5.0e9 < 0.01, "delivered {got}");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn steady_compute_rejects_zero_rate() {
        let _ = SteadyCompute::new("x", 0.0, 1.0);
    }

    #[test]
    fn bursty_compute_respects_duty_cycle() {
        let mut b = BurstyCompute::new("spiky", Seconds::new(0.2), Seconds::new(0.8));
        let got = drive(&mut b, 10.0, 1.0e9, 0.0);
        // 20% duty at 1 Gcycle/s (x2 threads in drive) for 10 s.
        let expected = 0.2 * 2.0e9 * 10.0;
        assert!((got - expected).abs() / expected < 0.05, "delivered {got}");
    }

    #[test]
    fn bursty_idle_phase_demands_nothing() {
        let mut b = BurstyCompute::new("spiky", Seconds::new(0.1), Seconds::new(0.9));
        let d = b.demand(Seconds::new(0.55), Seconds::new(0.01));
        assert_eq!(d, Demand::IDLE);
    }
}
