//! Frame pipeline: delivered cycles → completed frames → FPS statistics.

use mpt_units::Seconds;

/// A double-sided (CPU + GPU) frame pipeline with a vsync-style target
/// rate and time-varying per-frame costs.
///
/// Every frame costs `cpu_per_frame` big-equivalent CPU cycles and
/// `gpu_per_frame` GPU cycles (scaled by the current scene complexity —
/// see `set_costs`); a frame is complete when both
/// sides have finished it. The pipeline never runs more than one frame
/// ahead of the vsync schedule (`target_fps`), so a fast platform idles
/// between frames (low utilization → governors ramp down) while a
/// throttled platform falls behind (full utilization at a lower achieved
/// FPS) — exactly the mechanics behind the paper's Table I.
///
/// Progress is tracked in *frames*, not cycles, so cost changes apply to
/// future work only.
///
/// # Examples
///
/// ```
/// use mpt_workloads::FramePipeline;
/// use mpt_units::Seconds;
///
/// let mut p = FramePipeline::new(1.0e6, 10.0e6, 60.0);
/// // Deliver generous cycles for 2 simulated seconds at 10 ms ticks.
/// for i in 0..200 {
///     let now = Seconds::new(i as f64 * 0.01);
///     let (cpu, gpu) = p.demand(now, Seconds::new(0.01));
///     p.deliver(cpu, gpu, now, Seconds::new(0.01));
/// }
/// // Vsync-limited: ~60 FPS.
/// let fps = p.median_fps().unwrap();
/// assert!((fps - 60.0).abs() < 2.0, "fps = {fps}");
/// ```
#[derive(Debug, Clone)]
pub struct FramePipeline {
    cpu_per_frame: f64,
    gpu_per_frame: f64,
    target_fps: f64,
    /// Frames of CPU-side work finished.
    cpu_progress: f64,
    /// Frames of GPU-side work finished.
    gpu_progress: f64,
    completed: f64,
    /// (time, total completed frames) samples.
    history: Vec<(f64, f64)>,
}

impl FramePipeline {
    /// Creates a pipeline.
    ///
    /// # Panics
    ///
    /// Panics if any per-frame cost is negative, both are zero, or
    /// `target_fps` is not positive.
    #[must_use]
    pub fn new(cpu_per_frame: f64, gpu_per_frame: f64, target_fps: f64) -> Self {
        assert!(
            cpu_per_frame >= 0.0 && gpu_per_frame >= 0.0,
            "frame costs must be >= 0"
        );
        assert!(
            cpu_per_frame + gpu_per_frame > 0.0,
            "a frame must cost something"
        );
        assert!(target_fps > 0.0, "target fps must be positive");
        Self {
            cpu_per_frame,
            gpu_per_frame,
            target_fps,
            cpu_progress: 0.0,
            gpu_progress: 0.0,
            completed: 0.0,
            history: Vec::new(),
        }
    }

    /// The vsync target rate.
    #[must_use]
    pub fn target_fps(&self) -> f64 {
        self.target_fps
    }

    /// The current `(cpu, gpu)` per-frame costs.
    #[must_use]
    pub fn costs(&self) -> (f64, f64) {
        (self.cpu_per_frame, self.gpu_per_frame)
    }

    /// Changes the per-frame costs for *future* work (scene complexity
    /// changes; benchmark level advances).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`new`](Self::new).
    pub(crate) fn set_costs(&mut self, cpu_per_frame: f64, gpu_per_frame: f64) {
        assert!(
            cpu_per_frame >= 0.0 && gpu_per_frame >= 0.0,
            "frame costs must be >= 0"
        );
        assert!(
            cpu_per_frame + gpu_per_frame > 0.0,
            "a frame must cost something"
        );
        self.cpu_per_frame = cpu_per_frame;
        self.gpu_per_frame = gpu_per_frame;
    }

    /// How many frames one side of the pipeline may run ahead of the
    /// other (double-buffering: the CPU prepares at most two frames the
    /// GPU has not rendered yet, and vice versa).
    const PIPELINE_DEPTH: f64 = 2.0;

    fn frames_allowed(&self, now: Seconds, dt: Seconds) -> f64 {
        (now.value() + dt.value()) * self.target_fps + 1.0
    }

    fn cpu_limit(&self, allowed: f64) -> f64 {
        if self.gpu_per_frame > 0.0 {
            allowed.min(self.gpu_progress + Self::PIPELINE_DEPTH)
        } else {
            allowed
        }
    }

    fn gpu_limit(&self, allowed: f64) -> f64 {
        if self.cpu_per_frame > 0.0 {
            allowed.min(self.cpu_progress + Self::PIPELINE_DEPTH)
        } else {
            allowed
        }
    }

    /// The `(cpu, gpu)` cycles wanted for the tick at `now`, respecting
    /// the vsync lookahead and the pipeline depth (neither side works
    /// more than a couple of frames ahead of the other).
    #[must_use]
    pub fn demand(&self, now: Seconds, dt: Seconds) -> (f64, f64) {
        let allowed = self.frames_allowed(now, dt);
        let cpu = ((self.cpu_limit(allowed) - self.cpu_progress) * self.cpu_per_frame).max(0.0);
        let gpu = ((self.gpu_limit(allowed) - self.gpu_progress) * self.gpu_per_frame).max(0.0);
        (cpu, gpu)
    }

    /// Records delivered cycles and advances frame completion.
    pub fn deliver(&mut self, cpu: f64, gpu: f64, now: Seconds, dt: Seconds) {
        let allowed = self.frames_allowed(now, dt);
        if self.cpu_per_frame > 0.0 {
            self.cpu_progress = (self.cpu_progress + cpu.max(0.0) / self.cpu_per_frame)
                .min(self.cpu_limit(allowed));
        } else {
            self.cpu_progress = allowed;
        }
        if self.gpu_per_frame > 0.0 {
            self.gpu_progress = (self.gpu_progress + gpu.max(0.0) / self.gpu_per_frame)
                .min(self.gpu_limit(allowed));
        } else {
            self.gpu_progress = allowed;
        }
        self.completed = self.cpu_progress.min(self.gpu_progress).max(self.completed);
        self.history
            .push((now.value() + dt.value(), self.completed));
    }

    /// Frames completed per second over the trailing `window`.
    ///
    /// Returns `None` until at least `window` of history exists.
    #[must_use]
    pub(crate) fn rolling_fps(&self, window: Seconds) -> Option<f64> {
        let (t_end, f_end) = *self.history.last()?;
        let t_start = t_end - window.value();
        if self.history.first()?.0 > t_start {
            return None;
        }
        // Find the completed count at t_start (last sample <= t_start).
        let idx = self.history.partition_point(|&(t, _)| t <= t_start);
        let f_start = self.history[idx.saturating_sub(1)].1;
        Some((f_end - f_start) / window.value())
    }

    /// Whole seconds of history: the number of per-second buckets behind
    /// the median (`fps_buckets().len()`), read off the last sample time
    /// without building them.
    #[must_use]
    pub(crate) fn whole_seconds(&self) -> usize {
        self.history
            .last()
            .map_or(0, |&(t_end, _)| t_end.floor() as usize)
    }

    /// Per-second frame counts (the samples behind the median).
    #[must_use]
    pub(crate) fn fps_buckets(&self) -> Vec<f64> {
        let whole_seconds = self.whole_seconds();
        let mut buckets = Vec::with_capacity(whole_seconds);
        let mut prev_frames = 0.0;
        let mut idx = 0;
        for sec in 1..=whole_seconds {
            let boundary = sec as f64;
            while idx < self.history.len() && self.history[idx].0 <= boundary {
                idx += 1;
            }
            let frames_at = if idx == 0 {
                0.0
            } else {
                self.history[idx - 1].1
            };
            buckets.push(frames_at - prev_frames);
            prev_frames = frames_at;
        }
        buckets
    }

    /// The median of the per-second frame counts — the paper's reported
    /// metric. Returns `None` with less than one full second of history.
    #[must_use]
    pub fn median_fps(&self) -> Option<f64> {
        let buckets = self.fps_buckets();
        if buckets.is_empty() {
            return None;
        }
        let mut sorted = buckets;
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = sorted.len();
        Some(if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const DT: Seconds = Seconds::new(0.01);

    /// Drives the pipeline with a capacity limit per tick on each side.
    fn run(p: &mut FramePipeline, seconds: f64, cpu_rate: f64, gpu_rate: f64) {
        let ticks = (seconds / DT.value()) as usize;
        for i in 0..ticks {
            let now = Seconds::new(i as f64 * DT.value());
            let (cw, gw) = p.demand(now, DT);
            p.deliver(
                cw.min(cpu_rate * DT.value()),
                gw.min(gpu_rate * DT.value()),
                now,
                DT,
            );
        }
    }

    #[test]
    fn gpu_bound_fps_matches_rate_over_cost() {
        // GPU can deliver 350 Mcycles/s, frames cost 10 M: 35 FPS.
        let mut p = FramePipeline::new(0.5e6, 10.0e6, 60.0);
        run(&mut p, 20.0, 1e9, 350.0e6);
        let fps = p.median_fps().unwrap();
        assert!((fps - 35.0).abs() < 1.5, "fps = {fps}");
    }

    #[test]
    fn vsync_caps_fast_platforms() {
        let mut p = FramePipeline::new(0.5e6, 2.0e6, 60.0);
        run(&mut p, 10.0, 1e9, 1e9);
        let fps = p.median_fps().unwrap();
        assert!(fps <= 61.0, "fps = {fps} exceeds vsync");
        assert!(fps >= 58.0);
    }

    #[test]
    fn cpu_bound_when_cpu_is_the_bottleneck() {
        // CPU side can do 70 Mcycles/s, frames cost 2 M CPU: 35 FPS even
        // though the GPU is idle-fast.
        let mut p = FramePipeline::new(2.0e6, 1.0e6, 60.0);
        run(&mut p, 20.0, 70.0e6, 1e9);
        let fps = p.median_fps().unwrap();
        assert!((fps - 35.0).abs() < 1.5, "fps = {fps}");
    }

    #[test]
    fn demand_stays_bounded_by_lookahead() {
        let p = FramePipeline::new(1.0e6, 10.0e6, 60.0);
        let (cpu, gpu) = p.demand(Seconds::ZERO, DT);
        // At t=0 the pipeline may want at most ~1.6 frames of work.
        assert!(cpu <= 1.0e6 * 1.7);
        assert!(gpu <= 10.0e6 * 1.7);
    }

    #[test]
    fn starved_pipeline_completes_nothing() {
        let mut p = FramePipeline::new(1.0e6, 10.0e6, 60.0);
        run(&mut p, 5.0, 0.0, 0.0);
        assert_eq!(p.completed, 0.0);
        assert_eq!(p.median_fps(), Some(0.0));
    }

    #[test]
    fn rolling_fps_reflects_recent_rate() {
        let mut p = FramePipeline::new(0.1e6, 10.0e6, 120.0);
        // Fast for 5 s then starved for 5 s.
        run(&mut p, 5.0, 1e9, 1e9);
        let fast = p.rolling_fps(Seconds::new(2.0)).unwrap();
        for i in 500..1000 {
            let now = Seconds::new(i as f64 * DT.value());
            p.deliver(0.0, 0.0, now, DT);
        }
        let slow = p.rolling_fps(Seconds::new(2.0)).unwrap();
        assert!(fast > 80.0, "fast = {fast}");
        assert!(slow < 5.0, "slow = {slow}");
    }

    #[test]
    fn rolling_fps_needs_enough_history() {
        let mut p = FramePipeline::new(1.0e6, 1.0e6, 60.0);
        run(&mut p, 0.5, 1e9, 1e9);
        assert!(p.rolling_fps(Seconds::new(2.0)).is_none());
    }

    #[test]
    fn heavier_costs_reduce_fps() {
        let mut a = FramePipeline::new(0.5e6, 10.0e6, 60.0);
        let mut b = FramePipeline::new(0.5e6, 10.0e6, 60.0);
        b.set_costs(1.0e6, 20.0e6);
        run(&mut a, 10.0, 1e9, 300.0e6);
        run(&mut b, 10.0, 1e9, 300.0e6);
        assert!(b.median_fps().unwrap() < a.median_fps().unwrap());
    }

    #[test]
    fn cost_change_applies_to_future_frames_only() {
        let mut p = FramePipeline::new(1.0e6, 10.0e6, 240.0);
        run(&mut p, 5.0, 1e9, 300.0e6); // ~30 fps
        let before = p.completed;
        p.set_costs(1.0e6, 20.0e6); // frames get twice as heavy
        run(&mut p, 5.0, 1e9, 300.0e6);
        let after = p.completed - before;
        // Second half should complete roughly half the frames of the first.
        assert!(after < before * 0.65, "before {before}, after {after}");
        // Progress was not retroactively lost.
        assert!(p.completed >= before);
    }

    #[test]
    #[should_panic(expected = "must cost something")]
    fn zero_cost_frame_is_a_bug() {
        let _ = FramePipeline::new(0.0, 0.0, 60.0);
    }

    #[test]
    fn cpu_only_pipeline_works() {
        let mut p = FramePipeline::new(2.0e6, 0.0, 60.0);
        run(&mut p, 10.0, 70.0e6, 0.0);
        let fps = p.median_fps().unwrap();
        assert!((fps - 35.0).abs() < 1.5, "fps = {fps}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_fps_monotone_in_gpu_rate(r1 in 50.0_f64..500.0, r2 in 50.0_f64..500.0) {
            let mut a = FramePipeline::new(0.1e6, 10.0e6, 120.0);
            let mut b = FramePipeline::new(0.1e6, 10.0e6, 120.0);
            run(&mut a, 10.0, 1e9, r1 * 1e6);
            run(&mut b, 10.0, 1e9, r2 * 1e6);
            if r1 < r2 {
                prop_assert!(a.median_fps().unwrap() <= b.median_fps().unwrap() + 1.0);
            }
        }

        #[test]
        fn prop_completed_frames_never_decrease(rates in proptest::collection::vec(0.0_f64..500.0, 1..20)) {
            let mut p = FramePipeline::new(0.5e6, 5.0e6, 60.0);
            let mut prev = 0.0;
            for (i, r) in rates.iter().enumerate() {
                let now = Seconds::new(i as f64 * 0.01);
                let (cw, gw) = p.demand(now, DT);
                p.deliver(cw.min(r * 1e6 * 0.01), gw.min(r * 1e6 * 0.01), now, DT);
                prop_assert!(p.completed >= prev);
                prev = p.completed;
            }
        }

        #[test]
        fn prop_fps_never_exceeds_vsync(rate in 0.0_f64..2000.0) {
            let mut p = FramePipeline::new(0.1e6, 1.0e6, 60.0);
            run(&mut p, 10.0, 1e9, rate * 1e6);
            if let Some(fps) = p.median_fps() {
                prop_assert!(fps <= 61.0);
            }
        }
    }
}
