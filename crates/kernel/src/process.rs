//! Process records and rolling utilization windows.

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};

use mpt_soc::ComponentId;
use mpt_units::{Seconds, Watts};

/// A process identifier.
///
/// # Examples
///
/// ```
/// use mpt_kernel::Pid;
///
/// let pid = Pid::new(1234);
/// assert_eq!(pid.to_string(), "pid 1234");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Pid(u32);

impl Pid {
    /// Creates a pid.
    #[must_use]
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// The raw numeric pid.
    #[must_use]
    pub const fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid {}", self.0)
    }
}

/// Whether a process is user-facing.
///
/// The paper's key observation is that stock thermal governors throttle
/// the whole system even when a *background* process caused the heating;
/// its proposed governor penalizes only the offender.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProcessClass {
    /// The app the user is interacting with (rendering frames).
    Foreground,
    /// A compute task with no user-visible deadline.
    Background,
}

/// A rolling time-weighted average over a fixed time span.
///
/// The paper's governor "monitor\[s\] the average utilization of each active
/// process for a one-second window … to filter out momentary peaks".
///
/// # Examples
///
/// ```
/// use mpt_kernel::UtilWindow;
/// use mpt_units::Seconds;
///
/// let mut w = UtilWindow::new(Seconds::new(1.0));
/// for _ in 0..10 {
///     w.push(0.5, Seconds::new(0.1));
/// }
/// assert!((w.average() - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct UtilWindow {
    span: f64,
    samples: VecDeque<(f64, f64)>, // (duration, value)
    total_time: f64,
}

impl UtilWindow {
    /// Creates a window covering the last `span` of simulated time.
    ///
    /// # Panics
    ///
    /// Panics if `span` is not positive.
    #[must_use]
    pub fn new(span: Seconds) -> Self {
        assert!(span.value() > 0.0, "window span must be positive");
        Self {
            span: span.value(),
            samples: VecDeque::new(),
            total_time: 0.0,
        }
    }

    /// The configured span.
    #[must_use]
    pub fn span(&self) -> Seconds {
        Seconds::new(self.span)
    }

    /// Records `value` held for `dt`.
    pub fn push(&mut self, value: f64, dt: Seconds) {
        let dt = dt.value();
        if dt <= 0.0 {
            return;
        }
        self.samples.push_back((dt, value));
        self.total_time += dt;
        while self.total_time > self.span {
            let excess = self.total_time - self.span;
            let front = self.samples.front_mut().expect("nonempty while over span");
            if front.0 <= excess + 1e-12 {
                self.total_time -= front.0;
                self.samples.pop_front();
            } else {
                front.0 -= excess;
                self.total_time -= excess;
            }
        }
    }

    /// The time-weighted average over the window (0.0 when empty).
    #[must_use]
    pub fn average(&self) -> f64 {
        if self.total_time <= 0.0 {
            return 0.0;
        }
        let weighted: f64 = self.samples.iter().map(|(d, v)| d * v).sum();
        weighted / self.total_time
    }

    /// Whether at least a full span of samples has been observed.
    #[must_use]
    pub(crate) fn is_warm(&self) -> bool {
        self.total_time >= self.span - 1e-9
    }
}

/// A schedulable process: identity, class, cluster affinity and the
/// windows the governors consult.
///
/// # Examples
///
/// ```
/// use mpt_kernel::{ProcessClass, Scheduler};
/// use mpt_soc::ComponentId;
///
/// let mut sched = Scheduler::new();
/// let pid = sched.spawn("bml", ProcessClass::Background, ComponentId::BigCluster);
/// let p = sched.process(pid).unwrap();
/// assert_eq!(p.name(), "bml");
/// assert!(!p.is_realtime());
/// ```
#[derive(Debug, Clone)]
pub struct Process {
    pid: Pid,
    name: String,
    class: ProcessClass,
    cluster: ComponentId,
    realtime: bool,
    util_window: UtilWindow,
    power_window: UtilWindow,
    migrations: u32,
}

impl Process {
    pub(crate) fn new(
        pid: Pid,
        name: impl Into<String>,
        class: ProcessClass,
        cluster: ComponentId,
        window_span: Seconds,
    ) -> Self {
        Self {
            pid,
            name: name.into(),
            class,
            cluster,
            realtime: false,
            util_window: UtilWindow::new(window_span),
            power_window: UtilWindow::new(window_span),
            migrations: 0,
        }
    }

    /// The pid.
    #[must_use]
    pub const fn pid(&self) -> Pid {
        self.pid
    }

    /// The process name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Foreground or background.
    #[must_use]
    pub const fn class(&self) -> ProcessClass {
        self.class
    }

    /// The CPU cluster the process currently runs on.
    #[must_use]
    pub const fn cluster(&self) -> ComponentId {
        self.cluster
    }

    /// Whether the process registered itself as real-time (exempt from
    /// throttling by the paper's governor).
    #[must_use]
    pub const fn is_realtime(&self) -> bool {
        self.realtime
    }

    /// Registers or deregisters real-time status.
    pub fn set_realtime(&mut self, realtime: bool) {
        self.realtime = realtime;
    }

    pub(crate) fn set_cluster(&mut self, cluster: ComponentId) {
        if self.cluster != cluster {
            self.cluster = cluster;
            self.migrations += 1;
        }
    }

    /// How many times the process has been migrated between clusters.
    #[must_use]
    pub const fn migration_count(&self) -> u32 {
        self.migrations
    }

    /// Records the utilization (busy cores) and attributed power for one
    /// tick.
    pub fn record_tick(&mut self, util: f64, power: Watts, dt: Seconds) {
        self.util_window.push(util, dt);
        self.power_window.push(power.value(), dt);
    }

    /// Average utilization over the rolling window.
    #[must_use]
    pub fn windowed_utilization(&self) -> f64 {
        self.util_window.average()
    }

    /// Whether a full accounting window has been observed. Rankings based
    /// on a cold window see only an instant of behaviour and are exactly
    /// the "momentary peaks" the paper's window exists to filter.
    #[must_use]
    pub fn window_is_warm(&self) -> bool {
        self.util_window.is_warm()
    }

    /// Average attributed power over the rolling window — the quantity the
    /// paper's governor ranks processes by.
    #[must_use]
    pub(crate) fn windowed_power(&self) -> Watts {
        Watts::new(self.power_window.average())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn window_averages_constant_input() {
        let mut w = UtilWindow::new(Seconds::new(1.0));
        for _ in 0..20 {
            w.push(0.7, Seconds::new(0.1));
        }
        assert!((w.average() - 0.7).abs() < 1e-9);
        assert!(w.is_warm());
    }

    #[test]
    fn window_forgets_old_samples() {
        let mut w = UtilWindow::new(Seconds::new(1.0));
        for _ in 0..10 {
            w.push(1.0, Seconds::new(0.1));
        }
        // A full second of zeros should push the ones out entirely.
        for _ in 0..10 {
            w.push(0.0, Seconds::new(0.1));
        }
        assert!(w.average() < 1e-9);
    }

    #[test]
    fn window_filters_momentary_peaks() {
        // The paper's rationale: a one-tick spike must not dominate.
        let mut w = UtilWindow::new(Seconds::new(1.0));
        for _ in 0..9 {
            w.push(0.1, Seconds::new(0.1));
        }
        w.push(4.0, Seconds::new(0.1)); // spike
        assert!(
            w.average() < 0.6,
            "avg {} should damp the spike",
            w.average()
        );
    }

    #[test]
    fn window_handles_partial_evictions() {
        let mut w = UtilWindow::new(Seconds::new(1.0));
        w.push(1.0, Seconds::new(0.8));
        w.push(0.0, Seconds::new(0.6));
        // 0.4 s of the first sample remain: avg = 0.4/1.0.
        assert!((w.average() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn empty_window_is_zero_and_cold() {
        let w = UtilWindow::new(Seconds::new(1.0));
        assert_eq!(w.average(), 0.0);
        assert!(!w.is_warm());
    }

    #[test]
    fn zero_dt_pushes_are_ignored() {
        let mut w = UtilWindow::new(Seconds::new(1.0));
        w.push(5.0, Seconds::ZERO);
        assert_eq!(w.average(), 0.0);
    }

    #[test]
    #[should_panic(expected = "span must be positive")]
    fn zero_span_is_a_bug() {
        let _ = UtilWindow::new(Seconds::ZERO);
    }

    #[test]
    fn process_tick_recording() {
        let mut p = Process::new(
            Pid::new(1),
            "game",
            ProcessClass::Foreground,
            ComponentId::BigCluster,
            Seconds::new(1.0),
        );
        for _ in 0..10 {
            p.record_tick(2.0, Watts::new(1.5), Seconds::new(0.1));
        }
        assert!((p.windowed_utilization() - 2.0).abs() < 1e-9);
        assert!((p.windowed_power().value() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn migration_counting() {
        let mut p = Process::new(
            Pid::new(1),
            "bml",
            ProcessClass::Background,
            ComponentId::BigCluster,
            Seconds::new(1.0),
        );
        p.set_cluster(ComponentId::LittleCluster);
        p.set_cluster(ComponentId::LittleCluster); // no-op
        p.set_cluster(ComponentId::BigCluster);
        assert_eq!(p.migration_count(), 2);
    }

    #[test]
    fn realtime_registration() {
        let mut p = Process::new(
            Pid::new(1),
            "decoder",
            ProcessClass::Background,
            ComponentId::BigCluster,
            Seconds::new(1.0),
        );
        assert!(!p.is_realtime());
        p.set_realtime(true);
        assert!(p.is_realtime());
    }

    proptest! {
        #[test]
        fn prop_window_average_bounded_by_inputs(
            values in proptest::collection::vec(0.0_f64..4.0, 1..50),
        ) {
            let mut w = UtilWindow::new(Seconds::new(1.0));
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &v in &values {
                w.push(v, Seconds::new(0.05));
                lo = lo.min(v);
                hi = hi.max(v);
            }
            // Only the last 20 samples fit the window, but the average is
            // still bounded by the global extremes.
            prop_assert!(w.average() >= lo - 1e-9);
            prop_assert!(w.average() <= hi + 1e-9);
        }

        #[test]
        fn prop_window_time_never_exceeds_span(
            steps in proptest::collection::vec(0.001_f64..0.5, 1..100),
        ) {
            let mut w = UtilWindow::new(Seconds::new(1.0));
            for dt in steps {
                w.push(1.0, Seconds::new(dt));
                prop_assert!(w.total_time <= 1.0 + 1e-9);
            }
        }
    }
}
