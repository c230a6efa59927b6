//! Dynamic frequency governors (the Linux `cpufreq` policy layer).
//!
//! A [`CpuFreqPolicy`] owns a component's OPP table, the externally
//! imposed frequency caps (what thermal governors write into
//! `scaling_max_freq`) and a pluggable [`FrequencyGovernor`]: the
//! `performance`, `ondemand` and Android `interactive` governors the
//! simulated platforms run (`interactive` "sets the frequency to the
//! highest value whenever it detects user interactions" — the behaviour
//! the paper's introduction calls out), plus `userspace` for pinning a
//! frequency.

use std::fmt;

use mpt_soc::{Component, OppTable};
use mpt_units::{Hertz, Ratio, Seconds};

/// Load information a governor acts on for one update interval.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClusterLoad {
    /// Fraction of the cluster's cycle capacity that was busy at the
    /// current frequency (0 = idle, 1 = all cores saturated).
    pub utilization: Ratio,
    /// Whether a user interaction (touch event) occurred this interval.
    pub interaction: bool,
}

/// A frequency-selection policy.
///
/// Implementations receive the current frequency and the measured load and
/// return an (unclamped) target frequency; the owning [`CpuFreqPolicy`]
/// clamps to the thermal caps and snaps onto the OPP table.
pub trait FrequencyGovernor: fmt::Debug + Send {
    /// The sysfs-visible governor name.
    fn name(&self) -> &'static str;

    /// Picks a target frequency.
    fn target(&mut self, opps: &OppTable, current: Hertz, load: ClusterLoad, dt: Seconds) -> Hertz;

    /// How long until this governor's *internal* state would change its
    /// decision even under unchanged load, if ever — e.g. `interactive`'s
    /// ramp-down hold expiring. `None` means the governor is memoryless
    /// under constant load, so the event-driven engine need not wake for
    /// it.
    fn pending_wake(&self) -> Option<Seconds> {
        None
    }
}

/// Always runs at the maximum frequency.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Performance;

impl FrequencyGovernor for Performance {
    fn name(&self) -> &'static str {
        "performance"
    }

    fn target(&mut self, opps: &OppTable, _: Hertz, _: ClusterLoad, _: Seconds) -> Hertz {
        opps.highest().frequency()
    }
}

/// Runs at a fixed, user-selected frequency.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Userspace {
    setpoint: Hertz,
}

impl Userspace {
    /// Creates the governor pinned to `setpoint`.
    #[must_use]
    pub const fn new(setpoint: Hertz) -> Self {
        Self { setpoint }
    }
}

impl FrequencyGovernor for Userspace {
    fn name(&self) -> &'static str {
        "userspace"
    }

    fn target(&mut self, _: &OppTable, _: Hertz, _: ClusterLoad, _: Seconds) -> Hertz {
        self.setpoint
    }
}

/// The classic `ondemand` governor: jump to maximum above the up
/// threshold, otherwise scale frequency proportionally to load.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ondemand {
    /// Load above which the governor jumps to the maximum frequency.
    pub up_threshold: f64,
}

impl Default for Ondemand {
    fn default() -> Self {
        Self { up_threshold: 0.80 }
    }
}

impl FrequencyGovernor for Ondemand {
    fn name(&self) -> &'static str {
        "ondemand"
    }

    fn target(&mut self, opps: &OppTable, _: Hertz, load: ClusterLoad, _: Seconds) -> Hertz {
        let max = opps.highest().frequency();
        if load.utilization.value() >= self.up_threshold {
            max
        } else {
            // freq_next = load * max (as in the kernel's dbs algorithm).
            Hertz::new((max.as_f64() * load.utilization.value()) as u64)
        }
    }
}

/// Android's `interactive` governor.
///
/// Boosts straight to the hispeed frequency on user interaction or when
/// load crosses `go_hispeed_load`; otherwise targets
/// `current · load / target_load`, and refuses to ramp down until the
/// load has stayed low for `min_sample_time` (so momentary dips don't cost
/// responsiveness).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Interactive {
    /// Load at which to jump to hispeed.
    pub go_hispeed_load: f64,
    /// Steady-state target load.
    pub target_load: f64,
    /// How long load must stay below before ramping down.
    pub min_sample_time: Seconds,
    low_since: f64,
}

impl Default for Interactive {
    fn default() -> Self {
        Self {
            go_hispeed_load: 0.85,
            target_load: 0.90,
            min_sample_time: Seconds::from_millis(80.0),
            low_since: 0.0,
        }
    }
}

impl Interactive {
    /// Creates the governor with default Android tuning.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl FrequencyGovernor for Interactive {
    fn name(&self) -> &'static str {
        "interactive"
    }

    fn target(&mut self, opps: &OppTable, current: Hertz, load: ClusterLoad, dt: Seconds) -> Hertz {
        let max = opps.highest().frequency();
        let u = load.utilization.value();
        if load.interaction || u >= self.go_hispeed_load {
            self.low_since = 0.0;
            return max;
        }
        let ideal = Hertz::new((current.as_f64() * u / self.target_load) as u64);
        if ideal >= current {
            self.low_since = 0.0;
            return ideal;
        }
        // Ramping down: require sustained low load first.
        self.low_since += dt.value();
        if self.low_since >= self.min_sample_time.value() {
            ideal
        } else {
            current
        }
    }

    fn pending_wake(&self) -> Option<Seconds> {
        // Mid ramp-down hold: the decision flips when the hold expires,
        // even if the load stays exactly where it is.
        if self.low_since > 0.0 && self.low_since < self.min_sample_time.value() {
            Some(Seconds::new(self.min_sample_time.value() - self.low_since))
        } else {
            None
        }
    }
}

/// Selects a governor implementation by its sysfs name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GovernorKind {
    /// `performance`
    Performance,
    /// `userspace` at the given setpoint.
    Userspace(Hertz),
    /// `ondemand`
    Ondemand,
    /// `interactive`
    Interactive,
}

impl GovernorKind {
    /// Instantiates the governor.
    #[must_use]
    pub(crate) fn make(self) -> Box<dyn FrequencyGovernor> {
        match self {
            GovernorKind::Performance => Box::new(Performance),
            GovernorKind::Userspace(f) => Box::new(Userspace::new(f)),
            GovernorKind::Ondemand => Box::new(Ondemand::default()),
            GovernorKind::Interactive => Box::new(Interactive::new()),
        }
    }
}

/// A per-component cpufreq policy: governor + thermal caps + OPP snapping.
///
/// # Examples
///
/// ```
/// use mpt_kernel::cpufreq::{ClusterLoad, CpuFreqPolicy};
/// use mpt_kernel::GovernorKind;
/// use mpt_soc::{platforms, ComponentId};
/// use mpt_units::{Hertz, Ratio, Seconds};
///
/// let soc = platforms::snapdragon_810();
/// let gpu = soc.component(ComponentId::Gpu)?;
/// let mut policy = CpuFreqPolicy::new(gpu, GovernorKind::Performance);
/// policy.update(ClusterLoad { utilization: Ratio::ONE, interaction: false }, Seconds::new(0.1));
/// assert_eq!(policy.current().as_mhz(), 600);
///
/// // A thermal governor caps the frequency; the policy obeys.
/// policy.set_max_cap(Some(Hertz::from_mhz(390)));
/// policy.update(ClusterLoad { utilization: Ratio::ONE, interaction: false }, Seconds::new(0.1));
/// assert_eq!(policy.current().as_mhz(), 390);
/// # Ok::<(), mpt_soc::SocError>(())
/// ```
#[derive(Debug)]
pub struct CpuFreqPolicy {
    opps: OppTable,
    governor: Box<dyn FrequencyGovernor>,
    current: Hertz,
    max_cap: Option<Hertz>,
}

impl CpuFreqPolicy {
    /// Creates a policy for a component, starting at its lowest OPP.
    #[must_use]
    pub fn new(component: &Component, kind: GovernorKind) -> Self {
        Self {
            opps: component.opps().clone(),
            governor: kind.make(),
            current: component.opps().lowest().frequency(),
            max_cap: None,
        }
    }

    /// The OPP table.
    #[must_use]
    pub fn opps(&self) -> &OppTable {
        &self.opps
    }

    /// The current frequency.
    #[must_use]
    pub fn current(&self) -> Hertz {
        self.current
    }

    /// The active governor's name.
    #[must_use]
    pub fn governor_name(&self) -> &'static str {
        self.governor.name()
    }

    /// Sets (or clears) the thermal maximum-frequency cap
    /// (`scaling_max_freq`).
    pub fn set_max_cap(&mut self, cap: Option<Hertz>) {
        self.max_cap = cap;
        self.current = self.clamp(self.current);
    }

    /// The active maximum cap, if any.
    #[must_use]
    pub fn max_cap(&self) -> Option<Hertz> {
        self.max_cap
    }

    fn clamp(&self, f: Hertz) -> Hertz {
        let mut chosen = *self.opps.at_or_below(f);
        if let Some(cap) = self.max_cap {
            if chosen.frequency() > cap {
                chosen = *self.opps.at_or_below(cap);
            }
        }
        chosen.frequency()
    }

    /// Runs one governor interval and returns the new frequency.
    pub fn update(&mut self, load: ClusterLoad, dt: Seconds) -> Hertz {
        let raw = self.governor.target(&self.opps, self.current, load, dt);
        self.current = self.clamp(raw);
        self.current
    }

    /// The governor's pending internal wake, if any — see
    /// [`FrequencyGovernor::pending_wake`].
    #[must_use]
    pub fn pending_wake(&self) -> Option<Seconds> {
        self.governor.pending_wake()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpt_soc::{platforms, ComponentId};

    fn gpu_policy(kind: GovernorKind) -> CpuFreqPolicy {
        let soc = platforms::snapdragon_810();
        CpuFreqPolicy::new(soc.component(ComponentId::Gpu).unwrap(), kind)
    }

    fn load(u: f64) -> ClusterLoad {
        ClusterLoad {
            utilization: Ratio::new(u),
            interaction: false,
        }
    }

    const DT: Seconds = Seconds::new(0.1);

    #[test]
    fn performance_pins_max() {
        let mut p = gpu_policy(GovernorKind::Performance);
        assert_eq!(p.update(load(0.0), DT).as_mhz(), 600);
    }

    #[test]
    fn userspace_holds_setpoint_snapped() {
        let mut p = gpu_policy(GovernorKind::Userspace(Hertz::from_mhz(420)));
        p.update(load(1.0), DT);
        // 420 MHz is not an Adreno OPP; snaps down to 390.
        assert_eq!(p.current().as_mhz(), 390);
    }

    #[test]
    fn ondemand_jumps_to_max_when_busy() {
        let mut p = gpu_policy(GovernorKind::Ondemand);
        p.update(load(0.95), DT);
        assert_eq!(p.current().as_mhz(), 600);
    }

    #[test]
    fn ondemand_scales_with_load_when_light() {
        let mut p = gpu_policy(GovernorKind::Ondemand);
        p.update(load(0.5), DT);
        // 0.5 * 600 = 300 MHz -> snaps to 180 (below 305).
        assert_eq!(p.current().as_mhz(), 180);
        p.update(load(0.7), DT);
        // 0.7 * 600 = 420 -> snaps to 390.
        assert_eq!(p.current().as_mhz(), 390);
    }

    #[test]
    fn interactive_boosts_on_interaction() {
        let mut p = gpu_policy(GovernorKind::Interactive);
        let boost = ClusterLoad {
            utilization: Ratio::new(0.2),
            interaction: true,
        };
        p.update(boost, DT);
        assert_eq!(p.current().as_mhz(), 600, "interaction must boost to max");
    }

    #[test]
    fn interactive_delays_ramp_down() {
        let mut p = gpu_policy(GovernorKind::Interactive);
        p.update(
            ClusterLoad {
                utilization: Ratio::new(0.2),
                interaction: true,
            },
            DT,
        );
        assert_eq!(p.current().as_mhz(), 600);
        // Low load for less than min_sample_time (80 ms): holds.
        p.update(load(0.1), Seconds::from_millis(40.0));
        assert_eq!(p.current().as_mhz(), 600);
        // After the hold expires, it ramps down.
        p.update(load(0.1), Seconds::from_millis(50.0));
        assert!(p.current().as_mhz() < 600);
    }

    #[test]
    fn thermal_cap_constrains_all_governors() {
        for kind in [
            GovernorKind::Performance,
            GovernorKind::Ondemand,
            GovernorKind::Interactive,
        ] {
            let mut p = gpu_policy(kind);
            p.set_max_cap(Some(Hertz::from_mhz(390)));
            let boosted = ClusterLoad {
                utilization: Ratio::ONE,
                interaction: true,
            };
            p.update(boosted, DT);
            assert!(
                p.current().as_mhz() <= 390,
                "{} exceeded the cap",
                p.governor_name()
            );
        }
    }

    #[test]
    fn clearing_the_cap_restores_max() {
        let mut p = gpu_policy(GovernorKind::Performance);
        p.set_max_cap(Some(Hertz::from_mhz(305)));
        p.update(load(1.0), DT);
        assert_eq!(p.current().as_mhz(), 305);
        p.set_max_cap(None);
        p.update(load(1.0), DT);
        assert_eq!(p.current().as_mhz(), 600);
    }

    #[test]
    fn setting_cap_immediately_lowers_current() {
        let mut p = gpu_policy(GovernorKind::Performance);
        p.update(load(1.0), DT);
        assert_eq!(p.current().as_mhz(), 600);
        p.set_max_cap(Some(Hertz::from_mhz(450)));
        // Without another governor tick, the cap already applies.
        assert_eq!(p.current().as_mhz(), 450);
    }
}
