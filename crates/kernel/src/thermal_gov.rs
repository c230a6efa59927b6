//! Kernel thermal governors: step-wise trip points and ARM Intelligent
//! Power Allocation (IPA).
//!
//! These are the paper's *baselines*: "The default policy is to use the
//! thermal management policy in the Linux kernel (3.10.9). Specifically,
//! it uses thermal trip points and ARM intelligent power allocation
//! algorithm to control the temperature." Both act by capping component
//! frequencies — which is exactly why they "throttle the whole system
//! instead of selectively throttling the resources that increase the
//! temperature".

use std::collections::BTreeMap;
use std::fmt;

use mpt_soc::{Component, ComponentId};
use mpt_units::{Celsius, Hertz, Seconds, Watts};

/// Per-actor observation fed to a thermal governor each poll.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActorState {
    /// Which component.
    pub id: ComponentId,
    /// Measured power over the last interval.
    pub power: Watts,
    /// Busy cores (0..=core_count).
    pub utilization: f64,
}

/// A frequency-capping decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThermalAction {
    /// Cap a component's maximum frequency.
    SetMaxFreq {
        /// The capped component.
        component: ComponentId,
        /// The new maximum frequency.
        freq: Hertz,
    },
    /// Remove a component's cap.
    ClearCap {
        /// The uncapped component.
        component: ComponentId,
    },
}

/// A thermal-management policy polled at a fixed interval.
pub trait ThermalGovernor: fmt::Debug + Send {
    /// The policy's name.
    fn name(&self) -> &'static str;

    /// Observes the control temperature and per-actor state; returns cap
    /// changes to apply.
    fn update(
        &mut self,
        control_temp: Celsius,
        actors: &[ActorState],
        dt: Seconds,
    ) -> Vec<ThermalAction>;

    /// Whether this governor can ever act. An inactive governor (the
    /// [`DisabledGovernor`] baseline) imposes no periodic poll, so the
    /// event-driven engine need not wake for it.
    fn is_active(&self) -> bool {
        true
    }
}

/// A no-op governor, used to "disable the default temperature governor"
/// as in the paper's baseline runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct DisabledGovernor;

impl ThermalGovernor for DisabledGovernor {
    fn name(&self) -> &'static str {
        "disabled"
    }

    fn update(&mut self, _: Celsius, _: &[ActorState], _: Seconds) -> Vec<ThermalAction> {
        Vec::new()
    }

    fn is_active(&self) -> bool {
        false
    }
}

/// A thermal trip point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TripPoint {
    /// Temperature at which throttling engages.
    pub temperature: Celsius,
    /// Hysteresis below the trip at which it disengages.
    pub hysteresis: Celsius,
}

impl TripPoint {
    /// Creates a trip point.
    #[must_use]
    pub const fn new(temperature: Celsius, hysteresis: Celsius) -> Self {
        Self {
            temperature,
            hysteresis,
        }
    }
}

/// The Linux `step_wise` thermal governor: each poll, if the control
/// temperature is above a trip point (and rising through it), increase the
/// cooling state by one — i.e. cap the governed components one OPP lower;
/// when the temperature falls below the lowest trip minus hysteresis, back
/// off one OPP.
///
/// # Examples
///
/// ```
/// use mpt_kernel::{StepWiseGovernor, ThermalGovernor, TripPoint};
/// use mpt_soc::{platforms, ComponentId};
/// use mpt_units::{Celsius, Seconds};
///
/// let soc = platforms::snapdragon_810();
/// let mut gov = StepWiseGovernor::new(
///     vec![TripPoint::new(Celsius::new(43.0), Celsius::new(2.0))],
///     vec![soc.component(ComponentId::Gpu)?.clone()],
/// );
/// // Hot: the first poll caps the GPU one OPP below max (510 MHz).
/// let acts = gov.update(Celsius::new(46.0), &[], Seconds::new(0.1));
/// assert_eq!(acts.len(), 1);
/// # Ok::<(), mpt_soc::SocError>(())
/// ```
#[derive(Debug)]
pub struct StepWiseGovernor {
    trips: Vec<TripPoint>,
    governed: Vec<(Component, usize)>,
    /// Cooling state per component: how many OPPs below max the cap sits.
    state: BTreeMap<ComponentId, usize>,
}

impl StepWiseGovernor {
    /// Creates the governor over the given trip points and components,
    /// with each component's full OPP range available as cooling states.
    ///
    /// # Panics
    ///
    /// Panics if `trips` is empty (a trip-point governor without trips is
    /// a configuration bug).
    #[must_use]
    pub fn new(trips: Vec<TripPoint>, governed: Vec<Component>) -> Self {
        let limited = governed
            .into_iter()
            .map(|c| {
                let max = c.opps().len() - 1;
                (c, max)
            })
            .collect();
        Self::with_state_limits(trips, limited)
    }

    /// Creates the governor with a maximum cooling state per component —
    /// the Linux thermal core's cooling-device binding ranges, which stop
    /// a trip point from dragging a device below a floor frequency.
    ///
    /// # Panics
    ///
    /// Panics if `trips` is empty.
    #[must_use]
    pub fn with_state_limits(trips: Vec<TripPoint>, governed: Vec<(Component, usize)>) -> Self {
        assert!(
            !trips.is_empty(),
            "step-wise governor needs at least one trip point"
        );
        let mut trips = trips;
        trips.sort_by(|a, b| {
            a.temperature
                .value()
                .partial_cmp(&b.temperature.value())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let governed: Vec<(Component, usize)> = governed
            .into_iter()
            .map(|(c, limit)| {
                let max = c.opps().len() - 1;
                (c, limit.min(max))
            })
            .collect();
        let state = governed.iter().map(|(c, _)| (c.id(), 0usize)).collect();
        Self {
            trips,
            governed,
            state,
        }
    }
}

impl ThermalGovernor for StepWiseGovernor {
    fn name(&self) -> &'static str {
        "step_wise"
    }

    fn update(
        &mut self,
        control_temp: Celsius,
        _actors: &[ActorState],
        _dt: Seconds,
    ) -> Vec<ThermalAction> {
        // How many trips are exceeded determines how aggressively we step.
        let exceeded = self
            .trips
            .iter()
            .filter(|t| control_temp > t.temperature)
            .count();
        let lowest = self.trips[0];
        let release = control_temp < lowest.temperature - lowest.hysteresis;
        let mut actions = Vec::new();
        for (comp, limit) in &self.governed {
            let state = self
                .state
                .get_mut(&comp.id())
                .expect("state tracked per component");
            let max_state = *limit;
            let old = *state;
            if exceeded > 0 {
                // Step down `exceeded` OPPs per poll, saturating.
                *state = (*state + exceeded).min(max_state);
            } else if release && *state > 0 {
                *state -= 1;
            }
            if *state != old {
                if *state == 0 {
                    actions.push(ThermalAction::ClearCap {
                        component: comp.id(),
                    });
                } else {
                    let idx = comp.opps().len() - 1 - *state;
                    let freq = comp
                        .opps()
                        .get(idx)
                        .expect("cooling state bounded by table size")
                        .frequency();
                    actions.push(ThermalAction::SetMaxFreq {
                        component: comp.id(),
                        freq,
                    });
                }
            }
        }
        actions
    }
}

/// Configuration for the [`IpaGovernor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IpaConfig {
    /// The temperature the controller regulates toward.
    pub control_temp: Celsius,
    /// Power budget handed out when the temperature is at the setpoint.
    pub sustainable_power: Watts,
    /// Proportional gain (W/K).
    pub k_p: f64,
    /// Integral gain (W/(K·s)).
    pub k_i: f64,
    /// Bound on the integral term's contribution (anti-windup), in watts.
    pub integral_cap: Watts,
}

impl Default for IpaConfig {
    fn default() -> Self {
        Self {
            control_temp: Celsius::new(95.0),
            sustainable_power: Watts::new(3.0),
            k_p: 0.6,
            k_i: 0.05,
            integral_cap: Watts::new(1.0),
        }
    }
}

/// ARM Intelligent Power Allocation: a PID controller on the temperature
/// headroom produces a total power budget, which is divided among the
/// actors proportionally to their *requested* (currently drawn) power;
/// each actor's allocation is converted back to a frequency cap through
/// its power model.
///
/// # Examples
///
/// ```
/// use mpt_kernel::{IpaConfig, IpaGovernor, ThermalGovernor};
/// use mpt_kernel::thermal_gov::ActorState;
/// use mpt_soc::{platforms, ComponentId};
/// use mpt_units::{Celsius, Seconds, Watts};
///
/// let soc = platforms::exynos_5422();
/// let mut ipa = IpaGovernor::new(
///     IpaConfig::default(),
///     vec![
///         soc.component(ComponentId::BigCluster)?.clone(),
///         soc.component(ComponentId::Gpu)?.clone(),
///     ],
/// );
/// let hot = Celsius::new(99.0);
/// let actors = [
///     ActorState { id: ComponentId::BigCluster, power: Watts::new(2.4), utilization: 4.0 },
///     ActorState { id: ComponentId::Gpu, power: Watts::new(1.2), utilization: 1.0 },
/// ];
/// let actions = ipa.update(hot, &actors, Seconds::new(0.1));
/// assert!(!actions.is_empty(), "over the setpoint, IPA must cap something");
/// # Ok::<(), mpt_soc::SocError>(())
/// ```
#[derive(Debug)]
pub struct IpaGovernor {
    config: IpaConfig,
    actors: Vec<(Component, f64)>,
    integral: f64,
    /// Last cap issued per component, indexed by `ComponentId as usize`,
    /// to avoid re-emitting unchanged actions.
    last_caps: [Option<Hertz>; 4],
}

impl IpaGovernor {
    /// Creates the governor over the given actor components with equal
    /// weights.
    #[must_use]
    pub fn new(config: IpaConfig, actors: Vec<Component>) -> Self {
        Self::with_weights(config, actors.into_iter().map(|c| (c, 1.0)).collect())
    }

    /// Creates the governor with per-actor weights, as ARM's
    /// implementation allows (`sustainable_power` device-tree weights):
    /// a heavier actor receives a proportionally larger slice of the
    /// power budget before the remainder is divided.
    ///
    /// # Panics
    ///
    /// Panics if any weight is not positive, or if two actors are the
    /// same component.
    #[must_use]
    pub fn with_weights(config: IpaConfig, actors: Vec<(Component, f64)>) -> Self {
        assert!(
            actors.iter().all(|(_, w)| *w > 0.0 && w.is_finite()),
            "actor weights must be positive"
        );
        assert!(
            (1..actors.len()).all(|i| actors[..i].iter().all(|(c, _)| c.id() != actors[i].0.id())),
            "actors must be distinct components"
        );
        Self {
            config,
            actors,
            integral: 0.0,
            last_caps: [None; 4],
        }
    }

    /// Divides `budget` among weighted requests by water-filling: every
    /// actor is granted at most its request; surplus from satisfied
    /// actors is re-divided among the rest in weight proportion (ARM's
    /// `divvy_up_power`). `requests` holds `(component, request, weight)`
    /// for at most four distinct components; the grants come back indexed
    /// by `ComponentId as usize`, zero for a component that got nothing.
    fn divvy(budget: f64, requests: &[(ComponentId, f64, f64)]) -> [f64; 4] {
        let mut granted = [0.0; 4];
        let mut remaining = budget.max(0.0);
        // Which requests, by position, still wait for a grant.
        let mut active = [false; 4];
        active[..requests.len()].fill(true);
        let waiting =
            |active: [bool; 4]| requests.iter().enumerate().filter(move |(i, _)| active[*i]);
        while active.contains(&true) && remaining > 1e-12 {
            let wsum: f64 = waiting(active).map(|(_, (_, _, w))| w).sum();
            if wsum <= 0.0 {
                break;
            }
            let mut next = active;
            let mut consumed = 0.0;
            let mut satisfied_any = false;
            for (i, &(id, req, w)) in waiting(active) {
                let share = remaining * w / wsum;
                if req <= share {
                    granted[id as usize] = req;
                    consumed += req;
                    satisfied_any = true;
                    next[i] = false;
                }
            }
            if !satisfied_any {
                // Everyone is hungrier than their share: final split.
                for (_, &(id, _, w)) in waiting(active) {
                    granted[id as usize] = remaining * w / wsum;
                }
                return granted;
            }
            remaining -= consumed;
            active = next;
        }
        granted
    }

    /// The configuration.
    #[must_use]
    pub const fn config(&self) -> &IpaConfig {
        &self.config
    }

    /// Computes the total power budget for a control temperature.
    #[must_use]
    pub(crate) fn power_budget(&self, control_temp: Celsius) -> Watts {
        let err = self.config.control_temp.value() - control_temp.value();
        let p = self.config.k_p * err;
        let i = (self.config.k_i * self.integral).clamp(
            -self.config.integral_cap.value(),
            self.config.integral_cap.value(),
        );
        Watts::new((self.config.sustainable_power.value() + p + i).max(0.0))
    }

    /// Highest OPP whose predicted power at the observed utilization fits
    /// within `budget`.
    fn freq_for_budget(component: &Component, utilization: f64, budget: Watts) -> Hertz {
        let params = component.power_params();
        // Estimate with the observed busy-core count, but at least one
        // core: a briefly idle actor must not be granted infinite budget.
        let util = utilization.max(1.0);
        for opp in component.opps().iter().rev() {
            let p =
                params.dynamic_power(opp.voltage(), opp.frequency(), util) + params.static_floor();
            if p <= budget {
                return opp.frequency();
            }
        }
        component.opps().lowest().frequency()
    }
}

impl ThermalGovernor for IpaGovernor {
    fn name(&self) -> &'static str {
        "power_allocator"
    }

    fn update(
        &mut self,
        control_temp: Celsius,
        actors: &[ActorState],
        dt: Seconds,
    ) -> Vec<ThermalAction> {
        let err = self.config.control_temp.value() - control_temp.value();
        self.integral += err * dt.value();
        // Anti-windup on the raw integral as well.
        let cap = self.config.integral_cap.value() / self.config.k_i.max(1e-9);
        self.integral = self.integral.clamp(-cap, cap);

        let mut actions = Vec::new();
        let mut emit = |caps: &mut [Option<Hertz>; 4], id: ComponentId, new: Option<Hertz>| {
            if caps[id as usize] != new {
                caps[id as usize] = new;
                actions.push(match new {
                    Some(freq) => ThermalAction::SetMaxFreq {
                        component: id,
                        freq,
                    },
                    None => ThermalAction::ClearCap { component: id },
                });
            }
        };

        if err > 0.5 {
            // Comfortable headroom: release all caps.
            for (c, _) in &self.actors {
                emit(&mut self.last_caps, c.id(), None);
            }
            return actions;
        }

        let budget = self.power_budget(control_temp);
        // Observed utilization by `ComponentId as usize`; a later report
        // for the same component wins.
        let mut utils = [None; 4];
        for a in actors {
            utils[a.id as usize] = Some(a.utilization);
        }
        // Each actor requests the power it would draw *unconstrained*:
        // its observed utilization at its maximum OPP. (Using the
        // currently measured power instead creates a starvation feedback:
        // a throttled actor measures low, gets allocated even less, and
        // never recovers — ARM's implementation likewise budgets against
        // requested, not delivered, power.) Requests stay in actor order.
        let mut requests = [(ComponentId::LittleCluster, 0.0, 0.0); 4];
        for (slot, (c, weight)) in requests.iter_mut().zip(&self.actors) {
            let util = utils[c.id() as usize].unwrap_or(1.0).max(0.5);
            let top = c.opps().highest();
            let p = c
                .power_params()
                .dynamic_power(top.voltage(), top.frequency(), util)
                + c.power_params().static_floor();
            *slot = (c.id(), p.value(), *weight);
        }
        let granted = Self::divvy(budget.value(), &requests[..self.actors.len()]);
        for (comp, _) in &self.actors {
            let id = comp.id();
            let util = utils[id as usize].unwrap_or(1.0);
            let freq = Self::freq_for_budget(comp, util, Watts::new(granted[id as usize]));
            emit(&mut self.last_caps, id, Some(freq));
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpt_soc::platforms;

    const DT: Seconds = Seconds::new(0.1);

    fn gpu() -> Component {
        platforms::snapdragon_810()
            .component(ComponentId::Gpu)
            .unwrap()
            .clone()
    }

    fn big() -> Component {
        platforms::exynos_5422()
            .component(ComponentId::BigCluster)
            .unwrap()
            .clone()
    }

    #[test]
    fn disabled_governor_does_nothing() {
        let mut g = DisabledGovernor;
        assert!(g.update(Celsius::new(200.0), &[], DT).is_empty());
    }

    #[test]
    fn stepwise_is_quiet_when_cool() {
        let mut g = StepWiseGovernor::new(
            vec![TripPoint::new(Celsius::new(43.0), Celsius::new(2.0))],
            vec![gpu()],
        );
        assert!(g.update(Celsius::new(35.0), &[], DT).is_empty());
        assert_eq!(g.state.get(&ComponentId::Gpu).copied(), Some(0));
    }

    #[test]
    fn stepwise_ratchets_down_while_hot() {
        let mut g = StepWiseGovernor::new(
            vec![TripPoint::new(Celsius::new(43.0), Celsius::new(2.0))],
            vec![gpu()],
        );
        // Adreno OPPs: 180/305/390/450/510/600.
        let a1 = g.update(Celsius::new(45.0), &[], DT);
        assert_eq!(
            a1,
            vec![ThermalAction::SetMaxFreq {
                component: ComponentId::Gpu,
                freq: Hertz::from_mhz(510)
            }]
        );
        let a2 = g.update(Celsius::new(45.0), &[], DT);
        assert_eq!(
            a2,
            vec![ThermalAction::SetMaxFreq {
                component: ComponentId::Gpu,
                freq: Hertz::from_mhz(450)
            }]
        );
        // Saturates at the lowest OPP eventually.
        for _ in 0..10 {
            g.update(Celsius::new(45.0), &[], DT);
        }
        assert_eq!(g.state.get(&ComponentId::Gpu).copied(), Some(5));
    }

    #[test]
    fn stepwise_steps_faster_past_higher_trips() {
        let mut g = StepWiseGovernor::new(
            vec![
                TripPoint::new(Celsius::new(43.0), Celsius::new(2.0)),
                TripPoint::new(Celsius::new(46.0), Celsius::new(2.0)),
            ],
            vec![gpu()],
        );
        // Two trips exceeded: two steps in one poll.
        g.update(Celsius::new(47.0), &[], DT);
        assert_eq!(g.state.get(&ComponentId::Gpu).copied(), Some(2));
    }

    #[test]
    fn stepwise_releases_below_hysteresis() {
        let mut g = StepWiseGovernor::new(
            vec![TripPoint::new(Celsius::new(43.0), Celsius::new(2.0))],
            vec![gpu()],
        );
        g.update(Celsius::new(45.0), &[], DT);
        g.update(Celsius::new(45.0), &[], DT);
        assert_eq!(g.state.get(&ComponentId::Gpu).copied(), Some(2));
        // 42 C is inside the hysteresis band: hold.
        assert!(g.update(Celsius::new(42.0), &[], DT).is_empty());
        // 40.5 C is below 43-2: release one step per poll.
        let a = g.update(Celsius::new(40.5), &[], DT);
        assert_eq!(
            a,
            vec![ThermalAction::SetMaxFreq {
                component: ComponentId::Gpu,
                freq: Hertz::from_mhz(510)
            }]
        );
        let a = g.update(Celsius::new(40.5), &[], DT);
        assert_eq!(
            a,
            vec![ThermalAction::ClearCap {
                component: ComponentId::Gpu
            }]
        );
    }

    #[test]
    #[should_panic(expected = "at least one trip point")]
    fn stepwise_without_trips_is_a_bug() {
        let _ = StepWiseGovernor::new(vec![], vec![gpu()]);
    }

    #[test]
    fn ipa_budget_tracks_error_sign() {
        let ipa = IpaGovernor::new(IpaConfig::default(), vec![big()]);
        let cool = ipa.power_budget(Celsius::new(80.0));
        let at = ipa.power_budget(Celsius::new(95.0));
        let hot = ipa.power_budget(Celsius::new(110.0));
        assert!(cool > at);
        assert!(at > hot);
        assert!(
            (at.value() - IpaConfig::default().sustainable_power.value()).abs() < 1e-9,
            "at the setpoint the budget is the sustainable power"
        );
    }

    #[test]
    fn ipa_budget_never_negative() {
        let ipa = IpaGovernor::new(IpaConfig::default(), vec![big()]);
        assert!(ipa.power_budget(Celsius::new(500.0)).value() >= 0.0);
    }

    #[test]
    fn ipa_releases_caps_with_headroom() {
        let mut ipa = IpaGovernor::new(IpaConfig::default(), vec![big()]);
        // First get it to cap.
        let hot = [ActorState {
            id: ComponentId::BigCluster,
            power: Watts::new(3.0),
            utilization: 4.0,
        }];
        let acts = ipa.update(Celsius::new(99.0), &hot, DT);
        assert!(acts
            .iter()
            .any(|a| matches!(a, ThermalAction::SetMaxFreq { .. })));
        // Then cool down: caps must be cleared.
        let acts = ipa.update(Celsius::new(70.0), &hot, DT);
        assert!(acts
            .iter()
            .any(|a| matches!(a, ThermalAction::ClearCap { .. })));
    }

    #[test]
    fn ipa_splits_budget_by_request() {
        let soc = platforms::exynos_5422();
        let mut ipa = IpaGovernor::new(
            IpaConfig::default(),
            vec![
                soc.component(ComponentId::BigCluster).unwrap().clone(),
                soc.component(ComponentId::Gpu).unwrap().clone(),
            ],
        );
        // Big requests 4x the GPU's power: after capping, the big cap
        // should allow roughly 4x the GPU's allocated power.
        let actors = [
            ActorState {
                id: ComponentId::BigCluster,
                power: Watts::new(2.8),
                utilization: 4.0,
            },
            ActorState {
                id: ComponentId::Gpu,
                power: Watts::new(0.7),
                utilization: 1.0,
            },
        ];
        let acts = ipa.update(Celsius::new(96.0), &actors, DT);
        let mut caps = BTreeMap::new();
        for a in acts {
            if let ThermalAction::SetMaxFreq { component, freq } = a {
                caps.insert(component, freq);
            }
        }
        assert!(caps.contains_key(&ComponentId::BigCluster));
        assert!(caps.contains_key(&ComponentId::Gpu));
    }

    #[test]
    fn ipa_does_not_reemit_unchanged_caps() {
        let mut ipa = IpaGovernor::new(IpaConfig::default(), vec![big()]);
        let actors = [ActorState {
            id: ComponentId::BigCluster,
            power: Watts::new(3.0),
            utilization: 4.0,
        }];
        let first = ipa.update(Celsius::new(99.0), &actors, DT);
        assert!(!first.is_empty());
        let second = ipa.update(Celsius::new(99.0), &actors, DT);
        // Same conditions, same caps: nothing new to do (the integral
        // drift may change it slightly, so allow <= first).
        assert!(second.len() <= first.len());
    }

    #[test]
    fn freq_for_budget_monotone() {
        let comp = big();
        let f_small = IpaGovernor::freq_for_budget(&comp, 4.0, Watts::new(0.5));
        let f_large = IpaGovernor::freq_for_budget(&comp, 4.0, Watts::new(4.0));
        assert!(f_small <= f_large);
        // A huge budget allows the top OPP.
        let f_max = IpaGovernor::freq_for_budget(&comp, 4.0, Watts::new(100.0));
        assert_eq!(f_max, comp.opps().highest().frequency());
    }

    #[test]
    fn divvy_under_budget_grants_everything() {
        let granted = IpaGovernor::divvy(
            10.0,
            &[
                (ComponentId::BigCluster, 4.0, 1.0),
                (ComponentId::Gpu, 2.0, 1.0),
            ],
        );
        assert!((granted[ComponentId::BigCluster as usize] - 4.0).abs() < 1e-9);
        assert!((granted[ComponentId::Gpu as usize] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn divvy_over_budget_splits_by_weight() {
        let granted = IpaGovernor::divvy(
            3.0,
            &[
                (ComponentId::BigCluster, 10.0, 1.0),
                (ComponentId::Gpu, 10.0, 2.0),
            ],
        );
        assert!((granted[ComponentId::BigCluster as usize] - 1.0).abs() < 1e-9);
        assert!((granted[ComponentId::Gpu as usize] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn divvy_redistributes_surplus_water_filling() {
        // GPU asks for less than its weighted share; the surplus must
        // flow to the hungry big cluster.
        let granted = IpaGovernor::divvy(
            4.0,
            &[
                (ComponentId::BigCluster, 10.0, 1.0),
                (ComponentId::Gpu, 1.0, 1.0),
            ],
        );
        assert!((granted[ComponentId::Gpu as usize] - 1.0).abs() < 1e-9);
        assert!((granted[ComponentId::BigCluster as usize] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn divvy_conserves_budget() {
        let reqs = [
            (ComponentId::BigCluster, 2.5, 1.0),
            (ComponentId::Gpu, 1.5, 2.0),
            (ComponentId::LittleCluster, 0.3, 1.0),
        ];
        for budget in [0.0, 1.0, 2.0, 4.0, 10.0] {
            let granted = IpaGovernor::divvy(budget, &reqs);
            let total: f64 = granted.iter().sum();
            let demand: f64 = reqs.iter().map(|(_, r, _)| r).sum();
            assert!(total <= budget + 1e-9, "budget {budget}: granted {total}");
            assert!(total <= demand + 1e-9);
            // Work-conserving.
            assert!((total - budget.min(demand)).abs() < 1e-9);
        }
    }

    #[test]
    fn divvy_handles_zero_budget_and_empty_requests() {
        let granted = IpaGovernor::divvy(0.0, &[(ComponentId::Gpu, 1.0, 1.0)]);
        assert_eq!(granted[ComponentId::Gpu as usize], 0.0);
        assert_eq!(IpaGovernor::divvy(5.0, &[]), [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn nonpositive_weight_is_a_bug() {
        let _ = IpaGovernor::with_weights(IpaConfig::default(), vec![(big(), 0.0)]);
    }

    #[test]
    #[should_panic(expected = "distinct components")]
    fn duplicate_actor_is_a_bug() {
        let _ = IpaGovernor::new(IpaConfig::default(), vec![big(), big()]);
    }
}
