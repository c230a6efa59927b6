//! The lumped power–temperature stability analysis (paper Section IV-A,
//! after Bhat, Gumussoy & Ogras, TECS 2017).
//!
//! Model: a single thermal node with resistance `R` to ambient, time
//! constant `τ`, and temperature-dependent leakage:
//!
//! ```text
//! τ·dT/dt = T_a − T + R·(P_dyn + g·T²·e^(−β/T)),   g = α·V  ("leak gain")
//! ```
//!
//! Substituting the **auxiliary temperature** `θ = β/T` (inversely
//! proportional to the Kelvin temperature — a *higher* auxiliary
//! temperature corresponds to a *lower* temperature, exactly as the paper
//! states) gives `τ·dθ/dt = F(θ)` with the **fixed-point function**
//!
//! ```text
//! F(θ) = θ − c·θ² − d·e^(−θ),   c = (T_a + R·P_dyn)/β,   d = R·g·β
//! ```
//!
//! `F'' = −2c − d·e^(−θ) < 0`: `F` is strictly concave, negative at both
//! ends, so it has at most two roots (Figure 7). Between the roots `F > 0`
//! and `θ` grows toward the larger root — the larger root (lower
//! temperature) is the **stable** fixed point, the smaller root is
//! **unstable**, and trajectories left of it (hotter) run away. The roots
//! merge when power reaches the **critical power**, which has a closed
//! form: at the double root, `d = θ/(θ+2)·e^θ` and
//! `c = (θ+1)/(θ(θ+2))`.

use mpt_units::{Kelvin, Seconds, Watts};

use crate::{Result, ThermalError};

/// The pair of temperature fixed points of a stable configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedPoints {
    /// The attracting fixed point (the lower temperature / larger root).
    pub stable: Kelvin,
    /// The repelling fixed point (the higher temperature / smaller root).
    pub unstable: Kelvin,
    /// Auxiliary temperature `β/T` of the stable point.
    pub stable_aux: f64,
    /// Auxiliary temperature `β/T` of the unstable point.
    pub unstable_aux: f64,
}

/// The stability classification of the power–temperature dynamics at a
/// given dynamic power (paper Figure 7 a/b/c).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stability {
    /// Two fixed points: trajectories starting below the unstable point
    /// converge to the stable one (Figure 7a).
    Stable(FixedPoints),
    /// The roots have merged: a single, critically stable point
    /// (Figure 7b).
    CriticallyStable {
        /// The double root.
        point: Kelvin,
    },
    /// No fixed points: thermal runaway (Figure 7c).
    Runaway,
}

impl Stability {
    /// The stable steady-state temperature, if one exists.
    #[must_use]
    pub fn steady_state(&self) -> Option<Kelvin> {
        match self {
            Stability::Stable(fp) => Some(fp.stable),
            Stability::CriticallyStable { point } => Some(*point),
            Stability::Runaway => None,
        }
    }
}

/// Bisects `[lo, hi]` for up to 200 halvings, moving `lo` up to the
/// midpoint where `right_of(mid)` holds and `hi` down to it elsewhere,
/// and returns the final midpoint.
///
/// Returns as soon as the midpoint equals `lo` or `hi`: the bracket is
/// then two adjacent floats (or one), every later halving computes the
/// same midpoint and at most collapses the bracket onto it, so the
/// remaining iterations cannot change the result.
fn bisect(mut lo: f64, mut hi: f64, right_of: impl Fn(f64) -> bool) -> f64 {
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid == lo || mid == hi {
            return mid;
        }
        if right_of(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// How far below its target a climb must provably stay for
/// [`LumpedModel::time_to_reach`] to stop early, and how far apart the two
/// fixed points must be for the stable one to bound the climb, in kelvin.
const REACH_MARGIN_K: f64 = 1e-6;

/// How far above the bisected stable fixed point the climb's ceiling
/// sits, in kelvin.
const CEILING_NUDGE_K: f64 = 1e-9;

/// Whether an RK4 climb of step `dt`, now at `y` and heating at `k1`,
/// provably stays below `target − REACH_MARGIN_K` for `steps_left` more
/// steps, by the chord bound toward `ceiling` that
/// [`LumpedModel::time_to_reach`] documents. False where that bound does
/// not apply: `k1 ≤ 0`, `y ≥ ceiling` or `a·dt ≥ 1`.
fn stays_short(ceiling: f64, y: f64, k1: f64, dt: f64, steps_left: f64, target: f64) -> bool {
    let gap = ceiling - y;
    if !(k1 > 0.0 && gap > 0.0) {
        return false;
    }
    let a_dt = k1 / gap * dt;
    a_dt < 1.0 && ceiling - gap * (1.0 - a_dt).powf(steps_left) < target - REACH_MARGIN_K
}

/// A lumped power–temperature model with leakage feedback.
///
/// # Examples
///
/// ```
/// use mpt_thermal::LumpedModel;
/// use mpt_units::Watts;
///
/// let m = LumpedModel::odroid_xu3();
/// // The Odroid calibration puts the critical power at 5.5 W (Fig. 7b).
/// assert!((m.critical_power().value() - 5.5).abs() < 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LumpedModel {
    t_ambient: Kelvin,
    r_th: f64,
    beta: f64,
    leak_gain: f64,
    tau: Seconds,
}

impl LumpedModel {
    /// Creates a lumped model.
    ///
    /// `r_th` is the thermal resistance in K/W, `beta` the leakage
    /// activation constant in Kelvin, `leak_gain = α·V` the leakage
    /// magnitude in W/K², and `tau` the thermal time constant.
    ///
    /// # Errors
    ///
    /// [`ThermalError::InvalidParameter`] for non-positive or non-finite
    /// parameters (`leak_gain` may be zero: a leakage-free model).
    pub fn new(
        t_ambient: Kelvin,
        r_th: f64,
        beta: f64,
        leak_gain: f64,
        tau: Seconds,
    ) -> Result<Self> {
        fn check(name: &'static str, v: f64, allow_zero: bool) -> Result<()> {
            let ok = v.is_finite() && (v > 0.0 || (allow_zero && v == 0.0));
            if ok {
                Ok(())
            } else {
                Err(ThermalError::InvalidParameter { name, value: v })
            }
        }
        check("t_ambient", t_ambient.value(), false)?;
        check("r_th", r_th, false)?;
        check("beta", beta, false)?;
        check("leak_gain", leak_gain, true)?;
        check("tau", tau.value(), false)?;
        Ok(Self {
            t_ambient,
            r_th,
            beta,
            leak_gain,
            tau,
        })
    }

    /// The lumped Odroid-XU3 parameters used for the paper's Figure 7:
    /// 25 °C ambient, 17 K/W hotspot resistance with the fan disabled,
    /// `β = 8000 K`, and the leak gain calibrated so the critical power is
    /// exactly 5.5 W (the paper: "the roots of the fixed-point function
    /// converge … when the power consumption reaches 5.5 W").
    #[must_use]
    pub fn odroid_xu3() -> Self {
        let t_a = Kelvin::new(298.15);
        let (r, beta) = (17.0, 8000.0);
        let gain = Self::calibrate_leak_gain(t_a, r, beta, Watts::new(5.5))
            .expect("odroid preset calibration is valid");
        Self::new(t_a, r, beta, gain, Seconds::new(340.0))
            .expect("odroid preset parameters are valid")
    }

    /// Solves for the leak gain `g = α·V` that places the critical power
    /// at `p_crit`, using the closed-form double-root condition
    /// `c = (θ+1)/(θ(θ+2))`, `d = θ/(θ+2)·e^θ`.
    ///
    /// # Errors
    ///
    /// [`ThermalError::InvalidParameter`] if the inputs are non-positive
    /// or if `p_crit` is unreachable (the implied `c ≥ 1/2`... i.e. the
    /// linear steady state at `p_crit` would already be below ambient
    /// scale).
    pub(crate) fn calibrate_leak_gain(
        t_ambient: Kelvin,
        r_th: f64,
        beta: f64,
        p_crit: Watts,
    ) -> Result<f64> {
        if !(r_th > 0.0 && beta > 0.0 && p_crit.value() > 0.0) {
            return Err(ThermalError::InvalidParameter {
                name: "calibration",
                value: r_th,
            });
        }
        let c = (t_ambient.value() + r_th * p_crit.value()) / beta;
        if c <= 0.0 || c >= 0.5 {
            return Err(ThermalError::InvalidParameter {
                name: "c",
                value: c,
            });
        }
        let one_minus = 1.0 - 2.0 * c;
        let theta = (one_minus + (one_minus * one_minus + 4.0 * c).sqrt()) / (2.0 * c);
        let d = theta / (theta + 2.0) * theta.exp();
        Ok(d / (r_th * beta))
    }

    /// Ambient temperature.
    #[must_use]
    pub const fn t_ambient(&self) -> Kelvin {
        self.t_ambient
    }

    /// Thermal resistance in K/W.
    #[must_use]
    pub const fn r_th(&self) -> f64 {
        self.r_th
    }

    /// Leakage activation constant β in Kelvin.
    #[must_use]
    pub const fn beta(&self) -> f64 {
        self.beta
    }

    /// Thermal time constant.
    #[must_use]
    pub const fn tau(&self) -> Seconds {
        self.tau
    }

    /// The absolute temperature for an auxiliary temperature.
    #[must_use]
    pub(crate) fn temperature_from_aux(&self, theta: f64) -> Kelvin {
        Kelvin::new(self.beta / theta)
    }

    /// Leakage power at temperature `t`.
    #[must_use]
    pub(crate) fn leakage(&self, t: Kelvin) -> Watts {
        let tk = t.value();
        Watts::new(self.leak_gain * tk * tk * (-self.beta / tk).exp())
    }

    fn coeffs(&self, p_dyn: Watts) -> (f64, f64) {
        let c = (self.t_ambient.value() + self.r_th * p_dyn.value()) / self.beta;
        let d = self.r_th * self.leak_gain * self.beta;
        (c, d)
    }

    /// The fixed-point function `F(θ) = θ − c·θ² − d·e^(−θ)` at dynamic
    /// power `p_dyn` (the curves of the paper's Figure 7).
    #[must_use]
    pub fn fixed_point_function(&self, theta: f64, p_dyn: Watts) -> f64 {
        let (c, d) = self.coeffs(p_dyn);
        theta - c * theta * theta - d * (-theta).exp()
    }

    /// `F'(θ) = 1 − 2cθ + d·e^(−θ)`, strictly decreasing.
    fn fixed_point_derivative(&self, theta: f64, p_dyn: Watts) -> f64 {
        let (c, d) = self.coeffs(p_dyn);
        1.0 - 2.0 * c * theta + d * (-theta).exp()
    }

    /// The auxiliary temperature maximizing `F` (unique since `F` is
    /// strictly concave and `F'` strictly decreasing).
    fn argmax_theta(&self, p_dyn: Watts) -> f64 {
        let (c, _) = self.coeffs(p_dyn);
        // F'(0+) = 1 + d > 0. Find an upper bracket where F' < 0.
        let mut hi = (1.0 / c).max(4.0);
        while self.fixed_point_derivative(hi, p_dyn) > 0.0 {
            hi *= 2.0;
            if hi > 1e9 {
                break;
            }
        }
        bisect(1e-12, hi, |mid| {
            self.fixed_point_derivative(mid, p_dyn) > 0.0
        })
    }

    fn bisect_root(&self, lo: f64, hi: f64, p_dyn: Watts) -> f64 {
        // Invariant: F(lo) and F(hi) have opposite signs.
        let f_lo = self.fixed_point_function(lo, p_dyn);
        bisect(lo, hi, |mid| {
            (self.fixed_point_function(mid, p_dyn) > 0.0) == (f_lo > 0.0)
        })
    }

    /// Classifies the power–temperature dynamics at dynamic power
    /// `p_dyn`: two fixed points, critically stable, or runaway — the
    /// decision procedure of the paper's Section IV-A ("we can determine
    /// the stability … by looking at the number of roots of the
    /// fixed-point function").
    ///
    /// Where `T_a + R·P_dyn ≤ 0` (`c ≤ 0`, only reachable with negative
    /// power), `F` is strictly increasing with a single, repelling root, so
    /// no stable fixed point exists and the answer is
    /// [`Stability::Runaway`].
    #[must_use]
    pub fn stability(&self, p_dyn: Watts) -> Stability {
        if self.coeffs(p_dyn).0 <= 0.0 {
            return Stability::Runaway;
        }
        let peak_theta = self.argmax_theta(p_dyn);
        let peak = self.fixed_point_function(peak_theta, p_dyn);
        if peak < -1e-9 {
            return Stability::Runaway;
        }
        if peak < 1e-9 {
            return Stability::CriticallyStable {
                point: self.temperature_from_aux(peak_theta),
            };
        }
        // F(ε) ≈ −d < 0 and F(θ) → −∞, so both brackets are valid.
        let mut hi = peak_theta + 1.0;
        while self.fixed_point_function(hi, p_dyn) > 0.0 {
            hi = peak_theta + (hi - peak_theta) * 2.0;
        }
        let unstable_aux = self.bisect_root(1e-12, peak_theta, p_dyn);
        let stable_aux = self.bisect_root(peak_theta, hi, p_dyn);
        Stability::Stable(FixedPoints {
            stable: self.temperature_from_aux(stable_aux),
            unstable: self.temperature_from_aux(unstable_aux),
            stable_aux,
            unstable_aux,
        })
    }

    /// The critical power and the temperature of the merged double root,
    /// or `None` for a leakage-free model (which never runs away).
    fn critical_point(&self) -> Option<(Watts, Kelvin)> {
        let d = self.r_th * self.leak_gain * self.beta;
        if d <= 0.0 {
            // No leakage feedback: never runs away.
            return None;
        }
        // Solve θ/(θ+2)·e^θ = d; the left side is strictly increasing.
        let mut hi = 1.0;
        let h = |theta: f64| theta / (theta + 2.0) * theta.exp();
        while h(hi) < d && hi < 1e3 {
            hi *= 2.0;
        }
        let theta = bisect(1e-9, hi, |mid| h(mid) < d);
        let c = (theta + 1.0) / (theta * (theta + 2.0));
        let p = Watts::new(((c * self.beta - self.t_ambient.value()) / self.r_th).max(0.0));
        Some((p, self.temperature_from_aux(theta)))
    }

    /// The critical power: the largest dynamic power for which a fixed
    /// point exists (closed form via the double-root condition).
    ///
    /// Returns `Watts::ZERO` if the system is already unstable at zero
    /// dynamic power (pathological leakage), and an infinite budget for a
    /// leakage-free model.
    #[must_use]
    pub fn critical_power(&self) -> Watts {
        self.critical_point()
            .map_or(Watts::new(f64::INFINITY), |(p, _)| p)
    }

    /// The stable steady-state temperature at `p_dyn`, if the dynamics
    /// have one: `None` for runaway, including `T_a + R·P_dyn ≤ 0`.
    #[must_use]
    pub fn steady_state_temperature(&self, p_dyn: Watts) -> Option<Kelvin> {
        self.stability(p_dyn).steady_state()
    }

    /// Instantaneous heating rate `dT/dt` at temperature `t` and dynamic
    /// power `p_dyn`.
    #[must_use]
    pub(crate) fn heating_rate(&self, t: Kelvin, p_dyn: Watts) -> f64 {
        let p_total = p_dyn + self.leakage(t);
        (self.t_ambient.value() - t.value() + self.r_th * p_total.value()) / self.tau.value()
    }

    /// The RK4 step [`time_to_reach`](Self::time_to_reach) integrates
    /// with: τ/400, at most a sixteenth of the horizon, at least 1 ms.
    fn rk4_step(&self, horizon: Seconds) -> f64 {
        (self.tau.value() / 400.0)
            .min(horizon.value() / 16.0)
            .max(1e-3)
    }

    /// The temperature no climb under `stability` can pass from below: the
    /// stable fixed point plus [`CEILING_NUDGE_K`]. `None` unless there are
    /// two fixed points more than [`REACH_MARGIN_K`] apart, where a
    /// bisected root is accurate far within the margin.
    fn reach_ceiling(stability: &Stability) -> Option<f64> {
        match stability {
            Stability::Stable(fp) if fp.unstable.value() - fp.stable.value() > REACH_MARGIN_K => {
                Some(fp.stable.value() + CEILING_NUDGE_K)
            }
            _ => None,
        }
    }

    /// Estimates the time for the temperature to rise from `from` to
    /// `target` at constant dynamic power, by integrating the lumped ODE
    /// (RK4). Returns `None` if `target` is not reached within `horizon`
    /// (either because the stable fixed point is below it, or because the
    /// horizon is too short). If `from >= target` the time is zero.
    ///
    /// This is the "time to reach the fixed point" estimate the paper's
    /// governor compares against a user-defined limit to decide whether a
    /// thermal violation is imminent.
    ///
    /// `stability` must be `self.stability(p_dyn)`, which the caller has
    /// already computed to decide whether to ask, so a prediction
    /// classifies its power once. The early `None` below relies on it.
    ///
    /// # Early `None`
    ///
    /// When `p_dyn` has two fixed points more than 1e-6 K apart, the
    /// integration stops with `None` before any step from a temperature
    /// `y` below the stable point `T_s` once a chord bound proves the
    /// climb cannot reach `target − 1e-6 K` in the steps the horizon has
    /// left. The answer is the one the full RK4 gives: the leakage
    /// `g·T²·e^(−β/T)` is convex for `T > 0`, so on `[y, T_s]` the heating
    /// rate is non-negative and lies under the chord from `(y, k1)` to
    /// `(T_s, 0)`, where `k1` is the rate at `y`. With `a = k1/(T_s − y)`
    /// and `a·dt < 1`, every RK4 stage stays in `[y, T_s)`, each step
    /// shrinks the distance to `T_s` by at most the factor `1 − a·dt`, and
    /// `a` can only fall as the climb goes on, so after `m` more steps the
    /// temperature is at most `T_s − (T_s − y)·(1 − a·dt)^m`. `T_s` is
    /// taken 1e-9 K above the bisected root, and the 1e-6 K margin sits
    /// orders of magnitude above the loop's accumulated rounding. Runaway
    /// and critically stable powers, starts at or above `T_s`, and every
    /// climb that reaches its target run the same RK4 steps to the same
    /// result.
    #[must_use]
    pub fn time_to_reach(
        &self,
        from: Kelvin,
        target: Kelvin,
        p_dyn: Watts,
        stability: &Stability,
        horizon: Seconds,
    ) -> Option<Seconds> {
        if from >= target {
            return Some(Seconds::ZERO);
        }
        let dt = self.rk4_step(horizon);
        let ceiling = Self::reach_ceiling(stability);
        // An upper bound on the steps the loop below can take: summing
        // `dt` may round `elapsed` short of the horizon once.
        let steps = (horizon.value() / dt).ceil() + 1.0;
        let mut taken = 0.0;
        let mut t = from.value();
        let mut elapsed = 0.0;
        let deriv = |temp: f64| self.heating_rate(Kelvin::new(temp), p_dyn);
        while elapsed < horizon.value() {
            let k1 = deriv(t);
            if ceiling.is_some_and(|ceiling| {
                stays_short(ceiling, t, k1, dt, steps - taken, target.value())
            }) {
                return None;
            }
            taken += 1.0;
            let k2 = deriv(t + 0.5 * dt * k1);
            let k3 = deriv(t + 0.5 * dt * k2);
            let k4 = deriv(t + dt * k3);
            let step = dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
            if step.abs() < 1e-12 {
                // Equilibrium short of the target.
                return None;
            }
            t += step;
            elapsed += dt;
            if t >= target.value() {
                return Some(Seconds::new(elapsed));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn odroid() -> LumpedModel {
        LumpedModel::odroid_xu3()
    }

    #[test]
    fn figure7a_two_fixed_points_at_2w() {
        match odroid().stability(Watts::new(2.0)) {
            Stability::Stable(fp) => {
                // Stable point (larger aux root) is the *lower* temperature.
                assert!(fp.stable < fp.unstable);
                assert!(fp.stable_aux > fp.unstable_aux);
                // At 2 W the steady state should be a plausible operating
                // temperature, well below runaway.
                let c = fp.stable.to_celsius().value();
                assert!((40.0..90.0).contains(&c), "stable point {c} C");
            }
            other => panic!("expected two fixed points at 2 W, got {other:?}"),
        }
    }

    #[test]
    fn figure7b_critical_at_5_5w() {
        let m = odroid();
        let p_crit = m.critical_power();
        assert!(
            (p_crit.value() - 5.5).abs() < 1e-6,
            "critical power {p_crit}"
        );
        // Just below: stable. Just above: runaway.
        assert!(matches!(
            m.stability(Watts::new(5.45)),
            Stability::Stable(_)
        ));
        assert!(matches!(m.stability(Watts::new(5.55)), Stability::Runaway));
    }

    #[test]
    fn figure7c_runaway_at_8w() {
        assert!(matches!(
            odroid().stability(Watts::new(8.0)),
            Stability::Runaway
        ));
    }

    #[test]
    fn fixed_point_function_is_concave() {
        let m = odroid();
        let p = Watts::new(2.0);
        // Numerical concavity check over a wide θ range.
        let thetas: Vec<f64> = (1..400).map(|i| i as f64 * 0.1).collect();
        for w in thetas.windows(3) {
            let (f0, f1, f2) = (
                m.fixed_point_function(w[0], p),
                m.fixed_point_function(w[1], p),
                m.fixed_point_function(w[2], p),
            );
            assert!(f1 >= 0.5 * (f0 + f2) - 1e-9, "not concave near θ={}", w[1]);
        }
    }

    #[test]
    fn increasing_power_moves_the_function_down() {
        let m = odroid();
        for theta in [5.0, 10.0, 15.0, 20.0, 25.0] {
            let lo = m.fixed_point_function(theta, Watts::new(2.0));
            let hi = m.fixed_point_function(theta, Watts::new(8.0));
            assert!(hi < lo, "F must decrease with power at θ={theta}");
        }
    }

    #[test]
    fn roots_are_actual_zeros() {
        let m = odroid();
        if let Stability::Stable(fp) = m.stability(Watts::new(3.0)) {
            assert!(m.fixed_point_function(fp.stable_aux, Watts::new(3.0)).abs() < 1e-6);
            assert!(
                m.fixed_point_function(fp.unstable_aux, Watts::new(3.0))
                    .abs()
                    < 1e-6
            );
        } else {
            panic!("expected stable at 3 W");
        }
    }

    #[test]
    fn aux_temperature_is_inversely_proportional() {
        let m = odroid();
        let hot = m.temperature_from_aux(m.beta() / 380.0);
        let cold = m.temperature_from_aux(m.beta() / 300.0);
        assert!(
            hot > cold,
            "a smaller aux value must give a hotter temperature"
        );
        let rt = m.temperature_from_aux(m.beta() / 333.0);
        assert!((rt.value() - 333.0).abs() < 1e-9);
    }

    #[test]
    fn steady_state_matches_self_consistent_balance() {
        let m = odroid();
        let p = Watts::new(3.0);
        let t = m.steady_state_temperature(p).unwrap();
        // At the fixed point: T = T_a + R (P + leak(T)).
        let rhs = m.t_ambient().value() + m.r_th() * (p + m.leakage(t)).value();
        assert!((t.value() - rhs).abs() < 1e-6, "t={} rhs={rhs}", t.value());
    }

    #[test]
    fn steady_state_increases_with_power() {
        let m = odroid();
        let t1 = m.steady_state_temperature(Watts::new(1.0)).unwrap();
        let t2 = m.steady_state_temperature(Watts::new(3.0)).unwrap();
        let t3 = m.steady_state_temperature(Watts::new(5.0)).unwrap();
        assert!(t1 < t2 && t2 < t3);
    }

    #[test]
    fn zero_leakage_model_never_runs_away() {
        let m =
            LumpedModel::new(Kelvin::new(298.15), 10.0, 8000.0, 0.0, Seconds::new(100.0)).unwrap();
        assert_eq!(m.critical_power(), Watts::new(f64::INFINITY));
        let t = m.steady_state_temperature(Watts::new(4.0)).unwrap();
        // Pure linear model: T = T_a + R P.
        assert!((t.value() - (298.15 + 40.0)).abs() < 1e-3);
    }

    #[test]
    fn calibration_round_trips() {
        for target in [3.0, 5.5, 8.0] {
            let gain = LumpedModel::calibrate_leak_gain(
                Kelvin::new(298.15),
                17.0,
                8000.0,
                Watts::new(target),
            )
            .unwrap();
            let m = LumpedModel::new(Kelvin::new(298.15), 17.0, 8000.0, gain, Seconds::new(300.0))
                .unwrap();
            assert!(
                (m.critical_power().value() - target).abs() < 1e-6,
                "target {target}"
            );
        }
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let t = Kelvin::new(298.0);
        let tau = Seconds::new(100.0);
        assert!(LumpedModel::new(Kelvin::new(0.0), 1.0, 1.0, 1.0, tau).is_err());
        assert!(LumpedModel::new(t, -1.0, 1.0, 1.0, tau).is_err());
        assert!(LumpedModel::new(t, 1.0, 0.0, 1.0, tau).is_err());
        assert!(LumpedModel::new(t, 1.0, 1.0, -0.5, tau).is_err());
        assert!(LumpedModel::new(t, 1.0, 1.0, 1.0, Seconds::ZERO).is_err());
        assert!(LumpedModel::new(t, f64::NAN, 1.0, 1.0, tau).is_err());
    }

    #[test]
    fn time_to_reach_is_zero_when_already_there() {
        let m = odroid();
        let p = Watts::new(3.0);
        let t = m.time_to_reach(
            Kelvin::new(350.0),
            Kelvin::new(340.0),
            p,
            &m.stability(p),
            Seconds::new(100.0),
        );
        assert_eq!(t, Some(Seconds::ZERO));
    }

    #[test]
    fn time_to_reach_none_when_fixed_point_is_below_target() {
        let m = odroid();
        let p = Watts::new(2.0);
        let ss = m.steady_state_temperature(p).unwrap();
        let target = Kelvin::new(ss.value() + 10.0);
        let t = m.time_to_reach(
            m.t_ambient(),
            target,
            p,
            &m.stability(p),
            Seconds::new(5000.0),
        );
        assert_eq!(t, None);
    }

    #[test]
    fn time_to_reach_agrees_with_forward_simulation() {
        let m = odroid();
        let p = Watts::new(4.0);
        let from = m.t_ambient();
        let target = Kelvin::new(from.value() + 30.0);
        let t = m
            .time_to_reach(from, target, p, &m.stability(p), Seconds::new(10_000.0))
            .expect("target below fixed point must be reached");
        // Cross-check with a fine Euler simulation.
        let mut temp = from.value();
        let mut elapsed = 0.0;
        let dt = 0.01;
        while temp < target.value() {
            temp += dt * m.heating_rate(Kelvin::new(temp), p);
            elapsed += dt;
            assert!(elapsed < 20_000.0, "simulation runaway");
        }
        let rel = (t.value() - elapsed).abs() / elapsed;
        assert!(rel < 0.02, "rk4 {} vs euler {elapsed}", t.value());
    }

    #[test]
    fn hotter_start_reaches_target_sooner() {
        let m = odroid();
        let p = Watts::new(4.5);
        let target = Kelvin::new(360.0);
        let horizon = Seconds::new(10_000.0);
        let stability = m.stability(p);
        let slow = m
            .time_to_reach(Kelvin::new(300.0), target, p, &stability, horizon)
            .unwrap();
        let fast = m
            .time_to_reach(Kelvin::new(330.0), target, p, &stability, horizon)
            .unwrap();
        assert!(fast < slow);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_stability_is_monotone_in_power(p in 0.1_f64..12.0) {
            // Once unstable, more power can never make it stable again.
            let m = odroid();
            let p_crit = m.critical_power().value();
            match m.stability(Watts::new(p)) {
                Stability::Stable(_) => prop_assert!(p <= p_crit + 1e-6),
                Stability::Runaway => prop_assert!(p >= p_crit - 1e-6),
                Stability::CriticallyStable { .. } => {
                    prop_assert!((p - p_crit).abs() < 1e-3)
                }
            }
        }

        #[test]
        fn prop_stable_point_below_unstable_point(p in 0.1_f64..5.4) {
            let m = odroid();
            if let Stability::Stable(fp) = m.stability(Watts::new(p)) {
                prop_assert!(fp.stable.value() < fp.unstable.value());
                prop_assert!(fp.stable.value() > m.t_ambient().value());
            }
        }

        #[test]
        fn prop_heating_rate_sign_matches_fixed_points(p in 0.5_f64..5.0, t in 300.0_f64..420.0) {
            let m = odroid();
            if let Stability::Stable(fp) = m.stability(Watts::new(p)) {
                let rate = m.heating_rate(Kelvin::new(t), Watts::new(p));
                if t < fp.stable.value() - 0.1 {
                    prop_assert!(rate > 0.0, "below stable point must heat");
                } else if t > fp.stable.value() + 0.1 && t < fp.unstable.value() - 0.1 {
                    prop_assert!(rate < 0.0, "between points must cool toward stable");
                } else if t > fp.unstable.value() + 0.1 {
                    prop_assert!(rate > 0.0, "beyond unstable point must run away");
                }
            }
        }
    }

    /// The bisections as they were before the early exit, every loop
    /// running all 200 halvings: the oracle for `stability` and
    /// `critical_power`.
    mod reference {
        use super::*;

        fn argmax_theta(m: &LumpedModel, p_dyn: Watts) -> f64 {
            let (c, _) = m.coeffs(p_dyn);
            let mut hi = (1.0 / c).max(4.0);
            while m.fixed_point_derivative(hi, p_dyn) > 0.0 {
                hi *= 2.0;
                if hi > 1e9 {
                    break;
                }
            }
            let mut lo = 1e-12;
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if m.fixed_point_derivative(mid, p_dyn) > 0.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        }

        fn bisect_root(m: &LumpedModel, mut lo: f64, mut hi: f64, p_dyn: Watts) -> f64 {
            let f_lo = m.fixed_point_function(lo, p_dyn);
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                let f_mid = m.fixed_point_function(mid, p_dyn);
                if (f_mid > 0.0) == (f_lo > 0.0) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        }

        pub(super) fn stability(m: &LumpedModel, p_dyn: Watts) -> Stability {
            let peak_theta = argmax_theta(m, p_dyn);
            let peak = m.fixed_point_function(peak_theta, p_dyn);
            if peak < -1e-9 {
                return Stability::Runaway;
            }
            if peak < 1e-9 {
                return Stability::CriticallyStable {
                    point: m.temperature_from_aux(peak_theta),
                };
            }
            let mut hi = peak_theta + 1.0;
            while m.fixed_point_function(hi, p_dyn) > 0.0 {
                hi = peak_theta + (hi - peak_theta) * 2.0;
            }
            let unstable_aux = bisect_root(m, 1e-12, peak_theta, p_dyn);
            let stable_aux = bisect_root(m, peak_theta, hi, p_dyn);
            Stability::Stable(FixedPoints {
                stable: m.temperature_from_aux(stable_aux),
                unstable: m.temperature_from_aux(unstable_aux),
                stable_aux,
                unstable_aux,
            })
        }

        pub(super) fn critical_power(m: &LumpedModel) -> Watts {
            let d = m.r_th * m.leak_gain * m.beta;
            if d <= 0.0 {
                return Watts::new(f64::INFINITY);
            }
            let mut lo = 1e-9;
            let mut hi = 1.0;
            let h = |theta: f64| theta / (theta + 2.0) * theta.exp();
            while h(hi) < d && hi < 1e3 {
                hi *= 2.0;
            }
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if h(mid) < d {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let theta = 0.5 * (lo + hi);
            let c = (theta + 1.0) / (theta * (theta + 2.0));
            Watts::new(((c * m.beta - m.t_ambient.value()) / m.r_th).max(0.0))
        }

        /// `time_to_reach` as it was before the early `None`: a climb
        /// that misses its target runs every RK4 step to the horizon.
        pub(super) fn time_to_reach(
            m: &LumpedModel,
            from: Kelvin,
            target: Kelvin,
            p_dyn: Watts,
            horizon: Seconds,
        ) -> Option<Seconds> {
            if from >= target {
                return Some(Seconds::ZERO);
            }
            let dt = (m.tau.value() / 400.0)
                .min(horizon.value() / 16.0)
                .max(1e-3);
            let mut t = from.value();
            let mut elapsed = 0.0;
            let deriv = |temp: f64| m.heating_rate(Kelvin::new(temp), p_dyn);
            while elapsed < horizon.value() {
                let k1 = deriv(t);
                let k2 = deriv(t + 0.5 * dt * k1);
                let k3 = deriv(t + 0.5 * dt * k2);
                let k4 = deriv(t + dt * k3);
                let step = dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
                if step.abs() < 1e-12 {
                    // Equilibrium short of the target.
                    return None;
                }
                t += step;
                elapsed += dt;
                if t >= target.value() {
                    return Some(Seconds::new(elapsed));
                }
            }
            None
        }

        /// Where the reference climb stands when it stops with no target
        /// to reach: at the horizon, or at its equilibrium test.
        pub(super) fn end_temperature(
            m: &LumpedModel,
            from: Kelvin,
            p_dyn: Watts,
            horizon: Seconds,
        ) -> f64 {
            let dt = m.rk4_step(horizon);
            let mut t = from.value();
            let mut elapsed = 0.0;
            let deriv = |temp: f64| m.heating_rate(Kelvin::new(temp), p_dyn);
            while elapsed < horizon.value() {
                let k1 = deriv(t);
                let k2 = deriv(t + 0.5 * dt * k1);
                let k3 = deriv(t + 0.5 * dt * k2);
                let k4 = deriv(t + dt * k3);
                let step = dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
                if step.abs() < 1e-12 {
                    break;
                }
                t += step;
                elapsed += dt;
            }
            t
        }
    }

    /// A classification as bits: variant tag, then every float it holds.
    fn stability_bits(s: Stability) -> Vec<u64> {
        match s {
            Stability::Stable(fp) => vec![
                0,
                fp.stable.value().to_bits(),
                fp.unstable.value().to_bits(),
                fp.stable_aux.to_bits(),
                fp.unstable_aux.to_bits(),
            ],
            Stability::CriticallyStable { point } => vec![1, point.value().to_bits()],
            Stability::Runaway => vec![2],
        }
    }

    #[test]
    fn early_exit_matches_full_bisection_on_the_odroid_preset() {
        let m = odroid();
        assert_eq!(
            m.critical_power().value().to_bits(),
            reference::critical_power(&m).value().to_bits()
        );
        for p in [0.0, 2.0, 3.0, 5.45, 5.5, 5.55, 8.0] {
            let p = Watts::new(p);
            assert_eq!(
                stability_bits(m.stability(p)),
                stability_bits(reference::stability(&m, p)),
                "p_dyn = {p}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn prop_early_exit_bisection_is_bit_identical(
            t_a in 250.0_f64..330.0,
            r in 0.5_f64..60.0,
            beta in 2000.0_f64..16000.0,
            p_crit in 0.2_f64..20.0,
            g_scale in -1.5_f64..1.5,
            p_share in 0.0_f64..2.0,
        ) {
            // A leak gain within ~30x of the one that puts the critical
            // power at `p_crit` (or a leak-free model when `p_crit` is
            // unreachable), and a dynamic power around that critical
            // power: stable, runaway and leak-free cases all occur.
            let calibrated = LumpedModel::calibrate_leak_gain(
                Kelvin::new(t_a),
                r,
                beta,
                Watts::new(p_crit),
            );
            let g = calibrated.map_or(0.0, |g| g * 10f64.powf(g_scale));
            let m = LumpedModel::new(Kelvin::new(t_a), r, beta, g, Seconds::new(100.0)).unwrap();
            let p = Watts::new(p_share * p_crit);
            prop_assert_eq!(
                stability_bits(m.stability(p)),
                stability_bits(reference::stability(&m, p))
            );
            prop_assert_eq!(
                m.critical_power().value().to_bits(),
                reference::critical_power(&m).value().to_bits()
            );
        }
    }

    /// One poll of the app-aware governor on the Odroid 3DMark run: the
    /// reduced model's stable point (~368.74 K) is above the 95 °C limit,
    /// so the governor asks for the time to reach it, but the RK4 climb
    /// ends at ~358.78 K after the 60 s horizon.
    fn logged_governor_poll() -> (LumpedModel, Kelvin, Kelvin, Watts, Seconds) {
        let m = LumpedModel::new(
            Kelvin::new(298.15),
            19.350,
            8000.0,
            2098.5,
            Seconds::new(42.2075),
        )
        .unwrap();
        let limit = Kelvin::new(368.15);
        (
            m,
            Kelvin::new(331.82),
            limit,
            Watts::new(3.54),
            Seconds::new(60.0),
        )
    }

    #[test]
    fn chord_bound_decides_a_logged_poll_before_the_first_step() {
        let (m, from, target, p, horizon) = logged_governor_poll();
        let end = reference::end_temperature(&m, from, p, horizon);
        assert!(
            (end - 358.78).abs() < 0.01,
            "reference climb ends at {end} K"
        );
        let stability = m.stability(p);
        let ceiling = LumpedModel::reach_ceiling(&stability).expect("two fixed points");
        assert!((ceiling - 368.737).abs() < 0.01, "ceiling {ceiling} K");
        let dt = m.rk4_step(horizon);
        let steps = (horizon.value() / dt).ceil() + 1.0;
        let k1 = m.heating_rate(from, p);
        assert!(stays_short(
            ceiling,
            from.value(),
            k1,
            dt,
            steps,
            target.value()
        ));
        assert_eq!(m.time_to_reach(from, target, p, &stability, horizon), None);
        assert_eq!(reference::time_to_reach(&m, from, target, p, horizon), None);
        // Just short of where the climb ends, the bound lets it run.
        let reachable = Kelvin::new(end - 1e-9);
        let reached = m.time_to_reach(from, reachable, p, &stability, horizon);
        assert!(reached.is_some());
        assert_eq!(
            reached,
            reference::time_to_reach(&m, from, reachable, p, horizon)
        );
    }

    #[test]
    fn stability_is_runaway_where_no_stable_point_exists() {
        // T_a + R·P < 0: F rises through a single, repelling root, so the
        // root bracket of the two-root search would never close.
        let m = odroid();
        let p = Watts::new(-20.0);
        assert!(m.coeffs(p).0 < 0.0);
        assert_eq!(m.stability(p), Stability::Runaway);
        assert_eq!(m.steady_state_temperature(p), None);
        // A small negative power still leaves two fixed points.
        assert!(matches!(
            m.stability(Watts::new(-10.0)),
            Stability::Stable(_)
        ));
    }

    #[test]
    fn time_to_reach_runs_the_rk4_where_stability_would_not_return() {
        // T_a + R·P < 0: the power is runaway, so no ceiling applies and
        // the RK4 runs.
        let m = odroid();
        let p = Watts::new(-20.0);
        let (from, target, horizon) = (Kelvin::new(300.0), Kelvin::new(310.0), Seconds::new(5.0));
        assert_eq!(
            m.time_to_reach(from, target, p, &m.stability(p), horizon),
            reference::time_to_reach(&m, from, target, p, horizon)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn prop_early_none_is_bit_identical(
            t_a in 250.0_f64..330.0,
            r in 0.5_f64..60.0,
            beta in 2000.0_f64..16000.0,
            p_crit in 0.2_f64..20.0,
            g_scale in -1.5_f64..1.5,
            kind in 0u8..8,
            p_share in 0.0_f64..1.3,
            tau in 1.0_f64..500.0,
            horizon in 1.0_f64..600.0,
            start in 0.0_f64..3.0,
            offset_exp in -9.0_f64..1.0,
            above in any::<bool>(),
        ) {
            // Kind 0 is leak-free, kind 1 runs at exactly the critical
            // power, every other kind at 0-1.3x of it (of `p_crit` when
            // leak-free): stable, critical and runaway cases all occur.
            let calibrated = LumpedModel::calibrate_leak_gain(
                Kelvin::new(t_a),
                r,
                beta,
                Watts::new(p_crit),
            );
            let g = match (kind, calibrated) {
                (0, _) | (_, Err(_)) => 0.0,
                (_, Ok(g)) => g * 10f64.powf(g_scale),
            };
            let m = LumpedModel::new(Kelvin::new(t_a), r, beta, g, Seconds::new(tau)).unwrap();
            let critical = m.critical_power().value();
            let scale = if critical.is_finite() { critical } else { p_crit };
            let p = Watts::new(if kind == 1 { scale } else { p_share * scale });
            // Start below the stable point, between the fixed points, or
            // past the unstable one.
            let stability = m.stability(p);
            let (low, high) = match stability {
                Stability::Stable(fp) => (fp.stable.value(), fp.unstable.value()),
                Stability::CriticallyStable { point } => (point.value(), point.value()),
                Stability::Runaway => (t_a + 50.0, t_a + 100.0),
            };
            let cold = t_a - 20.0;
            let from = Kelvin::new(match start {
                s if s < 1.0 => cold + s * (low - cold),
                s if s < 2.0 => low + (s - 1.0) * (high - low),
                s => high + (s - 2.0) * 50.0,
            });
            // A target just short of or past where the reference climb
            // ends.
            let h = Seconds::new(horizon);
            let end = reference::end_temperature(&m, from, p, h);
            let offset = 10f64.powf(offset_exp);
            let target = Kelvin::new(if above { end + offset } else { end - offset });
            prop_assert_eq!(
                m.time_to_reach(from, target, p, &stability, h).map(|s| s.value().to_bits()),
                reference::time_to_reach(&m, from, target, p, h).map(|s| s.value().to_bits())
            );
        }
    }
}
