//! Multi-node RC thermal network.
#![allow(clippy::needless_range_loop)] // indexed loops mirror the matrix math

use std::sync::{Arc, OnceLock};

use mpt_units::{Celsius, Kelvin, Seconds, Watts};

use mpt_soc::{ThermalLti, ThermalSpec};

use crate::solver::{ExactLti, StepStats, ThermalSolver, TransitionCache};
use crate::{linalg, LumpedModel, Result, ThermalError};

/// A simulatable RC thermal network.
///
/// Built from a platform [`ThermalSpec`]; holds the current node
/// temperatures and integrates the heat equation
///
/// ```text
/// C_i · dT_i/dt = P_i − Σ_j G_ij (T_i − T_j) − G_a,i (T_i − T_amb)
/// ```
///
/// Integration uses the exact LTI discretization ([`ExactLti`]).
/// Power is injected per node each step; the caller is responsible for
/// including leakage in the injected power (the simulation loop computes
/// leakage from the previous step's temperatures, closing the
/// power–temperature feedback loop with one tick of latency).
///
/// The network's LTI state-space form is assembled exactly once (by
/// [`ThermalSpec::lti`]) and exposed via [`lti`](RcNetwork::lti) — the
/// steady-state, time-constant and lumped-model analyses below all
/// consume the same matrices the solver integrates. The constants those
/// analyses derive from it — the steady-state gain table and the
/// dominant time constant — depend on the network alone, so each is
/// computed on first use and then read back: a network that is never
/// analysed never pays for them, and [`reduce`](RcNetwork::reduce) is
/// `O(n)`.
///
/// # Examples
///
/// ```
/// use mpt_soc::platforms;
/// use mpt_thermal::RcNetwork;
/// use mpt_units::{Seconds, Watts};
///
/// let mut net = RcNetwork::from_spec(platforms::exynos_5422().thermal_spec())?;
/// let big = net.node_index("big").unwrap();
/// let mut powers = vec![Watts::ZERO; net.len()];
/// powers[big] = Watts::new(3.0);
/// for _ in 0..1000 {
///     net.step(Seconds::new(0.1), &powers)?;
/// }
/// assert!(net.temperature(big) > net.ambient());
/// # Ok::<(), mpt_thermal::ThermalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RcNetwork {
    names: Vec<String>,
    lti: ThermalLti,
    temperatures: Vec<Kelvin>,
    solver: ExactLti,
    /// `gains[i * n + j]` = [`gain`](Self::gain)`(i, j)`; `None` if the
    /// network is singular.
    gains: OnceLock<Option<Box<[f64]>>>,
    /// [`dominant_time_constant`](Self::dominant_time_constant); `None`
    /// if the network is singular.
    tau: OnceLock<Option<Seconds>>,
}

impl RcNetwork {
    /// Builds a network from a platform spec, with all nodes initially at
    /// ambient temperature and a private transition cache.
    ///
    /// # Errors
    ///
    /// [`ThermalError::InvalidSpec`] if the spec fails validation.
    pub fn from_spec(spec: &ThermalSpec) -> Result<Self> {
        Self::with_cache(spec, None)
    }

    /// Builds a network, optionally drawing discretizations from a shared
    /// [`TransitionCache`] (the campaign runner passes one cache to every
    /// cell so a sweep factors each `(platform, dt)` exactly once).
    ///
    /// # Errors
    ///
    /// [`ThermalError::InvalidSpec`] if the spec fails validation.
    pub fn with_cache(spec: &ThermalSpec, cache: Option<Arc<TransitionCache>>) -> Result<Self> {
        let lti = spec.lti()?;
        let ambient = lti.ambient;
        let n = lti.len();
        Ok(Self {
            names: spec.nodes.iter().map(|n| n.name.clone()).collect(),
            lti,
            temperatures: vec![ambient; n],
            solver: cache.map_or_else(ExactLti::new, ExactLti::with_cache),
            gains: OnceLock::new(),
            tau: OnceLock::new(),
        })
    }

    /// The network's LTI state-space form — the single source of the
    /// `(A, B)` matrices for both integration and stability analysis.
    #[must_use]
    pub fn lti(&self) -> &ThermalLti {
        &self.lti
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the network has no nodes (never true for a constructed
    /// network; provided for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Node names, in index order.
    #[must_use]
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Index of a named node.
    #[must_use]
    pub fn node_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// The ambient temperature.
    #[must_use]
    pub fn ambient(&self) -> Kelvin {
        self.lti.ambient
    }

    /// Current temperature of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn temperature(&self, i: usize) -> Kelvin {
        self.temperatures[i]
    }

    /// All current node temperatures.
    #[must_use]
    pub fn temperatures(&self) -> &[Kelvin] {
        &self.temperatures
    }

    /// The hottest node and its temperature.
    #[must_use]
    pub fn hottest(&self) -> (usize, Kelvin) {
        let mut best = (0, self.temperatures[0]);
        for (i, &t) in self.temperatures.iter().enumerate() {
            if t > best.1 {
                best = (i, t);
            }
        }
        best
    }

    /// Overrides all node temperatures (e.g. to start an experiment from a
    /// pre-warmed state).
    ///
    /// # Errors
    ///
    /// [`ThermalError::PowerLengthMismatch`] if the slice length differs
    /// from the node count.
    pub fn set_temperatures(&mut self, temps: &[Kelvin]) -> Result<()> {
        if temps.len() != self.len() {
            return Err(ThermalError::PowerLengthMismatch {
                expected: self.len(),
                actual: temps.len(),
            });
        }
        self.temperatures.copy_from_slice(temps);
        Ok(())
    }

    /// Sets every node to the same temperature.
    pub fn set_uniform_temperature(&mut self, t: Kelvin) {
        self.temperatures.iter_mut().for_each(|x| *x = t);
    }

    /// Advances the network by `dt` with per-node injected power. Any
    /// `dt > 0` is safe: the exact discretization is unconditionally
    /// stable.
    ///
    /// Returns the step's [`StepStats`] (avoided substeps, cache traffic)
    /// for observability counters.
    ///
    /// # Errors
    ///
    /// [`ThermalError::PowerLengthMismatch`] if `powers` has the wrong
    /// length; [`ThermalError::SingularNetwork`] if a discretization
    /// cannot be factored.
    pub fn step(&mut self, dt: Seconds, powers: &[Watts]) -> Result<StepStats> {
        if powers.len() != self.len() {
            return Err(ThermalError::PowerLengthMismatch {
                expected: self.len(),
                actual: powers.len(),
            });
        }
        if dt.value() <= 0.0 {
            return Ok(StepStats::default());
        }
        self.solver
            .step(&self.lti, &mut self.temperatures, dt, powers)
    }

    /// Evaluates the trajectory `x(t) = Ad(dt)·x0 + ∫Bd·u` at `dt` ahead
    /// of the current state *without* advancing the network — the probe
    /// the event-driven engine bisects on to predict trip-point
    /// crossings. Uses the network's solver (and so the shared
    /// [`TransitionCache`](crate::TransitionCache), keyed by the probed
    /// `dt`); only the solver's internal memo mutates, which is why
    /// `&mut self` is required.
    ///
    /// # Errors
    ///
    /// Same conditions as [`step`](Self::step).
    pub fn peek(&mut self, dt: Seconds, powers: &[Watts]) -> Result<Vec<Kelvin>> {
        if powers.len() != self.len() {
            return Err(ThermalError::PowerLengthMismatch {
                expected: self.len(),
                actual: powers.len(),
            });
        }
        let mut temps = self.temperatures.clone();
        if dt.value() > 0.0 {
            self.solver.step(&self.lti, &mut temps, dt, powers)?;
        }
        Ok(temps)
    }

    /// The steady-state temperatures for a fixed power injection (linear
    /// solve; leakage feedback is *not* iterated here — use the lumped
    /// analysis for that).
    ///
    /// # Errors
    ///
    /// [`ThermalError::PowerLengthMismatch`] or
    /// [`ThermalError::SingularNetwork`].
    pub fn steady_state(&self, powers: &[Watts]) -> Result<Vec<Kelvin>> {
        if powers.len() != self.len() {
            return Err(ThermalError::PowerLengthMismatch {
                expected: self.len(),
                actual: powers.len(),
            });
        }
        // Solve G·T = P + G_a·T_amb against the LTI form's assembled
        // conductance matrix — no inline re-derivation.
        let n = self.len();
        let b: Vec<f64> = (0..n)
            .map(|i| powers[i].value() + self.lti.ambient_conductance[i] * self.lti.ambient.value())
            .collect();
        let t = linalg::solve(linalg::Mat::from_rows(&self.lti.g_full), b)
            .ok_or(ThermalError::SingularNetwork)?;
        Ok(t.into_iter().map(Kelvin::new).collect())
    }

    /// The steady-state thermal gain `dT_i/dP_j` in K/W: how much node `i`
    /// heats per watt injected at node `j`. Read from the network's gain
    /// table, which the first call fills.
    ///
    /// # Errors
    ///
    /// [`ThermalError::SingularNetwork`].
    ///
    /// # Panics
    ///
    /// Panics if `node` or `injected_at` is out of range.
    pub fn gain(&self, node: usize, injected_at: usize) -> Result<f64> {
        let n = self.len();
        assert!(
            node < n && injected_at < n,
            "gain({node}, {injected_at}) on a {n}-node network"
        );
        let gains = self.gains.get_or_init(|| self.gain_table());
        let gains = gains.as_deref().ok_or(ThermalError::SingularNetwork)?;
        Ok(gains[node * n + injected_at])
    }

    /// Every gain at once, with one zero-power solve and one
    /// unit-injection solve per node; `None` if the network is singular.
    fn gain_table(&self) -> Option<Box<[f64]>> {
        let n = self.len();
        let without = self.steady_state(&vec![Watts::ZERO; n]).ok()?;
        let mut gains = vec![0.0; n * n];
        let mut powers = vec![Watts::ZERO; n];
        for j in 0..n {
            powers[j] = Watts::new(1.0);
            let with = self.steady_state(&powers).ok()?;
            powers[j] = Watts::ZERO;
            for i in 0..n {
                gains[i * n + j] = with[i].value() - without[i].value();
            }
        }
        Some(gains.into_boxed_slice())
    }

    /// The slowest natural time constant of the network, in seconds:
    /// `1/λ_min` of `C⁻¹G`, computed (on the first call) by power
    /// iteration on `G⁻¹C`. This is the mode that dominates long
    /// package/board temperature ramps.
    ///
    /// # Errors
    ///
    /// [`ThermalError::SingularNetwork`].
    pub fn dominant_time_constant(&self) -> Result<Seconds> {
        let tau = self.tau.get_or_init(|| self.power_iterate_tau());
        tau.ok_or(ThermalError::SingularNetwork)
    }

    fn power_iterate_tau(&self) -> Option<Seconds> {
        let n = self.len();
        // Power iteration on G⁻¹C (the LTI form's assembled conductance
        // matrix): dominant eigenvalue = slowest τ.
        let g = linalg::Mat::from_rows(&self.lti.g_full);
        let mut x = vec![1.0; n];
        let mut tau = 0.0;
        for _ in 0..200 {
            let cx: Vec<f64> = (0..n).map(|i| self.lti.heat_capacity[i] * x[i]).collect();
            let y = linalg::solve(g.clone(), cx)?;
            let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm < 1e-300 {
                return None;
            }
            tau = norm;
            for i in 0..n {
                x[i] = y[i] / norm;
            }
        }
        Some(Seconds::new(tau))
    }

    /// Reduces the network to a [`LumpedModel`] as seen from the hottest
    /// node under the given power distribution.
    ///
    /// The lumped thermal resistance is the power-weighted steady-state
    /// gain from each injection node to the hot node; `leak_gain` and
    /// `beta` come from the caller (summed over components at their
    /// current voltages); `tau` is the network's dominant time constant.
    ///
    /// # Errors
    ///
    /// [`ThermalError::SingularNetwork`], a power-length mismatch, or
    /// invalid derived parameters.
    pub fn reduce(
        &self,
        powers: &[Watts],
        hot_node: usize,
        leak_gain: f64,
        beta: f64,
    ) -> Result<LumpedModel> {
        if powers.len() != self.len() {
            return Err(ThermalError::PowerLengthMismatch {
                expected: self.len(),
                actual: powers.len(),
            });
        }
        let total: f64 = powers.iter().map(|p| p.value()).sum();
        let mut r_eq = 0.0;
        if total > 1e-9 {
            for (j, p) in powers.iter().enumerate() {
                if p.value() > 0.0 {
                    r_eq += self.gain(hot_node, j)? * (p.value() / total);
                }
            }
        } else {
            // No power flowing: use the self-gain of the hot node as a
            // conservative default.
            r_eq = self.gain(hot_node, hot_node)?;
        }
        let tau = self.dominant_time_constant()?;
        LumpedModel::new(self.lti.ambient, r_eq, beta, leak_gain, tau)
    }

    /// Convenience: current temperature of a named node.
    ///
    /// # Errors
    ///
    /// [`ThermalError::UnknownNode`].
    pub fn temperature_of(&self, name: &str) -> Result<Kelvin> {
        self.node_index(name)
            .map(|i| self.temperatures[i])
            .ok_or_else(|| ThermalError::UnknownNode {
                name: name.to_owned(),
            })
    }

    /// Current temperature of a named node in Celsius.
    ///
    /// # Errors
    ///
    /// [`ThermalError::UnknownNode`].
    pub fn celsius_of(&self, name: &str) -> Result<Celsius> {
        self.temperature_of(name).map(Kelvin::to_celsius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpt_soc::platforms;
    use proptest::prelude::*;

    fn odroid_network() -> RcNetwork {
        RcNetwork::from_spec(platforms::exynos_5422().thermal_spec()).unwrap()
    }

    /// Verbatim copy of the pre-solver-layer `RcNetwork::step` loop: the
    /// forward-Euler oracle the exact solver is checked against.
    fn prerefactor_euler_step(net: &RcNetwork, temps: &mut [Kelvin], dt: f64, powers: &[Watts]) {
        let substeps = (dt / net.lti.euler_max_step).ceil().max(1.0) as usize;
        let h = dt / substeps as f64;
        let n = temps.len();
        for _ in 0..substeps {
            let mut deriv = vec![0.0; n];
            for i in 0..n {
                let ti = temps[i].value();
                let mut flow = powers[i].value();
                for j in 0..n {
                    let g = net.lti.conductance[i][j];
                    if g > 0.0 {
                        flow -= g * (ti - temps[j].value());
                    }
                }
                flow -= net.lti.ambient_conductance[i] * (ti - net.lti.ambient.value());
                deriv[i] = flow / net.lti.heat_capacity[i];
            }
            for i in 0..n {
                temps[i] = Kelvin::new(temps[i].value() + h * deriv[i]);
            }
        }
    }

    #[test]
    fn exact_and_euler_agree_on_long_odroid_run() {
        let mut exact = odroid_network();
        let mut euler = exact.temperatures().to_vec();
        let big = exact.node_index("big").unwrap();
        let mut powers = vec![Watts::ZERO; exact.len()];
        powers[big] = Watts::new(2.5);
        for _ in 0..600 {
            exact.step(Seconds::from_millis(100.0), &powers).unwrap();
        }
        for _ in 0..60_000 {
            prerefactor_euler_step(&exact, &mut euler, 0.001, &powers);
        }
        for i in 0..exact.len() {
            let gap = (exact.temperature(i).value() - euler[i].value()).abs();
            assert!(gap < 0.1, "node {i}: gap {gap} K");
        }
    }

    #[test]
    fn exact_solver_reports_cache_traffic_once() {
        let mut net = odroid_network();
        let powers = vec![Watts::ZERO; net.len()];
        let first = net.step(Seconds::from_millis(100.0), &powers).unwrap();
        assert!(first.cache_build && !first.cache_hit);
        let second = net.step(Seconds::from_millis(100.0), &powers).unwrap();
        assert!(!second.cache_build && !second.cache_hit);
    }

    #[test]
    fn networks_share_a_transition_cache() {
        let platform = platforms::exynos_5422();
        let spec = platform.thermal_spec();
        let cache = std::sync::Arc::new(TransitionCache::new());
        let powers = vec![Watts::ZERO; spec.nodes.len()];
        for expect_build in [true, false, false] {
            let mut net = RcNetwork::with_cache(spec, Some(Arc::clone(&cache))).unwrap();
            let stats = net.step(Seconds::from_millis(100.0), &powers).unwrap();
            assert_eq!(stats.cache_build, expect_build);
            assert_eq!(stats.cache_hit, !expect_build);
        }
        assert_eq!(cache.builds(), 1);
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn zero_dt_step_is_a_no_op() {
        let mut net = odroid_network();
        let powers = vec![Watts::new(5.0); net.len()];
        let before = net.temperatures().to_vec();
        let stats = net.step(Seconds::ZERO, &powers).unwrap();
        assert_eq!(stats, StepStats::default());
        assert_eq!(net.temperatures(), &before[..]);
    }

    #[test]
    fn starts_at_ambient() {
        let net = odroid_network();
        for &t in net.temperatures() {
            assert_eq!(t, net.ambient());
        }
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let mut net = odroid_network();
        let powers = vec![Watts::ZERO; net.len()];
        for _ in 0..100 {
            net.step(Seconds::new(1.0), &powers).unwrap();
        }
        for &t in net.temperatures() {
            assert!((t.value() - net.ambient().value()).abs() < 1e-9);
        }
    }

    #[test]
    fn relaxes_back_to_ambient() {
        let mut net = odroid_network();
        net.set_uniform_temperature(Kelvin::new(360.0));
        let powers = vec![Watts::ZERO; net.len()];
        for _ in 0..20_000 {
            net.step(Seconds::new(1.0), &powers).unwrap();
        }
        for &t in net.temperatures() {
            assert!((t.value() - net.ambient().value()).abs() < 0.01, "t = {t}");
        }
    }

    #[test]
    fn integration_converges_to_steady_state() {
        let mut net = odroid_network();
        let big = net.node_index("big").unwrap();
        let gpu = net.node_index("gpu").unwrap();
        let mut powers = vec![Watts::ZERO; net.len()];
        powers[big] = Watts::new(2.0);
        powers[gpu] = Watts::new(1.5);
        let ss = net.steady_state(&powers).unwrap();
        for _ in 0..5_000 {
            net.step(Seconds::new(1.0), &powers).unwrap();
        }
        for (i, &t) in net.temperatures().iter().enumerate() {
            assert!(
                (t.value() - ss[i].value()).abs() < 0.05,
                "node {i}: integrated {t} vs steady {}",
                ss[i]
            );
        }
    }

    #[test]
    fn hotter_node_is_the_powered_one() {
        let mut net = odroid_network();
        let big = net.node_index("big").unwrap();
        let mut powers = vec![Watts::ZERO; net.len()];
        powers[big] = Watts::new(3.0);
        for _ in 0..3_000 {
            net.step(Seconds::new(1.0), &powers).unwrap();
        }
        let (hot, _) = net.hottest();
        assert_eq!(hot, big);
    }

    #[test]
    fn big_cluster_gain_matches_hand_calculation() {
        // Power injected at the big node flows through G(big,board)=0.45
        // then G(board,amb)=0.052 (plus a small parallel path through the
        // GPU lateral coupling), so the self-gain is slightly below
        // 1/0.45 + 1/0.052 = 21.5 K/W.
        let net = odroid_network();
        let big = net.node_index("big").unwrap();
        let g = net.gain(big, big).unwrap();
        assert!(g > 19.5 && g < 21.6, "gain = {g}");
    }

    #[test]
    fn odroid_reaches_paper_figure8_band_at_3_65w() {
        // The paper's Figure 8 shows ~85-95 C for 3DMark + BML (3.65 W
        // total). Check the steady-state hotspot lands in that band with a
        // representative power split (big-heavy, as in Fig. 9b).
        let net = odroid_network();
        let mut powers = vec![Watts::ZERO; net.len()];
        powers[net.node_index("little").unwrap()] = Watts::new(0.26);
        powers[net.node_index("big").unwrap()] = Watts::new(2.19);
        powers[net.node_index("gpu").unwrap()] = Watts::new(0.9);
        powers[net.node_index("mem").unwrap()] = Watts::new(0.3);
        let ss = net.steady_state(&powers).unwrap();
        let hot = ss
            .iter()
            .map(|t| t.to_celsius().value())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((85.0..105.0).contains(&hot), "hotspot = {hot} C");
    }

    #[test]
    fn power_length_mismatch_is_rejected() {
        let mut net = odroid_network();
        let err = net.step(Seconds::new(0.1), &[Watts::ZERO]).unwrap_err();
        assert!(matches!(err, ThermalError::PowerLengthMismatch { .. }));
        assert!(net.steady_state(&[Watts::ZERO]).is_err());
    }

    #[test]
    fn set_temperatures_validates_length() {
        let mut net = odroid_network();
        assert!(net.set_temperatures(&[Kelvin::new(300.0)]).is_err());
        let temps = vec![Kelvin::new(310.0); net.len()];
        net.set_temperatures(&temps).unwrap();
        assert_eq!(net.temperature(0), Kelvin::new(310.0));
    }

    #[test]
    fn named_lookups() {
        let net = odroid_network();
        assert!(net.temperature_of("big").is_ok());
        assert!(matches!(
            net.temperature_of("nope").unwrap_err(),
            ThermalError::UnknownNode { .. }
        ));
        let c = net.celsius_of("board").unwrap();
        assert!((c.value() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn skin_lags_behind_the_package_and_runs_cooler() {
        let mut net = RcNetwork::from_spec(platforms::snapdragon_810().thermal_spec()).unwrap();
        let gpu = net.node_index("gpu").unwrap();
        let pkg = net.node_index("package").unwrap();
        let skin = net.node_index("skin").unwrap();
        let mut powers = vec![Watts::ZERO; net.len()];
        powers[gpu] = Watts::new(2.5);
        // Early in the transient the skin trails the package clearly.
        let mut t = 0.0;
        while t < 30.0 {
            net.step(Seconds::new(0.5), &powers).unwrap();
            t += 0.5;
        }
        let early_gap = net.temperature(pkg).value() - net.temperature(skin).value();
        assert!(early_gap > 1.0, "early gap {early_gap}");
        // At steady state the skin stays slightly cooler than the
        // package (heat flows package -> skin -> ambient).
        while t < 2000.0 {
            net.step(Seconds::new(1.0), &powers).unwrap();
            t += 1.0;
        }
        let pkg_c = net.temperature(pkg).to_celsius().value();
        let skin_c = net.temperature(skin).to_celsius().value();
        assert!(skin_c < pkg_c, "skin {skin_c} vs package {pkg_c}");
        assert!(pkg_c - skin_c < 5.0, "skin tracks the package");
    }

    #[test]
    fn dominant_time_constant_matches_relaxation() {
        // Heat the whole board, release, and check the observed decay
        // rate of the slowest phase against the computed constant.
        let mut net = odroid_network();
        let tau = net.dominant_time_constant().unwrap().value();
        assert!(tau > 5.0 && tau < 500.0, "tau = {tau}");
        net.set_uniform_temperature(Kelvin::new(350.0));
        let powers = vec![Watts::ZERO; net.len()];
        // Skip the fast initial modes.
        let mut elapsed = 0.0;
        while elapsed < tau {
            net.step(Seconds::new(0.5), &powers).unwrap();
            elapsed += 0.5;
        }
        let d0 = net.hottest().1.value() - net.ambient().value();
        while elapsed < 2.0 * tau {
            net.step(Seconds::new(0.5), &powers).unwrap();
            elapsed += 0.5;
        }
        let d1 = net.hottest().1.value() - net.ambient().value();
        let observed = tau / (d0 / d1).ln();
        let rel = (observed - tau).abs() / tau;
        assert!(rel < 0.1, "computed tau {tau}, observed {observed}");
    }

    #[test]
    fn reduce_produces_consistent_lumped_resistance() {
        let net = odroid_network();
        let big = net.node_index("big").unwrap();
        let mut powers = vec![Watts::ZERO; net.len()];
        powers[big] = Watts::new(3.0);
        let lumped = net.reduce(&powers, big, 1700.0, 8000.0).unwrap();
        // All power at the big node: R_eq equals the big self-gain.
        let g = net.gain(big, big).unwrap();
        assert!((lumped.r_th() - g).abs() < 1e-9);
    }

    /// The per-call gain arithmetic the table replaced: two steady-state
    /// solves per gain. The oracle for the table.
    fn reference_gain(net: &RcNetwork, node: usize, injected_at: usize) -> f64 {
        let mut powers = vec![Watts::ZERO; net.len()];
        powers[injected_at] = Watts::new(1.0);
        let with = net.steady_state(&powers).unwrap();
        let without = net.steady_state(&vec![Watts::ZERO; net.len()]).unwrap();
        with[node].value() - without[node].value()
    }

    /// The per-call power iteration the cached τ replaced.
    fn reference_tau(net: &RcNetwork) -> f64 {
        let n = net.len();
        let g = linalg::Mat::from_rows(&net.lti.g_full);
        let mut x = vec![1.0; n];
        let mut tau = 0.0;
        for _ in 0..200 {
            let cx: Vec<f64> = (0..n).map(|i| net.lti.heat_capacity[i] * x[i]).collect();
            let y = linalg::solve(g.clone(), cx).unwrap();
            let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
            tau = norm;
            for i in 0..n {
                x[i] = y[i] / norm;
            }
        }
        tau
    }

    /// `reduce`'s lumped resistance from per-call gains.
    fn reference_r_eq(net: &RcNetwork, powers: &[Watts], hot_node: usize) -> f64 {
        let total: f64 = powers.iter().map(|p| p.value()).sum();
        if total <= 1e-9 {
            return reference_gain(net, hot_node, hot_node);
        }
        let mut r_eq = 0.0;
        for (j, p) in powers.iter().enumerate() {
            if p.value() > 0.0 {
                r_eq += reference_gain(net, hot_node, j) * (p.value() / total);
            }
        }
        r_eq
    }

    #[test]
    fn cached_constants_are_bit_identical_to_per_call_arithmetic() {
        for platform in [platforms::exynos_5422(), platforms::snapdragon_810()] {
            let net = RcNetwork::from_spec(platform.thermal_spec()).unwrap();
            let n = net.len();
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(
                        net.gain(i, j).unwrap().to_bits(),
                        reference_gain(&net, i, j).to_bits(),
                        "{}: gain({i}, {j})",
                        platform.name()
                    );
                }
            }
            let tau = net.dominant_time_constant().unwrap().value();
            assert_eq!(tau.to_bits(), reference_tau(&net).to_bits());

            let split: Vec<Watts> = (0..n).map(|i| Watts::new(0.4 * i as f64)).collect();
            // A spread power split, and the no-power self-gain fallback.
            for powers in [split, vec![Watts::ZERO; n]] {
                let lumped = net.reduce(&powers, 1, 1700.0, 8000.0).unwrap();
                assert_eq!(
                    lumped.r_th().to_bits(),
                    reference_r_eq(&net, &powers, 1).to_bits()
                );
                assert_eq!(lumped.tau().value().to_bits(), tau.to_bits());
                assert_eq!(lumped.t_ambient(), net.ambient());
            }
        }
    }

    #[test]
    #[should_panic(expected = "gain(0, 5) on a 5-node network")]
    fn gain_past_the_last_injection_node_panics() {
        // In a flat 5×5 table, index (0, 5) is where (1, 0) lives.
        let net = odroid_network();
        assert_eq!(net.len(), 5);
        let _ = net.gain(0, 5);
    }

    #[test]
    #[should_panic(expected = "gain(5, 0) on a 5-node network")]
    fn gain_past_the_last_node_panics() {
        let net = odroid_network();
        let _ = net.gain(5, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_steady_state_is_monotone_in_power(p1 in 0.0_f64..4.0, p2 in 0.0_f64..4.0) {
            let net = odroid_network();
            let big = net.node_index("big").unwrap();
            let mut powers = vec![Watts::ZERO; net.len()];
            powers[big] = Watts::new(p1);
            let t1 = net.steady_state(&powers).unwrap()[big];
            powers[big] = Watts::new(p2);
            let t2 = net.steady_state(&powers).unwrap()[big];
            if p1 < p2 {
                prop_assert!(t1 <= t2);
            }
        }

        #[test]
        fn prop_all_nodes_at_or_above_ambient(p in 0.0_f64..5.0, node in 0usize..4) {
            let net = odroid_network();
            let mut powers = vec![Watts::ZERO; net.len()];
            powers[node] = Watts::new(p);
            let ss = net.steady_state(&powers).unwrap();
            for t in ss {
                prop_assert!(t.value() >= net.ambient().value() - 1e-9);
            }
        }

        #[test]
        fn prop_exact_lti_tracks_fine_euler_within_a_tenth_of_a_degree(
            dt in 0.001_f64..1.0,
            platform_pick in 0_u8..2,
            p1 in 0.5_f64..2.5,
            p2 in 0.0_f64..1.5,
        ) {
            // The satellite acceptance bound: over a 60 s trajectory the
            // exact solver (stepping at a random 1 ms–1 s dt) and a
            // fine-step forward-Euler reference (1 ms substeps) agree
            // within 0.1 °C on every node, for both platform networks.
            let platform = if platform_pick == 1 {
                platforms::snapdragon_810()
            } else {
                platforms::exynos_5422()
            };
            let spec = platform.thermal_spec();
            let mut exact = RcNetwork::from_spec(spec).unwrap();
            let mut euler = exact.temperatures().to_vec();
            let mut powers = vec![Watts::ZERO; exact.len()];
            powers[1] = Watts::new(p1);
            powers[2] = Watts::new(p2);
            let mut t = 0.0;
            while t < 60.0 {
                let step = dt.min(60.0 - t);
                exact.step(Seconds::new(step), &powers).unwrap();
                t += step;
            }
            for _ in 0..60_000 {
                prerefactor_euler_step(&exact, &mut euler, 0.001, &powers);
            }
            for i in 0..exact.len() {
                let gap = (exact.temperature(i).value() - euler[i].value()).abs();
                prop_assert!(gap < 0.1, "node {i}: gap {gap} K");
            }
        }

        #[test]
        fn prop_substepping_is_consistent(dt in 0.01_f64..20.0) {
            // One big step must land near many small steps.
            let mut coarse = odroid_network();
            let mut fine = odroid_network();
            let big = coarse.node_index("big").unwrap();
            let mut powers = vec![Watts::ZERO; coarse.len()];
            powers[big] = Watts::new(3.0);
            coarse.step(Seconds::new(dt), &powers).unwrap();
            for _ in 0..100 {
                fine.step(Seconds::new(dt / 100.0), &powers).unwrap();
            }
            for i in 0..coarse.len() {
                prop_assert!(
                    (coarse.temperature(i).value() - fine.temperature(i).value()).abs() < 0.5
                );
            }
        }
    }
}
