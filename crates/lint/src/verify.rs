//! MPT6xx — the static reachability certifier: prove thermal safety
//! before tick 0.
//!
//! The verifier performs abstract interpretation over the same cached
//! discretized system `(Ad, Bd)` the simulator integrates: per-node
//! power inputs are replaced by **intervals** bounding everything the
//! workload zoo, OPP tables and (for fleet cells) the full `ParamJitter`
//! ranges can realize, and an outward-rounded interval mat-vec
//! propagates a guaranteed per-node temperature envelope through every
//! scenario phase. Each constant-power span's input term
//! `Bd·[p_lo, p_hi]` is formed once ([`Discretization::interval_input`]),
//! and [`Discretization::step_interval`] adds it to `Ad·[lo, hi]` in one
//! pair of buffers swapped every tick, so a certificate allocates
//! nothing per tick. Every concrete trajectory — either engine, either
//! platform, any jitter draw — lies inside the envelope, so its verdicts
//! are proofs, not observations:
//!
//! - **MPT601** (info): the envelope's upper bound stays at least
//!   [`DEFAULT_MARGIN_C`] below the trip reference — the scenario can
//!   *never* trip. A positive certificate; never fails CI.
//! - **MPT602** (warning): the envelope straddles the trip — a trip is
//!   possible but not certain. Reports the first straddle time.
//! - **MPT603** (error): the envelope's *lower* bound crosses the trip —
//!   even the most optimistic trajectory trips.
//! - **MPT604** (warning): the step-wise governor's abstract
//!   `(cooling state, steady temperature)` transition graph contains a
//!   throttle/release cycle — a limit-cycle (throttle-storm) risk.
//!
//! Alongside the verdict the certifier derives the platform's
//! thermally-safe **sustained power budget**: the largest total power
//! whose steady state `G⁻¹·p` keeps every node below the trip.
//!
//! # Soundness contract
//!
//! The envelope brackets trajectories of the exact-LTI solver, the
//! simulator's only integrator, at the base 10 ms tick ([`BASE_DT_S`]).
//! A simulated sample can leave the outward-rounded envelope only by
//! floating-point rounding the interval arithmetic does not model: the
//! Kelvin/Celsius round trip, and event-engine jumps that apply one
//! `exp(A·k·dt)` where the envelope applies `exp(A·dt)` k times. The
//! soundness suite bounds that slop by [`DEFAULT_MARGIN_C`], and an
//! MPT601 certificate demands the same margin below the trip, so a
//! certified scenario has no simulated sample at or above the trip. The
//! upper bound evaluates leakage at the 125 °C sanity cap; if the
//! envelope itself escapes that cap the certifier reports the escape
//! instead of certifying (the leakage bound would no longer dominate).
//!
//! # Examples
//!
//! ```
//! use mpt_lint::verify::verify_scenario;
//!
//! let spec = serde_json::from_str(
//!     r#"{ "platform": "snapdragon810", "duration_s": 2.0,
//!          "workloads": [ { "kind": "basic_math" } ] }"#,
//! )
//! .unwrap();
//! let v = verify_scenario(&spec, "example.json").unwrap();
//! assert_eq!(v.summary.verdict, "MPT601");
//! ```

use mpt_core::report::{CellVerification, VerificationSummary};
use mpt_core::scenario::{
    CampaignSpec, ClusterSpec, ComputePhase, ScenarioSpec, ThermalPolicySpec, WorkloadKind,
};
use mpt_soc::{ComponentId, FleetSpec, Platform, ThermalLti};
use mpt_thermal::linalg::{self, Mat};
use mpt_thermal::{Discretization, IntervalInput};
use mpt_units::Celsius;

use crate::diag::{Code, Diagnostic, Report};
use crate::model::MAX_SANE_TEMP_C;

/// The simulator's base tick, seconds. The envelope is propagated on the
/// same grid the fixed-dt engine integrates (the event engine only adds
/// wake points between grid ticks; power is piecewise constant either
/// way, so the grid samples still bracket).
pub const BASE_DT_S: f64 = 0.01;

/// Safety margin, Celsius, the envelope's upper bound must keep below
/// the trip reference for an MPT601 certificate. It is the rounding
/// slop the soundness suite allows a simulated exact-LTI sample outside
/// the envelope, so a certificate implies no sample reaches the trip.
pub const DEFAULT_MARGIN_C: f64 = 1e-3;

/// Upper bounds on what one workload can demand, used to cap cluster
/// utilization: `(threads, big-equivalent cycles per second, uses_gpu)`.
/// `f64::INFINITY` rate means "only thread-limited". These mirror the
/// fixed demand shapes in `mpt-workloads`; the envelope-containment
/// proptests pin the two crates together.
fn workload_bound(kind: &WorkloadKind) -> Result<Option<(f64, f64, bool)>, String> {
    Ok(Some(match kind {
        WorkloadKind::App { name } => {
            let threads = match name.as_str() {
                "paper_io" | "facebook" => 2.0,
                "stickman_hook" | "google_hangouts" => 1.0,
                "amazon" => 1.15,
                other => return Err(format!("unknown app {other:?}")),
            };
            (threads, f64::INFINITY, true)
        }
        // 3DMark/Nenamark end on *delivered* work, which a throttled run
        // stretches past the nominal duration — treat them as active for
        // the whole run (sound, possibly loose near the end).
        WorkloadKind::ThreeDMark { .. } => (2.0, f64::INFINITY, true),
        WorkloadKind::Nenamark => (1.5, f64::INFINITY, true),
        WorkloadKind::BasicMath => (1.0, f64::INFINITY, false),
        WorkloadKind::Steady { rate, threads, .. } => (*threads, *rate, false),
        WorkloadKind::Bursty { .. } => (2.0, f64::INFINITY, false),
        // Phased demand is time-dependent; handled per segment.
        WorkloadKind::Phased { .. } => return Ok(None),
    }))
}

/// The phase a `Phased` workload is in at time `t` (phases are strictly
/// increasing in `until_s`; after the last one the workload is idle).
fn phase_at(phases: &[ComputePhase], t: f64) -> Option<(f64, f64, bool)> {
    let p = phases.iter().find(|p| p.until_s > t)?;
    if p.rate <= 0.0 {
        return None; // declared idle phase
    }
    Some((p.threads, p.rate, false))
}

/// One maximal time interval over which every workload's demand bound is
/// constant, with the per-cluster `(threads, rate)` caps active in it.
#[derive(Debug, Clone)]
struct Segment {
    end_s: f64,
    little: Vec<(f64, f64)>,
    big: Vec<(f64, f64)>,
    gpu_active: bool,
}

/// Splits the scenario at every `Phased` boundary and collects the
/// demand bounds active in each segment. With the app-aware governor in
/// migration mode a workload can run on either cluster, so its demand is
/// (soundly) counted against both.
fn segments(spec: &ScenarioSpec) -> Result<Vec<Segment>, String> {
    let mut cuts = vec![0.0, spec.duration_s.max(0.0)];
    for w in &spec.workloads {
        if let WorkloadKind::Phased { phases, .. } = &w.kind {
            for p in phases {
                if p.until_s > 0.0 && p.until_s < spec.duration_s {
                    cuts.push(p.until_s);
                }
            }
        }
    }
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();
    let migrates = spec
        .app_aware
        .as_ref()
        .is_some_and(|a| !a.cap_instead_of_migrate);
    let mut segs = Vec::with_capacity(cuts.len().saturating_sub(1).max(1));
    for win in cuts.windows(2) {
        let (t0, t1) = (win[0], win[1]);
        let mut seg = Segment {
            end_s: t1,
            little: Vec::new(),
            big: Vec::new(),
            gpu_active: false,
        };
        for w in &spec.workloads {
            let bound = match &w.kind {
                WorkloadKind::Phased { phases, .. } => phase_at(phases, t0),
                kind => workload_bound(kind)?,
            };
            let Some((threads, rate, gpu)) = bound else {
                continue;
            };
            seg.gpu_active |= gpu;
            match (w.cluster, migrates) {
                (_, true) => {
                    seg.little.push((threads, rate));
                    seg.big.push((threads, rate));
                }
                (ClusterSpec::Big, false) => seg.big.push((threads, rate)),
                (ClusterSpec::Little, false) => seg.little.push((threads, rate)),
            }
        }
        segs.push(seg);
    }
    if segs.is_empty() {
        segs.push(Segment {
            end_s: 0.0,
            little: Vec::new(),
            big: Vec::new(),
            gpu_active: false,
        });
    }
    Ok(segs)
}

/// Largest busy-core count the demands can realize on `comp` at OPP
/// index `k`: each workload occupies at most `min(threads, rate /
/// per-core effective rate)` cores, and the cluster clips at its core
/// count.
fn cluster_util(comp: &mpt_soc::Component, demands: &[(f64, f64)], k: usize) -> f64 {
    let opp = comp.opps().get(k).expect("index in range");
    let per_core = comp.effective_rate(opp.frequency());
    let mut total = 0.0;
    for &(threads, rate) in demands {
        let by_rate = if per_core > 0.0 {
            rate / per_core
        } else {
            f64::INFINITY
        };
        total += threads.min(by_rate);
    }
    total.min(f64::from(comp.core_count()))
}

/// Thread-only utilization cap (frequency-independent), used for the
/// memory-utilization coupling.
fn thread_util(comp: &mpt_soc::Component, demands: &[(f64, f64)]) -> f64 {
    let total: f64 = demands.iter().map(|&(t, _)| t).sum();
    total.min(f64::from(comp.core_count()))
}

/// A per-node power interval, watts.
#[derive(Debug, Clone)]
struct NodePower {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

/// Bounds each component's injected power over a segment and sums into
/// per-node intervals. Lower bound: the unconditional static floors
/// (dynamic and leakage power are non-negative). Upper bound: dynamic
/// power maximized over the OPP table at the utilization cap (OPPs up to
/// `cap` for step-wise-capped components), plus leakage at the highest
/// voltage and the 125 °C sanity cap, plus the floor.
fn segment_power(
    platform: &Platform,
    seg: &Segment,
    n: usize,
    caps: Option<&[(ComponentId, usize)]>,
) -> NodePower {
    let thermal = platform.thermal_spec();
    let mut p = NodePower {
        lo: vec![0.0; n],
        hi: vec![0.0; n],
    };
    let cap_of =
        |id: ComponentId| caps.and_then(|c| c.iter().find(|(cid, _)| *cid == id).map(|(_, k)| *k));
    let comp = |id| platform.components().iter().find(|c| c.id() == id);
    let little_threads =
        comp(ComponentId::LittleCluster).map_or(0.0, |c| thread_util(c, &seg.little));
    let big_threads = comp(ComponentId::BigCluster).map_or(0.0, |c| thread_util(c, &seg.big));
    let gpu_util = f64::from(u8::from(seg.gpu_active));
    let t_cap = Celsius::new(MAX_SANE_TEMP_C).to_kelvin();
    for component in platform.components() {
        let id = component.id();
        let Some(node) = thermal.node_for_component(id) else {
            continue;
        };
        let opps = component.opps();
        let top = cap_of(id).map_or(opps.len() - 1, |k| k.min(opps.len() - 1));
        let mut dyn_hi = 0.0f64;
        for k in 0..=top {
            let util = match id {
                ComponentId::LittleCluster => cluster_util(component, &seg.little, k),
                ComponentId::BigCluster => cluster_util(component, &seg.big, k),
                ComponentId::Gpu => gpu_util,
                ComponentId::Memory => {
                    (0.04 * little_threads + 0.08 * big_threads + 0.5 * gpu_util).min(1.0)
                }
            };
            let opp = opps.get(k).expect("index in range");
            dyn_hi = dyn_hi.max(
                component
                    .power_params()
                    .dynamic_power(opp.voltage(), opp.frequency(), util)
                    .value(),
            );
        }
        let v_hi = opps.get(top).expect("index in range").voltage();
        let leak_hi = component
            .power_params()
            .leakage()
            .power(v_hi, t_cap)
            .value();
        let floor = component.power_params().static_floor().value();
        p.lo[node] += floor;
        p.hi[node] += floor + dyn_hi + leak_hi;
    }
    p
}

/// The certified per-node temperature envelope: guaranteed bounds on
/// every node's temperature at every base tick, in absolute Celsius.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sample spacing, seconds (the base tick).
    pub dt_s: f64,
    /// Node names, in thermal-spec order.
    pub node_names: Vec<String>,
    ambient_lo_c: f64,
    ambient_hi_c: f64,
    n: usize,
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Simulated time at which the upper bound escaped the 125 °C
    /// leakage cap, invalidating further propagation (`None` when the
    /// whole run is covered).
    pub truncated_at_s: Option<f64>,
}

impl Envelope {
    /// Number of time samples (ticks + 1, including the initial state).
    #[must_use]
    pub fn samples(&self) -> usize {
        self.lo.len() / self.n
    }

    /// Number of thermal nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Guaranteed lower bound on node `node` at sample `sample`, Celsius.
    #[must_use]
    pub fn lower_c(&self, sample: usize, node: usize) -> f64 {
        self.lo[sample * self.n + node] + self.ambient_lo_c
    }

    /// Guaranteed upper bound on node `node` at sample `sample`, Celsius.
    #[must_use]
    pub fn upper_c(&self, sample: usize, node: usize) -> f64 {
        self.hi[sample * self.n + node] + self.ambient_hi_c
    }
}

/// A finished verification: the MPT6xx diagnostics, the summary the
/// session report embeds, and the envelope itself (for containment
/// tests and plotting).
#[derive(Debug)]
pub struct Verification {
    /// MPT601/602/603/604 diagnostics for this scenario.
    pub report: Report,
    /// The plain-data verdict embedded in session/campaign reports.
    pub summary: VerificationSummary,
    /// The certified envelope.
    pub envelope: Envelope,
}

/// The trip threshold the envelope is certified against and its origin:
/// the fleet's own `trip_c` wins, then the policy's
/// [`trip_reference_c`](ThermalPolicySpec::trip_reference_c); without
/// any, the 125 °C model-sanity cap is the only provable limit.
fn resolve_trip(spec: &ScenarioSpec, fleet: Option<&FleetSpec>) -> (f64, &'static str) {
    if let Some(t) = fleet.and_then(|f| f.trip_c) {
        return (t, "fleet trip_c");
    }
    let origin = match spec.thermal {
        ThermalPolicySpec::StepWise { .. } => "step_wise trips",
        ThermalPolicySpec::Ipa { .. } => "ipa control_c",
        ThermalPolicySpec::Disabled => "sanity cap",
    };
    spec.thermal
        .trip_reference_c()
        .map_or((MAX_SANE_TEMP_C, "sanity cap"), |t| (t, origin))
}

/// Steady-state deviation `G⁻¹·p` of the full conductance matrix, or
/// `None` if it cannot be solved.
fn steady_deviation(lti: &ThermalLti, p: &[f64]) -> Option<Vec<f64>> {
    linalg::solve(Mat::from_rows(&lti.g_full), p.to_vec())
}

/// The thermally-safe sustained power budget: scales the worst-case
/// power *shape* until the hottest steady-state node touches the trip,
/// and reports the total watts at that scale.
fn sustained_budget(lti: &ThermalLti, shape_hi: &[f64], trip_c: f64, amb_hi_c: f64) -> Option<f64> {
    let total: f64 = shape_hi.iter().sum();
    if total <= 0.0 {
        return None;
    }
    let d = steady_deviation(lti, shape_hi)?;
    let dmax = d.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if dmax <= 0.0 {
        return None;
    }
    let headroom = trip_c - amb_hi_c;
    if headroom <= 0.0 {
        return Some(0.0);
    }
    Some(total * headroom / dmax)
}

/// MPT604: searches the step-wise governor's abstract transition graph
/// for a throttle/release limit cycle. At cooling state `s` the governor
/// caps the GPU at OPP `len-1-min(s, 3)` and the big cluster at
/// `len-1-min(s, 5)`; state `s` has an up-edge when the worst-case
/// steady temperature at its caps still exceeds the lowest trip, and a
/// down-edge when it falls below trip minus hysteresis. An up-edge at
/// `s` together with a down-edge at `s+1` is a cycle: the governor
/// provably oscillates between the two caps if the run settles there.
fn stepwise_limit_cycle(
    platform: &Platform,
    lti: &ThermalLti,
    segs: &[Segment],
    trip_c: f64,
    amb_hi_c: f64,
) -> Option<(usize, f64, f64)> {
    let n = lti.len();
    let gpu_limit = ThermalPolicySpec::STEPWISE_GPU_LIMIT;
    let big_limit = ThermalPolicySpec::STEPWISE_BIG_LIMIT;
    let max_state = gpu_limit.max(big_limit);
    let caps_at = |s: usize| {
        vec![
            (ComponentId::Gpu, gpu_cap_index(platform, s.min(gpu_limit))),
            (
                ComponentId::BigCluster,
                big_cap_index(platform, s.min(big_limit)),
            ),
        ]
    };
    let steady_at = |s: usize| -> Option<f64> {
        let caps = caps_at(s);
        let mut worst = f64::NEG_INFINITY;
        for seg in segs {
            let p = segment_power(platform, seg, n, Some(&caps));
            let d = steady_deviation(lti, &p.hi)?;
            let peak = d.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            worst = worst.max(peak + amb_hi_c);
        }
        Some(worst)
    };
    let temps: Vec<f64> = (0..=max_state).map(steady_at).collect::<Option<Vec<_>>>()?;
    for s in 0..max_state {
        let up = temps[s] > trip_c;
        let down = temps[s + 1] < trip_c - ThermalPolicySpec::STEPWISE_HYSTERESIS_C;
        if up && down {
            return Some((s, temps[s], temps[s + 1]));
        }
    }
    None
}

fn gpu_cap_index(platform: &Platform, steps: usize) -> usize {
    cap_index(platform, ComponentId::Gpu, steps)
}

fn big_cap_index(platform: &Platform, steps: usize) -> usize {
    cap_index(platform, ComponentId::BigCluster, steps)
}

fn cap_index(platform: &Platform, id: ComponentId, steps: usize) -> usize {
    platform
        .components()
        .iter()
        .find(|c| c.id() == id)
        .map_or(0, |c| (c.opps().len() - 1).saturating_sub(steps))
}

/// Verifies one plain scenario. See [`verify_cell`].
///
/// # Errors
///
/// A human-readable message when the platform has no LTI form or a
/// workload name is unknown (conditions other lints already flag).
pub fn verify_scenario(spec: &ScenarioSpec, origin: &str) -> Result<Verification, String> {
    verify_cell(spec, None, origin)
}

/// A cell's interval problem, derived once from its spec: the network
/// and its base-tick discretization, one per-node power interval per
/// constant-power span with the span's end time, the ambient and
/// initial-state intervals, and the horizon.
struct Cell {
    platform: Platform,
    lti: ThermalLti,
    segs: Vec<Segment>,
    disc: Discretization,
    /// The unscaled worst-case power shape: the sustained budget is a
    /// property of the platform and workload mix, not of the jitter box.
    shape: Vec<f64>,
    powers: Vec<NodePower>,
    /// When each entry of `powers` stops applying, seconds.
    ends_s: Vec<f64>,
    /// The ambient interval, absolute Celsius.
    amb_c: (f64, f64),
    /// The initial-state interval, deviation from ambient.
    x0: (f64, f64),
    ticks: usize,
}

impl Cell {
    fn new(spec: &ScenarioSpec, fleet: Option<&FleetSpec>) -> Result<Self, String> {
        let platform = spec.platform.build();
        let lti = platform
            .thermal_spec()
            .lti()
            .map_err(|e| format!("thermal network has no LTI form: {e}"))?;
        let n = lti.len();
        let disc = Discretization::build(&lti, BASE_DT_S)
            .map_err(|e| format!("cannot discretize thermal network: {e}"))?;
        let segs = segments(spec)?;
        let seg_powers: Vec<NodePower> = segs
            .iter()
            .map(|s| segment_power(&platform, s, n, None))
            .collect();
        let mut shape = vec![0.0_f64; n];
        for p in &seg_powers {
            for (s, &hi) in shape.iter_mut().zip(&p.hi) {
                *s = s.max(hi);
            }
        }

        let base_amb = lti.ambient.to_celsius().value();
        let (amb_lo, amb_hi) = fleet.map_or((base_amb, base_amb), |f| {
            let (o_lo, o_hi) = f.ambient_c.bounds();
            (base_amb + o_lo, base_amb + o_hi)
        });
        let x0 = spec
            .initial_temperature_c
            .map_or((0.0, 0.0), |t0| (t0 - amb_hi, t0 - amb_lo));

        // Fleet cells inject `trace × leakage_scale × workload_mix`, with
        // per-device circular phase offsets — any segment's power can
        // appear at any time, so the envelope uses the hull over segments
        // scaled by the full jitter box.
        let (powers, ends_s) = if let Some(f) = fleet {
            let scale = linalg::interval_mul(f.leakage_scale.bounds(), f.workload_mix.bounds());
            let mut hull = NodePower {
                lo: vec![f64::INFINITY; n],
                hi: vec![f64::NEG_INFINITY; n],
            };
            for p in &seg_powers {
                for i in 0..n {
                    hull.lo[i] = hull.lo[i].min(p.lo[i]);
                    hull.hi[i] = hull.hi[i].max(p.hi[i]);
                }
            }
            for i in 0..n {
                let (lo, hi) = linalg::interval_mul((hull.lo[i], hull.hi[i]), scale);
                hull.lo[i] = lo;
                hull.hi[i] = hi;
            }
            (vec![hull], vec![spec.duration_s])
        } else {
            (seg_powers, segs.iter().map(|s| s.end_s).collect())
        };
        Ok(Self {
            platform,
            lti,
            segs,
            disc,
            shape,
            powers,
            ends_s,
            amb_c: (amb_lo, amb_hi),
            x0,
            ticks: (spec.duration_s / BASE_DT_S).round().max(0.0) as usize,
        })
    }

    /// Propagates the envelope tick by tick, until the horizon or until
    /// its upper bound escapes the leakage-model cap, scanning each
    /// sample against `trip_c` as it is stored. Each span's input term
    /// is formed once, and one pair of buffers takes every step.
    fn propagate(&self, trip_c: f64) -> (Envelope, Scan) {
        let n = self.lti.len();
        let inputs: Vec<IntervalInput> = (self.powers.iter())
            .map(|p| self.disc.interval_input(&p.lo, &p.hi))
            .collect();
        let mut env = Envelope {
            dt_s: BASE_DT_S,
            node_names: (self.platform.thermal_spec().nodes.iter())
                .map(|nd| nd.name.clone())
                .collect(),
            ambient_lo_c: self.amb_c.0,
            ambient_hi_c: self.amb_c.1,
            n,
            lo: Vec::with_capacity((self.ticks + 1) * n),
            hi: Vec::with_capacity((self.ticks + 1) * n),
            truncated_at_s: None,
        };
        let mut scan = Scan::new(trip_c, self.amb_c);
        let (mut lo, mut hi) = (vec![self.x0.0; n], vec![self.x0.1; n]);
        let (mut next_lo, mut next_hi) = (vec![0.0; n], vec![0.0; n]);
        env.lo.extend_from_slice(&lo);
        env.hi.extend_from_slice(&hi);
        scan.observe(0, &lo, &hi);
        let mut span = 0usize;
        for k in 0..self.ticks {
            let t = k as f64 * BASE_DT_S;
            while span + 1 < self.ends_s.len() && t >= self.ends_s[span] - 1e-12 {
                span += 1;
            }
            self.disc
                .step_interval(&inputs[span], &lo, &hi, &mut next_lo, &mut next_hi);
            std::mem::swap(&mut lo, &mut next_lo);
            std::mem::swap(&mut hi, &mut next_hi);
            env.lo.extend_from_slice(&lo);
            env.hi.extend_from_slice(&hi);
            if scan.observe(k + 1, &lo, &hi) > MAX_SANE_TEMP_C {
                env.truncated_at_s = Some((k + 1) as f64 * BASE_DT_S);
                break;
            }
        }
        (env, scan)
    }
}

/// The verdict scan: each sample's hottest upper and lower bound,
/// Celsius, against the trip reference.
#[derive(Debug)]
struct Scan {
    trip_c: f64,
    /// The ambient interval the samples deviate from, Celsius.
    amb_c: (f64, f64),
    peak_upper: f64,
    peak_lower: f64,
    first_straddle: Option<f64>,
    first_guaranteed: Option<f64>,
}

impl Scan {
    fn new(trip_c: f64, amb_c: (f64, f64)) -> Self {
        Self {
            trip_c,
            amb_c,
            peak_upper: f64::NEG_INFINITY,
            peak_lower: f64::NEG_INFINITY,
            first_straddle: None,
            first_guaranteed: None,
        }
    }

    /// Folds in sample `s` and returns its hottest upper bound.
    fn observe(&mut self, s: usize, lo: &[f64], hi: &[f64]) -> f64 {
        let hottest =
            |x: &[f64], amb: f64| (x.iter().map(|v| v + amb)).fold(f64::NEG_INFINITY, f64::max);
        let (max_lo, max_hi) = (hottest(lo, self.amb_c.0), hottest(hi, self.amb_c.1));
        self.peak_upper = self.peak_upper.max(max_hi);
        self.peak_lower = self.peak_lower.max(max_lo);
        let t = s as f64 * BASE_DT_S;
        if max_hi >= self.trip_c && self.first_straddle.is_none() {
            self.first_straddle = Some(t);
        }
        if max_lo >= self.trip_c && self.first_guaranteed.is_none() {
            self.first_guaranteed = Some(t);
        }
        max_hi
    }
}

/// Verifies one scenario, optionally widened to a fleet's full
/// `ParamJitter` ranges: propagates the guaranteed temperature envelope,
/// resolves the trip reference, and emits the MPT601/602/603 verdict
/// plus the MPT604 limit-cycle check and the sustained power budget.
///
/// # Errors
///
/// A human-readable message when the platform has no LTI form or a
/// workload name is unknown.
pub fn verify_cell(
    spec: &ScenarioSpec,
    fleet: Option<&FleetSpec>,
    origin: &str,
) -> Result<Verification, String> {
    let cell = Cell::new(spec, fleet)?;
    let (trip_c, reference) = resolve_trip(spec, fleet);
    let (env, scan) = cell.propagate(trip_c);
    let Scan {
        peak_upper,
        peak_lower,
        first_straddle,
        first_guaranteed,
        ..
    } = scan;
    let amb_hi = cell.amb_c.1;

    let budget = sustained_budget(&cell.lti, &cell.shape, trip_c, amb_hi);

    let mut report = Report::default();
    report.checks_run += 1;
    let budget_note = budget.map_or(String::new(), |b| {
        format!("; sustained-safe power budget {b:.2} W")
    });
    if let Some(t) = first_guaranteed {
        report.diagnostics.push(Diagnostic::new(
            Code::GuaranteedTrip,
            origin,
            format!(
                "guaranteed trip: even the most optimistic trajectory reaches the \
                 {trip_c:.1} C reference ({reference}) by t = {t:.2} s \
                 (envelope lower bound peaks at {peak_lower:.2} C){budget_note}"
            ),
        ));
    } else if let Some(t) = env.truncated_at_s {
        report.diagnostics.push(Diagnostic::new(
            Code::PossibleTrip,
            origin,
            format!(
                "cannot certify: the temperature envelope escapes the \
                 {MAX_SANE_TEMP_C:.0} C leakage-model cap at t = {t:.2} s; \
                 reference {trip_c:.1} C ({reference}){budget_note}"
            ),
        ));
    } else if peak_upper >= trip_c - DEFAULT_MARGIN_C {
        let when = first_straddle.map_or_else(
            || {
                format!(
                    "stays below the reference but within the {DEFAULT_MARGIN_C:.3} C \
                     certificate margin"
                )
            },
            |t| format!("first possible crossing at t = {t:.2} s"),
        );
        report.diagnostics.push(Diagnostic::new(
            Code::PossibleTrip,
            origin,
            format!(
                "possible trip: envelope [{peak_lower:.2}, {peak_upper:.2}] C straddles the \
                 {trip_c:.1} C reference ({reference}); {when}{budget_note}"
            ),
        ));
    } else {
        report.diagnostics.push(Diagnostic::new(
            Code::NoTripCertificate,
            origin,
            format!(
                "certified trip-free: envelope upper bound peaks at {peak_upper:.2} C, \
                 {:.2} C below the {trip_c:.1} C reference ({reference}){budget_note}",
                trip_c - peak_upper
            ),
        ));
    }

    let mut limit_cycle = false;
    if matches!(spec.thermal, ThermalPolicySpec::StepWise { .. }) {
        report.checks_run += 1;
        if let Some((s, t_hot, t_cool)) =
            stepwise_limit_cycle(&cell.platform, &cell.lti, &cell.segs, trip_c, amb_hi)
        {
            limit_cycle = true;
            report.diagnostics.push(Diagnostic::new(
                Code::GovernorLimitCycle,
                origin,
                format!(
                    "step-wise limit-cycle risk: worst-case steady state at cooling level {s} \
                     is {t_hot:.2} C (above the {trip_c:.1} C trip) but level {} cools to \
                     {t_cool:.2} C (below trip - {:.1} C hysteresis) — the governor \
                     oscillates between the two caps",
                    s + 1,
                    ThermalPolicySpec::STEPWISE_HYSTERESIS_C
                ),
            ));
        }
    }

    let verdict = report
        .diagnostics
        .iter()
        .map(|d| d.code)
        .find(|c| {
            matches!(
                c,
                Code::NoTripCertificate | Code::PossibleTrip | Code::GuaranteedTrip
            )
        })
        .expect("one verdict diagnostic is always emitted");
    let summary = VerificationSummary {
        verdict: verdict.code().to_owned(),
        reference: reference.to_owned(),
        trip_c,
        margin_c: DEFAULT_MARGIN_C,
        peak_upper_c: peak_upper,
        peak_lower_c: peak_lower,
        first_straddle_s: first_straddle,
        first_guaranteed_s: first_guaranteed,
        limit_cycle,
        sustained_budget_w: budget,
        devices: fleet.map_or(1, |f| f.devices),
        ticks: cell.ticks,
    };
    Ok(Verification {
        report,
        summary,
        envelope: env,
    })
}

/// Verifies every cell of a campaign (the fleet block widened to its
/// full jitter ranges), returning the merged diagnostics and the
/// per-cell verdicts in expansion order.
///
/// # Errors
///
/// A human-readable message when the campaign cannot expand or a cell
/// cannot be verified.
pub fn verify_campaign(
    spec: &CampaignSpec,
    origin: &str,
) -> Result<(Report, Vec<CellVerification>), String> {
    let cells = spec.expand().map_err(|e| e.to_string())?;
    let mut report = Report::default();
    let mut verdicts = Vec::with_capacity(cells.len());
    for cell in &cells {
        let shown = if cell.label.is_empty() {
            origin.to_owned()
        } else {
            format!("{origin}[{}]", cell.label)
        };
        let v = verify_cell(&cell.scenario, cell.fleet.as_ref(), &shown)?;
        report.merge(v.report);
        verdicts.push(CellVerification {
            label: cell.label.clone(),
            summary: v.summary,
        });
    }
    Ok((report, verdicts))
}

/// Certifies a scenario lint accepted, folding a failure to verify into
/// the report (the `mpt_lint --verify` path).
#[must_use]
pub fn scenario_report(spec: &ScenarioSpec, path: &str) -> Report {
    fold_failure(verify_scenario(spec, path).map(|v| v.report), path)
}

/// [`scenario_report`] for a campaign, over every expanded cell.
#[must_use]
pub fn campaign_report(spec: &CampaignSpec, path: &str) -> Report {
    fold_failure(verify_campaign(spec, path).map(|(report, _)| report), path)
}

/// A verification's report, or one MPT102 for a spec it cannot verify.
fn fold_failure(verified: Result<Report, String>, path: &str) -> Report {
    verified.unwrap_or_else(|msg| {
        let mut r = Report::default();
        r.checks_run += 1;
        r.diagnostics.push(Diagnostic::new(
            Code::ScenarioShape,
            path,
            format!("cannot verify: {msg}"),
        ));
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(json: &str) -> ScenarioSpec {
        serde_json::from_str(json).expect("spec parses")
    }

    #[test]
    fn idle_scenario_earns_a_certificate() {
        let s = spec(
            r#"{ "platform": "exynos5422", "duration_s": 5.0,
                 "thermal": { "policy": "step_wise", "trips_c": [90.0], "period_s": 1.0 },
                 "workloads": [
                   { "kind": "phased", "name": "idle", "phases": [
                     { "until_s": 5.0, "rate": 0.0 } ] } ] }"#,
        );
        let v = verify_scenario(&s, "idle.json").expect("verifies");
        assert_eq!(v.summary.verdict, "MPT601");
        assert!(v.summary.peak_upper_c < 90.0 - DEFAULT_MARGIN_C);
        assert_eq!(v.report.infos(), 1);
        assert_eq!(v.report.errors(), 0);
    }

    #[test]
    fn impossible_trip_reference_is_guaranteed() {
        // A trip below ambient with a warm start: every trajectory is
        // above it from tick 0.
        let s = spec(
            r#"{ "platform": "snapdragon810", "duration_s": 1.0,
                 "initial_temperature_c": 35.0,
                 "thermal": { "policy": "step_wise", "trips_c": [20.0], "period_s": 1.0 },
                 "workloads": [ { "kind": "basic_math" } ] }"#,
        );
        let v = verify_scenario(&s, "hot.json").expect("verifies");
        assert_eq!(v.summary.verdict, "MPT603");
        assert_eq!(v.summary.first_guaranteed_s, Some(0.0));
        assert_eq!(v.report.errors(), 1);
    }

    #[test]
    fn envelope_brackets_initial_state_exactly_without_fleet() {
        let s = spec(
            r#"{ "platform": "snapdragon810", "duration_s": 1.0,
                 "initial_temperature_c": 42.0,
                 "workloads": [ { "kind": "basic_math" } ] }"#,
        );
        let v = verify_scenario(&s, "t0.json").expect("verifies");
        let env = &v.envelope;
        for node in 0..env.nodes() {
            assert!((env.lower_c(0, node) - 42.0).abs() < 1e-9);
            assert!((env.upper_c(0, node) - 42.0).abs() < 1e-9);
        }
        // Bounds stay ordered and finite through the run.
        for sample in 0..env.samples() {
            for node in 0..env.nodes() {
                let (lo, hi) = (env.lower_c(sample, node), env.upper_c(sample, node));
                assert!(lo.is_finite() && hi.is_finite());
                assert!(lo <= hi, "sample {sample} node {node}: {lo} > {hi}");
            }
        }
    }

    #[test]
    fn fleet_jitter_widens_the_envelope() {
        let s = spec(
            r#"{ "platform": "snapdragon810", "duration_s": 2.0,
                 "initial_temperature_c": 35.0,
                 "thermal": { "policy": "step_wise", "trips_c": [41.0], "period_s": 1.0 },
                 "workloads": [ { "kind": "app", "name": "paper_io", "seed": 1 } ] }"#,
        );
        let fleet: FleetSpec = serde_json::from_str(
            r#"{ "devices": 100,
                 "leakage_scale": { "dist": "uniform", "min": 0.9, "max": 1.3 },
                 "ambient_c": { "dist": "uniform", "min": -2.0, "max": 5.0 },
                 "workload_mix": { "dist": "uniform", "min": 0.8, "max": 1.2 } }"#,
        )
        .expect("fleet parses");
        let plain = verify_scenario(&s, "plain").expect("verifies");
        let wide = verify_cell(&s, Some(&fleet), "fleet").expect("verifies");
        assert!(wide.summary.peak_upper_c > plain.summary.peak_upper_c);
        assert_eq!(wide.summary.devices, 100);
        let last = wide.envelope.samples() - 1;
        for node in 0..wide.envelope.nodes() {
            assert!(wide.envelope.upper_c(last, node) >= plain.envelope.upper_c(last, node));
            assert!(wide.envelope.lower_c(last, node) <= plain.envelope.lower_c(last, node));
        }
    }

    #[test]
    fn sustained_budget_scales_with_the_trip() {
        let cool = spec(
            r#"{ "platform": "exynos5422", "duration_s": 1.0,
                 "thermal": { "policy": "ipa", "control_c": 70.0,
                              "sustainable_w": 2.6, "gpu_weight": 1.2 },
                 "workloads": [ { "kind": "basic_math" } ] }"#,
        );
        let hot = spec(
            r#"{ "platform": "exynos5422", "duration_s": 1.0,
                 "thermal": { "policy": "ipa", "control_c": 95.0,
                              "sustainable_w": 2.6, "gpu_weight": 1.2 },
                 "workloads": [ { "kind": "basic_math" } ] }"#,
        );
        let b_cool = verify_scenario(&cool, "c")
            .unwrap()
            .summary
            .sustained_budget_w;
        let b_hot = verify_scenario(&hot, "h")
            .unwrap()
            .summary
            .sustained_budget_w;
        let (b_cool, b_hot) = (b_cool.expect("budget"), b_hot.expect("budget"));
        assert!(b_hot > b_cool, "{b_hot} vs {b_cool}");
        // Linear in headroom: 70 °C/95 °C over a 25 °C ambient.
        assert!((b_hot / b_cool - 70.0 / 45.0).abs() < 1e-6);
    }

    #[test]
    fn campaign_verification_covers_every_cell() {
        let json = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/nexus_trip_sweep.campaign.json"
        ))
        .expect("campaign readable");
        let campaign: CampaignSpec = serde_json::from_str(&json).expect("parses");
        let (report, verdicts) =
            verify_campaign(&campaign, "nexus_trip_sweep.campaign.json").expect("verifies");
        assert_eq!(verdicts.len(), campaign.expand().unwrap().len());
        assert_eq!(report.errors(), 0, "{}", report.render_text());
        for v in &verdicts {
            assert!(!v.label.is_empty());
            assert!(v.summary.ticks > 0);
        }
    }

    /// The interval step as the certifier took it every tick before each
    /// span's input was formed once, kept as the reference: the interval
    /// mat-vec into fresh buffers, then each powered column's
    /// `interval_mul` products added row by row.
    fn reference_step(disc: &Discretization, lo: &mut [f64], hi: &mut [f64], p: &NodePower) {
        let n = disc.len();
        let (ad, bd_cols) = disc.matrices();
        let mut next_lo = vec![0.0; n];
        let mut next_hi = vec![0.0; n];
        linalg::interval_mat_vec(ad, n, lo, hi, &mut next_lo, &mut next_hi);
        for j in 0..n {
            if p.lo[j] == 0.0 && p.hi[j] == 0.0 {
                continue;
            }
            let col = &bd_cols[j * n..(j + 1) * n];
            for i in 0..n {
                let (dl, dh) = linalg::interval_mul((col[i], col[i]), (p.lo[j], p.hi[j]));
                next_lo[i] += dl;
                next_hi[i] += dh;
            }
        }
        lo.copy_from_slice(&next_lo);
        hi.copy_from_slice(&next_hi);
    }

    /// The envelope and verdict scan of `cell` as the certifier took them
    /// before: [`reference_step`] every tick, then a scan over the
    /// stored samples.
    fn reference_propagation(cell: &Cell, like: &Envelope, trip_c: f64) -> (Envelope, Scan) {
        let n = cell.lti.len();
        let amb_hi = cell.amb_c.1;
        let mut lo = vec![cell.x0.0; n];
        let mut hi = vec![cell.x0.1; n];
        let mut env = Envelope {
            lo: lo.clone(),
            hi: hi.clone(),
            truncated_at_s: None,
            ..like.clone()
        };
        let mut seg_idx = 0usize;
        for k in 0..cell.ticks {
            let t = k as f64 * BASE_DT_S;
            while seg_idx + 1 < cell.ends_s.len() && t >= cell.ends_s[seg_idx] - 1e-12 {
                seg_idx += 1;
            }
            reference_step(&cell.disc, &mut lo, &mut hi, &cell.powers[seg_idx]);
            env.lo.extend_from_slice(&lo);
            env.hi.extend_from_slice(&hi);
            let peak = hi.iter().copied().fold(f64::NEG_INFINITY, f64::max) + amb_hi;
            if peak > MAX_SANE_TEMP_C {
                env.truncated_at_s = Some((k + 1) as f64 * BASE_DT_S);
                break;
            }
        }
        let mut scan = Scan::new(trip_c, cell.amb_c);
        for s in 0..env.samples() {
            let hottest = |bound: fn(&Envelope, usize, usize) -> f64| {
                (0..n)
                    .map(|i| bound(&env, s, i))
                    .fold(f64::NEG_INFINITY, f64::max)
            };
            let (max_hi, max_lo) = (hottest(Envelope::upper_c), hottest(Envelope::lower_c));
            scan.peak_upper = scan.peak_upper.max(max_hi);
            scan.peak_lower = scan.peak_lower.max(max_lo);
            let t = s as f64 * BASE_DT_S;
            if max_hi >= trip_c && scan.first_straddle.is_none() {
                scan.first_straddle = Some(t);
            }
            if max_lo >= trip_c && scan.first_guaranteed.is_none() {
                scan.first_guaranteed = Some(t);
            }
        }
        (env, scan)
    }

    /// Every shipped scenario and campaign cell, fleet cells included,
    /// and a phased scenario on each platform, whose power changes span
    /// mid-run (no shipped cell has more than one span).
    #[test]
    fn shipped_and_phased_envelopes_have_the_bits_of_the_per_tick_reference() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .expect("scenarios readable")
            .map(|e| e.expect("entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        paths.sort();
        let mut cells: Vec<(String, ScenarioSpec, Option<FleetSpec>)> = Vec::new();
        for path in &paths {
            let name = path
                .file_name()
                .expect("named")
                .to_string_lossy()
                .into_owned();
            let json = std::fs::read_to_string(path).expect("readable");
            if name.ends_with(".campaign.json") {
                let campaign: CampaignSpec = serde_json::from_str(&json).expect("parses");
                for c in campaign.expand().expect("expands") {
                    cells.push((format!("{name}[{}]", c.label), c.scenario, c.fleet));
                }
            } else {
                cells.push((name, serde_json::from_str(&json).expect("parses"), None));
            }
        }
        assert!(cells.len() >= 30, "only {} shipped cells", cells.len());
        assert!(cells.iter().any(|(_, _, fleet)| fleet.is_some()));
        for platform in ["snapdragon810", "exynos5422"] {
            let phased = spec(&format!(
                r#"{{ "platform": "{platform}", "duration_s": 12.0,
                      "initial_temperature_c": 40.0,
                      "thermal": {{ "policy": "step_wise", "trips_c": [60.0], "period_s": 1.0 }},
                      "workloads": [
                        {{ "kind": "phased", "name": "p", "phases": [
                          {{ "until_s": 2.555, "rate": 2.0e9, "threads": 2.0 }},
                          {{ "until_s": 6.0, "rate": 0.0 }},
                          {{ "until_s": 9.25, "rate": 1.0e9, "threads": 1.0 }} ] }} ] }}"#
            ));
            assert_eq!(Cell::new(&phased, None).unwrap().powers.len(), 4);
            cells.push((format!("{platform} phased"), phased, None));
        }
        let mut truncated = 0;
        for (label, spec, fleet) in &cells {
            let v = verify_cell(spec, fleet.as_ref(), label).expect("verifies");
            let cell = Cell::new(spec, fleet.as_ref()).expect("derives");
            let (trip_c, _) = resolve_trip(spec, fleet.as_ref());
            let (env, scan) = reference_propagation(&cell, &v.envelope, trip_c);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&v.envelope.lo), bits(&env.lo), "{label}: lower bounds");
            assert_eq!(bits(&v.envelope.hi), bits(&env.hi), "{label}: upper bounds");
            assert_eq!(v.envelope.truncated_at_s, env.truncated_at_s, "{label}");
            let s = &v.summary;
            assert_eq!(
                bits(&[s.peak_upper_c, s.peak_lower_c]),
                bits(&[scan.peak_upper, scan.peak_lower]),
                "{label}: peaks"
            );
            assert_eq!(
                (s.first_straddle_s, s.first_guaranteed_s),
                (scan.first_straddle, scan.first_guaranteed),
                "{label}: first crossings"
            );
            truncated += usize::from(env.truncated_at_s.is_some());
        }
        assert!(truncated > 0, "some shipped envelope escapes the cap");
    }
}
