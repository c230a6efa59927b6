//! The exact LTI thermal-step solver.
//!
//! The RC network's heat equation is linear time-invariant, so a step of
//! fixed `dt` is an affine map of the state. [`ExactLti`] discretizes the
//! system once per `(dynamics, dt)` as `x[k+1] = Ad·x[k] + Bd·P[k]` with
//! `Ad = exp(A·dt)` and `Bd = A⁻¹(Ad − I)B`, then advances every tick
//! with a single cached mat-vec, exact for piecewise-constant power
//! regardless of stiffness or step size.
//!
//! Discretizations live in a [`TransitionCache`] keyed by the network
//! fingerprint and the step size, so a campaign sweeping twelve cells of
//! the same platform factors the network exactly once and shares the
//! immutable `Ad`/`Bd` across worker threads.

use std::sync::{Arc, Mutex, OnceLock};

use mpt_soc::ThermalLti;
use mpt_units::{Kelvin, Seconds, Watts};

use crate::strip::{self, Lane};
use crate::{linalg, FleetState, Result, ThermalError, TraceFeed, TripWatch};

/// What one solver step did, for observability counters.
///
/// Every field is driven by simulated inputs only (never wall-clock), so
/// totals aggregated over a run are bit-identical across repeats and
/// worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepStats {
    /// Explicit-Euler substeps the step would have needed but did not
    /// execute (the stability bound `ThermalLti::euler_max_step` implies).
    pub substeps_avoided: u32,
    /// Whether the step found its discretization in the shared cache.
    pub cache_hit: bool,
    /// Whether the step built and inserted a new discretization.
    pub cache_build: bool,
}

/// Advancing an RC network by one step, one device or a whole fleet.
///
/// [`ExactLti`] is the only implementation; it owns its per-network
/// scratch state (memoized discretizations, work buffers) while the
/// immutable system description is passed in as a [`ThermalLti`] each
/// call.
pub trait ThermalSolver {
    /// Advances `temperatures` by `dt` under per-node injected `powers`.
    ///
    /// The caller guarantees `dt > 0` and matching slice lengths.
    ///
    /// # Errors
    ///
    /// [`ThermalError::SingularNetwork`] if a discretization cannot be
    /// factored (a node with no path to ambient).
    fn step(
        &mut self,
        lti: &ThermalLti,
        temperatures: &mut [Kelvin],
        dt: Seconds,
        powers: &[Watts],
    ) -> Result<StepStats>;

    /// Advances every device of a [`FleetState`] by `dt`, with power
    /// from its power plane.
    ///
    /// Semantics are defined by the scalar path: device `d` behaves
    /// exactly as an independent network whose [`ThermalLti`] differs
    /// from `lti` only in `ambient` (the fleet's per-device ambient) —
    /// same inputs produce the same bits as N separate [`step`] calls.
    /// This is the fleet strip kernel run for one tick. The
    /// returned stats describe the discretization work of the batch
    /// pass, not per-device work.
    ///
    /// [`step`]: ThermalSolver::step
    ///
    /// # Errors
    ///
    /// [`ThermalError::SingularNetwork`] as for [`step`](ThermalSolver::step);
    /// [`ThermalError::InvalidSpec`] for a network of more than 1024
    /// nodes, the widest the kernel takes.
    fn step_batch(
        &mut self,
        lti: &ThermalLti,
        fleet: &mut FleetState,
        dt: Seconds,
    ) -> Result<StepStats>;
}

/// One exact discretization `T[k+1] = Ad·T[k] + Bd·P[k]` (in deviation
/// coordinates around ambient). `Ad` is flat row-major for the mat-vec;
/// `Bd` is stored *column*-major so the step can skip whole columns for
/// nodes injecting no power (most nodes, most ticks).
#[derive(Debug)]
pub struct Discretization {
    n: usize,
    ad: Vec<f64>,
    bd_cols: Vec<f64>,
    /// Both matrices as the fleet strip kernel reads them at its width
    /// (see `strip.rs`), laid out on first use so the scalar path
    /// never pays for it; empty for a network no kernel takes.
    kernel_layout: OnceLock<Vec<Lane>>,
}

impl Discretization {
    /// Discretizes `dx/dt = A·x + B·P` exactly at step `dt`:
    /// `Ad = exp(A·dt)` by scaling-and-squaring and
    /// `Bd = A⁻¹(Ad − I)B` by an LU solve with matrix right-hand side.
    ///
    /// # Errors
    ///
    /// [`ThermalError::SingularNetwork`] if `A` cannot be factored.
    pub fn build(lti: &ThermalLti, dt: f64) -> Result<Self> {
        let n = lti.len();
        let mut a_dt = linalg::Mat::from_rows(&lti.a);
        for i in 0..n {
            for v in a_dt.row_mut(i) {
                *v *= dt;
            }
        }
        let ad = linalg::expm(&a_dt);
        let mut ad_minus_i = ad.clone();
        for i in 0..n {
            ad_minus_i[(i, i)] -= 1.0;
        }
        let phi = linalg::solve_multi(linalg::Mat::from_rows(&lti.a), ad_minus_i)
            .ok_or(ThermalError::SingularNetwork)?;
        // Bd[i][j] = phi[i][j] · b_diag[j], laid out by column j.
        let mut bd_cols = Vec::with_capacity(n * n);
        for j in 0..n {
            let b = lti.b_diag[j];
            bd_cols.extend((0..n).map(|i| phi[(i, j)] * b));
        }
        // The strip kernel's bit-identity argument needs `b · 0 = ±0`.
        debug_assert!(
            bd_cols.iter().all(|b| b.is_finite()),
            "Bd entries must be finite"
        );
        Ok(Self {
            n,
            ad: ad.into_vec(),
            bd_cols,
            kernel_layout: OnceLock::new(),
        })
    }

    /// The state dimension.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the discretization has no states.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The strip kernel's layout of both matrices.
    fn kernel_layout(&self) -> &[Lane] {
        self.kernel_layout.get_or_init(|| {
            strip::width(self.n).map_or_else(
                |_| Vec::new(),
                |w| strip::layout(w, self.n, &self.ad, &self.bd_cols),
            )
        })
    }

    /// Propagates a guaranteed state envelope one tick forward:
    /// given `x_k ∈ [lo, hi]` (elementwise, deviation coordinates) and a
    /// per-node power interval `p_k ∈ [p_lo, p_hi]`, overwrites
    /// `lo`/`hi` with outward-rounded bounds on
    /// `x_{k+1} = Ad·x_k + Bd·p_k`.
    ///
    /// This is the abstract transformer of the MPT6xx reachability
    /// verifier: because it reuses the *same cached* `(Ad, Bd)` the
    /// exact-LTI solver steps with, every concrete trajectory whose power
    /// stays inside the interval is contained in the envelope by
    /// induction, with outward rounding absorbing floating-point error.
    pub fn step_interval(&self, lo: &mut [f64], hi: &mut [f64], p_lo: &[f64], p_hi: &[f64]) {
        let n = self.n;
        debug_assert_eq!(lo.len(), n);
        debug_assert_eq!(hi.len(), n);
        debug_assert_eq!(p_lo.len(), n);
        debug_assert_eq!(p_hi.len(), n);
        let mut next_lo = vec![0.0; n];
        let mut next_hi = vec![0.0; n];
        linalg::interval_mat_vec(&self.ad, n, lo, hi, &mut next_lo, &mut next_hi);
        for j in 0..n {
            if p_lo[j] == 0.0 && p_hi[j] == 0.0 {
                continue;
            }
            let col = &self.bd_cols[j * n..(j + 1) * n];
            for i in 0..n {
                let (dl, dh) = linalg::interval_mul((col[i], col[i]), (p_lo[j], p_hi[j]));
                next_lo[i] += dl;
                next_hi[i] += dh;
            }
        }
        lo.copy_from_slice(&next_lo);
        hi.copy_from_slice(&next_hi);
    }
}

/// Key of one cached discretization: the step size plus the network's
/// dynamics fingerprint, both as exact bit patterns — lookups are rare
/// (once per simulator), so exact keys beat hashing and can never alias.
#[derive(Debug)]
struct CacheEntry {
    dt_bits: u64,
    fingerprint: Vec<u64>,
    disc: Arc<Discretization>,
}

/// A shared, immutable-once-built store of [`Discretization`]s.
///
/// The campaign runner hands one cache to every cell, so a sweep over one
/// platform factors the network exactly once however many worker threads
/// run it. Builds happen *while holding the lock*: a concurrent lookup is
/// atomically a hit or a build, which keeps the hit/build totals the
/// steps report deterministic across worker counts (the determinism
/// goldens compare them).
#[derive(Debug, Default)]
pub struct TransitionCache {
    entries: Mutex<Vec<CacheEntry>>,
}

impl TransitionCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the discretization for `(lti, dt)`, building and caching
    /// it on first use. The boolean is `true` for a cache hit.
    ///
    /// # Errors
    ///
    /// [`ThermalError::SingularNetwork`] from [`Discretization::build`].
    pub(crate) fn lookup_or_build(
        &self,
        lti: &ThermalLti,
        dt: f64,
    ) -> Result<(Arc<Discretization>, bool)> {
        let dt_bits = dt.to_bits();
        let fingerprint = lti.fingerprint();
        let mut entries = self.entries.lock().expect("cache mutex is never poisoned");
        if let Some(e) = entries
            .iter()
            .find(|e| e.dt_bits == dt_bits && e.fingerprint == fingerprint)
        {
            return Ok((Arc::clone(&e.disc), true));
        }
        let disc = Arc::new(Discretization::build(lti, dt)?);
        entries.push(CacheEntry {
            dt_bits,
            fingerprint: fingerprint.to_vec(),
            disc: Arc::clone(&disc),
        });
        Ok((disc, false))
    }

    /// Number of distinct `(dynamics, dt)` entries currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .expect("cache mutex is never poisoned")
            .len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Memoized per-`dt` state: the discretization plus the pre-computed
/// avoided-substep count, so the steady path repeats neither the cache
/// lookup nor the stability-bound division.
#[derive(Debug, Clone)]
struct StepMemo {
    dt_bits: u64,
    substeps_avoided: u32,
    disc: Arc<Discretization>,
}

/// The exact LTI solver: one cached mat-vec per step.
///
/// Holds an `Arc` to a (possibly shared) [`TransitionCache`] plus a
/// one-entry memo so the steady per-tick path never touches the cache
/// lock, and preallocated scratch so the hot step allocates nothing.
#[derive(Debug, Clone)]
pub struct ExactLti {
    cache: Arc<TransitionCache>,
    /// The last step's `dt` resolution. The owning network's dynamics are
    /// fixed after construction, so `dt` alone keys the memo.
    memo: Option<StepMemo>,
    x: Vec<f64>,
}

/// Resolves the discretization for `dt`, preferring the per-solver memo
/// over the shared cache, and records hit/build in `stats`. Shared by
/// the scalar and batch step paths.
fn memoized_disc<'m>(
    cache: &Arc<TransitionCache>,
    memo: &'m mut Option<StepMemo>,
    lti: &ThermalLti,
    dt: Seconds,
    stats: &mut StepStats,
) -> Result<&'m StepMemo> {
    let dt_bits = dt.value().to_bits();
    let stale = match memo {
        Some(m) => m.dt_bits != dt_bits,
        None => true,
    };
    if stale {
        let (disc, hit) = cache.lookup_or_build(lti, dt.value())?;
        stats.cache_hit = hit;
        stats.cache_build = !hit;
        *memo = Some(StepMemo {
            dt_bits,
            substeps_avoided: (lti.euler_substeps(dt.value()).saturating_sub(1)) as u32,
            disc,
        });
    }
    Ok(memo.as_ref().expect("memo just ensured"))
}

impl ExactLti {
    /// A solver with its own private cache.
    #[must_use]
    pub fn new() -> Self {
        Self::with_cache(Arc::new(TransitionCache::new()))
    }

    /// A solver drawing from a shared cache (what the campaign runner
    /// wires through every cell).
    #[must_use]
    pub fn with_cache(cache: Arc<TransitionCache>) -> Self {
        Self {
            cache,
            memo: None,
            x: Vec::new(),
        }
    }

    /// Replays a power trace across every device of `fleet`, one tick of
    /// `feed.dt` per trace tick, observing each device's hottest node
    /// against `watch`'s trip after every tick.
    ///
    /// Device `d` reads trace tick `(tick + feed.offsets[d]) mod ticks`
    /// scaled by `feed.scales[d]`, and behaves exactly as [`step`] on its
    /// own ambient-shifted network fed that power: each tick's
    /// temperatures, and so what `watch` records, have the scalar
    /// path's bits. The strip kernel runs the ticks in
    /// chunks of `chunk` (at least one); after each chunk `done` gets
    /// the number of ticks done.
    ///
    /// [`step`]: ThermalSolver::step
    ///
    /// # Errors
    ///
    /// As for [`step_batch`](ThermalSolver::step_batch).
    ///
    /// # Panics
    ///
    /// If `fleet` does not have `lti`'s nodes, `feed` does not hold whole
    /// ticks of them or one offset and scale per device, `watch` does
    /// not watch every device, or an offset is not below the trace's
    /// length.
    pub fn replay(
        &mut self,
        lti: &ThermalLti,
        fleet: &mut FleetState,
        feed: &TraceFeed<'_>,
        watch: &mut TripWatch,
        chunk: usize,
        mut done: impl FnMut(usize),
    ) -> Result<StepStats> {
        let (n, devices) = (fleet.nodes(), fleet.devices());
        assert_eq!(n, lti.len(), "the fleet has the network's nodes");
        assert_eq!(feed.samples.len() % n, 0, "trace holds whole ticks");
        let ticks = feed.samples.len() / n;
        assert_eq!(feed.offsets.len(), devices, "one offset per device");
        assert_eq!(feed.scales.len(), devices, "one scale per device");
        assert_eq!(watch.peak.len(), devices, "one watch per device");
        assert!(
            feed.offsets.iter().all(|&o| o < ticks.max(1)),
            "offsets lie inside the trace"
        );
        let Self { cache, memo, .. } = self;
        let mut stats = StepStats::default();
        let m = memoized_disc(cache, memo, lti, feed.dt, &mut stats)?;
        stats.substeps_avoided = m.substeps_avoided;
        strip::replay(m.disc.kernel_layout(), fleet, feed, watch, chunk, &mut done)?;
        Ok(stats)
    }
}

impl Default for ExactLti {
    fn default() -> Self {
        Self::new()
    }
}

impl ThermalSolver for ExactLti {
    fn step(
        &mut self,
        lti: &ThermalLti,
        temperatures: &mut [Kelvin],
        dt: Seconds,
        powers: &[Watts],
    ) -> Result<StepStats> {
        let Self { cache, memo, x, .. } = self;
        let mut stats = StepStats::default();
        let m = memoized_disc(cache, memo, lti, dt, &mut stats)?;
        stats.substeps_avoided = m.substeps_avoided;
        let disc = &*m.disc;
        let n = temperatures.len();
        let t_amb = lti.ambient.value();
        x.clear();
        x.extend(temperatures.iter().map(|t| t.value() - t_amb));
        for (i, t) in temperatures.iter_mut().enumerate() {
            let ad_row = &disc.ad[i * n..(i + 1) * n];
            let mut acc = 0.0;
            for (a, xv) in ad_row.iter().zip(x.iter()) {
                acc += a * xv;
            }
            *t = Kelvin::new(acc + t_amb);
        }
        // Bd is column-major: each powered node scatters one column, so
        // unpowered nodes (the common case) cost nothing.
        for (j, p) in powers.iter().enumerate() {
            let pv = p.value();
            if pv != 0.0 {
                let col = &disc.bd_cols[j * n..(j + 1) * n];
                for (t, b) in temperatures.iter_mut().zip(col) {
                    *t = Kelvin::new(t.value() + b * pv);
                }
            }
        }
        Ok(stats)
    }

    fn step_batch(
        &mut self,
        lti: &ThermalLti,
        fleet: &mut FleetState,
        dt: Seconds,
    ) -> Result<StepStats> {
        let Self { cache, memo, .. } = self;
        let mut stats = StepStats::default();
        let m = memoized_disc(cache, memo, lti, dt, &mut stats)?;
        stats.substeps_avoided = m.substeps_avoided;
        debug_assert_eq!(fleet.nodes(), m.disc.n);
        strip::step_plane(m.disc.kernel_layout(), fleet)?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpt_soc::platforms;

    fn odroid_lti() -> ThermalLti {
        platforms::exynos_5422().thermal_spec().lti().unwrap()
    }

    #[test]
    fn exact_step_matches_steady_state_at_convergence() {
        let lti = odroid_lti();
        let mut solver = ExactLti::new();
        let mut temps = vec![lti.ambient; lti.len()];
        let mut powers = vec![Watts::ZERO; lti.len()];
        powers[1] = Watts::new(2.0);
        for _ in 0..40 {
            solver
                .step(&lti, &mut temps, Seconds::new(60.0), &powers)
                .unwrap();
        }
        // 2400 s ≫ every time constant: must sit on the steady state
        // G·(T − T_amb) = P to near machine precision.
        let n = lti.len();
        for (i, p) in powers.iter().enumerate() {
            let outflow: f64 = (0..n)
                .map(|j| lti.g_full[i][j] * (temps[j].value() - lti.ambient.value()))
                .sum();
            assert!(
                (outflow - p.value()).abs() < 1e-9,
                "node {i}: outflow {outflow}"
            );
        }
    }

    #[test]
    fn interval_step_contains_every_concrete_trajectory() {
        // Step the concrete exact-LTI recursion with a power sequence that
        // wanders inside [0, 3] W on two nodes; the interval envelope fed
        // the same discretization and the bracketing power interval must
        // contain the concrete state at every tick.
        let lti = odroid_lti();
        let n = lti.len();
        let disc = Discretization::build(&lti, 0.01).unwrap();
        let mut solver = ExactLti::new();
        let mut temps = vec![lti.ambient; n];
        let mut lo = vec![0.0; n];
        let mut hi = vec![0.0; n];
        let p_lo = vec![0.0; n];
        let mut p_hi = vec![0.0; n];
        p_hi[1] = 3.0;
        p_hi[2] = 3.0;
        let mut powers = vec![Watts::ZERO; n];
        for k in 0..500u32 {
            // A deterministic pseudo-random walk inside the interval.
            powers[1] = Watts::new(1.5 + 1.5 * f64::from(k).sin());
            powers[2] = Watts::new(1.5 - 1.5 * (0.7 * f64::from(k)).cos());
            solver
                .step(&lti, &mut temps, Seconds::new(0.01), &powers)
                .unwrap();
            disc.step_interval(&mut lo, &mut hi, &p_lo, &p_hi);
            for i in 0..n {
                let dev = temps[i].value() - lti.ambient.value();
                assert!(
                    lo[i] <= dev && dev <= hi[i],
                    "tick {k} node {i}: {dev} outside [{}, {}]",
                    lo[i],
                    hi[i]
                );
            }
        }
    }

    #[test]
    fn exact_step_is_invariant_to_substep_count() {
        // Exactness: one 10 s step equals ten 1 s steps to fp accuracy.
        let lti = odroid_lti();
        let mut powers = vec![Watts::ZERO; lti.len()];
        powers[2] = Watts::new(1.5);
        let mut one = ExactLti::new();
        let mut many = ExactLti::new();
        let mut t_one = vec![lti.ambient; lti.len()];
        let mut t_many = vec![lti.ambient; lti.len()];
        one.step(&lti, &mut t_one, Seconds::new(10.0), &powers)
            .unwrap();
        for _ in 0..10 {
            many.step(&lti, &mut t_many, Seconds::new(1.0), &powers)
                .unwrap();
        }
        for (a, b) in t_one.iter().zip(&t_many) {
            assert!((a.value() - b.value()).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn cache_is_shared_and_counts_hits() {
        let lti = odroid_lti();
        let cache = Arc::new(TransitionCache::new());
        let dt = Seconds::from_millis(100.0);
        let powers = vec![Watts::ZERO; lti.len()];
        let mut stats = Vec::new();
        for _ in 0..3 {
            let mut solver = ExactLti::with_cache(Arc::clone(&cache));
            let mut temps = vec![lti.ambient; lti.len()];
            stats.push(solver.step(&lti, &mut temps, dt, &powers).unwrap());
            // Second step of the same solver memo-hits: no cache access.
            let memo = solver.step(&lti, &mut temps, dt, &powers).unwrap();
            assert!(!memo.cache_hit && !memo.cache_build);
        }
        assert!(stats[0].cache_build && !stats[0].cache_hit);
        assert!(stats[1..].iter().all(|s| s.cache_hit && !s.cache_build));
        assert_eq!(cache.len(), 1);
        // A different dt is a distinct entry.
        let mut solver = ExactLti::with_cache(Arc::clone(&cache));
        let mut temps = vec![lti.ambient; lti.len()];
        let other_dt = solver
            .step(&lti, &mut temps, Seconds::from_millis(10.0), &powers)
            .unwrap();
        assert!(other_dt.cache_build);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn substeps_avoided_reflects_euler_bound() {
        let lti = odroid_lti();
        let mut solver = ExactLti::new();
        let mut temps = vec![lti.ambient; lti.len()];
        let powers = vec![Watts::ZERO; lti.len()];
        let stats = solver
            .step(&lti, &mut temps, Seconds::new(10.0), &powers)
            .unwrap();
        assert_eq!(
            stats.substeps_avoided as usize,
            lti.euler_substeps(10.0) - 1
        );
        assert!(stats.substeps_avoided >= 1, "10 s is beyond one Euler step");
    }

    #[test]
    fn box_clone_preserves_behaviour() {
        let lti = odroid_lti();
        let mut powers = vec![Watts::ZERO; lti.len()];
        powers[1] = Watts::new(3.0);
        let mut original = Box::new(ExactLti::new());
        let mut temps_a = vec![lti.ambient; lti.len()];
        original
            .step(&lti, &mut temps_a, Seconds::new(0.1), &powers)
            .unwrap();
        let mut cloned = original.clone();
        let mut temps_b = temps_a.clone();
        original
            .step(&lti, &mut temps_a, Seconds::new(0.1), &powers)
            .unwrap();
        cloned
            .step(&lti, &mut temps_b, Seconds::new(0.1), &powers)
            .unwrap();
        assert_eq!(temps_a, temps_b);
    }
}
