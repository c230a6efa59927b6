//! The two-device strip kernel every fleet step runs.
//!
//! A *strip* is two adjacent devices of a [`FleetState`]. One node's
//! values on the strip's two devices form a lane, `[f64; 2]`, which is
//! one SSE2 register, and the node count is a const generic `N`. A
//! strip's temperatures therefore stay in registers for as many ticks as
//! it runs. [`ExactLti::replay`](crate::ExactLti::replay) runs each strip
//! across a whole progress chunk: it reads the strip's power from the
//! trace and observes trips inside the same tick loop, and it loads and
//! stores the strip once per chunk.
//! [`ThermalSolver::step_batch`](crate::ThermalSolver::step_batch) is the
//! same kernel run for one tick, with power from the fleet's power plane
//! and no observer.
//!
//! # Bit identity
//!
//! Each tick runs, per lane and in this order: the power `row[j] ·
//! scale`; `x = T − T_amb`; `y_i` from `0.0`, adding `a_ik · x_k` for `k`
//! ascending; `+ T_amb`; `+ b_ji · p_j` for powered nodes `j` ascending;
//! then the observer. That is the scalar [`ExactLti::step`]'s operation
//! sequence, so every output has its bits. The scalar step skips each
//! zero power; the kernel skips only the nodes the input never powers
//! (decided once per replay, or once per `step_batch` call from the
//! plane). A zero-power device on a powered node adds `b · 0 = ±0`, and
//! `t + ±0 = t` for any non-zero `t`: every `Bd` entry is finite and
//! the running value is a positive kelvin temperature.
//!
//! # Node counts
//!
//! Networks of one to eight nodes run at their exact width. A wider
//! network is padded to the next power of two, up to [`MAX_WIDTH`]. A
//! padded node copies node 0: its `Ad` row and `Bd` entries are node 0's
//! and it starts at node 0's temperature, so it repeats node 0's values
//! exactly and never changes the hottest node. The padded columns are
//! zero and come after every real term, so a real node's sum gains only
//! `0 · x = ±0` terms, and a running sum from `+0.0` is never `−0.0`, so
//! they leave it unchanged. Padded nodes are never powered. Wider
//! networks are refused.
//!
//! # Odd fleets
//!
//! The last strip of an odd fleet pads its second lane with a copy of its
//! first device, and that copy's results are dropped.
//!
//! [`ExactLti::step`]: crate::ThermalSolver::step
//! [`FleetState`]: crate::FleetState

use std::array;
use std::ops::Range;

use crate::fleet::{TraceFeed, TripWatch};
use crate::{FleetState, Result, ThermalError};

/// One node's values on a strip's two devices.
pub(crate) type Lane = [f64; 2];

/// The widest network the fleet kernels take, in nodes.
pub(crate) const MAX_WIDTH: usize = 1024;

/// The kernel width a network of `n` nodes runs at.
///
/// # Errors
///
/// [`ThermalError::InvalidSpec`] when no kernel takes `n` nodes.
pub(crate) fn width(n: usize) -> Result<usize> {
    match n {
        1..=8 => Ok(n),
        9..=MAX_WIDTH => Ok(n.next_power_of_two()),
        _ => Err(ThermalError::InvalidSpec {
            reason: format!("fleet kernels take 1 to {MAX_WIDTH} nodes, the network has {n}"),
        }),
    }
}

/// Lays out a discretization for the kernel at width `w`: the padded
/// `Ad` (`[i][k]`) then the padded `Bd` (`[j][i]`, by power node), each
/// entry repeated across both lanes. `ad` is `n × n` row-major and
/// `bd_cols` column-major, as [`Discretization`](crate::Discretization)
/// stores them.
pub(crate) fn layout(w: usize, n: usize, ad: &[f64], bd_cols: &[f64]) -> Vec<Lane> {
    // Padded nodes (index `n` and up) copy node 0's row.
    let real = |i: usize| if i < n { i } else { 0 };
    let ad_part = (0..w)
        .flat_map(|i| (0..w).map(move |k| (i, k)))
        .map(|(i, k)| {
            let a = if k < n { ad[real(i) * n + k] } else { 0.0 };
            [a, a]
        });
    let bd_part = (0..w)
        .flat_map(|j| (0..w).map(move |i| (j, i)))
        .map(|(j, i)| {
            let b = if j < n { bd_cols[j * n + real(i)] } else { 0.0 };
            [b, b]
        });
    ad_part.chain(bd_part).collect()
}

/// A discretization as the kernel reads it at width `N`.
struct Mats<'a, const N: usize> {
    /// `ad[i][k]`.
    ad: &'a [[Lane; N]; N],
    /// `bd[j][i]`: power node `j`'s effect on node `i`.
    bd: &'a [[Lane; N]; N],
}

impl<'a, const N: usize> Mats<'a, N> {
    fn new(layout: &'a [Lane]) -> Self {
        let (rows, rest) = layout.as_chunks::<N>();
        assert!(
            rest.is_empty() && rows.len() == 2 * N,
            "kernel layout is two {N}x{N} matrices"
        );
        let (ad, bd) = rows.split_at(N);
        Self {
            ad: ad.try_into().expect("split at N"),
            bd: bd.try_into().expect("split at N"),
        }
    }
}

#[inline(always)]
fn add(a: Lane, b: Lane) -> Lane {
    [a[0] + b[0], a[1] + b[1]]
}

#[inline(always)]
fn sub(a: Lane, b: Lane) -> Lane {
    [a[0] - b[0], a[1] - b[1]]
}

#[inline(always)]
fn mul(a: Lane, b: Lane) -> Lane {
    [a[0] * b[0], a[1] * b[1]]
}

/// Lane-wise `if a > b { a } else { b }`: the scalar observation's
/// comparison, and one `maxpd`.
#[inline(always)]
fn max(a: Lane, b: Lane) -> Lane {
    [
        if a[0] > b[0] { a[0] } else { b[0] },
        if a[1] > b[1] { a[1] } else { b[1] },
    ]
}

/// Lane-wise `if take { a } else { b }` as a bit mask, so the choice
/// costs no branch.
#[inline(always)]
fn select(take: [bool; 2], a: Lane, b: Lane) -> Lane {
    array::from_fn(|l| {
        let mask = u64::from(take[l]).wrapping_neg();
        f64::from_bits((a[l].to_bits() & mask) | (b[l].to_bits() & !mask))
    })
}

/// The kernel: advances one strip's temperatures `t` over `ticks`.
/// Before each tick `power` writes the power of every powered node into
/// its argument; after it, `observe` sees the new temperatures.
#[inline(always)]
fn run<const N: usize>(
    m: &Mats<'_, N>,
    powered: &[bool; N],
    amb: Lane,
    t: &mut [Lane; N],
    ticks: Range<usize>,
    mut power: impl FnMut(usize, &mut [Lane; N]),
    mut observe: impl FnMut(usize, &[Lane; N]),
) {
    let mut p = [[0.0; 2]; N];
    for tick in ticks {
        power(tick, &mut p);
        let x: [Lane; N] = array::from_fn(|k| sub(t[k], amb));
        for (ti, a_row) in t.iter_mut().zip(m.ad) {
            let mut y = [0.0; 2];
            for (a, xk) in a_row.iter().zip(&x) {
                y = add(y, mul(*a, *xk));
            }
            *ti = add(y, amb);
        }
        for ((b_col, pj), on) in m.bd.iter().zip(&p).zip(powered) {
            if *on {
                for (ti, b) in t.iter_mut().zip(b_col) {
                    *ti = add(*ti, mul(*b, *pj));
                }
            }
        }
        observe(tick, t);
    }
}

/// Two devices of a fleet: `lanes[l]` is lane `l`'s device, and only the
/// first `live` lanes store their results.
#[derive(Clone, Copy)]
struct Strip {
    lanes: [usize; 2],
    live: usize,
}

impl Strip {
    fn load<T: Copy>(self, per_device: &[T]) -> [T; 2] {
        self.lanes.map(|d| per_device[d])
    }

    fn store(self, per_device: &mut [f64], v: Lane) {
        for (&d, &x) in self.lanes.iter().zip(&v).take(self.live) {
            per_device[d] = x;
        }
    }

    /// Loads node rows `0..n` of a node-major plane, padded nodes as
    /// copies of node 0.
    fn load_nodes<const N: usize>(self, plane: &[f64], n: usize, devices: usize) -> [Lane; N] {
        array::from_fn(|k| {
            let row = if k < n { k } else { 0 };
            self.load(&plane[row * devices..(row + 1) * devices])
        })
    }

    fn store_nodes<const N: usize>(self, plane: &mut [f64], t: &[Lane; N], devices: usize) {
        for (row, tk) in plane.chunks_exact_mut(devices).zip(t) {
            self.store(row, *tk);
        }
    }
}

/// The strips of a `devices`-device fleet, in device order.
fn strips(devices: usize) -> impl Iterator<Item = Strip> {
    (0..devices).step_by(2).map(move |d| Strip {
        lanes: [d, (d + 1).min(devices - 1)],
        live: (devices - d).min(2),
    })
}

/// Calls `$f::<W>(args)` for the kernel width `$w`.
macro_rules! at_width {
    ($w:expr, $f:ident($($arg:expr),* $(,)?)) => {
        match $w {
            1 => $f::<1>($($arg),*),
            2 => $f::<2>($($arg),*),
            3 => $f::<3>($($arg),*),
            4 => $f::<4>($($arg),*),
            5 => $f::<5>($($arg),*),
            6 => $f::<6>($($arg),*),
            7 => $f::<7>($($arg),*),
            8 => $f::<8>($($arg),*),
            16 => $f::<16>($($arg),*),
            32 => $f::<32>($($arg),*),
            64 => $f::<64>($($arg),*),
            128 => $f::<128>($($arg),*),
            256 => $f::<256>($($arg),*),
            512 => $f::<512>($($arg),*),
            1024 => $f::<1024>($($arg),*),
            w => unreachable!("no kernel at width {w}"),
        }
    };
}

/// One tick of every device of `fleet`, power from its plane.
pub(crate) fn step_plane(layout: &[Lane], fleet: &mut FleetState) -> Result<()> {
    at_width!(width(fleet.nodes())?, step_plane_at(layout, fleet));
    Ok(())
}

fn step_plane_at<const N: usize>(layout: &[Lane], fleet: &mut FleetState) {
    let m = Mats::<N>::new(layout);
    let (n, devices) = (fleet.nodes(), fleet.devices());
    let (temps, power, ambient) = fleet.planes_mut();
    let row = |j: usize| power.get(j * devices..(j + 1) * devices);
    // A node no device powers this call is skipped (the ±0 argument). A
    // fleet that never set a power has no plane: nothing is powered.
    let powered: [bool; N] =
        array::from_fn(|j| j < n && row(j).is_some_and(|r| r.iter().any(|&p| p != 0.0)));
    for s in strips(devices) {
        let mut t = s.load_nodes::<N>(temps, n, devices);
        let loaded: [Lane; N] = array::from_fn(|j| match row(j) {
            Some(r) if powered[j] => s.load(r),
            _ => [0.0; 2],
        });
        let amb = s.load(ambient);
        run(
            &m,
            &powered,
            amb,
            &mut t,
            0..1,
            |_, p| *p = loaded,
            |_, _| (),
        );
        s.store_nodes(temps, &t, devices);
    }
}

/// A strip's trip observation, held in registers across a chunk.
struct Tripped {
    /// Trip threshold in kelvin; `+∞` without one, so nothing crosses.
    trip_k: f64,
    dt: f64,
    peak: Lane,
    above: Lane,
    /// First crossing time; NaN until the lane crosses.
    onset: Lane,
}

impl Tripped {
    #[inline(always)]
    fn observe<const N: usize>(&mut self, tick: usize, t: &[Lane; N]) {
        let hottest = t[1..].iter().fold(t[0], |h, tk| max(*tk, h));
        self.peak = max(hottest, self.peak);
        let hot = hottest.map(|h| h > self.trip_k);
        // Adding +0.0 to a non-negative sum is exact.
        self.above = add(self.above, select(hot, [self.dt; 2], [0.0; 2]));
        let first = [0, 1].map(|l| hot[l] & self.onset[l].is_nan());
        let now = (tick + 1) as f64 * self.dt;
        self.onset = select(first, [now; 2], self.onset);
    }
}

/// Replays `feed` across every device of `fleet` in chunks of `chunk`
/// ticks, calling `done` with the ticks done after each chunk.
pub(crate) fn replay(
    layout: &[Lane],
    fleet: &mut FleetState,
    feed: &TraceFeed<'_>,
    watch: &mut TripWatch,
    chunk: usize,
    done: &mut dyn FnMut(usize),
) -> Result<()> {
    at_width!(
        width(fleet.nodes())?,
        replay_at(layout, fleet, feed, watch, chunk, done)
    );
    Ok(())
}

fn replay_at<const N: usize>(
    layout: &[Lane],
    fleet: &mut FleetState,
    feed: &TraceFeed<'_>,
    watch: &mut TripWatch,
    chunk: usize,
    done: &mut dyn FnMut(usize),
) {
    let m = Mats::<N>::new(layout);
    let dt = feed.dt.value();
    let (n, devices) = (fleet.nodes(), fleet.devices());
    let padded: Vec<[f64; N]>;
    let rows: &[[f64; N]] = if n == N {
        feed.samples.as_chunks::<N>().0
    } else {
        padded = feed
            .samples
            .chunks_exact(n)
            .map(|r| array::from_fn(|j| r.get(j).copied().unwrap_or(0.0)))
            .collect();
        &padded
    };
    let ticks = rows.len();
    // The nodes the trace ever powers, decided once per replay.
    let powered: [bool; N] = array::from_fn(|j| rows.iter().any(|r| r[j] != 0.0));
    let (temps, _, ambient) = fleet.planes_mut();
    let mut start = 0;
    while start < ticks {
        let end = (start + chunk.max(1)).min(ticks);
        for s in strips(devices) {
            let mut t = s.load_nodes::<N>(temps, n, devices);
            let offset = s.load(feed.offsets);
            let scale = s.load(feed.scales);
            let traced = |tick: usize, p: &mut [Lane; N]| {
                // `tick` and each offset are below the trace length, so
                // one conditional subtraction wraps each lane's read.
                let [r0, r1] = offset.map(|o| {
                    let src = tick + o;
                    &rows[if src >= ticks { src - ticks } else { src }]
                });
                for (j, pj) in p.iter_mut().enumerate() {
                    if powered[j] {
                        *pj = [r0[j] * scale[0], r1[j] * scale[1]];
                    }
                }
            };
            let mut tripped = Tripped {
                trip_k: watch.trip_k,
                dt,
                peak: s.load(&watch.peak),
                above: s.load(&watch.above),
                onset: s.load(&watch.onset),
            };
            let amb = s.load(ambient);
            run(&m, &powered, amb, &mut t, start..end, traced, |tick, t| {
                tripped.observe(tick, t);
            });
            s.store_nodes(temps, &t, devices);
            s.store(&mut watch.peak, tripped.peak);
            s.store(&mut watch.above, tripped.above);
            s.store(&mut watch.onset, tripped.onset);
        }
        done(end);
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_are_exact_to_eight_then_powers_of_two() {
        let w = |n| width(n).ok();
        assert_eq!(w(0), None);
        assert_eq!(
            (1..=8).map(w).collect::<Vec<_>>(),
            (1..=8).map(Some).collect::<Vec<_>>()
        );
        assert_eq!(w(9), Some(16));
        assert_eq!(w(100), Some(128));
        assert_eq!(w(MAX_WIDTH), Some(MAX_WIDTH));
        assert_eq!(w(MAX_WIDTH + 1), None);
    }

    #[test]
    fn padded_layout_copies_node_zero() {
        // A 2-node network at width 4: rows 2 and 3 copy row 0, columns 2
        // and 3 are zero, and power nodes 2 and 3 have no effect.
        let ad = [1.0, 2.0, 3.0, 4.0];
        let bd_cols = [5.0, 6.0, 7.0, 8.0];
        let l = layout(4, 2, &ad, &bd_cols);
        let lane = |v: f64| [v, v];
        let ad_rows: Vec<&[Lane]> = l[..16].chunks(4).collect();
        assert_eq!(ad_rows[0], [lane(1.0), lane(2.0), lane(0.0), lane(0.0)]);
        assert_eq!(ad_rows[1], [lane(3.0), lane(4.0), lane(0.0), lane(0.0)]);
        assert_eq!(ad_rows[2], ad_rows[0]);
        assert_eq!(ad_rows[3], ad_rows[0]);
        let bd_cols: Vec<&[Lane]> = l[16..].chunks(4).collect();
        assert_eq!(bd_cols[0], [lane(5.0), lane(6.0), lane(5.0), lane(5.0)]);
        assert_eq!(bd_cols[1], [lane(7.0), lane(8.0), lane(7.0), lane(7.0)]);
        assert_eq!(bd_cols[2], [lane(0.0); 4]);
        assert_eq!(bd_cols[3], [lane(0.0); 4]);
    }
}
