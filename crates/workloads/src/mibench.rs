//! A faithful Rust port of the MiBench `basicmath` kernels (Guthaus et
//! al., IISWC 2001) — the paper's background load on the Odroid-XU3 is
//! `basicmath large` ("BML").
//!
//! The original C program exercises three kernels in a loop:
//! cubic-equation solving (`SolveCubic` from snipmath), integer square
//! roots (`usqrt`) and degree↔radian conversion. These are implemented
//! for real here so the background workload is genuinely computable; the
//! demand model in [`benchmarks`](crate::benchmarks) uses a fixed
//! cycles-per-iteration cost for simulation.

/// Roots of a cubic equation, following snipmath's `SolveCubic`.
#[derive(Debug, Clone, PartialEq)]
pub enum CubicRoots {
    /// Three real roots (includes repeated roots).
    Three([f64; 3]),
    /// One real root (the other two are complex conjugates).
    One(f64),
}

impl CubicRoots {
    /// The real roots as a slice.
    #[must_use]
    pub(crate) fn as_slice(&self) -> &[f64] {
        match self {
            CubicRoots::Three(r) => r,
            CubicRoots::One(r) => std::slice::from_ref(r),
        }
    }
}

/// Solves `a·x³ + b·x² + c·x + d = 0` for its real roots, using the
/// trigonometric method of snipmath's `SolveCubic`.
///
/// # Panics
///
/// Panics if `a == 0` (not a cubic).
///
/// # Examples
///
/// ```
/// use mpt_workloads::mibench::{solve_cubic, CubicRoots};
///
/// // (x-1)(x-2)(x-3) = x³ - 6x² + 11x - 6
/// match solve_cubic(1.0, -6.0, 11.0, -6.0) {
///     CubicRoots::Three(mut roots) => {
///         roots.sort_by(|a, b| a.partial_cmp(b).unwrap());
///         assert!((roots[0] - 1.0).abs() < 1e-9);
///         assert!((roots[2] - 3.0).abs() < 1e-9);
///     }
///     CubicRoots::One(_) => panic!("expected three real roots"),
/// }
/// ```
#[must_use]
pub fn solve_cubic(a: f64, b: f64, c: f64, d: f64) -> CubicRoots {
    assert!(a != 0.0, "leading coefficient must be nonzero");
    let a1 = b / a;
    let a2 = c / a;
    let a3 = d / a;
    let q = (a1 * a1 - 3.0 * a2) / 9.0;
    let r = (2.0 * a1 * a1 * a1 - 9.0 * a1 * a2 + 27.0 * a3) / 54.0;
    let q_cubed = q * q * q;
    let determinant = q_cubed - r * r;
    if determinant >= 0.0 {
        // Three real roots.
        let theta = (r / q_cubed.sqrt()).clamp(-1.0, 1.0).acos();
        let sqrt_q = q.sqrt();
        let x1 = -2.0 * sqrt_q * (theta / 3.0).cos() - a1 / 3.0;
        let x2 = -2.0 * sqrt_q * ((theta + 2.0 * std::f64::consts::PI) / 3.0).cos() - a1 / 3.0;
        let x3 = -2.0 * sqrt_q * ((theta + 4.0 * std::f64::consts::PI) / 3.0).cos() - a1 / 3.0;
        CubicRoots::Three([x1, x2, x3])
    } else {
        // One real root.
        let mut e = (r.abs() + (-determinant).sqrt()).cbrt();
        if r > 0.0 {
            e = -e;
        }
        CubicRoots::One(e + q / e - a1 / 3.0)
    }
}

/// Integer square root by successive approximation, as in MiBench's
/// `usqrt` (bitwise digit-by-digit method).
///
/// Returns `⌊√x⌋`.
///
/// # Examples
///
/// ```
/// use mpt_workloads::mibench::usqrt;
///
/// assert_eq!(usqrt(0), 0);
/// assert_eq!(usqrt(25), 5);
/// assert_eq!(usqrt(26), 5);
/// assert_eq!(usqrt(u32::MAX as u64), 65535);
/// ```
#[must_use]
pub fn usqrt(x: u64) -> u64 {
    let mut a: u64 = 0; // accumulator
    let mut r: u64 = 0; // remainder
    let mut e: u64 = 0; // trial bit
    let mut x = x;
    // 32 iterations for 64-bit input.
    for _ in 0..32 {
        r = (r << 2) + (x >> 62);
        x <<= 2;
        a <<= 1;
        e = (a << 1) + 1;
        if r >= e {
            r -= e;
            a += 1;
        }
    }
    let _ = e;
    a
}

/// Degrees to radians (MiBench `deg2rad`).
#[must_use]
pub(crate) fn deg_to_rad(deg: f64) -> f64 {
    deg * std::f64::consts::PI / 180.0
}

/// Radians to degrees (MiBench `rad2deg`).
#[must_use]
pub(crate) fn rad_to_deg(rad: f64) -> f64 {
    rad * 180.0 / std::f64::consts::PI
}

/// Runs one `basicmath_large`-style iteration: a sweep of cubic solves, a
/// block of integer square roots and an angle-conversion loop, mirroring
/// the structure of the MiBench `basicmath_large` main loop. Returns a
/// checksum so the optimizer cannot delete the work.
#[must_use]
pub fn basicmath_iteration(seed: u64) -> f64 {
    let mut acc = 0.0_f64;
    let base = (seed % 16) as f64;
    // Cubic sweep (a1 varies, as in the benchmark's outer loops).
    let mut a1 = 1.0 + base * 0.1;
    while a1 < 4.0 + base * 0.1 {
        for r in solve_cubic(a1, -10.5, 32.0, -30.0).as_slice() {
            acc += r;
        }
        a1 += 0.25;
    }
    // Integer square roots.
    for i in 0..1000_u64 {
        acc += usqrt(i * i + seed) as f64 * 1e-6;
    }
    // Angle conversions.
    let mut deg = 0.0;
    while deg < 360.0 {
        acc += rad_to_deg(deg_to_rad(deg)) * 1e-9;
        deg += 1.0;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cubic_with_known_roots() {
        // (x+4)(x-2)(x-7) = x³ -5x² -22x +56
        match solve_cubic(1.0, -5.0, -22.0, 56.0) {
            CubicRoots::Three(mut r) => {
                r.sort_by(|a, b| a.partial_cmp(b).unwrap());
                assert!((r[0] + 4.0).abs() < 1e-9);
                assert!((r[1] - 2.0).abs() < 1e-9);
                assert!((r[2] - 7.0).abs() < 1e-9);
            }
            CubicRoots::One(_) => panic!("expected three roots"),
        }
    }

    #[test]
    fn cubic_with_single_real_root() {
        // x³ + x + 1 has exactly one real root near -0.6823.
        match solve_cubic(1.0, 0.0, 1.0, 1.0) {
            CubicRoots::One(r) => assert!((r + 0.682_327_8).abs() < 1e-6),
            CubicRoots::Three(_) => panic!("expected one real root"),
        }
    }

    #[test]
    #[should_panic(expected = "leading coefficient")]
    fn cubic_requires_nonzero_leading_coefficient() {
        let _ = solve_cubic(0.0, 1.0, 1.0, 1.0);
    }

    #[test]
    fn usqrt_matches_float_sqrt_on_squares() {
        for v in [0u64, 1, 2, 3, 100, 65_535, 1 << 31] {
            assert_eq!(usqrt(v * v), v, "sqrt({})", v * v);
        }
    }

    #[test]
    fn angle_conversion_round_trip() {
        for deg in [0.0, 45.0, 90.0, 123.456, 359.0] {
            assert!((rad_to_deg(deg_to_rad(deg)) - deg).abs() < 1e-9);
        }
    }

    #[test]
    fn iteration_is_deterministic() {
        assert_eq!(basicmath_iteration(7), basicmath_iteration(7));
        // Different seeds do different work.
        assert_ne!(basicmath_iteration(1), basicmath_iteration(2));
    }

    proptest! {
        #[test]
        fn prop_usqrt_is_floor_sqrt(x in 0u64..(1 << 52)) {
            let s = usqrt(x);
            prop_assert!(s * s <= x);
            prop_assert!((s + 1) * (s + 1) > x);
        }

        #[test]
        fn prop_cubic_roots_satisfy_equation(
            b in -5.0_f64..5.0,
            c in -5.0_f64..5.0,
            d in -5.0_f64..5.0,
        ) {
            let roots = solve_cubic(1.0, b, c, d);
            for &x in roots.as_slice() {
                let y = x * x * x + b * x * x + c * x + d;
                // Scale tolerance with the magnitude of the terms.
                let scale = 1.0 + x.abs().powi(3) + b.abs() * x * x + c.abs() * x.abs() + d.abs();
                prop_assert!(y.abs() < 1e-7 * scale, "root {x} gives {y}");
            }
        }
    }
}
