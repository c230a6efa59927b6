//! Figure 7: the fixed-point function at three power levels.

use mpt_thermal::{LumpedModel, Stability};
use mpt_units::Watts;

/// One curve of the paper's Figure 7: the fixed-point function `F(θ)`
/// sampled over the auxiliary-temperature axis at a given dynamic power,
/// together with its stability classification.
#[derive(Debug, Clone)]
pub struct Fig7Curve {
    /// The total (dynamic) power for this curve.
    pub power: Watts,
    /// Panel label matching the paper ("(a)", "(b)", "(c)").
    pub label: &'static str,
    /// `(θ, F(θ))` samples.
    pub points: Vec<(f64, f64)>,
    /// The classification: two fixed points / critically stable / none.
    pub stability: Stability,
}

/// Reproduces the paper's Figure 7 with the Odroid-XU3 lumped
/// calibration: the fixed-point function at **2 W** (two fixed points),
/// at the **critical power 5.5 W** (roots merged) and at **8 W** (no
/// fixed points → thermal runaway).
///
/// # Examples
///
/// ```
/// use mpt_core::experiments::fig7_curves;
/// use mpt_thermal::Stability;
///
/// let curves = fig7_curves();
/// assert_eq!(curves.len(), 3);
/// assert!(matches!(curves[0].stability, Stability::Stable(_))); // Fig. 7a: two roots
/// assert!(matches!(curves[2].stability, Stability::Runaway)); // Fig. 7c: no roots
/// ```
#[must_use]
pub fn fig7_curves() -> Vec<Fig7Curve> {
    let model = LumpedModel::odroid_xu3();
    let p_crit = model.critical_power();
    let powers = [
        (Watts::new(2.0), "(a)"),
        (p_crit, "(b)"),
        (Watts::new(8.0), "(c)"),
    ];
    // Sample an auxiliary-temperature span covering both roots at 2 W:
    // θ ∈ [β/520 K, β/295 K] (hot runaway region up to just under
    // ambient).
    let lo = model.beta() / 520.0;
    let hi = model.beta() / 295.0;
    powers
        .into_iter()
        .map(|(power, label)| {
            let points = (0..400)
                .map(|i| {
                    let theta = lo + (hi - lo) * i as f64 / 399.0;
                    (theta, model.fixed_point_function(theta, power))
                })
                .collect();
            Fig7Curve {
                power,
                label,
                points,
                stability: model.stability(power),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_panels_with_the_paper_classifications() {
        let curves = fig7_curves();
        assert!(matches!(curves[0].stability, Stability::Stable(_)));
        assert!(matches!(
            curves[1].stability,
            Stability::CriticallyStable { .. } | Stability::Stable(_)
        ));
        assert!(matches!(curves[2].stability, Stability::Runaway));
        assert!((curves[1].power.value() - 5.5).abs() < 0.01);
    }

    #[test]
    fn curve_a_has_two_roots_in_range() {
        let curves = fig7_curves();
        let sign_changes = curves[0]
            .points
            .windows(2)
            .filter(|w| (w[0].1 > 0.0) != (w[1].1 > 0.0))
            .count();
        assert_eq!(sign_changes, 2, "Fig. 7a shows two fixed points");
    }

    #[test]
    fn curve_c_is_entirely_negative() {
        let curves = fig7_curves();
        assert!(curves[2].points.iter().all(|&(_, f)| f < 0.0));
    }

    #[test]
    fn higher_power_curves_lie_below_lower_power_curves() {
        let curves = fig7_curves();
        for ((t1, f1), (_, f2)) in curves[0].points.iter().zip(&curves[2].points) {
            assert!(
                f2 < f1,
                "at θ={t1} the 8 W curve must be below the 2 W curve"
            );
        }
    }
}
