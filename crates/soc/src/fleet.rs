//! Fleet population specs: device counts and seeded parameter jitter.
//!
//! A [`FleetSpec`] turns one platform model into a simulated install
//! base: N devices sharing the exact same thermal network and
//! discretized dynamics, spread apart only by *input-side* parameters —
//! leakage scale, ambient offset, workload phase and mix. Nothing here
//! clones or perturbs the platform model itself: the `(Ad, Bd)`
//! transition matrices stay shared across the whole fleet (their cache
//! fingerprint deliberately excludes ambient), and every per-device
//! number is a pure function of `(fleet seed, device index)`, so fleet
//! results are bit-identical at any worker count.

use serde::{Deserialize, Serialize};

/// The SplitMix64 finalizer: one well-mixed `u64` from another. It
/// derives every per-device fleet draw here and the campaign layer's
/// per-cell seeds.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform double in `[0, 1)` from the top 53 bits of a SplitMix64
/// output.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded scalar distribution for one per-device parameter.
///
/// Sampling is a pure function of the seed — no RNG state, no iteration
/// order — so a fleet's device `d` draws the same value whether the
/// campaign runs on one worker or eight.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "dist", rename_all = "snake_case")]
pub enum ParamJitter {
    /// Every device gets exactly `value`.
    Fixed {
        /// The constant value.
        value: f64,
    },
    /// Uniform on `[min, max)`.
    Uniform {
        /// Inclusive lower bound.
        min: f64,
        /// Exclusive upper bound (must be > `min`).
        max: f64,
    },
    /// Normal with the given mean and standard deviation (Box–Muller
    /// from two seeded uniforms; `std` must be > 0).
    Normal {
        /// Distribution mean.
        mean: f64,
        /// Standard deviation.
        std: f64,
    },
}

/// The hard bound on a Box–Muller normal draw in sigmas.
///
/// [`ParamJitter::sample`] clamps the first uniform to
/// `u1 ≥ f64::MIN_POSITIVE`, so the radius `r = √(−2·ln u1)` can never
/// exceed `√(−2·ln(f64::MIN_POSITIVE)) ≈ 37.64`. Any value this far out
/// is unreachable, which makes `mean ± 37.65·std` a *sound* interval for
/// the MPT6xx verifier: no seed can realize a draw outside it.
pub(crate) const NORMAL_HARD_SIGMAS: f64 = 37.65;

impl ParamJitter {
    /// A degenerate jitter pinning every device to `value`.
    #[must_use]
    pub fn fixed(value: f64) -> Self {
        ParamJitter::Fixed { value }
    }

    /// The guaranteed `[lo, hi]` range of every possible draw — the
    /// jitter→interval lowering the MPT6xx verifier abstracts a whole
    /// fleet population with.
    ///
    /// Fixed and uniform jitters have exact ranges; a normal jitter is
    /// bounded by the Box–Muller hard radius (`NORMAL_HARD_SIGMAS`),
    /// which no seed can exceed.
    #[must_use]
    pub fn bounds(&self) -> (f64, f64) {
        match *self {
            ParamJitter::Fixed { value } => (value, value),
            ParamJitter::Uniform { min, max } => (min, max),
            ParamJitter::Normal { mean, std } => (
                mean - NORMAL_HARD_SIGMAS * std,
                mean + NORMAL_HARD_SIGMAS * std,
            ),
        }
    }

    /// Samples the distribution for the given seed.
    #[must_use]
    pub(crate) fn sample(&self, seed: u64) -> f64 {
        match *self {
            ParamJitter::Fixed { value } => value,
            ParamJitter::Uniform { min, max } => min + unit_f64(splitmix64(seed)) * (max - min),
            ParamJitter::Normal { mean, std } => {
                // Box–Muller; nudge u1 away from 0 so ln stays finite.
                let u1 = unit_f64(splitmix64(seed)).max(f64::MIN_POSITIVE);
                let u2 = unit_f64(splitmix64(seed ^ 0xA5A5_A5A5_A5A5_A5A5));
                let r = (-2.0 * u1.ln()).sqrt();
                mean + std * r * (2.0 * std::f64::consts::PI * u2).cos()
            }
        }
    }

    /// Checks distribution parameters; returns a human-readable problem
    /// description (the `MPT501` lint surfaces these).
    ///
    /// # Errors
    ///
    /// A message naming the degenerate or non-finite parameter.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ParamJitter::Fixed { value } => {
                if !value.is_finite() {
                    return Err(format!("fixed jitter value {value} is not finite"));
                }
            }
            ParamJitter::Uniform { min, max } => {
                if !min.is_finite() || !max.is_finite() {
                    return Err(format!(
                        "uniform jitter bounds [{min}, {max}) are not finite"
                    ));
                }
                if max <= min {
                    return Err(format!(
                        "uniform jitter range [{min}, {max}) is empty or inverted"
                    ));
                }
            }
            ParamJitter::Normal { mean, std } => {
                if !mean.is_finite() || !std.is_finite() {
                    return Err(format!("normal jitter ({mean}, {std}) is not finite"));
                }
                if std <= 0.0 {
                    return Err(format!("normal jitter std {std} must be positive"));
                }
            }
        }
        Ok(())
    }
}

fn default_leakage_scale() -> ParamJitter {
    ParamJitter::fixed(1.0)
}

fn default_ambient_c() -> ParamJitter {
    ParamJitter::fixed(0.0)
}

fn default_phase_offset_s() -> ParamJitter {
    ParamJitter::fixed(0.0)
}

fn default_workload_mix() -> ParamJitter {
    ParamJitter::fixed(1.0)
}

/// A simulated install base: how many devices share this platform and
/// how their input-side parameters spread.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Number of devices in the fleet (must be ≥ 1).
    pub devices: usize,
    /// Multiplier on each device's injected power — the first-order
    /// process-corner leakage spread (1.0 = nominal part).
    #[serde(default = "default_leakage_scale")]
    pub leakage_scale: ParamJitter,
    /// Additive ambient offset in °C around the platform ambient.
    #[serde(default = "default_ambient_c")]
    pub ambient_c: ParamJitter,
    /// Workload start offset in seconds (devices launch the viral app at
    /// different moments; the input trace is shifted circularly).
    #[serde(default = "default_phase_offset_s")]
    pub phase_offset_s: ParamJitter,
    /// Multiplier on workload intensity (heavier or lighter usage mix).
    #[serde(default = "default_workload_mix")]
    pub workload_mix: ParamJitter,
    /// Trip threshold in °C for population throttle statistics; falls
    /// back to the scenario's first trip point when absent.
    #[serde(default)]
    pub trip_c: Option<f64>,
}

/// The resolved input-side parameters of one fleet device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceParams {
    /// Power multiplier from leakage spread.
    pub leakage_scale: f64,
    /// Ambient offset in °C.
    pub ambient_offset_c: f64,
    /// Workload start offset in seconds.
    pub phase_offset_s: f64,
    /// Workload intensity multiplier.
    pub workload_mix: f64,
}

impl FleetSpec {
    /// Derives device `device`'s seed from the owning cell's seed: the
    /// same SplitMix64 scheme the campaign layer uses for cell seeds,
    /// one more level down. Pure, so any worker computes the same seed.
    #[must_use]
    pub(crate) fn device_seed(cell_seed: u64, device: usize) -> u64 {
        splitmix64(cell_seed ^ (device as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Samples all four jitter distributions for one device. Each
    /// parameter draws from a distinct lane of the device seed so
    /// distributions never alias.
    #[must_use]
    pub fn device_params(&self, cell_seed: u64, device: usize) -> DeviceParams {
        let seed = Self::device_seed(cell_seed, device);
        DeviceParams {
            leakage_scale: self.leakage_scale.sample(splitmix64(seed ^ 1)),
            ambient_offset_c: self.ambient_c.sample(splitmix64(seed ^ 2)),
            phase_offset_s: self.phase_offset_s.sample(splitmix64(seed ^ 3)),
            workload_mix: self.workload_mix.sample(splitmix64(seed ^ 4)),
        }
    }

    /// Validates the spec; returns every problem found (the `MPT501`
    /// lint surfaces these).
    #[must_use]
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.devices == 0 {
            out.push("fleet device count must be at least 1".to_string());
        }
        for (name, jitter) in [
            ("leakage_scale", &self.leakage_scale),
            ("ambient_c", &self.ambient_c),
            ("phase_offset_s", &self.phase_offset_s),
            ("workload_mix", &self.workload_mix),
        ] {
            if let Err(e) = jitter.validate() {
                out.push(format!("{name}: {e}"));
            }
        }
        if let ParamJitter::Uniform { min, .. } | ParamJitter::Fixed { value: min } =
            self.leakage_scale
        {
            if min < 0.0 {
                out.push(format!(
                    "leakage_scale can reach {min}: negative power multipliers are unphysical"
                ));
            }
        }
        if let ParamJitter::Uniform { min, .. } | ParamJitter::Fixed { value: min } =
            self.workload_mix
        {
            if min < 0.0 {
                out.push(format!(
                    "workload_mix can reach {min}: negative intensity multipliers are unphysical"
                ));
            }
        }
        if let Some(trip) = self.trip_c {
            if !trip.is_finite() || !(20.0..=150.0).contains(&trip) {
                out.push(format!(
                    "fleet trip_c {trip} outside the sane 20–150 °C range"
                ));
            }
        }
        out
    }

    /// Jitter ranges that can realize *non-physical* device parameters —
    /// the `MPT502` lint surfaces these before a fleet replay launders
    /// them into nonsense population statistics.
    ///
    /// Fixed and uniform jitters use their exact range; normal jitters
    /// use a `±6σ` plausibility window (a 10k-device fleet draws well
    /// inside it, and the nominal `±7%` process spread the shipped
    /// campaigns model stays clean). The MPT6xx *envelope* verifier
    /// instead uses the sound hard bound (`NORMAL_HARD_SIGMAS`).
    #[must_use]
    pub fn nonphysical_ranges(&self) -> Vec<String> {
        const PLAUSIBLE_SIGMAS: f64 = 6.0;
        let plausible_lo = |j: &ParamJitter| match *j {
            ParamJitter::Normal { mean, std } => mean - PLAUSIBLE_SIGMAS * std,
            _ => j.bounds().0,
        };
        let mut out = Vec::new();
        let leak_lo = plausible_lo(&self.leakage_scale);
        if leak_lo <= 0.0 {
            out.push(format!(
                "leakage_scale can realize {leak_lo:.3}: a non-positive power multiplier is \
                 unphysical (process corners scale power, they cannot negate it)"
            ));
        }
        let mix_lo = plausible_lo(&self.workload_mix);
        if mix_lo < 0.0 {
            out.push(format!(
                "workload_mix can realize {mix_lo:.3}: a negative intensity multiplier would \
                 inject negative power"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FleetSpec {
        FleetSpec {
            devices: 100,
            leakage_scale: ParamJitter::Normal {
                mean: 1.0,
                std: 0.05,
            },
            ambient_c: ParamJitter::Uniform {
                min: -5.0,
                max: 10.0,
            },
            phase_offset_s: ParamJitter::Uniform {
                min: 0.0,
                max: 30.0,
            },
            workload_mix: ParamJitter::fixed(1.0),
            trip_c: None,
        }
    }

    #[test]
    fn sampling_is_a_pure_function_of_seed_and_index() {
        let s = spec();
        for d in [0, 1, 57, 99] {
            assert_eq!(s.device_params(42, d), s.device_params(42, d));
        }
        // Different devices and seeds actually spread.
        assert_ne!(s.device_params(42, 0), s.device_params(42, 1));
        assert_ne!(s.device_params(42, 0), s.device_params(43, 0));
    }

    #[test]
    fn uniform_stays_in_range_and_normal_centers() {
        let s = spec();
        let mut mean = 0.0;
        for d in 0..1000 {
            let p = s.device_params(7, d);
            assert!((-5.0..10.0).contains(&p.ambient_offset_c), "{p:?}");
            assert!((0.0..30.0).contains(&p.phase_offset_s), "{p:?}");
            assert_eq!(p.workload_mix, 1.0);
            mean += p.leakage_scale;
        }
        mean /= 1000.0;
        assert!((mean - 1.0).abs() < 0.01, "leakage mean {mean}");
    }

    #[test]
    fn problems_flags_degenerate_specs() {
        let mut s = spec();
        assert!(s.problems().is_empty());
        s.devices = 0;
        s.leakage_scale = ParamJitter::Uniform { min: 2.0, max: 1.0 };
        s.workload_mix = ParamJitter::fixed(-0.5);
        s.trip_c = Some(500.0);
        let problems = s.problems();
        assert_eq!(problems.len(), 4, "{problems:?}");
    }

    #[test]
    fn bounds_bracket_every_sample() {
        let jitters = [
            ParamJitter::fixed(2.5),
            ParamJitter::Uniform {
                min: -1.0,
                max: 4.0,
            },
            ParamJitter::Normal {
                mean: 1.0,
                std: 0.25,
            },
        ];
        for j in jitters {
            let (lo, hi) = j.bounds();
            assert!(lo <= hi);
            for seed in 0..10_000u64 {
                let v = j.sample(splitmix64(seed));
                assert!(lo <= v && v <= hi, "{j:?} drew {v} outside [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn normal_bounds_cover_the_box_muller_hard_radius() {
        // The clamped Box–Muller radius is √(−2·ln(MIN_POSITIVE)) ≈ 37.64,
        // so the advertised hard-sigma constant must sit above it.
        let max_r = (-2.0 * f64::MIN_POSITIVE.ln()).sqrt();
        assert!(
            NORMAL_HARD_SIGMAS > max_r,
            "{NORMAL_HARD_SIGMAS} vs {max_r}"
        );
        // And the worst-case seed (u1 clamped to MIN_POSITIVE) stays inside.
        let j = ParamJitter::Normal {
            mean: 0.0,
            std: 1.0,
        };
        let (lo, hi) = j.bounds();
        assert!(-max_r >= lo && max_r <= hi);
    }

    #[test]
    fn nonphysical_ranges_catch_normal_tails_and_negative_mix() {
        let mut s = spec();
        assert!(s.nonphysical_ranges().is_empty(), "nominal spread is clean");
        // A ±0.5 normal reaches non-positive power multipliers within 6σ —
        // exactly the case MPT501's uniform/fixed checks miss.
        s.leakage_scale = ParamJitter::Normal {
            mean: 1.0,
            std: 0.5,
        };
        s.workload_mix = ParamJitter::Uniform {
            min: -0.2,
            max: 1.0,
        };
        let found = s.nonphysical_ranges();
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].contains("leakage_scale"));
        assert!(found[1].contains("workload_mix"));
    }

    #[test]
    fn fleet_spec_round_trips_through_json() {
        let s = spec();
        let json = serde_json::to_string(&s).unwrap();
        let back: FleetSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn defaults_apply_for_minimal_spec() {
        let s: FleetSpec = serde_json::from_str(r#"{"devices": 3}"#).unwrap();
        assert_eq!(s.devices, 3);
        assert_eq!(s.leakage_scale, ParamJitter::fixed(1.0));
        assert_eq!(s.ambient_c, ParamJitter::fixed(0.0));
        assert_eq!(s.workload_mix, ParamJitter::fixed(1.0));
        assert!(s.trip_c.is_none());
    }
}
