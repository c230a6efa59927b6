//! Seeded input generation: each workload's op kinds as scenario or
//! campaign JSON text, a pure function of `(workload, seed)`.
//!
//! The JSON is written by hand rather than serialized from the
//! program's spec structs, so the benchmark depends only on the
//! documented JSON surface that `run_scenario` reads.

use std::fmt::Write as _;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Nexus 6P and Odroid-XU3 sessions from the paper on fixed-dt ticks.
    PaperFixed,
    /// Phased compute on the event-driven engine, both platforms.
    PhasedEvent,
    /// One Nexus fleet cell per op through the campaign runner.
    FleetReplay,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperFixed,
        Workload::PhasedEvent,
        Workload::FleetReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFixed => "paper_fixed",
            Workload::PhasedEvent => "phased_event",
            Workload::FleetReplay => "fleet_replay",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One op kind: a generated input the round-robin loop runs repeatedly.
#[derive(Debug, Clone, PartialEq)]
pub struct OpKind {
    /// Short human-readable summary of the drawn parameters.
    pub label: String,
    /// The scenario (or, when `campaign`, the campaign) JSON text.
    pub json: String,
    /// Whether `json` is a fleet campaign rather than a scenario.
    pub campaign: bool,
    /// Simulated seconds one op covers; device-seconds for fleet cells.
    pub sim_s: f64,
}

/// SplitMix64: a tiny deterministic generator, so inputs depend on the
/// seed alone and never on the program's own RNG stubs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`, rounded to one decimal so the JSON text is
    /// short and exact.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + u * (hi - lo)) * 10.0).round() / 10.0
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// The five Nexus 6P study apps of Table I.
pub const NEXUS_APPS: [&str; 5] = [
    "paper_io",
    "stickman_hook",
    "amazon",
    "google_hangouts",
    "facebook",
];

/// Generates the op kinds of `workload` for `seed`.
pub fn kinds(workload: Workload, seed: u64) -> Vec<OpKind> {
    let mut rng = Rng::new(seed);
    match workload {
        Workload::PaperFixed => paper_fixed(&mut rng),
        Workload::PhasedEvent => phased_event(&mut rng),
        Workload::FleetReplay => fleet_replay(&mut rng),
    }
}

/// Every generated number is rounded to one decimal, so `{}` prints its
/// shortest round-trip form with no trailing noise.
fn num(v: f64) -> String {
    format!("{v}")
}

fn step_wise(trips: &[f64], period_s: f64) -> String {
    let trips: Vec<String> = trips.iter().map(|&t| num(t)).collect();
    format!(
        r#"{{"policy":"step_wise","trips_c":[{}],"period_s":{}}}"#,
        trips.join(","),
        num(period_s)
    )
}

/// Ten Nexus 6P Table I sessions (each app with thermal management
/// disabled and under a step-wise policy) and four Odroid-XU3 Table II
/// sessions (each benchmark under each governor), 20–30 s each at the
/// 10 ms base tick. The seed draws every parameter but not the mix of
/// kinds, so host cost per simulated second barely moves with the seed.
fn paper_fixed(rng: &mut Rng) -> Vec<OpKind> {
    let mut kinds = Vec::new();
    for (app, stepwise) in NEXUS_APPS
        .iter()
        .flat_map(|&app| [(app, false), (app, true)])
    {
        let duration = rng.uniform(20.0, 30.0);
        let t0 = rng.uniform(30.0, 40.0);
        let app_seed = rng.below(1000);
        // The apps heat a 30–40 °C phone by 3–6 °C within 10 s, so a
        // first trip 2–3 °C above the start is always crossed.
        let (thermal, policy) = if !stepwise {
            (String::new(), "disabled".to_owned())
        } else {
            let trip = ((t0 + rng.uniform(2.0, 3.0)) * 10.0).round() / 10.0;
            let trips = [trip, ((trip + 3.0) * 10.0).round() / 10.0];
            (
                format!(r#","thermal":{}"#, step_wise(&trips, 1.0)),
                format!("step_wise({trip})"),
            )
        };
        kinds.push(OpKind {
            label: format!("nexus {app} {policy} t0={t0} {duration}s"),
            json: format!(
                r#"{{"platform":"snapdragon810","duration_s":{},"initial_temperature_c":{}{thermal},"workloads":[{{"kind":"app","name":"{app}","foreground":true,"seed":{app_seed}}}]}}"#,
                num(duration),
                num(t0)
            ),
            campaign: false,
            sim_s: duration,
        });
    }
    for (three_d_mark, ipa) in [(true, true), (true, false), (false, true), (false, false)] {
        let duration = rng.uniform(20.0, 30.0);
        let t0 = rng.uniform(45.0, 55.0);
        let bench = if three_d_mark {
            format!(
                r#"{{"kind":"three_d_mark","test_duration_s":{},"foreground":true,"realtime":true}}"#,
                num((duration * 5.0).round() / 10.0)
            )
        } else {
            r#"{"kind":"nenamark","foreground":true,"realtime":true}"#.to_owned()
        };
        let (policy_json, policy) = if ipa {
            let budget = rng.uniform(2.2, 3.0);
            (
                format!(
                    r#""thermal":{{"policy":"ipa","control_c":95.0,"sustainable_w":{},"gpu_weight":1.2}}"#,
                    num(budget)
                ),
                format!("ipa({budget}W)"),
            )
        } else {
            (
                r#""app_aware":{"limit_c":95.0,"horizon_s":60.0}"#.to_owned(),
                "app_aware".to_owned(),
            )
        };
        kinds.push(OpKind {
            label: format!(
                "odroid {} {policy} t0={t0} {duration}s",
                if three_d_mark { "3dmark" } else { "nenamark" }
            ),
            json: format!(
                r#"{{"platform":"exynos5422","duration_s":{},"initial_temperature_c":{},{policy_json},"workloads":[{bench},{{"kind":"basic_math"}},{{"kind":"steady","name":"system_server","rate":5e8,"threads":2.0,"cluster":"little"}}]}}"#,
                num(duration),
                num(t0)
            ),
            campaign: false,
            sim_s: duration,
        });
    }
    kinds
}

/// Four event-engine sessions spanning 2–10 simulated minutes:
/// alternating busy and idle phases on each platform, once under a
/// step-wise policy whose first trip the busy phases cross and once with
/// no policy. Each kind keeps its duration whatever the seed: a drawn
/// duration would move `sim_speed` (through each kind's weight) and the
/// peak RSS (through the longest telemetry) from seed to seed.
fn phased_event(rng: &mut Rng) -> Vec<OpKind> {
    let mut kinds = Vec::new();
    for (platform, stepwise, duration) in [
        ("snapdragon810", true, 120.0),
        ("snapdragon810", false, 280.0),
        ("exynos5422", true, 440.0),
        ("exynos5422", false, 600.0),
    ] {
        let t0 = rng.uniform(30.0, 36.0);
        let mut phases = String::new();
        let mut t = 0.0;
        let mut busy = true;
        while t < duration {
            t += rng.uniform(10.0, 40.0).round();
            if busy {
                let rate = rng.uniform(2.2, 3.2);
                let threads = 2 + rng.below(3);
                write!(
                    phases,
                    r#"{{"until_s":{},"rate":{rate}e9,"threads":{threads}}},"#,
                    num(t)
                )
                .expect("writing to a String cannot fail");
            } else {
                write!(phases, r#"{{"until_s":{},"rate":0}},"#, num(t))
                    .expect("writing to a String cannot fail");
            }
            busy = !busy;
        }
        phases.pop();
        // A 2.2+ GHz-equivalent burst lifts the Nexus 4–6 °C and the
        // Odroid 10–20 °C above the start within a busy phase.
        let (thermal, policy) = if stepwise {
            let rise = if platform == "snapdragon810" {
                rng.uniform(2.0, 3.0)
            } else {
                rng.uniform(4.0, 6.0)
            };
            let trip = ((t0 + rise) * 10.0).round() / 10.0;
            (
                format!(r#","thermal":{}"#, step_wise(&[trip], 1.0)),
                format!("step_wise({trip})"),
            )
        } else {
            (String::new(), "none".to_owned())
        };
        kinds.push(OpKind {
            label: format!("{platform} phased {policy} t0={t0} {duration}s"),
            json: format!(
                r#"{{"platform":"{platform}","duration_s":{},"initial_temperature_c":{},"engine":"event"{thermal},"workloads":[{{"kind":"phased","name":"phased_compute","phases":[{phases}]}}]}}"#,
                num(duration),
                num(t0)
            ),
            campaign: false,
            sim_s: duration,
        });
    }
    kinds
}

/// Device counts and horizons of the fleet kinds: about 2M device-ticks
/// each, from per-device planes that fit in L2 to planes that do not.
pub const FLEET_SIZES: [(usize, f64); 3] = [(2000, 10.0), (5000, 4.0), (10000, 2.0)];

/// Three single-cell Nexus fleet campaigns (2k×10 s, 5k×4 s, 10k×2 s)
/// with `nexus_fleet_launch`'s jitter and embedded population queries.
fn fleet_replay(rng: &mut Rng) -> Vec<OpKind> {
    let mut kinds = Vec::new();
    for (devices, horizon) in FLEET_SIZES {
        let app = *rng.pick(&NEXUS_APPS);
        let app_seed = rng.below(1000);
        let t0 = rng.uniform(28.0, 38.0);
        let trip = ((t0 + rng.uniform(3.0, 6.0)) * 10.0).round() / 10.0;
        let trips = [trip, ((trip + 3.0) * 10.0).round() / 10.0];
        let campaign_seed = 1 + rng.below(1_000_000);
        kinds.push(OpKind {
            label: format!("fleet {devices}x{horizon}s {app} t0={t0} trip={trip}"),
            json: format!(
                r#"{{"base":{{"platform":"snapdragon810","duration_s":{},"initial_temperature_c":{},"thermal":{},"workloads":[{{"kind":"app","name":"{app}","foreground":true,"seed":{app_seed}}}]}},"seed":{campaign_seed},"fleet":{{"devices":{devices},"leakage_scale":{{"dist":"normal","mean":1.0,"std":0.07}},"ambient_c":{{"dist":"uniform","min":-3.0,"max":8.0}},"phase_offset_s":{{"dist":"uniform","min":0.0,"max":2.0}},"workload_mix":{{"dist":"uniform","min":0.9,"max":1.1}},"trip_c":{}}},"queries":["p99(peak_temp_c)","median(time_above_trip_s)","max(peak_temp_c)"]}}"#,
                num(horizon),
                num(t0),
                step_wise(&trips, 1.0),
                num(trip)
            ),
            campaign: true,
            sim_s: devices as f64 * horizon,
        });
    }
    kinds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_json() {
        for w in Workload::ALL {
            for seed in [0, 1, 42, u64::MAX] {
                assert_eq!(kinds(w, seed), kinds(w, seed), "{} seed {seed}", w.name());
            }
        }
    }

    #[test]
    fn different_seeds_give_different_kinds() {
        for w in Workload::ALL {
            let a = kinds(w, 1);
            let b = kinds(w, 2);
            assert_eq!(a.len(), b.len());
            let differing = a.iter().zip(&b).filter(|(x, y)| x.json != y.json).count();
            assert_eq!(differing, a.len(), "{}: every kind should differ", w.name());
        }
    }

    #[test]
    fn shapes_follow_the_workload_definitions() {
        for seed in 0..20 {
            let fixed = kinds(Workload::PaperFixed, seed);
            assert_eq!(
                fixed
                    .iter()
                    .filter(|k| k.label.starts_with("nexus"))
                    .count(),
                10
            );
            assert_eq!(
                fixed
                    .iter()
                    .filter(|k| k.label.starts_with("odroid"))
                    .count(),
                4
            );
            assert_eq!(
                fixed
                    .iter()
                    .filter(|k| k.label.contains("step_wise"))
                    .count(),
                5
            );
            assert!(fixed.iter().all(|k| (20.0..=30.0).contains(&k.sim_s)));
            let phased = kinds(Workload::PhasedEvent, seed);
            assert!(phased.iter().all(|k| (120.0..=600.0).contains(&k.sim_s)));
            assert!(phased
                .iter()
                .all(|k| k.json.contains(r#""engine":"event""#)));
            let fleet = kinds(Workload::FleetReplay, seed);
            let sizes: Vec<f64> = fleet.iter().map(|k| k.sim_s).collect();
            assert_eq!(sizes, vec![20000.0, 20000.0, 20000.0]);
        }
    }
}
