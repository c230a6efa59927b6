//! `replay_fleet` against its definition, and its progress cadence.
//!
//! The replay's contract: device `d` behaves exactly as one scalar
//! `ExactLti::step` run on its own ambient-shifted network, fed trace
//! tick `(tick + offset_d) mod ticks` scaled by `leakage_scale ·
//! workload_mix`, and observed on its hottest node after every tick. The
//! property test checks peak, onset and time above trip in `to_bits`
//! against that reference. The cadence test pins the `fleet_progress`
//! events and the device-tick counter a replay leaves behind.

use std::sync::Arc;

use mpt_core::fleet::replay_fleet;
use mpt_obs::{Counter, JournalKind, Recorder};
use mpt_soc::{platforms, DeviceParams, ThermalLti};
use mpt_thermal::{ExactLti, ThermalSolver};
use mpt_units::{Celsius, Kelvin, Seconds, Watts};
use mpt_workloads::PowerTrace;
use proptest::prelude::*;

fn lti_for(platform: usize) -> ThermalLti {
    let p = if platform == 0 {
        platforms::exynos_5422()
    } else {
        platforms::snapdragon_810()
    };
    p.thermal_spec()
        .lti()
        .expect("builtin platform is LTI-form")
}

/// splitmix64: a seeded stream of draws, so one `u64` fixes a whole
/// fleet and trace.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1_u64 << 53) as f64
    }

    /// True one time in `n`.
    fn one_in(&mut self, n: u64) -> bool {
        self.next().is_multiple_of(n)
    }
}

/// A trace over `nodes` nodes where node 0 is never powered, a third of
/// the other samples are exact zeros, and the rest draw up to 4 W.
fn trace(draws: &mut Draws, nodes: usize, ticks: usize, dt: f64) -> PowerTrace {
    let mut trace = PowerTrace::new(dt, nodes);
    for _ in 0..ticks {
        let row: Vec<Watts> = (0..nodes)
            .map(|node| {
                if node == 0 || draws.one_in(3) {
                    Watts::ZERO
                } else {
                    Watts::new(draws.uniform(0.0, 4.0))
                }
            })
            .collect();
        trace.push_tick(&row);
    }
    trace
}

/// Jittered devices; one in four runs with `workload_mix` 0, and phase
/// offsets reach past the trace end so reads wrap.
fn devices(draws: &mut Draws, count: usize, ticks: usize, dt: f64) -> Vec<DeviceParams> {
    (0..count)
        .map(|_| DeviceParams {
            leakage_scale: draws.uniform(0.8, 1.25),
            ambient_offset_c: draws.uniform(-5.0, 8.0),
            phase_offset_s: draws.uniform(0.0, 1.5 * ticks as f64 * dt),
            workload_mix: if draws.one_in(4) {
                0.0
            } else {
                draws.uniform(0.5, 1.5)
            },
        })
        .collect()
}

/// What one device's replay observed, as bit patterns.
#[derive(Debug, PartialEq)]
struct Observed {
    peak_temp_c: u64,
    throttle_onset_s: Option<u64>,
    time_above_trip_s: u64,
}

/// The reference: one scalar solver per device, observed by the rules
/// the replay documents.
fn scalar_replay(
    lti: &ThermalLti,
    trace: &PowerTrace,
    p: &DeviceParams,
    initial_c: Option<f64>,
    trip_c: Option<f64>,
) -> Observed {
    let n = lti.len();
    let ticks = trace.ticks();
    let dt = trace.dt_s();
    let offset = ((p.phase_offset_s / dt).round().max(0.0) as usize) % ticks;
    let scale = p.leakage_scale * p.workload_mix;
    let mut own = lti.clone();
    own.ambient = Kelvin::new(lti.ambient.value() + p.ambient_offset_c);
    let initial = initial_c.map_or(own.ambient, |c| Celsius::new(c).to_kelvin());
    let trip_k = trip_c.map(|c| Celsius::new(c).to_kelvin().value());
    let mut solver = ExactLti::new();
    let mut temps = vec![initial; n];
    let mut powers = vec![Watts::ZERO; n];
    let mut peak = f64::NEG_INFINITY;
    let mut onset = None;
    let mut above = 0.0_f64;
    for tick in 0..ticks {
        let src = (tick + offset) % ticks;
        for (node, power) in powers.iter_mut().enumerate() {
            *power = Watts::new(trace.sample(src, node) * scale);
        }
        solver
            .step(&own, &mut temps, Seconds::new(dt), &powers)
            .expect("builtin network steps");
        let mut hottest = f64::NEG_INFINITY;
        for t in &temps {
            if t.value() > hottest {
                hottest = t.value();
            }
        }
        if hottest > peak {
            peak = hottest;
        }
        if let Some(trip) = trip_k {
            if hottest > trip {
                above += dt;
                if onset.is_none() {
                    onset = Some((tick + 1) as f64 * dt);
                }
            }
        }
    }
    Observed {
        peak_temp_c: Kelvin::new(peak).to_celsius().value().to_bits(),
        throttle_onset_s: onset.map(f64::to_bits),
        time_above_trip_s: above.to_bits(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn replay_matches_the_scalar_solver_bit_for_bit(
        platform in 0_usize..2,
        // A handful of devices, or a few hundred; odd counts leave one
        // device without a partner.
        count_pick in (0_usize..2, 1_usize..10, 200_usize..260),
        ticks in 1_usize..41,
        dt_idx in 0_usize..2,
        trip_pick in 0_u8..3,
        initial_pick in (0_u8..2, 28.0_f64..38.0),
        seed in 0_u64..u64::MAX,
    ) {
        let count = if count_pick.0 == 0 { count_pick.1 } else { count_pick.2 };
        let initial_c = (initial_pick.0 == 1).then_some(initial_pick.1);
        let lti = lti_for(platform);
        let dt = [0.1, 1.0][dt_idx];
        let mut draws = Draws(seed);
        let trace = trace(&mut draws, lti.len(), ticks, dt);
        let params = devices(&mut draws, count, ticks, dt);
        // Trip none, below every device's start, or a little above the
        // start so some devices cross it and some do not.
        let start_c = initial_c.unwrap_or(lti.ambient.to_celsius().value());
        let trip_c = match trip_pick {
            0 => None,
            1 => Some(start_c - 10.0),
            _ => Some(start_c + draws.uniform(0.05, 1.5)),
        };
        let replayed = replay_fleet(
            &lti,
            trace.clone(),
            &params,
            initial_c,
            trip_c,
            &Arc::new(Recorder::null()),
            None,
        )
        .expect("replay runs");
        prop_assert_eq!(replayed.len(), count);
        for (d, (out, p)) in replayed.iter().zip(&params).enumerate() {
            let got = Observed {
                peak_temp_c: out.peak_temp_c.to_bits(),
                throttle_onset_s: out.throttle_onset_s.map(f64::to_bits),
                time_above_trip_s: out.time_above_trip_s.to_bits(),
            };
            let want = scalar_replay(&lti, &trace, p, initial_c, trip_c);
            prop_assert!(got == want, "device {d} of {count}: {got:?} != {want:?}");
        }
    }
}

#[test]
fn progress_events_follow_the_tick_cadence() {
    let lti = lti_for(1);
    let dt = 0.1;
    let cases: [(usize, &[u64]); 6] = [
        (1, &[1]),
        (7, &[1, 2, 3, 4, 5, 6, 7]),
        (8, &[1, 2, 3, 4, 5, 6, 7, 8]),
        (9, &[1, 2, 3, 4, 5, 6, 7, 8, 9]),
        (1000, &[125, 250, 375, 500, 625, 750, 875, 1000]),
        (1001, &[125, 250, 375, 500, 625, 750, 875, 1000, 1001]),
    ];
    for (ticks, want) in cases {
        let mut draws = Draws(ticks as u64);
        let trace = trace(&mut draws, lti.len(), ticks, dt);
        let params = devices(&mut draws, 3, ticks, dt);
        let recorder = Arc::new(Recorder::new());
        replay_fleet(&lti, trace, &params, None, Some(30.0), &recorder, None).expect("replay runs");
        let events = recorder.journal().poll(0).events;
        let mut done = Vec::new();
        let mut last_ts = 0;
        for e in &events {
            let JournalKind::FleetProgress {
                devices,
                ticks_done,
                ticks_total,
            } = e.kind
            else {
                panic!("replay emitted a non-progress event: {e:?}");
            };
            assert_eq!((devices, ticks_total), (3, ticks as u64));
            // The simulated stamp is the end of the last tick done.
            assert_eq!(
                e.sim_us,
                Some((ticks_done as f64 * dt * 1e6).round() as u64),
                "{ticks} ticks: event at tick {ticks_done}"
            );
            assert!(e.ts_us >= last_ts, "wall-clock stamps run forward");
            last_ts = e.ts_us;
            done.push(ticks_done);
        }
        assert_eq!(done, want, "{ticks} ticks");
        assert_eq!(Counter::DeviceTicks.name(), "mpt_fleet_device_ticks_total");
        assert_eq!(
            recorder.counter(Counter::DeviceTicks),
            3 * ticks as u64,
            "{ticks} ticks"
        );
    }
}
