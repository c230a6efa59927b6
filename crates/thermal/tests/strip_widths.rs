//! The fleet strip kernel at every kind of width: networks of one to
//! eight nodes run at their exact width, wider ones padded to the next
//! power of two. Both `step_batch` and `replay` must give each device of
//! an odd-sized fleet the scalar solver's bits on every one of them.

use mpt_soc::{ThermalCoupling, ThermalLti, ThermalNodeSpec, ThermalSpec};
use mpt_thermal::{ExactLti, FleetState, ThermalSolver, TraceFeed, TripWatch};
use mpt_units::{Celsius, Kelvin, Seconds, Watts};

/// Node counts covering exact widths and padded ones (9 → 16, 12 → 16,
/// 17 → 32, 40 → 64, 100 → 128).
const NODE_COUNTS: [usize; 11] = [1, 2, 3, 5, 7, 8, 9, 12, 17, 40, 100];

/// An odd fleet, so the last strip pads its second lane.
const DEVICES: usize = 5;

/// A chain of `n` nodes of growing capacity, cooled at its last node
/// and weakly at every third.
fn chain(n: usize) -> ThermalLti {
    let nodes = (0..n)
        .map(|i| ThermalNodeSpec {
            name: format!("n{i}"),
            component: None,
            heat_capacity: 2.0 + 3.0 * i as f64,
            ambient_conductance: if i + 1 == n {
                0.2
            } else {
                0.01 * (i % 3) as f64
            },
        })
        .collect();
    let couplings = (1..n)
        .map(|i| ThermalCoupling {
            a: i - 1,
            b: i,
            conductance: 0.5 + 0.1 * i as f64,
        })
        .collect();
    ThermalSpec {
        nodes,
        couplings,
        ambient: Celsius::new(25.0),
    }
    .lti()
    .expect("a chain cooled at its end is valid")
}

/// Node `j`'s power on device `d` at trace tick `k`: node 1 is never
/// powered, and other exact zeros fall on a pattern of devices.
fn power(j: usize, d: usize, k: usize) -> f64 {
    if j == 1 || (j + d + k).is_multiple_of(3) {
        0.0
    } else {
        0.4 + 0.3 * ((j * 7 + d * 3 + k) % 5) as f64
    }
}

fn ambient_k(lti: &ThermalLti, d: usize) -> Kelvin {
    Kelvin::new(lti.ambient.value() + d as f64 - 2.0)
}

fn initial_k(lti: &ThermalLti, d: usize, node: usize) -> Kelvin {
    Kelvin::new(lti.ambient.value() + 4.0 + 0.5 * (d + node) as f64)
}

fn own_network(lti: &ThermalLti, d: usize) -> ThermalLti {
    let mut own = lti.clone();
    own.ambient = ambient_k(lti, d);
    own
}

fn fleet(lti: &ThermalLti) -> FleetState {
    let n = lti.len();
    let mut fleet = FleetState::new(n, DEVICES, lti.ambient, lti.ambient);
    for d in 0..DEVICES {
        fleet.set_ambient(d, ambient_k(lti, d));
        for node in 0..n {
            fleet.set_temp(node, d, initial_k(lti, d, node));
        }
    }
    fleet
}

#[test]
fn step_batch_matches_scalar_at_every_width() {
    let dt = Seconds::new(0.5);
    for n in NODE_COUNTS {
        let lti = chain(n);
        let mut batch = fleet(&lti);
        let mut solver = ExactLti::new();
        let mut scalars: Vec<(ThermalLti, ExactLti, Vec<Kelvin>)> = (0..DEVICES)
            .map(|d| {
                let temps = (0..n).map(|node| initial_k(&lti, d, node)).collect();
                (own_network(&lti, d), ExactLti::new(), temps)
            })
            .collect();
        for tick in 0..4 {
            for (d, (own, scalar, temps)) in scalars.iter_mut().enumerate() {
                let powers: Vec<Watts> = (0..n).map(|j| Watts::new(power(j, d, tick))).collect();
                for (j, p) in powers.iter().enumerate() {
                    batch.set_power(j, d, *p);
                }
                scalar.step(own, temps, dt, &powers).unwrap();
            }
            solver.step_batch(&lti, &mut batch, dt).unwrap();
            for (d, (_, _, temps)) in scalars.iter().enumerate() {
                for (node, t) in temps.iter().enumerate() {
                    assert_eq!(
                        batch.temp(node, d).value().to_bits(),
                        t.value().to_bits(),
                        "{n} nodes, tick {tick}, device {d}, node {node}"
                    );
                }
            }
        }
    }
}

#[test]
fn replay_matches_scalar_at_every_width() {
    let dt = 0.5;
    let ticks = 11;
    let offsets = [0, 3, 10, 5, 7];
    let scales = [1.0, 0.0, 1.3, 0.7, 1.1];
    for n in NODE_COUNTS {
        let lti = chain(n);
        // One trace; devices differ by offset and scale only.
        let samples: Vec<f64> = (0..ticks)
            .flat_map(|k| (0..n).map(move |j| power(j, 0, k)))
            .collect();
        let trip_k = initial_k(&lti, 2, 0).value() + 0.3;
        let mut batch = fleet(&lti);
        let mut watch = TripWatch::new(DEVICES, Some(trip_k));
        let mut done = Vec::new();
        ExactLti::new()
            .replay(
                &lti,
                &mut batch,
                &TraceFeed {
                    dt: Seconds::new(dt),
                    samples: &samples,
                    offsets: &offsets,
                    scales: &scales,
                },
                &mut watch,
                3,
                |t| done.push(t),
            )
            .unwrap();
        assert_eq!(done, [3, 6, 9, 11], "{n} nodes: chunk ends");
        for d in 0..DEVICES {
            let own = own_network(&lti, d);
            let mut scalar = ExactLti::new();
            let mut temps: Vec<Kelvin> = (0..n).map(|node| initial_k(&lti, d, node)).collect();
            let (mut peak, mut above, mut onset) = (f64::NEG_INFINITY, 0.0, None);
            for tick in 0..ticks {
                let src = (tick + offsets[d]) % ticks;
                let powers: Vec<Watts> = (0..n)
                    .map(|j| Watts::new(samples[src * n + j] * scales[d]))
                    .collect();
                scalar
                    .step(&own, &mut temps, Seconds::new(dt), &powers)
                    .unwrap();
                let hottest =
                    temps.iter().fold(
                        f64::NEG_INFINITY,
                        |h, t| if t.value() > h { t.value() } else { h },
                    );
                if hottest > peak {
                    peak = hottest;
                }
                if hottest > trip_k {
                    above += dt;
                    onset = onset.or(Some((tick + 1) as f64 * dt));
                }
            }
            assert_eq!(
                watch.peak_k(d).to_bits(),
                peak.to_bits(),
                "{n} nodes, device {d}"
            );
            assert_eq!(
                watch.above_s(d).to_bits(),
                f64::to_bits(above),
                "{n} nodes, device {d}"
            );
            assert_eq!(
                watch.onset_s(d).map(f64::to_bits),
                onset.map(f64::to_bits),
                "{n} nodes, device {d}"
            );
            for (node, t) in temps.iter().enumerate() {
                assert_eq!(
                    batch.temp(node, d).value().to_bits(),
                    t.value().to_bits(),
                    "{n} nodes, device {d}, node {node}"
                );
            }
        }
    }
}
