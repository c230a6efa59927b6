//! Model analysis: platforms, OPP tables and thermal networks (MPT0xx).
//!
//! Platform descriptions reach the simulator through two doors: the
//! curated builders in `mpt_soc::platforms` (which validate), and serde —
//! whose derived `Deserialize` fills private fields directly and bypasses
//! every builder invariant. This module re-establishes those invariants
//! for *any* platform, however it was constructed, and then goes further
//! than the builders do: it proves the assembled thermal A-matrix is
//! Hurwitz and classifies the power–temperature fixed point at the
//! max-power and idle operating points, reusing `mpt_thermal`'s linear
//! algebra and lumped stability analysis.
//!
//! Checks within one platform are ordered most-fundamental-first and
//! later checks are gated on earlier ones passing: an OPP table with
//! out-of-order frequencies gets MPT001 only (its voltage and power
//! columns are meaningless until the order is fixed), and the Hurwitz /
//! fixed-point analyses only run on a structurally valid network. Each
//! root cause therefore produces exactly one diagnostic.

use mpt_soc::{platforms, Platform, ThermalSpec};
use mpt_thermal::{linalg, RcNetwork, Stability};
use mpt_units::Watts;
use serde::Deserialize;

use crate::diag::{Code, Diagnostic, Report, Severity};

/// Hottest-plausible sensor reading; trip points and alert thresholds
/// beyond this are configuration mistakes, not design points.
pub(crate) const MAX_SANE_TEMP_C: f64 = 125.0;

/// A standalone thermal network given as raw matrices — the third form a
/// `*.model.json` file can take (alongside `builtin` and `platform`).
/// Unlike [`ThermalSpec`], the conductance matrix is written out in full,
/// so asymmetric inputs are representable and checkable.
#[derive(Debug, Clone, Deserialize)]
pub struct RawNetwork {
    /// Per-node heat capacity in J/K.
    pub heat_capacity: Vec<f64>,
    /// Full node-to-node conductance matrix in W/K (diagonal ignored).
    pub conductance: Vec<Vec<f64>>,
    /// Per-node conductance to ambient in W/K.
    pub ambient_conductance: Vec<f64>,
    /// Ambient temperature in Celsius.
    pub ambient_c: f64,
}

/// A `*.model.json` file: exactly one of a builtin platform's name, a
/// full platform description, or a raw network.
#[derive(Deserialize)]
struct ModelFile {
    builtin: Option<String>,
    platform: Option<Platform>,
    network: Option<RawNetwork>,
}

/// Constructor for a builtin [`Platform`].
pub(crate) type PlatformBuilder = fn() -> Platform;

/// The builtin platforms `--all` checks, as `(spec name, constructor)`.
pub const BUILTINS: [(&str, PlatformBuilder); 2] = [
    ("snapdragon810", platforms::snapdragon_810),
    ("exynos5422", platforms::exynos_5422),
];

/// Assembles the full conductance matrix `G_full` from pairwise couplings
/// and ambient conductances, exactly as `ThermalSpec::lti` does — except
/// negative couplings are carried through rather than skipped, so the
/// Hurwitz check (and its property test) can observe what an invalid
/// conductance does to the spectrum.
#[must_use]
pub fn assemble_g_full(
    n: usize,
    couplings: &[(usize, usize, f64)],
    ambient: &[f64],
) -> Vec<Vec<f64>> {
    let mut g = vec![vec![0.0; n]; n];
    for i in 0..n {
        g[i][i] = ambient[i];
    }
    for &(a, b, cond) in couplings {
        g[a][a] += cond;
        g[b][b] += cond;
        g[a][b] -= cond;
        g[b][a] -= cond;
    }
    g
}

/// The Hurwitz margin of the thermal dynamics `A = -C⁻¹·G_full`.
///
/// `A` is similar to `-S` with `S_ij = G_full_ij / √(C_i·C_j)` symmetric,
/// so `A` is Hurwitz iff every eigenvalue of `S` is strictly positive.
/// Returns the smallest eigenvalue of `S`: positive means Hurwitz, and
/// its magnitude is the slowest decay rate in 1/s.
#[must_use]
pub fn hurwitz_margin(heat_capacity: &[f64], g_full: &[Vec<f64>]) -> f64 {
    let n = heat_capacity.len();
    let mut s = linalg::Mat::zeros(n, n);
    for (i, row) in g_full.iter().enumerate() {
        for (j, &g) in row.iter().enumerate() {
            s[(i, j)] = g / (heat_capacity[i] * heat_capacity[j]).sqrt();
        }
    }
    linalg::symmetric_eigenvalues(&s)
        .first()
        .copied()
        .unwrap_or(f64::NEG_INFINITY)
}

/// Checks one platform: every MPT0xx family, gated as described in the
/// module docs.
#[must_use]
pub(crate) fn check_platform(platform: &Platform, origin: &str) -> Report {
    let mut r = Report::default();
    for comp in platform.components() {
        check_opp_table(comp, origin, &mut r);
        check_power_params(comp, origin, &mut r);
    }
    check_component_ids(platform, origin, &mut r);
    let spec_ok = check_thermal_structure(platform.thermal_spec(), origin, &mut r);
    check_cross_references(platform, origin, &mut r);
    // Before the fixed-point gate: those points are set by the ambient.
    check_ambient(platform.thermal_spec().ambient.value(), origin, &mut r);
    if spec_ok {
        r.checks_run += 1;
        let ts = platform.thermal_spec();
        let couplings: Vec<(usize, usize, f64)> = ts
            .couplings
            .iter()
            .map(|c| (c.a, c.b, c.conductance))
            .collect();
        let ambient: Vec<f64> = ts.nodes.iter().map(|n| n.ambient_conductance).collect();
        let caps: Vec<f64> = ts.nodes.iter().map(|n| n.heat_capacity).collect();
        let g_full = assemble_g_full(ts.nodes.len(), &couplings, &ambient);
        let margin = hurwitz_margin(&caps, &g_full);
        let fired = emit_not_hurwitz(margin, origin, &mut r);
        if !fired && r.errors() == 0 {
            check_fixed_points(platform, origin, &mut r);
        }
    }
    r
}

/// The single `MPT008` emission path: pushes the diagnostic when the
/// Hurwitz margin is non-positive and reports whether it fired, so the
/// platform and raw-network checks can never drift in margin formatting
/// or wording.
fn emit_not_hurwitz(margin: f64, origin: &str, r: &mut Report) -> bool {
    if margin > 0.0 {
        return false;
    }
    r.diagnostics.push(Diagnostic::new(
        Code::NotHurwitz,
        origin,
        format!(
            "thermal A-matrix is not Hurwitz: slowest mode decays at {margin:.3e} 1/s \
             (must be > 0)"
        ),
    ));
    true
}

/// Lints one `*.model.json` file: `{"builtin": name}`,
/// `{"platform": {...}}` or `{"network": {...}}`.
///
/// The file is parsed once into its typed form, and refusals map as for
/// config files: an unknown key is MPT109, anything else MPT101.
#[must_use]
pub fn check_model_file(json: &str, path: &str) -> Report {
    let mut r = Report::default();
    let Some(file) = crate::config::parse::<ModelFile>(json, "model file", path, &mut r) else {
        return r;
    };
    match (file.builtin, file.platform, file.network) {
        (Some(name), None, None) => match BUILTINS.iter().find(|(n, _)| *n == name) {
            Some((_, build)) => r.merge(check_platform(&build(), path)),
            None => r.diagnostics.push(Diagnostic::new(
                Code::ParseFailure,
                path,
                format!("unknown builtin platform {name:?} (valid: snapdragon810, exynos5422)"),
            )),
        },
        (None, Some(platform), None) => r.merge(check_platform(&platform, path)),
        (None, None, Some(network)) => r.merge(check_raw_network(&network, path)),
        _ => r.diagnostics.push(Diagnostic::new(
            Code::ParseFailure,
            path,
            "model file needs exactly one of: \"builtin\", \"platform\", \"network\"",
        )),
    }
    r
}

/// Checks a raw-matrix network: shape, capacities, symmetry, sign,
/// connectivity, then (if structurally clean) the Hurwitz spectrum.
#[must_use]
pub(crate) fn check_raw_network(net: &RawNetwork, origin: &str) -> Report {
    let mut r = Report::default();
    r.checks_run += 1;
    let n = net.heat_capacity.len();
    if n == 0
        || net.conductance.len() != n
        || net.conductance.iter().any(|row| row.len() != n)
        || net.ambient_conductance.len() != n
    {
        r.diagnostics.push(Diagnostic::new(
            Code::ParseFailure,
            origin,
            format!(
                "network shape mismatch: {} capacities, {}x? conductance, {} ambient entries",
                n,
                net.conductance.len(),
                net.ambient_conductance.len()
            ),
        ));
        return r;
    }
    for (i, &c) in net.heat_capacity.iter().enumerate() {
        if !c.is_finite() || c <= 0.0 {
            r.diagnostics.push(Diagnostic::new(
                Code::NonPositiveHeatCapacity,
                origin,
                format!("heat_capacity[{i}] = {c} must be finite and > 0"),
            ));
        }
    }
    // Report the first asymmetric pair and the first bad entry only: one
    // root cause (a mis-copied matrix), one diagnostic.
    'symmetry: for i in 0..n {
        for j in (i + 1)..n {
            let (ij, ji) = (net.conductance[i][j], net.conductance[j][i]);
            if (ij - ji).abs() > 1e-9 * ij.abs().max(ji.abs()).max(1.0) {
                r.diagnostics.push(Diagnostic::new(
                    Code::InvalidConductance,
                    origin,
                    format!("conductance matrix asymmetric at ({i},{j}): {ij} vs {ji}"),
                ));
                break 'symmetry;
            }
        }
    }
    'entries: for i in 0..n {
        for j in 0..n {
            let g = net.conductance[i][j];
            if i != j && (!g.is_finite() || g < 0.0) {
                r.diagnostics.push(Diagnostic::new(
                    Code::InvalidConductance,
                    origin,
                    format!("conductance[{i}][{j}] = {g} must be finite and >= 0"),
                ));
                break 'entries;
            }
        }
    }
    for (i, &g) in net.ambient_conductance.iter().enumerate() {
        if !g.is_finite() || g < 0.0 {
            r.diagnostics.push(Diagnostic::new(
                Code::InvalidConductance,
                origin,
                format!("ambient_conductance[{i}] = {g} must be finite and >= 0"),
            ));
            break;
        }
    }
    if r.errors() == 0 {
        let adjacent = |i: usize, j: usize| net.conductance[i][j] > 0.0;
        check_connectivity(n, adjacent, &net.ambient_conductance, origin, &mut r);
    }
    if r.errors() == 0 {
        let couplings: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .map(|(i, j)| (i, j, net.conductance[i][j]))
            .filter(|&(_, _, g)| g != 0.0)
            .collect();
        let g_full = assemble_g_full(n, &couplings, &net.ambient_conductance);
        let margin = hurwitz_margin(&net.heat_capacity, &g_full);
        emit_not_hurwitz(margin, origin, &mut r);
    }
    check_ambient(net.ambient_c, origin, &mut r);
    r
}

/// MPT105 for an ambient that is not finite or lies outside the range
/// scenario temperatures are held to. Part of the thermal structure
/// check, so it adds no check of its own.
fn check_ambient(ambient_c: f64, origin: &str, r: &mut Report) {
    if !ambient_c.is_finite() || !(-40.0..=MAX_SANE_TEMP_C).contains(&ambient_c) {
        r.diagnostics.push(Diagnostic::new(
            Code::ParameterOutOfRange,
            origin,
            format!("ambient_c = {ambient_c} outside [-40, {MAX_SANE_TEMP_C}] C"),
        ));
    }
}

fn check_opp_table(comp: &mpt_soc::Component, origin: &str, r: &mut Report) {
    r.checks_run += 1;
    let points: Vec<_> = comp.opps().iter().collect();
    let name = comp.name();
    for pair in points.windows(2) {
        if pair[1].frequency() <= pair[0].frequency() {
            r.diagnostics.push(Diagnostic::new(
                Code::OppFrequencyOrder,
                origin,
                format!(
                    "{name}: OPP frequencies not strictly increasing ({} then {})",
                    pair[0].frequency(),
                    pair[1].frequency()
                ),
            ));
            return; // voltage/power columns are meaningless until fixed
        }
    }
    for pair in points.windows(2) {
        if pair[1].voltage() < pair[0].voltage() {
            r.diagnostics.push(Diagnostic::new(
                Code::OppVoltageMonotonicity,
                origin,
                format!(
                    "{name}: voltage drops from {} to {} as frequency rises to {}",
                    pair[0].voltage(),
                    pair[1].voltage(),
                    pair[1].frequency()
                ),
            ));
            return;
        }
    }
    let power = |p: &mpt_soc::OperatingPoint| {
        comp.power_params()
            .dynamic_power(p.voltage(), p.frequency(), f64::from(comp.core_count()))
            .value()
    };
    for pair in points.windows(2) {
        if power(pair[1]) <= power(pair[0]) {
            r.diagnostics.push(Diagnostic::new(
                Code::OppPowerMonotonicity,
                origin,
                format!(
                    "{name}: max-utilization power not strictly increasing at {} \
                     ({:.3} W then {:.3} W)",
                    pair[1].frequency(),
                    power(pair[0]),
                    power(pair[1])
                ),
            ));
            return;
        }
    }
}

fn check_power_params(comp: &mpt_soc::Component, origin: &str, r: &mut Report) {
    r.checks_run += 1;
    let name = comp.name();
    let pp = comp.power_params();
    let mut bad = |what: &str, value: f64| {
        r.diagnostics.push(Diagnostic::new(
            Code::InvalidPowerCoefficient,
            origin,
            format!("{name}: {what} = {value} is out of range"),
        ));
    };
    if !pp.ceff().is_finite() || pp.ceff() < 0.0 {
        bad("ceff", pp.ceff());
    }
    if !pp.static_floor().value().is_finite() || pp.static_floor().value() < 0.0 {
        bad("static_floor", pp.static_floor().value());
    }
    let leak = pp.leakage();
    if !leak.alpha().is_finite() || leak.alpha() < 0.0 {
        bad("leakage alpha", leak.alpha());
    }
    if !leak.beta().is_finite() || leak.beta() <= 0.0 {
        bad("leakage beta", leak.beta());
    }
}

fn check_component_ids(platform: &Platform, origin: &str, r: &mut Report) {
    r.checks_run += 1;
    let ids: Vec<_> = platform.components().iter().map(|c| c.id()).collect();
    for (i, id) in ids.iter().enumerate() {
        if ids[..i].contains(id) {
            r.diagnostics.push(Diagnostic::new(
                Code::DanglingComponentRef,
                origin,
                format!("component id {id} declared more than once"),
            ));
        }
    }
}

/// Structural checks on a [`ThermalSpec`]; returns whether the spec is
/// sound enough for spectral analysis.
fn check_thermal_structure(ts: &ThermalSpec, origin: &str, r: &mut Report) -> bool {
    r.checks_run += 1;
    let before = r.errors();
    let n = ts.nodes.len();
    if n == 0 {
        r.diagnostics.push(Diagnostic::new(
            Code::DisconnectedNetwork,
            origin,
            "thermal network has no nodes",
        ));
        return false;
    }
    for node in &ts.nodes {
        if !node.heat_capacity.is_finite() || node.heat_capacity <= 0.0 {
            r.diagnostics.push(Diagnostic::new(
                Code::NonPositiveHeatCapacity,
                origin,
                format!(
                    "node '{}': heat_capacity = {} must be finite and > 0",
                    node.name, node.heat_capacity
                ),
            ));
        }
        if !node.ambient_conductance.is_finite() || node.ambient_conductance < 0.0 {
            r.diagnostics.push(Diagnostic::new(
                Code::InvalidConductance,
                origin,
                format!(
                    "node '{}': ambient_conductance = {} must be finite and >= 0",
                    node.name, node.ambient_conductance
                ),
            ));
        }
    }
    for (i, node) in ts.nodes.iter().enumerate() {
        if ts.nodes[..i].iter().any(|m| m.name == node.name) {
            r.diagnostics.push(Diagnostic::new(
                Code::DanglingComponentRef,
                origin,
                format!("duplicate thermal node name '{}'", node.name),
            ));
        }
    }
    let mut indices_ok = true;
    for c in &ts.couplings {
        if c.a >= n || c.b >= n || c.a == c.b {
            r.diagnostics.push(Diagnostic::new(
                Code::InvalidConductance,
                origin,
                format!("coupling ({}, {}) is out of range or a self-loop", c.a, c.b),
            ));
            indices_ok = false;
        } else if !c.conductance.is_finite() || c.conductance <= 0.0 {
            r.diagnostics.push(Diagnostic::new(
                Code::InvalidConductance,
                origin,
                format!(
                    "coupling ({}, {}): conductance = {} must be finite and > 0",
                    c.a, c.b, c.conductance
                ),
            ));
        }
    }
    if indices_ok {
        let adjacent = |i: usize, j: usize| {
            ts.couplings
                .iter()
                .any(|c| ((c.a == i && c.b == j) || (c.a == j && c.b == i)) && c.conductance > 0.0)
        };
        let ambient: Vec<f64> = ts.nodes.iter().map(|m| m.ambient_conductance).collect();
        check_connectivity(n, adjacent, &ambient, origin, r);
    }
    r.errors() == before
}

/// BFS over the coupling graph plus an any-ambient-path check (MPT007).
fn check_connectivity(
    n: usize,
    adjacent: impl Fn(usize, usize) -> bool,
    ambient: &[f64],
    origin: &str,
    r: &mut Report,
) {
    r.checks_run += 1;
    let mut reached = vec![false; n];
    let mut queue = vec![0];
    reached[0] = true;
    while let Some(i) = queue.pop() {
        for (j, seen) in reached.iter_mut().enumerate() {
            if !*seen && adjacent(i, j) {
                *seen = true;
                queue.push(j);
            }
        }
    }
    if let Some(stranded) = reached.iter().position(|&ok| !ok) {
        r.diagnostics.push(Diagnostic::new(
            Code::DisconnectedNetwork,
            origin,
            format!("node {stranded} is not coupled to the rest of the network"),
        ));
    }
    if !ambient.iter().any(|&g| g > 0.0) {
        r.diagnostics.push(Diagnostic::new(
            Code::DisconnectedNetwork,
            origin,
            "no node has a conductance path to ambient; heat cannot leave the system",
        ));
    }
}

fn check_cross_references(platform: &Platform, origin: &str, r: &mut Report) {
    r.checks_run += 1;
    let ts = platform.thermal_spec();
    for sensor in platform.temperature_sensors() {
        if !ts.nodes.iter().any(|n| n.name == sensor.thermal_node()) {
            r.diagnostics.push(Diagnostic::new(
                Code::DanglingSensorNode,
                origin,
                format!(
                    "sensor '{}' reads thermal node '{}', which does not exist",
                    sensor.name(),
                    sensor.thermal_node()
                ),
            ));
        }
    }
    for node in &ts.nodes {
        if let Some(id) = node.component {
            if platform.component(id).is_err() {
                r.diagnostics.push(Diagnostic::new(
                    Code::DanglingComponentRef,
                    origin,
                    format!(
                        "thermal node '{}' maps to undeclared component {id}",
                        node.name
                    ),
                ));
            }
        }
    }
    for rail in platform.power_rails() {
        if platform.component(rail.component()).is_err() {
            r.diagnostics.push(Diagnostic::new(
                Code::DanglingComponentRef,
                origin,
                format!(
                    "power rail '{}' measures undeclared component {}",
                    rail.name(),
                    rail.component()
                ),
            ));
        }
    }
    for comp in platform.components() {
        if ts.node_for_component(comp.id()).is_none() {
            r.diagnostics.push(Diagnostic::new(
                Code::DanglingComponentRef,
                origin,
                format!(
                    "component {} has no thermal node; its heat would vanish",
                    comp.id()
                ),
            ));
        }
    }
}

/// Fixed-point existence at the max-power and idle operating points,
/// following the reduction the application-aware governor performs at
/// runtime. Runaway at max power is a warning (real platforms throttle);
/// runaway at the idle floor is an error (the model can never settle).
fn check_fixed_points(platform: &Platform, origin: &str, r: &mut Report) {
    r.checks_run += 1;
    let ts = platform.thermal_spec();
    let Ok(network) = RcNetwork::from_spec(ts) else {
        // Structural checks passed but from_spec refused: surface as a
        // network problem rather than silently skipping.
        r.diagnostics.push(Diagnostic::new(
            Code::DisconnectedNetwork,
            origin,
            "thermal spec rejected by RcNetwork::from_spec",
        ));
        return;
    };
    let n = ts.nodes.len();
    let mut max_node_w = vec![0.0; n];
    let mut idle_node_w = vec![0.0; n];
    let (gain_max, beta) = platform.lumped_leakage(|c| c.opps().highest().voltage());
    let (gain_idle, _) = platform.lumped_leakage(|c| c.opps().lowest().voltage());
    for comp in platform.components() {
        let top = comp.opps().highest();
        let pp = comp.power_params();
        let dynamic = pp
            .dynamic_power(top.voltage(), top.frequency(), f64::from(comp.core_count()))
            .value();
        let floor = pp.static_floor().value();
        let node = ts
            .node_for_component(comp.id())
            .expect("checked by cross-reference pass");
        max_node_w[node] += dynamic + floor;
        idle_node_w[node] += floor;
    }
    for (label, node_w, gain, runaway_severity) in [
        ("max power", &max_node_w, gain_max, Severity::Warning),
        ("idle floor", &idle_node_w, gain_idle, Severity::Error),
    ] {
        let powers: Vec<Watts> = node_w.iter().map(|&w| Watts::new(w)).collect();
        let total = Watts::new(node_w.iter().sum());
        let hot = match network.steady_state(&powers) {
            Ok(steady) => steady
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.value().total_cmp(&b.1.value()))
                .map_or(0, |(i, _)| i),
            Err(e) => {
                r.diagnostics.push(Diagnostic::new(
                    Code::NotHurwitz,
                    origin,
                    format!("steady state at {label} unsolvable: {e}"),
                ));
                return;
            }
        };
        match network.reduce(&powers, hot, gain, beta) {
            Ok(lumped) => match lumped.stability(total) {
                Stability::Stable { .. } => {}
                Stability::CriticallyStable { .. } | Stability::Runaway => {
                    r.diagnostics.push(
                        Diagnostic::new(
                            Code::NoStableFixedPoint,
                            origin,
                            format!(
                                "no stable power-temperature fixed point at {label} \
                                 ({:.2} W vs critical power {:.2} W)",
                                total.value(),
                                lumped.critical_power().value()
                            ),
                        )
                        .with_severity(runaway_severity),
                    );
                }
            },
            Err(e) => {
                r.diagnostics.push(Diagnostic::new(
                    Code::NoStableFixedPoint,
                    origin,
                    format!("lumped reduction at {label} failed: {e}"),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_platforms_are_clean_of_errors() {
        for (name, build) in BUILTINS {
            let report = check_platform(&build(), name);
            assert_eq!(
                report.errors(),
                0,
                "builtin {name} has lint errors:\n{}",
                report.render_text()
            );
            assert!(report.checks_run > 5, "checks actually ran for {name}");
        }
    }

    #[test]
    fn raw_network_catches_asymmetry_once() {
        let net = RawNetwork {
            heat_capacity: vec![10.0, 20.0],
            conductance: vec![vec![0.0, 0.5], vec![0.3, 0.0]],
            ambient_conductance: vec![0.1, 0.1],
            ambient_c: 25.0,
        };
        let report = check_raw_network(&net, "mem");
        let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            vec![Code::InvalidConductance],
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn raw_network_negative_coupling_is_not_hurwitz() {
        // Symmetric but actively pumping heat: passes the symmetry and
        // connectivity checks (|g| > 0 connects the graph via the sign
        // check being the gate) -- the spectrum is what catches it.
        let net = RawNetwork {
            heat_capacity: vec![10.0, 20.0],
            conductance: vec![vec![0.0, 0.5], vec![0.5, 0.0]],
            ambient_conductance: vec![0.1, 0.1],
            ambient_c: 25.0,
        };
        assert_eq!(check_raw_network(&net, "mem").errors(), 0);
        let g_full = assemble_g_full(2, &[(0, 1, -1.2)], &[0.1, 0.1]);
        assert!(hurwitz_margin(&net.heat_capacity, &g_full) < 0.0);
    }

    /// The builtin Odroid platform with its ambient replaced, through
    /// the serde door a `"platform"` model file uses.
    fn exynos_at(ambient_c: f64) -> Platform {
        let json = serde_json::to_string(&platforms::exynos_5422()).unwrap();
        let key = "\"ambient\":";
        let at = json.find(key).expect("thermal spec has an ambient") + key.len();
        let end = at + json[at..].find([',', '}']).unwrap();
        serde_json::from_str(&format!("{}{ambient_c:e}{}", &json[..at], &json[end..])).unwrap()
    }

    #[test]
    fn ambient_out_of_range_is_mpt105_in_both_shapes() {
        let network_at = |ambient_c| RawNetwork {
            heat_capacity: vec![10.0, 20.0],
            conductance: vec![vec![0.0, 0.5], vec![0.5, 0.0]],
            ambient_conductance: vec![0.1, 0.1],
            ambient_c,
        };
        let codes = |r: Report| r.diagnostics.iter().map(|d| d.code).collect::<Vec<_>>();
        for ambient_c in [1.0e9, -41.0, f64::NAN, f64::INFINITY] {
            let report = check_raw_network(&network_at(ambient_c), "mem");
            assert_eq!(
                codes(report),
                vec![Code::ParameterOutOfRange],
                "network at {ambient_c} C"
            );
        }
        for ambient_c in [1.0e9, -41.0, 126.0] {
            let report = check_platform(&exynos_at(ambient_c), "mem");
            assert_eq!(
                codes(report),
                vec![Code::ParameterOutOfRange],
                "platform at {ambient_c} C"
            );
        }
        for ambient_c in [-40.0, 25.0, MAX_SANE_TEMP_C] {
            let raw = check_raw_network(&network_at(ambient_c), "mem");
            assert_eq!(raw.errors(), 0, "network at {ambient_c} C");
        }
        // The platform at its own ambient, through the same door.
        let platform = check_platform(&exynos_at(25.0), "mem");
        assert_eq!(platform.errors(), 0, "{}", platform.render_text());
    }

    #[test]
    fn model_file_dispatch() {
        let ok = check_model_file(r#"{"builtin": "exynos5422"}"#, "m");
        assert_eq!(ok.errors(), 0, "{}", ok.render_text());
        let commented = check_model_file(r#"{"builtin": "exynos5422", "_comment": "c"}"#, "m");
        assert_eq!(commented.errors(), 0, "{}", commented.render_text());
        let bad = check_model_file(r#"{"builtin": "pixel9000"}"#, "m");
        assert_eq!(bad.diagnostics[0].code, Code::ParseFailure);
        let none = check_model_file(r#"{"something": 1}"#, "m");
        assert_eq!(none.diagnostics[0].code, Code::UnknownKey);
        let garbage = check_model_file("{nope", "m");
        assert_eq!(garbage.diagnostics[0].code, Code::ParseFailure);
        // No shape, two shapes, or a builtin name of the wrong type.
        let network = r#""network": {"heat_capacity": [1.0], "conductance": [[0.0]],
            "ambient_conductance": [0.1], "ambient_c": 25.0}"#;
        assert_eq!(check_model_file(&format!("{{{network}}}"), "m").errors(), 0);
        let two = format!(r#"{{"builtin": "exynos5422", {network}}}"#);
        for refused in ["{}", two.as_str(), r#"{"builtin": 5}"#] {
            let codes: Vec<Code> = check_model_file(refused, "m")
                .diagnostics
                .iter()
                .map(|d| d.code)
                .collect();
            assert_eq!(codes, vec![Code::ParseFailure], "{refused}");
        }
    }
}
