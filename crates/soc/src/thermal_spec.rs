//! Thermal-network parameters of a package (plain data).
//!
//! The SoC crate stores only the *parameters* of the package thermal
//! network — node heat capacities and inter-node conductances. The
//! `mpt-thermal` crate turns a [`ThermalSpec`] into a simulatable RC
//! network. Keeping the data here lets a platform definition be fully
//! self-contained without a dependency cycle.

use serde::{Deserialize, Serialize};

use mpt_units::{Celsius, Kelvin};

use crate::{ComponentId, Result, SocError};

/// One node of the thermal RC network.
///
/// A node is either a silicon hotspot co-located with a component (and
/// receives that component's power) or a passive node such as the package/
/// skin (heated only through couplings).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalNodeSpec {
    /// Node name used in telemetry (e.g. `"big"`, `"package"`).
    pub name: String,
    /// The component whose power is injected at this node, if any.
    pub component: Option<ComponentId>,
    /// Heat capacity in J/K.
    pub heat_capacity: f64,
    /// Direct conductance to ambient in W/K (0 for interior nodes).
    pub ambient_conductance: f64,
}

/// A symmetric thermal conductance between two nodes, in W/K.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalCoupling {
    /// Index of the first node.
    pub a: usize,
    /// Index of the second node.
    pub b: usize,
    /// Conductance in W/K.
    pub conductance: f64,
}

/// Full thermal-network description of a platform package.
///
/// # Examples
///
/// ```
/// use mpt_soc::platforms;
///
/// let spec = platforms::exynos_5422().thermal_spec().clone();
/// assert!(spec.node_index("big").is_some());
/// spec.validate()?;
/// # Ok::<(), mpt_soc::SocError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalSpec {
    /// The network nodes.
    pub nodes: Vec<ThermalNodeSpec>,
    /// Symmetric couplings between nodes.
    pub couplings: Vec<ThermalCoupling>,
    /// Ambient temperature.
    pub ambient: Celsius,
}

/// The validated LTI state-space form of a [`ThermalSpec`].
///
/// The heat equation `C·dT/dt = P − G·T` becomes, in deviation
/// coordinates `x = T − T_amb·1`,
///
/// ```text
/// dx/dt = A·x + B·P,   A = −C⁻¹·G,   B = diag(1/C_i)
/// ```
///
/// This struct is the **single** network→state-space derivation in the
/// workspace: `mpt-thermal`'s exact discretization integrates it and
/// `mpt-core`'s stability analysis consumes the same matrices through
/// [`RcNetwork::lti`], so there is exactly one place where the
/// conductance matrix is assembled.
///
/// [`RcNetwork::lti`]: https://docs.rs/mpt-thermal
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalLti {
    /// Per-node heat capacity `C_i` in J/K.
    pub heat_capacity: Vec<f64>,
    /// Symmetric pairwise conductance matrix in W/K; diagonal unused.
    /// Kept alongside the assembled forms so the forward-Euler test oracle
    /// can reproduce the historical per-pair arithmetic exactly.
    pub conductance: Vec<Vec<f64>>,
    /// Per-node conductance to ambient in W/K.
    pub ambient_conductance: Vec<f64>,
    /// Ambient temperature.
    pub ambient: Kelvin,
    /// Full conductance matrix `G`: row `i` has `Σ_j g_ij + G_a,i` on the
    /// diagonal and `−g_ij` off it, so `G·T` is the net outflow at each
    /// node when ambient is at zero deviation.
    pub g_full: Vec<Vec<f64>>,
    /// State matrix `A = −C⁻¹·G` (1/s).
    pub a: Vec<Vec<f64>>,
    /// Input matrix diagonal `B_ii = 1/C_i` (K/J).
    pub b_diag: Vec<f64>,
    /// Largest stable explicit-Euler step in seconds:
    /// `min_i 0.5·C_i/(Σ_j g_ij + G_a,i)`.
    pub euler_max_step: f64,
    /// [`fingerprint`](Self::fingerprint), taken once by
    /// [`ThermalSpec::lti`] (the only constructor); nothing changes `a`
    /// or `b_diag` afterwards.
    fingerprint: Vec<u64>,
}

impl ThermalLti {
    /// Number of nodes (states).
    #[must_use]
    pub fn len(&self) -> usize {
        self.heat_capacity.len()
    }

    /// Whether the system has no states.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heat_capacity.is_empty()
    }

    /// How many explicit-Euler substeps a step of `dt` seconds needs to
    /// stay inside the stability bound.
    #[must_use]
    pub fn euler_substeps(&self, dt: f64) -> usize {
        if dt <= 0.0 {
            return 0;
        }
        (dt / self.euler_max_step).ceil().max(1.0) as usize
    }

    /// A stable fingerprint of `(A, B)` as raw bit patterns, used as the
    /// topology half of transition-cache keys. Two specs with bit-equal
    /// dynamics share cached discretizations (the ambient offset does not
    /// enter `A` or `B`, so it is deliberately excluded).
    #[must_use]
    pub fn fingerprint(&self) -> &[u64] {
        &self.fingerprint
    }
}

impl ThermalSpec {
    /// Index of the node with the given name.
    #[must_use]
    pub fn node_index(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// Index of the node that receives a component's power.
    #[must_use]
    pub fn node_for_component(&self, id: ComponentId) -> Option<usize> {
        self.nodes.iter().position(|n| n.component == Some(id))
    }

    /// Validates the network: positive capacities, non-negative
    /// conductances, in-range coupling indices, unique node names, and at
    /// least one path to ambient.
    ///
    /// # Errors
    ///
    /// [`SocError::InvalidThermalSpec`] describing the first problem found.
    pub fn validate(&self) -> Result<()> {
        if self.nodes.is_empty() {
            return Err(SocError::InvalidThermalSpec {
                reason: "no nodes".into(),
            });
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if !(n.heat_capacity.is_finite() && n.heat_capacity > 0.0) {
                return Err(SocError::InvalidThermalSpec {
                    reason: format!("node {i} ({}) has non-positive heat capacity", n.name),
                });
            }
            if !(n.ambient_conductance.is_finite() && n.ambient_conductance >= 0.0) {
                return Err(SocError::InvalidThermalSpec {
                    reason: format!("node {i} ({}) has invalid ambient conductance", n.name),
                });
            }
            if self.nodes.iter().filter(|m| m.name == n.name).count() > 1 {
                return Err(SocError::InvalidThermalSpec {
                    reason: format!("duplicate node name {:?}", n.name),
                });
            }
        }
        for (i, c) in self.couplings.iter().enumerate() {
            if c.a >= self.nodes.len() || c.b >= self.nodes.len() || c.a == c.b {
                return Err(SocError::InvalidThermalSpec {
                    reason: format!("coupling {i} references invalid nodes {}..{}", c.a, c.b),
                });
            }
            if !(c.conductance.is_finite() && c.conductance > 0.0) {
                return Err(SocError::InvalidThermalSpec {
                    reason: format!("coupling {i} has non-positive conductance"),
                });
            }
        }
        if !self.nodes.iter().any(|n| n.ambient_conductance > 0.0) {
            return Err(SocError::InvalidThermalSpec {
                reason: "no node is coupled to ambient; heat cannot leave the package".into(),
            });
        }
        Ok(())
    }

    /// Validates the spec and assembles its LTI state-space form.
    ///
    /// # Errors
    ///
    /// [`SocError::InvalidThermalSpec`] if validation fails.
    pub fn lti(&self) -> Result<ThermalLti> {
        self.validate()?;
        let n = self.nodes.len();
        let mut conductance = vec![vec![0.0; n]; n];
        for c in &self.couplings {
            conductance[c.a][c.b] += c.conductance;
            conductance[c.b][c.a] += c.conductance;
        }
        let heat_capacity: Vec<f64> = self.nodes.iter().map(|n| n.heat_capacity).collect();
        let ambient_conductance: Vec<f64> =
            self.nodes.iter().map(|n| n.ambient_conductance).collect();
        // Full conductance matrix: the same assembly steady-state and
        // time-constant analyses historically performed inline.
        let mut g_full = vec![vec![0.0; n]; n];
        for i in 0..n {
            let mut diag = ambient_conductance[i];
            for j in 0..n {
                let g = conductance[i][j];
                if g > 0.0 {
                    diag += g;
                    g_full[i][j] -= g;
                }
            }
            g_full[i][i] += diag;
        }
        let a: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| -g_full[i][j] / heat_capacity[i]).collect())
            .collect();
        let b_diag: Vec<f64> = heat_capacity.iter().map(|c| 1.0 / c).collect();
        // Stability bound for forward Euler: dt < C_i / (Σ_j G_ij + G_a,i).
        let mut euler_max_step = f64::INFINITY;
        for i in 0..n {
            let g_total: f64 = conductance[i].iter().sum::<f64>() + ambient_conductance[i];
            if g_total > 0.0 {
                euler_max_step = euler_max_step.min(0.5 * heat_capacity[i] / g_total);
            }
        }
        let fingerprint = a
            .iter()
            .flatten()
            .chain(&b_diag)
            .map(|v| v.to_bits())
            .collect();
        Ok(ThermalLti {
            heat_capacity,
            conductance,
            ambient_conductance,
            ambient: self.ambient.to_kelvin(),
            g_full,
            a,
            b_diag,
            euler_max_step,
            fingerprint,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ThermalSpec {
        ThermalSpec {
            nodes: vec![
                ThermalNodeSpec {
                    name: "big".into(),
                    component: Some(ComponentId::BigCluster),
                    heat_capacity: 2.0,
                    ambient_conductance: 0.0,
                },
                ThermalNodeSpec {
                    name: "package".into(),
                    component: None,
                    heat_capacity: 5.0,
                    ambient_conductance: 0.07,
                },
            ],
            couplings: vec![ThermalCoupling {
                a: 0,
                b: 1,
                conductance: 0.4,
            }],
            ambient: Celsius::new(25.0),
        }
    }

    #[test]
    fn valid_spec_passes() {
        spec().validate().unwrap();
    }

    #[test]
    fn lookup_by_name_and_component() {
        let s = spec();
        assert_eq!(s.node_index("package"), Some(1));
        assert_eq!(s.node_index("nope"), None);
        assert_eq!(s.node_for_component(ComponentId::BigCluster), Some(0));
        assert_eq!(s.node_for_component(ComponentId::Gpu), None);
    }

    #[test]
    fn rejects_nonpositive_capacity() {
        let mut s = spec();
        s.nodes[0].heat_capacity = 0.0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn rejects_self_coupling() {
        let mut s = spec();
        s.couplings[0].b = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn rejects_out_of_range_coupling() {
        let mut s = spec();
        s.couplings[0].b = 9;
        assert!(s.validate().is_err());
    }

    #[test]
    fn rejects_isolated_package() {
        let mut s = spec();
        s.nodes[1].ambient_conductance = 0.0;
        let err = s.validate().unwrap_err();
        assert!(err.to_string().contains("ambient"));
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut s = spec();
        s.nodes[1].name = "big".into();
        assert!(s.validate().is_err());
    }

    #[test]
    fn lti_assembles_state_space_form() {
        let lti = spec().lti().unwrap();
        assert_eq!(lti.len(), 2);
        // G row 0: diag = g01, off-diag = -g01 (no ambient path at node 0).
        assert_eq!(lti.g_full[0], vec![0.4, -0.4]);
        assert_eq!(lti.g_full[1], vec![-0.4, 0.4 + 0.07]);
        // A = -C^-1 G, B = diag(1/C).
        assert!((lti.a[0][0] - (-0.4 / 2.0)).abs() < 1e-15);
        assert!((lti.a[1][0] - (0.4 / 5.0)).abs() < 1e-15);
        assert!((lti.b_diag[0] - 0.5).abs() < 1e-15);
        // Euler bound: min(0.5*2/0.4, 0.5*5/0.47).
        let expected = (0.5 * 2.0 / 0.4_f64).min(0.5 * 5.0 / 0.47);
        assert!((lti.euler_max_step - expected).abs() < 1e-12);
        assert_eq!(lti.euler_substeps(0.1), 1);
        assert_eq!(lti.euler_substeps(10.0), 4);
        assert_eq!(lti.euler_substeps(0.0), 0);
    }

    #[test]
    fn lti_fingerprint_tracks_dynamics_not_ambient() {
        let base = spec().lti().unwrap();
        let mut warm = spec();
        warm.ambient = Celsius::new(40.0);
        assert_eq!(base.fingerprint(), warm.lti().unwrap().fingerprint());
        let mut stiffer = spec();
        stiffer.couplings[0].conductance = 0.5;
        assert_ne!(base.fingerprint(), stiffer.lti().unwrap().fingerprint());
    }

    #[test]
    fn lti_rejects_invalid_specs() {
        let mut s = spec();
        s.nodes[0].heat_capacity = -1.0;
        assert!(s.lti().is_err());
    }

    #[test]
    fn rejects_empty() {
        let s = ThermalSpec {
            nodes: vec![],
            couplings: vec![],
            ambient: Celsius::new(25.0),
        };
        assert!(s.validate().is_err());
    }
}
