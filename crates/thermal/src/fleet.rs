//! Structure-of-arrays state for batched fleet simulation.
//!
//! A fleet is N devices sharing one platform model (one `ThermalLti`,
//! one cached `(Ad, Bd)` discretization) but each carrying its own
//! temperatures, injected powers and ambient. Because the discretized
//! state jump `x' = Ad·x + Bd·u` is linear in the device axis, stepping
//! N devices is one multi-RHS mat-mat against the shared transition
//! matrices instead of N mat-vecs — see
//! [`ThermalSolver::step_batch`](crate::ThermalSolver::step_batch).
//!
//! # Layout
//!
//! Both planes are **node-major**: `temps[node * devices + device]`.
//! The device axis is innermost and contiguous, so the batch kernel's
//! inner loops stream linearly through memory and vectorize; the
//! per-device spread (ambient, leakage, workload phase) enters only on
//! the input side, never the shared matrices.
//!
//! ```text
//!              device →  d0   d1   d2   ...   dN-1
//!   temps  node 0      [ T00  T01  T02  ...  T0,N-1 ]
//!          node 1      [ T10  T11  T12  ...  T1,N-1 ]
//!          ...
//!   power  node 0      [ P00  P01  P02  ...  P0,N-1 ]
//!          ...
//!   ambient (per dev)  [ A0   A1   A2   ...  AN-1   ]
//! ```

use mpt_units::{Kelvin, Watts};

/// Node-major per-device state for a batch of devices sharing one
/// thermal network.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetState {
    nodes: usize,
    devices: usize,
    /// Temperatures in kelvin, `[node * devices + device]`.
    temps: Vec<f64>,
    /// Injected powers in watts, `[node * devices + device]`.
    power_in: Vec<f64>,
    /// Per-device ambient in kelvin.
    ambient_k: Vec<f64>,
}

impl FleetState {
    /// A fleet of `devices` devices over a `nodes`-node network, every
    /// node starting at `initial` and every device at ambient `ambient`.
    #[must_use]
    pub fn new(nodes: usize, devices: usize, initial: Kelvin, ambient: Kelvin) -> Self {
        Self {
            nodes,
            devices,
            temps: vec![initial.value(); nodes * devices],
            power_in: vec![0.0; nodes * devices],
            ambient_k: vec![ambient.value(); devices],
        }
    }

    /// Number of thermal nodes per device.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of devices in the batch.
    #[must_use]
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Temperature of `node` on `device`.
    #[must_use]
    pub fn temp(&self, node: usize, device: usize) -> Kelvin {
        Kelvin::new(self.temps[node * self.devices + device])
    }

    /// Sets the temperature of `node` on `device`.
    pub fn set_temp(&mut self, node: usize, device: usize, t: Kelvin) {
        self.temps[node * self.devices + device] = t.value();
    }

    /// Injected power at `node` on `device`.
    #[must_use]
    pub fn power(&self, node: usize, device: usize) -> Watts {
        Watts::new(self.power_in[node * self.devices + device])
    }

    /// Sets the power injected at `node` on `device` for the next step.
    pub fn set_power(&mut self, node: usize, device: usize, p: Watts) {
        self.power_in[node * self.devices + device] = p.value();
    }

    /// Zeroes the whole power plane (start of a tick's input assembly).
    pub fn clear_power(&mut self) {
        self.power_in.fill(0.0);
    }

    /// Ambient temperature of `device`.
    #[must_use]
    pub fn ambient(&self, device: usize) -> Kelvin {
        Kelvin::new(self.ambient_k[device])
    }

    /// Sets the ambient temperature of `device`. Ambient spread is pure
    /// input-side state: it never touches the shared `(Ad, Bd)` (whose
    /// fingerprint deliberately excludes ambient), it only shifts the
    /// deviation coordinates of this one device.
    pub fn set_ambient(&mut self, device: usize, ambient: Kelvin) {
        self.ambient_k[device] = ambient.value();
    }

    /// The raw node-major temperature plane (`[node * devices + device]`,
    /// kelvin).
    #[must_use]
    pub fn temps_raw(&self) -> &[f64] {
        &self.temps
    }

    /// The raw node-major power plane, mutable (`[node * devices +
    /// device]`, watts) — the fast path for per-tick input assembly.
    pub fn power_raw_mut(&mut self) -> &mut [f64] {
        &mut self.power_in
    }

    /// Splits mutable temperature plane and shared ambient vector for
    /// the solver kernel.
    pub(crate) fn planes_mut(&mut self) -> (&mut [f64], &[f64], &[f64]) {
        (&mut self.temps, &self.power_in, &self.ambient_k)
    }

    /// Copies device `device`'s temperatures into `out` (resized to the
    /// node count) — the bridge back to scalar per-device views.
    pub fn device_temps_into(&self, device: usize, out: &mut Vec<Kelvin>) {
        out.clear();
        out.extend((0..self.nodes).map(|node| self.temp(node, device)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_node_major() {
        let mut f = FleetState::new(2, 3, Kelvin::new(300.0), Kelvin::new(298.0));
        f.set_temp(1, 2, Kelvin::new(310.0));
        // Node-major: node 1's plane starts at nodes * devices = 3.
        assert_eq!(f.temps_raw()[3 + 2], 310.0);
        f.set_power(0, 1, Watts::new(2.5));
        assert_eq!(f.power(0, 1), Watts::new(2.5));
        f.clear_power();
        assert_eq!(f.power(0, 1), Watts::ZERO);
    }

    #[test]
    fn per_device_ambient_is_independent() {
        let mut f = FleetState::new(1, 2, Kelvin::new(300.0), Kelvin::new(298.0));
        f.set_ambient(1, Kelvin::new(305.0));
        assert_eq!(f.ambient(0), Kelvin::new(298.0));
        assert_eq!(f.ambient(1), Kelvin::new(305.0));
    }

    #[test]
    fn device_temps_round_trip() {
        let mut f = FleetState::new(3, 2, Kelvin::new(300.0), Kelvin::new(298.0));
        f.set_temp(0, 1, Kelvin::new(301.0));
        f.set_temp(2, 1, Kelvin::new(303.0));
        let mut out = Vec::new();
        f.device_temps_into(1, &mut out);
        assert_eq!(
            out,
            vec![Kelvin::new(301.0), Kelvin::new(300.0), Kelvin::new(303.0)]
        );
    }
}
