#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Thermal dynamics and power–temperature stability analysis.
//!
//! Two layers:
//!
//! 1. [`RcNetwork`] — a multi-node RC thermal network built from a
//!    platform's [`ThermalSpec`](mpt_soc::ThermalSpec). The simulator
//!    injects per-node power (dynamic + leakage + static) every tick and
//!    the network integrates the heat equation. This is what produces the
//!    "measured" temperatures in all experiments.
//!
//! 2. [`LumpedModel`] — the paper's analytical core (Section IV-A,
//!    following Bhat et al., TECS 2017). A lumped model
//!    `τ·dT/dt = T_a − T + R·(P_dyn + α·V·T²·e^(−β/T))`
//!    is transformed through the **auxiliary temperature** `θ = β/T`
//!    (inversely proportional to the temperature in Kelvin, exactly as the
//!    paper describes) into `τ·dθ/dt = F(θ)` with
//!
//!    ```text
//!    F(θ) = θ − c·θ² − d·e^(−θ),   c = (T_a + R·P_dyn)/β,   d = R·α·V·β
//!    ```
//!
//!    `F` is strictly concave (`F'' = −2c − d·e^(−θ) < 0`), negative at
//!    both ends, so it has zero, one or two roots — the geometry of the
//!    paper's Figure 7. The **larger root** (lower temperature) is the
//!    attracting stable fixed point; the roots merge at the **critical
//!    power**, beyond which the system has no fixed point and runs away.
//!
//! [`RcNetwork`] integrates with [`ExactLti`], which discretizes the
//! network once per `(dynamics, dt)` as `T[k+1] = Ad·T[k] + Bd·P[k]` with
//! `Ad = exp(A·dt)` and advances each tick with one cached mat-vec.
//! Discretizations are shared through a [`TransitionCache`] so campaign
//! sweeps factor each network exactly once. Forward Euler survives only
//! as a test oracle the exact solver is checked against.
//!
//! The same discretization also steps whole device *fleets*: a
//! [`FleetState`] holds node-major per-device temperature/power planes,
//! and one strip kernel advances them two devices at a time against
//! the shared `(Ad, Bd)`, each strip's state held in registers — each
//! device bit-identical to its own scalar run, with per-device spread
//! (ambient, leakage, workload phase) entering only on the input side.
//! [`ExactLti::replay`] runs it across a power trace, observing trips
//! as it goes; [`ThermalSolver::step_batch`] is its one-tick case.
//!
//! The [`reduce`](RcNetwork::reduce) method connects the layers: it
//! collapses the network to the lumped parameters seen from the hottest
//! node under the current power distribution, which is how the
//! application-aware governor in `mpt-core` derives its predictions from
//! live sensor data.
//!
//! # Examples
//!
//! ```
//! use mpt_thermal::{LumpedModel, Stability};
//! use mpt_units::Watts;
//!
//! let model = LumpedModel::odroid_xu3();
//! // The paper's Figure 7: two fixed points at 2 W...
//! assert!(matches!(model.stability(Watts::new(2.0)), Stability::Stable { .. }));
//! // ...and thermal runaway at 8 W.
//! assert!(matches!(model.stability(Watts::new(8.0)), Stability::Runaway));
//! ```

mod error;
mod fleet;
pub mod linalg;
mod lumped;
mod network;
mod solver;
mod strip;

pub use error::ThermalError;
pub use fleet::{FleetState, TraceFeed, TripWatch};
pub use lumped::{FixedPoints, LumpedModel, Stability};
pub use network::RcNetwork;
pub use solver::{
    Discretization, ExactLti, IntervalInput, StepStats, ThermalSolver, TransitionCache,
};

/// Result alias for thermal operations.
pub type Result<T> = std::result::Result<T, ThermalError>;
