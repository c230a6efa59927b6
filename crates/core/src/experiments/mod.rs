//! Experiment drivers regenerating every table and figure of the paper.
//!
//! | Paper artifact | Driver | Session file under `scenarios/` |
//! |---|---|---|
//! | Fig. 1/3/5 (temperature profiles, Nexus 6P) | [`nexus_run`] per app, throttled on/off | `nexus_table1.campaign.json`, one cell per run |
//! | Fig. 2/4/6 (frequency residency) | [`NexusRun::gpu_residency`] / [`NexusRun::big_residency`] | same cells |
//! | Table I (median FPS with/without throttling) | [`table1`] | `nexus_table1.campaign.json`, all ten cells |
//! | Fig. 7 (fixed-point functions at 2 / 5.5 / 8 W) | [`fig7_curves`] | none (closed-form analysis) |
//! | Fig. 8 (max temperature, Odroid scenarios) | [`threedmark_run`] per scenario | `odroid_alone.json`, `odroid_default_ipa.json`, `odroid_proposed.json` |
//! | Fig. 9 (power distribution pies) | [`OdroidRun::shares`] | same files |
//! | Table II (3DMark GT1/GT2 FPS, Nenamark levels) | [`table2`] | same files; Nenamark takes 3DMark's place |
//!
//! Every session behind these artifacts is parsed from its file and built
//! by [`build_scenario`](crate::scenario::build_scenario), the one builder
//! behind `run_scenario` and campaigns, so `mpt_lint --all --verify` lints
//! and certifies the paper's own runs like any other shipped scenario.
//!
//! Beyond the paper, [`ablations`] sweeps the design constants the paper
//! fixes (window length, governor period, migration vs capping, horizon)
//! and validates the stability analysis against the simulated ground
//! truth ([`ablations::prediction_accuracy`]).

pub mod ablations;
mod fig7;
mod nexus;
mod odroid;

pub use fig7::{fig7_curves, Fig7Curve};
pub use nexus::{nexus_run, table1, NexusApp, NexusRun, Table1Row};
pub use odroid::{table2, threedmark_run, OdroidRun, OdroidScenario, Table2};
