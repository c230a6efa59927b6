#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Measurement substrate: the post-processing side of the paper.
//!
//! The paper's Nexus 6P has no power sensors, so the authors attached a
//! National Instruments PXIe-4081 DAQ sampling the phone's power at 1 kHz;
//! the Odroid-XU3 instead exposes per-rail INA231 current sensors. Either
//! way, every number in the paper's figures and tables is a *product of
//! sampled data*: frequency-residency percentages (Figs. 2/4/6),
//! temperature traces (Figs. 1/3/5/8), power pies (Fig. 9) and median
//! frame rates (Tables I/II). In this reproduction every artifact reads
//! the simulator's exact telemetry, so there is no sensor-sampling model;
//! this crate holds the post-processing that turns telemetry into those
//! numbers:
//!
//! - [`TimeSeries`] — timestamped traces with summary statistics;
//! - [`Residency`] — time-in-state accounting (the kernel's
//!   `time_in_state` file behind the paper's residency histograms);
//! - [`stats`] — medians and percentiles for the FPS tables;
//! - [`chart`] — ASCII rendering so the bench harness can print the same
//!   series the paper plots;
//! - [`columnar`] — the column-major telemetry store ([`ColumnFrame`],
//!   [`CampaignFrame`]) that exports (CSV, JSON) and aggregate queries run
//!   over;
//! - [`query`] — the typed query layer (`p99(max_temp_c) by platform`)
//!   whose aggregates reuse the [`stats`] kernels.

pub mod chart;
pub mod columnar;
pub mod query;
mod residency;
pub mod stats;
mod trace;

pub use columnar::{CampaignFrame, ColumnFrame};
pub use query::{Query, QueryError, QueryResult};
pub use residency::Residency;
pub use trace::TimeSeries;
