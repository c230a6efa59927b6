#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Observability for the simulator stack (its one dependency is the
//! in-repo serde stub, for the alert rules and derived summary that
//! scenario files and session reports carry).
//!
//! The paper's entire methodology is *measurement* — on-SoC sensors plus
//! an external DAQ watching the platform while the governor acts. This
//! crate gives the reproduction the same treatment: a [`Recorder`] that
//! watches the simulator while it runs, with
//!
//! * **spans** — monotonic wall-clock intervals (per campaign cell, per
//!   lint phase), exportable as Chrome trace-event JSON that loads
//!   directly into `chrome://tracing` or [Perfetto](https://ui.perfetto.dev);
//! * **counters** — pre-registered, fixed-id event counts (throttle
//!   events, trip crossings, governor frequency changes, migrations,
//!   sysfs writes). Counting is fully deterministic: two runs of the same
//!   scenario produce bit-identical totals whatever the worker count —
//!   only span *durations* vary between runs;
//! * **histograms** — log-scale latency histograms with p50/p95/p99,
//!   registered once by name and recorded by id on the hot path; the
//!   simulator times the stages of one pipeline pass in 64 into them with
//!   [`Laps`] (one clock read per stage boundary, each lap net of one
//!   read's cost, no span record);
//! * **counter tracks** ([`CounterTrack`]) — domain series (temperature,
//!   power, frequency, FPS) in *simulation time*, which the caller builds
//!   from the run's telemetry at export and [`trace`] writes as Chrome
//!   `"ph":"C"` counter events, so the paper's Figure 1/3/5-style curves
//!   render as Perfetto tracks next to the cell spans;
//! * **derived observables + alerts** ([`DerivedTracker`],
//!   [`AlertEngine`]) — online computation
//!   of the paper's headline metrics (time-above-trip, throttle-attributed
//!   FPS loss, thermal headroom, stability-margin drift) and a
//!   declarative alert-rule engine (`temp_above`, `fps_below`,
//!   `throttle_storm`, `runaway`), all deterministic across worker
//!   counts;
//! * **exporters** — Chrome trace JSON ([`trace`]), a Prometheus-style
//!   text exposition and a JSON snapshot ([`MetricsSnapshot`]).
//!
//! Everything is allocation-light by design: counters and histograms are
//! fixed atomic slots addressed by pre-registered ids, spans push one
//! small record into one mutex-guarded buffer, and no formatting happens
//! until an exporter is invoked. The disabled path ([`Recorder::null`], the
//! "NullRecorder") reduces every operation to a branch on a `bool` and
//! reads no clock.
//!
//! # Examples
//!
//! ```
//! use mpt_obs::{Counter, Recorder};
//!
//! let rec = Recorder::new();
//! let power = rec.register_histogram("stage:power");
//! let tick = rec.register_histogram("tick");
//! let mut laps = rec.laps(true);
//! // ... the power stage ...
//! laps.lap(power);
//! laps.finish(&rec, tick);
//! {
//!     let _span = rec.span("cell", "ambient=35C");
//!     // ... a campaign cell ...
//! }
//! rec.incr(Counter::ThrottleEvents);
//! let snap = rec.snapshot();
//! assert_eq!(snap.counter("mpt_throttle_events_total"), Some(1));
//! assert_eq!(rec.histogram(power).count(), 1);
//! assert_eq!(rec.spans().len(), 1);
//! ```

pub(crate) mod analyze;
pub mod clock;
pub(crate) mod export;
pub(crate) mod hist;
pub mod journal;
pub(crate) mod metrics;
pub(crate) mod recorder;
pub mod span;
pub mod trace;

pub use analyze::{Alert, AlertEngine, AlertRule, DerivedSummary, DerivedTracker, TickSample};
pub use export::{HistSnapshot, MetricsSnapshot};
pub use hist::{HistId, Histogram};
pub use journal::{Delta, Journal, JournalEvent, JournalKind, Snapshot};
pub use metrics::Counter;
pub use recorder::{Laps, Recorder};
pub use span::{SpanGuard, SpanRecord};
pub use trace::CounterTrack;
