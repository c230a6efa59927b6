#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Benchmark harness: regenerates every table and figure of the paper.
//!
//! Two kinds of targets live in this crate:
//!
//! - **The `repro` binary** (`src/bin/repro.rs`) — prints the same
//!   rows/series the paper reports, one artifact per call (`repro table1`,
//!   `repro fig7`, …) or all of them with `repro all`:
//!
//!   ```sh
//!   cargo run --release -p mpt-bench --bin repro -- all
//!   ```
//!
//! - **Criterion benches** (`benches/`) — measure the computational cost
//!   of the reproduction's building blocks (stability analysis, thermal
//!   stepping, scheduling, full simulator ticks) and scaled-down versions
//!   of each experiment:
//!
//!   ```sh
//!   cargo bench -p mpt-bench
//!   ```
//!
//! The library part holds the shared formatting helpers and the embedded
//! observability HTTP server ([`obs_serve`]) that `run_scenario
//! --serve-obs` mounts next to a running campaign.

use mpt_core::experiments::{Table1Row, Table2};

pub mod obs_serve;

/// Formats Table I exactly as the paper lays it out (median frame rate
/// with/without throttling and the percentage reduction).
#[must_use]
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("TABLE I: Median frame rate achieved while running popular Android apps\n");
    out.push_str(&format!(
        "{:<16} {:>18} {:>16} {:>22}\n",
        "App", "Without Throttling", "With Throttling", "Percentage Reduction"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<16} {:>14} FPS {:>12} FPS {:>21}%\n",
            row.app.name(),
            format!("{:.0}", row.fps_without),
            format!("{:.0}", row.fps_with),
            format!("{:.0}", row.reduction_percent()),
        ));
    }
    out
}

/// Formats Table II exactly as the paper lays it out.
#[must_use]
pub fn format_table2(t: &Table2) -> String {
    let mut out = String::new();
    out.push_str("TABLE II: Comparison of application performance with the proposed control\n");
    out.push_str(&format!(
        "{:<14} {:>12} {:>12} {:>28}\n",
        "Test", "App. Alone", "App. + BML", "App. + BML with Proposed"
    ));
    out.push_str(&format!(
        "{:<14} {:>8} FPS {:>8} FPS {:>24} FPS\n",
        "3DMark GT1",
        format!("{:.0}", t.gt1[0]),
        format!("{:.0}", t.gt1[1]),
        format!("{:.0}", t.gt1[2])
    ));
    out.push_str(&format!(
        "{:<14} {:>8} FPS {:>8} FPS {:>24} FPS\n",
        "3DMark GT2",
        format!("{:.0}", t.gt2[0]),
        format!("{:.0}", t.gt2[1]),
        format!("{:.0}", t.gt2[2])
    ));
    out.push_str(&format!(
        "{:<14} {:>6} levels {:>6} levels {:>22} levels\n",
        "Nenamark3",
        format!("{:.1}", t.nenamark[0]),
        format!("{:.1}", t.nenamark[1]),
        format!("{:.1}", t.nenamark[2])
    ));
    out
}

/// Formats a residency map as "MHz: percent" rows sorted by frequency.
#[must_use]
pub fn format_residency(title: &str, r: &mpt_daq::Residency) -> String {
    let mut out = format!("{title}\n");
    let labels: std::collections::BTreeMap<String, f64> = r
        .percentages()
        .into_iter()
        .map(|(f, p)| (format!("{:>4} MHz", f.as_mhz()), p))
        .collect();
    out.push_str(&mpt_daq::chart::bar_chart(&labels, 40));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpt_core::experiments::NexusApp;

    #[test]
    fn table1_formatting_includes_all_apps() {
        let rows = vec![Table1Row {
            app: NexusApp::PaperIo,
            fps_without: 35.0,
            fps_with: 23.0,
        }];
        let s = format_table1(&rows);
        assert!(s.contains("Paper.io"));
        assert!(s.contains("34%"));
    }

    #[test]
    fn table2_formatting_has_three_rows() {
        let t = Table2 {
            gt1: [97.0, 86.0, 93.0],
            gt2: [51.0, 49.0, 51.0],
            nenamark: [3.5, 3.4, 3.5],
        };
        let s = format_table2(&t);
        assert!(s.contains("3DMark GT1"));
        assert!(s.contains("Nenamark3"));
        assert!(s.contains("3.4 levels"));
    }

    #[test]
    fn residency_formatting_renders_bars() {
        let mut r = mpt_daq::Residency::new();
        r.record(
            mpt_units::Hertz::from_mhz(390),
            mpt_units::Seconds::new(1.0),
        );
        let s = format_residency("t", &r);
        assert!(s.contains("390 MHz"));
        assert!(s.contains('#'));
    }
}
