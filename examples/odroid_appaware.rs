//! The paper's Odroid-XU3 case study: 3DMark with a background
//! `basicmath_large` under the stock kernel policy versus the proposed
//! application-aware governor (Figures 8–9, Table II).
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example odroid_appaware
//! ```

use mobile_thermal::core::experiments::{threedmark_run, OdroidScenario};
use mobile_thermal::daq::chart;
use mobile_thermal::workloads::benchmarks::BasicMathLarge;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The background load is real computation: run one genuine MiBench
    // basicmath iteration to show what the simulated process stands for.
    let bml = BasicMathLarge::new();
    println!(
        "basicmath_large iteration checksum: {:.6} (cubic roots + usqrt + deg/rad)",
        bml.run_real_iteration(1)
    );

    println!("\nrunning the three 250 s scenarios (this takes a moment)...");
    let runs: Vec<_> = OdroidScenario::ALL
        .iter()
        .map(|&s| threedmark_run(s))
        .collect::<Result<_, _>>()?;

    println!("\nMaximum temperature (paper Figure 8):");
    let series: Vec<&mobile_thermal::daq::TimeSeries> = runs.iter().map(|r| &r.max_temp).collect();
    print!("{}", chart::line_chart(&series, 72, 16));
    println!("          (* = 3DMark, + = 3DMark+BML, o = proposed control)");

    println!("\nPower distribution (paper Figure 9):");
    for run in &runs {
        print!("{}", chart::share_table(run.scenario.label(), &run.shares));
    }

    println!("Application performance (paper Table II):");
    println!(
        "{:<14} {:>12} {:>12} {:>24}",
        "Test", "App. Alone", "App. + BML", "App.+BML w/ Proposed"
    );
    let fps = |v: Option<f64>| v.map_or_else(|| "-".to_owned(), |f| format!("{f:.0} FPS"));
    println!(
        "{:<14} {:>12} {:>12} {:>24}",
        "3DMark GT1",
        fps(runs[0].gt1),
        fps(runs[1].gt1),
        fps(runs[2].gt1)
    );
    println!(
        "{:<14} {:>12} {:>12} {:>24}",
        "3DMark GT2",
        fps(runs[0].gt2),
        fps(runs[1].gt2),
        fps(runs[2].gt2)
    );
    println!(
        "\nproposed governor migrations: {} (first at {}; the background app moved to the\nlittle cluster; the foreground benchmark was never touched)",
        runs[2].migrations,
        runs[2]
            .first_migration
            .map_or_else(|| "-".to_owned(), |t| format!("{:.1} s", t.value()))
    );
    Ok(())
}
