//! Criterion benchmarks of the columnar telemetry store: appending a
//! 60 s session into a [`mpt_daq::ColumnFrame`], exporting it as CSV,
//! and running typed queries over session and campaign-shaped frames.
//! The numbers behind `BENCH_columnar.json`.

use criterion::{criterion_group, criterion_main, Criterion};

use mpt_daq::{CampaignFrame, ColumnFrame, Query};
use mpt_sim::Telemetry;
use mpt_soc::{ComponentId, PowerBreakdown};
use mpt_units::{Celsius, Hertz, Seconds, Watts};

const SENSORS: [&str; 3] = ["big", "gpu", "board"];

fn tick_powers(t: f64) -> [Option<PowerBreakdown>; 4] {
    std::array::from_fn(|i| {
        let w = 0.5 + 0.1 * i as f64 + 0.05 * (t * 0.7).sin();
        Some(PowerBreakdown::new(Watts::new(w), Watts::ZERO, Watts::ZERO))
    })
}

/// Records a 60 s session at the default 0.1 s sampling period: 600
/// frame rows across 12 channels (time, three sensors, max, four rails,
/// total, one frequency domain, FPS), the shape `run_scenario
/// --columnar-out` exports.
fn session_60s() -> Telemetry {
    let mut telemetry = Telemetry::new(Seconds::new(0.1));
    let dt = Seconds::new(0.1);
    for i in 0..600 {
        let t = i as f64 * 0.1;
        let temps = SENSORS
            .iter()
            .enumerate()
            .map(|(s, &name)| (name, Celsius::new(40.0 + 10.0 * (t * 0.1 + s as f64).sin())));
        let mut freqs = [None; 4];
        freqs[ComponentId::BigCluster as usize] = Some(Hertz::from_mhz(1800));
        telemetry.record(Seconds::new(t), dt, temps, &freqs, &tick_powers(t), None);
    }
    telemetry
}

/// A campaign-shaped frame: 12 cells with two sweep axes, each carrying
/// a decimated copy of the 60 s session — what `--query ... by axis`
/// aggregates over.
fn campaign_cells() -> Vec<(Vec<(String, String)>, ColumnFrame)> {
    let session = session_60s();
    (0..12)
        .map(|i| {
            let axes = vec![
                ("thermal".to_owned(), format!("policy{}", i % 3)),
                ("ambient".to_owned(), format!("{}C", 30 + 5 * (i % 2))),
            ];
            (axes, session.frame().clone())
        })
        .collect()
}

fn bench_columnar(c: &mut Criterion) {
    let mut group = c.benchmark_group("columnar");
    // The export benches complete in ~0.5-1 ms; the stub criterion has no
    // warm-up, so a longer measurement window keeps the single-CPU CI
    // numbers comparable run to run.
    group.sample_size(100);

    // The full append path (residency, energy and frame rows) for 60 s.
    group.bench_function("append_60s_session", |b| b.iter(session_60s));

    let session = session_60s();
    group.bench_function("export_csv_columnar_60s", |b| b.iter(|| session.to_csv()));

    let frame = session.frame();
    let p95 = Query::parse("p95(max_temp_c)").expect("parses");
    group.bench_function("query_p95_session", |b| {
        b.iter(|| p95.run(std::hint::black_box(frame)).expect("runs"))
    });

    let cells = campaign_cells();
    let by_axis = Query::parse("mean(total_power_w) by thermal where ambient=35C").expect("parses");
    group.bench_function("query_grouped_campaign_12c", |b| {
        b.iter(|| {
            let mut campaign = CampaignFrame::new();
            for (axes, cell) in &cells {
                campaign.push_cell(axes, cell);
            }
            by_axis.run_campaign(&campaign).expect("runs")
        })
    });

    group.finish();
}

criterion_group!(benches, bench_columnar);
criterion_main!(benches);
