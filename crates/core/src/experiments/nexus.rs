//! The Nexus 6P case study (paper Section III): Figures 1–6 and Table I.

use mpt_daq::{Residency, TimeSeries};
use mpt_kernel::{GovernorKind, ProcessClass, StepWiseGovernor, TripPoint};
use mpt_sim::{Result, SimBuilder};
use mpt_soc::{platforms, ComponentId};
use mpt_units::{Celsius, Fps, Seconds};
use mpt_workloads::apps::{self, AppModel};

/// The five apps of the paper's study, in Table I order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NexusApp {
    /// Paper.io (game, GPU-heavy).
    PaperIo,
    /// Stickman Hook (game).
    StickmanHook,
    /// Amazon (shopping, CPU-heavy).
    Amazon,
    /// Google Hangouts (video conferencing).
    GoogleHangouts,
    /// Facebook (social, mixed).
    Facebook,
}

impl NexusApp {
    /// All five apps in Table I order.
    pub const ALL: [NexusApp; 5] = [
        NexusApp::PaperIo,
        NexusApp::StickmanHook,
        NexusApp::Amazon,
        NexusApp::GoogleHangouts,
        NexusApp::Facebook,
    ];

    /// The app's display name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            NexusApp::PaperIo => "Paper.io",
            NexusApp::StickmanHook => "Stickman Hook",
            NexusApp::Amazon => "Amazon",
            NexusApp::GoogleHangouts => "Google Hangouts",
            NexusApp::Facebook => "Facebook",
        }
    }

    /// Builds the app's workload model.
    #[must_use]
    pub fn make(self, seed: u64) -> AppModel {
        match self {
            NexusApp::PaperIo => apps::paper_io(seed),
            NexusApp::StickmanHook => apps::stickman_hook(seed),
            NexusApp::Amazon => apps::amazon(seed),
            NexusApp::GoogleHangouts => apps::google_hangouts(seed),
            NexusApp::Facebook => apps::facebook(seed),
        }
    }
}

/// The measurement products of one Nexus 6P app run.
#[derive(Debug, Clone)]
pub struct NexusRun {
    /// Which app.
    pub app: NexusApp,
    /// Whether the stock thermal governor was enabled.
    pub throttled: bool,
    /// The package-sensor temperature trace (Figures 1/3/5).
    pub package_temp: TimeSeries,
    /// The device-skin temperature trace (the user-experience quantity
    /// the paper's introduction motivates).
    pub skin_temp: TimeSeries,
    /// GPU frequency residency (Figures 2/4).
    pub gpu_residency: Residency,
    /// Big-cluster frequency residency (Figure 6).
    pub big_residency: Residency,
    /// Median frame rate (Table I).
    pub median_fps: f64,
}

/// The stock Nexus 6P thermal policy model: step-wise trip points on the
/// package sensor, polled at 1 s, with vendor-style cooling-device ranges
/// (the GPU may fall to 390 MHz, the big cluster to 1440 MHz).
fn stock_thermal(soc: &mpt_soc::Platform) -> Box<StepWiseGovernor> {
    Box::new(StepWiseGovernor::with_state_limits(
        vec![
            TripPoint::new(Celsius::new(40.5), Celsius::new(1.5)),
            TripPoint::new(Celsius::new(43.5), Celsius::new(1.5)),
        ],
        vec![
            (
                soc.component(ComponentId::Gpu)
                    .expect("snapdragon has a gpu")
                    .clone(),
                3,
            ),
            (
                soc.component(ComponentId::BigCluster)
                    .expect("snapdragon has a big cluster")
                    .clone(),
                5,
            ),
        ],
    ))
}

/// Runs one app on the simulated Nexus 6P for `duration`, with the stock
/// thermal governor enabled (`throttled`) or disabled — the paper's two
/// controlled conditions. The phone starts pre-warmed at 35 °C, matching
/// the starting points of Figures 1/3/5.
///
/// # Errors
///
/// Propagates simulator construction/stepping errors.
pub fn nexus_run(app: NexusApp, throttled: bool, seed: u64, duration: Seconds) -> Result<NexusRun> {
    let soc = platforms::snapdragon_810();
    let mut builder = SimBuilder::new(soc.clone())
        .attach(
            Box::new(app.make(seed)),
            ProcessClass::Foreground,
            ComponentId::BigCluster,
        )
        .governor(ComponentId::Gpu, GovernorKind::Ondemand)
        .initial_temperature(Celsius::new(35.0))
        .control_sensor("package");
    if throttled {
        builder = builder
            .thermal_governor(stock_thermal(&soc))
            .thermal_period(Seconds::new(1.0));
    }
    let mut sim = builder.build()?;
    sim.run_for(duration)?;
    let pid = sim.pid_of(app.name()).expect("app attached under its name");
    let mut gpu_residency = sim
        .telemetry()
        .residency(ComponentId::Gpu)
        .cloned()
        .unwrap_or_default();
    gpu_residency.ensure_states(
        soc.component(ComponentId::Gpu)
            .expect("gpu exists")
            .opps()
            .frequencies(),
    );
    let mut big_residency = sim
        .telemetry()
        .residency(ComponentId::BigCluster)
        .cloned()
        .unwrap_or_default();
    big_residency.ensure_states(
        soc.component(ComponentId::BigCluster)
            .expect("big cluster exists")
            .opps()
            .frequencies(),
    );
    Ok(NexusRun {
        app,
        throttled,
        package_temp: sim
            .telemetry()
            .temperature("package")
            .unwrap_or_else(|| TimeSeries::new("temp_package_c")),
        skin_temp: sim
            .telemetry()
            .temperature("skin")
            .unwrap_or_else(|| TimeSeries::new("temp_skin_c")),
        gpu_residency,
        big_residency,
        median_fps: sim.median_fps(pid).unwrap_or(0.0),
    })
}

/// One row of the paper's Table I.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// The app.
    pub app: NexusApp,
    /// Median FPS with the thermal governor disabled.
    pub fps_without: f64,
    /// Median FPS with the stock thermal governor.
    pub fps_with: f64,
}

impl Table1Row {
    /// The "Percentage Reduction" column.
    #[must_use]
    pub fn reduction_percent(&self) -> f64 {
        Fps::new(self.fps_without).reduction_percent(Fps::new(self.fps_with))
    }
}

/// Regenerates the paper's Table I: each app run for 140 s (the span of
/// Figures 1–5) with and without the stock thermal governor.
///
/// The ten (app × throttled) runs execute on one worker per CPU through
/// the campaign layer's [`run_parallel`](crate::campaign::run_parallel);
/// each cell's seed is fixed up front, so the rows do not depend on the
/// worker count.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn table1(seed: u64) -> Result<Vec<Table1Row>> {
    let duration = Seconds::new(140.0);
    let grid: Vec<(NexusApp, bool)> = NexusApp::ALL
        .iter()
        .flat_map(|&app| [(app, false), (app, true)])
        .collect();
    let runs = crate::campaign::run_parallel(grid.len(), 0, |i| {
        let (app, throttled) = grid[i];
        nexus_run(app, throttled, seed, duration)
    });
    let mut fps = Vec::with_capacity(grid.len());
    for run in runs {
        fps.push(run?.median_fps);
    }
    Ok(NexusApp::ALL
        .iter()
        .zip(fps.chunks_exact(2))
        .map(|(&app, pair)| Table1Row {
            app,
            fps_without: pair[0],
            fps_with: pair[1],
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_io_temperatures_match_figure1_shape() {
        let without = nexus_run(NexusApp::PaperIo, false, 42, Seconds::new(140.0)).unwrap();
        let with = nexus_run(NexusApp::PaperIo, true, 42, Seconds::new(140.0)).unwrap();
        // Unthrottled reaches the upper 40s (paper: ~50 C at the end).
        let peak_without = without.package_temp.max().unwrap();
        assert!(
            (45.0..55.0).contains(&peak_without),
            "unthrottled peak {peak_without}"
        );
        // Throttled stays several degrees cooler.
        let peak_with = with.package_temp.max().unwrap();
        assert!(
            peak_with < peak_without - 2.0,
            "throttled {peak_with} vs free {peak_without}"
        );
    }

    #[test]
    fn paper_io_fps_matches_table1_band() {
        let without = nexus_run(NexusApp::PaperIo, false, 42, Seconds::new(140.0)).unwrap();
        let with = nexus_run(NexusApp::PaperIo, true, 42, Seconds::new(140.0)).unwrap();
        assert!(
            (31.0..40.0).contains(&without.median_fps),
            "paper: 35 FPS unthrottled, got {}",
            without.median_fps
        );
        assert!(
            (19.0..31.0).contains(&with.median_fps),
            "paper: 23 FPS throttled, got {}",
            with.median_fps
        );
    }

    #[test]
    fn throttling_shifts_gpu_residency_downward() {
        // The paper's Figure 2: the 510/600 MHz share collapses and the
        // 390 MHz share grows sharply under throttling.
        let without = nexus_run(NexusApp::PaperIo, false, 42, Seconds::new(140.0)).unwrap();
        let with = nexus_run(NexusApp::PaperIo, true, 42, Seconds::new(140.0)).unwrap();
        let top_share = |r: &Residency| {
            let p = r.percentages();
            p.get(&mpt_units::Hertz::from_mhz(510))
                .copied()
                .unwrap_or(0.0)
                + p.get(&mpt_units::Hertz::from_mhz(600))
                    .copied()
                    .unwrap_or(0.0)
        };
        let free_top = top_share(&without.gpu_residency);
        let thr_top = top_share(&with.gpu_residency);
        assert!(free_top > 30.0, "unthrottled high-OPP share {free_top}%");
        assert!(
            thr_top < free_top / 2.0,
            "throttled high-OPP share {thr_top}%"
        );
    }
}
