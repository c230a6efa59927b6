//! The Nexus 6P case study (paper Section III): Figures 1–6 and Table I.
//!
//! The sessions are the ten cells of
//! `scenarios/nexus_table1.campaign.json`, built by
//! [`build_scenario`](crate::scenario::build_scenario).

use mpt_daq::{Residency, TimeSeries};
use mpt_sim::Result;
use mpt_soc::ComponentId;
use mpt_units::{Fps, Seconds};
use mpt_workloads::apps::{self, AppModel};

use crate::scenario::{build_scenario, CampaignSpec};

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

    /// The app's name in scenario JSON (`{"kind": "app", "name": ...}`).
    #[must_use]
    const fn key(self) -> &'static str {
        match self {
            NexusApp::PaperIo => "paper_io",
            NexusApp::StickmanHook => "stickman_hook",
            NexusApp::Amazon => "amazon",
            NexusApp::GoogleHangouts => "google_hangouts",
            NexusApp::Facebook => "facebook",
        }
    }

    /// The app whose scenario JSON name is `key`, if any.
    #[must_use]
    pub(crate) fn from_key(key: &str) -> Option<NexusApp> {
        NexusApp::ALL.into_iter().find(|app| app.key() == key)
    }

    /// Builds the app's workload model.
    #[must_use]
    pub(crate) fn make(self, seed: u64) -> AppModel {
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

/// Table I's campaign, `scenarios/nexus_table1.campaign.json`: each app
/// (seed 42) runs for 140 s on the Nexus 6P, pre-warmed at 35 °C (the
/// starting point of Figures 1/3/5), with thermal management disabled or
/// under the stock step-wise governor. The stock policy trips at 40.5 and
/// 43.5 °C on the package sensor, polled at 1 s, and its cooling devices
/// stop at vendor-style floors (the GPU at 390 MHz, the big cluster at
/// 1440 MHz).
///
/// The ten cells expand thermal-major: the five apps in
/// [`NexusApp::ALL`] order unthrottled, then the same five throttled.
fn table1_campaign() -> CampaignSpec {
    serde_json::from_str(include_str!(
        "../../../../scenarios/nexus_table1.campaign.json"
    ))
    .expect("the shipped Table I campaign parses")
}

/// Runs one app on the simulated Nexus 6P for `duration`, with the stock
/// thermal governor enabled (`throttled`) or disabled — the paper's two
/// controlled conditions. The session is the matching cell of
/// [Table I's campaign](table1), with the app's seed and the run length
/// replaced by the caller's.
///
/// # Errors
///
/// Propagates simulator construction/stepping errors.
pub fn nexus_run(app: NexusApp, throttled: bool, seed: u64, duration: Seconds) -> Result<NexusRun> {
    let mut cell = table1_campaign()
        .expand()?
        .swap_remove(usize::from(throttled) * NexusApp::ALL.len() + app as usize);
    let spec = &mut cell.scenario;
    spec.duration_s = duration.value();
    spec.workloads[0].seed = seed;
    let (mut sim, _) = build_scenario(spec)?;
    sim.run_for(duration)?;
    let pid = sim.pid_of(app.name()).expect("app attached under its name");
    let residency = |id: ComponentId| {
        let mut residency = sim.telemetry().residency(id).cloned().unwrap_or_default();
        residency.ensure_states(
            sim.platform()
                .component(id)
                .expect("the Nexus 6P has a GPU and a big cluster")
                .opps()
                .frequencies(),
        );
        residency
    };
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
        gpu_residency: residency(ComponentId::Gpu),
        big_residency: residency(ComponentId::BigCluster),
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

/// Regenerates the paper's Table I: the ten cells of
/// `scenarios/nexus_table1.campaign.json` (each app for 140 s, the span
/// of Figures 1–5, with and without the stock thermal governor), run on
/// one worker per CPU by [`run_campaign`](crate::campaign::run_campaign).
/// The campaign pins every seed, so the rows do not depend on the worker
/// count.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn table1() -> Result<Vec<Table1Row>> {
    let report = crate::campaign::run_campaign(&table1_campaign(), 0)?;
    let fps: Vec<f64> = report
        .cells
        .iter()
        .map(|cell| cell.outcome.workloads[0].median_fps.unwrap_or(0.0))
        .collect();
    let (without, with) = fps.split_at(NexusApp::ALL.len());
    Ok(NexusApp::ALL
        .iter()
        .zip(without.iter().zip(with))
        .map(|(&app, (&fps_without, &fps_with))| Table1Row {
            app,
            fps_without,
            fps_with,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ThermalPolicySpec, WorkloadKind};

    #[test]
    fn table1_campaign_expands_thermal_major_in_app_order() {
        let cells = table1_campaign().expand().unwrap();
        assert_eq!(cells.len(), 10);
        for (i, cell) in cells.iter().enumerate() {
            let app = NexusApp::ALL[i % 5];
            let spec = &cell.scenario;
            assert_eq!(
                matches!(spec.thermal, ThermalPolicySpec::StepWise { .. }),
                i >= 5,
                "{}",
                cell.label
            );
            assert_eq!(spec.workloads.len(), 1, "{}", cell.label);
            assert_eq!(
                spec.workloads[0].kind,
                WorkloadKind::App {
                    name: app.key().into()
                }
            );
            assert_eq!(spec.workloads[0].seed, 42, "{}", cell.label);
            assert_eq!(spec.control_sensor.as_deref(), Some("package"));
        }
    }

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
