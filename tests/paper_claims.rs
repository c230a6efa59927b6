//! End-to-end assertions of the paper's headline claims, spanning every
//! crate in the workspace. Durations are moderately scaled so the suite
//! stays fast in debug builds; the full-length regenerations live in the
//! `repro` binary (`repro <artifact>|all`).

use mobile_thermal::core::experiments::{
    fig7_curves, nexus_run, threedmark_run, NexusApp, OdroidScenario,
};
use mobile_thermal::thermal::Stability;
use mobile_thermal::units::Seconds;

/// Section III: "thermal throttling degrades the performance by as much
/// as 34% while running popular Android applications" — and it does so
/// while successfully controlling the temperature.
#[test]
fn throttling_trades_fps_for_temperature() {
    let free = nexus_run(NexusApp::PaperIo, false, 42, Seconds::new(80.0)).expect("run");
    let throttled = nexus_run(NexusApp::PaperIo, true, 42, Seconds::new(80.0)).expect("run");
    // Temperature controlled...
    assert!(
        throttled.package_temp.max().unwrap() < free.package_temp.max().unwrap(),
        "the governor must lower the peak temperature"
    );
    // ...at a double-digit FPS cost for a popular game.
    let drop = (free.median_fps - throttled.median_fps) / free.median_fps * 100.0;
    assert!(drop > 15.0, "Paper.io dropped only {drop:.1}% (paper: 34%)");
}

/// Section III: the gaming apps are GPU-bound; the shopping app is
/// CPU-bound. Throttling therefore shows up in different residency
/// histograms (Figs. 2/4 vs Fig. 6).
#[test]
fn throttling_shows_up_in_the_right_residency_histogram() {
    let game = nexus_run(NexusApp::PaperIo, true, 42, Seconds::new(80.0)).expect("run");
    let shop = nexus_run(NexusApp::Amazon, true, 42, Seconds::new(80.0)).expect("run");
    // The throttled game spends most GPU time at or below 450 MHz.
    let game_low: f64 = game
        .gpu_residency
        .percentages()
        .iter()
        .filter(|(f, _)| f.as_mhz() <= 450)
        .map(|(_, p)| p)
        .sum();
    assert!(
        game_low > 50.0,
        "throttled game low-GPU share {game_low:.0}%"
    );
    // The shopping app keeps its GPU cold regardless; its big cluster
    // carries the load.
    let shop_low_gpu: f64 = shop
        .gpu_residency
        .percentages()
        .iter()
        .filter(|(f, _)| f.as_mhz() <= 305)
        .map(|(_, p)| p)
        .sum();
    assert!(
        shop_low_gpu > 70.0,
        "shopping app GPU share {shop_low_gpu:.0}%"
    );
}

/// Section IV-A / Figure 7: the number of fixed points classifies
/// stability, and the classification changes with power exactly as the
/// paper's three panels show.
#[test]
fn fixed_point_panels_match_the_paper() {
    let curves = fig7_curves();
    assert_eq!(curves.len(), 3);
    assert!(
        matches!(curves[0].stability, Stability::Stable(_)),
        "panel (a)"
    );
    assert!(
        (curves[1].power.value() - 5.5).abs() < 0.01,
        "panel (b) is at the 5.5 W critical power"
    );
    assert!(
        matches!(curves[2].stability, Stability::Runaway),
        "panel (c)"
    );
    // The stable fixed point is the larger root in auxiliary temperature
    // (the paper: "the larger root attracts the temperature trajectories").
    if let Stability::Stable(fp) = curves[0].stability {
        assert!(fp.stable_aux > fp.unstable_aux);
        assert!(
            fp.stable < fp.unstable,
            "larger aux root = lower temperature"
        );
    }
}

/// Section IV-C / Figure 8 + Table II: the background app raises power
/// and temperature; the stock policy throttles the whole system (the
/// foreground benchmark suffers); the proposed governor migrates only
/// the background app (the foreground benchmark is unaffected).
#[test]
fn proposed_governor_protects_the_foreground_app() {
    let alone = threedmark_run(OdroidScenario::Alone).expect("run");
    let with_bml = threedmark_run(OdroidScenario::WithBml).expect("run");
    let proposed = threedmark_run(OdroidScenario::WithBmlProposed).expect("run");

    // BML raises total power (paper: 3.65 W) and the peak temperature.
    assert!(with_bml.total_power > alone.total_power);
    assert!(with_bml.max_temp.max().unwrap() > alone.max_temp.max().unwrap());

    // The stock policy costs the foreground benchmark real FPS...
    let gt1_alone = alone.gt1.expect("gt1");
    let gt1_default = with_bml.gt1.expect("gt1");
    assert!(
        gt1_default < gt1_alone - 3.0,
        "default policy: GT1 {gt1_alone:.0} -> {gt1_default:.0} (paper: 97 -> 86)"
    );

    // ...while the proposed governor recovers almost all of it.
    let gt1_proposed = proposed.gt1.expect("gt1");
    assert!(
        gt1_proposed > gt1_default + 3.0,
        "proposed: GT1 {gt1_proposed:.0} should beat default {gt1_default:.0} (paper: 93 vs 86)"
    );
    assert!(
        proposed.migrations >= 1,
        "the background app must be migrated"
    );

    // And it still controls the temperature relative to the unmanaged
    // heating trend (peak at or below the default policy's peak + small
    // control slack).
    assert!(
        proposed.max_temp.max().unwrap() <= with_bml.max_temp.max().unwrap() + 1.0,
        "proposed peak {:.1} vs default {:.1}",
        proposed.max_temp.max().unwrap(),
        with_bml.max_temp.max().unwrap()
    );
}

/// Figure 9: the power-distribution shifts — BML inflates the big
/// cluster's share; migration moves that share to the little cluster.
#[test]
fn power_distribution_shifts_match_figure9() {
    let alone = threedmark_run(OdroidScenario::Alone).expect("run");
    let with_bml = threedmark_run(OdroidScenario::WithBml).expect("run");
    let proposed = threedmark_run(OdroidScenario::WithBmlProposed).expect("run");
    let share = |run: &mobile_thermal::core::experiments::OdroidRun, key: &str| {
        let total: f64 = run.shares.iter().map(|(_, v)| v).sum();
        run.shares.iter().find(|(k, _)| *k == key).expect("rail").1 / total * 100.0
    };
    // (a) -> (b): big share jumps (paper 38% -> 60%).
    assert!(share(&with_bml, "big") > share(&alone, "big") + 8.0);
    // (b) -> (c): big share falls back, little share rises (paper:
    // 60% -> 42% and 7% -> 16%).
    assert!(share(&proposed, "big") < share(&with_bml, "big") - 8.0);
    assert!(share(&proposed, "little") > share(&with_bml, "little") + 4.0);
    // GPU dominates the alone run (paper Fig. 9a).
    assert!(share(&alone, "gpu") > share(&alone, "big"));
}

/// The introduction's motivation: "Power dissipation increases not only
/// the junction temperature on the chip but also the skin temperature of
/// the platforms, which directly impacts the user satisfaction." The
/// stock governor's throttling keeps the skin in the comfortable band.
#[test]
fn throttling_protects_the_skin_temperature() {
    let free = nexus_run(NexusApp::PaperIo, false, 42, Seconds::new(140.0)).expect("run");
    let throttled = nexus_run(NexusApp::PaperIo, true, 42, Seconds::new(140.0)).expect("run");
    let skin_free = free.skin_temp.max().expect("recorded");
    let skin_throttled = throttled.skin_temp.max().expect("recorded");
    // Unthrottled gaming drives the skin into the uncomfortable zone...
    assert!(skin_free > 42.0, "unthrottled skin peaked at {skin_free}");
    // ...while the governor keeps it several degrees cooler.
    assert!(
        skin_throttled < skin_free - 2.0,
        "throttled skin {skin_throttled} vs free {skin_free}"
    );
    // The skin always lags the package (it is the outside of the case).
    let pkg_free = free.package_temp.max().expect("recorded");
    assert!(skin_free <= pkg_free + 0.1);
}
