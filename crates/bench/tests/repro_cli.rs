//! End-to-end checks of the `repro` binary's command line: one artifact
//! per call, and a usage error for anything else.

use std::process::Command;

/// Runs the binary and returns `(exit code, stdout, stderr)`.
fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn fig7_prints_the_three_fixed_point_curves() {
    // Fig. 7 is closed-form, so this stays fast in debug builds.
    let (code, stdout, stderr) = run(&["fig7"]);
    assert_eq!(code, 0, "repro fig7 failed:\n{stderr}");
    assert!(
        stdout.starts_with("Fig. 7: "),
        "no Fig. 7 header:\n{stdout}"
    );
    assert_eq!(stdout.matches("Total Power =").count(), 3, "{stdout}");
}

#[test]
fn anything_but_one_known_artifact_is_a_usage_error() {
    for args in [&[][..], &["fig10"], &["fig7", "fig8"], &["--help"]] {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, 2, "{args:?} should be a usage error:\n{stderr}");
        assert!(stdout.is_empty(), "{args:?} printed to stdout:\n{stdout}");
        let words: Vec<&str> = stderr.split(|c: char| !c.is_alphanumeric()).collect();
        for name in
            "fig1 fig2 fig3 fig4 fig5 fig6 table1 fig7 fig8 fig9 table2 ablations advisor all"
                .split(' ')
        {
            assert!(
                words.contains(&name),
                "usage should name `{name}`:\n{stderr}"
            );
        }
        if let [unknown] = args {
            assert!(
                stderr.contains(unknown),
                "should name `{unknown}`:\n{stderr}"
            );
        }
    }
}
