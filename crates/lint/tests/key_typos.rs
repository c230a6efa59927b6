//! Key-typo mutation over every shipped config file: each object key, at
//! every depth, is misspelled in turn, and the lint must refuse every
//! mutant with an error (never a panic) while the file as shipped stays
//! clean. A key the spec types silently dropped would let a typo change
//! what runs without a word.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use mpt_lint::{check_text, classify, FileKind};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

/// The shipped scenario, campaign and alert files: `scenarios/*.json`
/// and `scenarios/alerts/*.json` (the `invalid/` fixtures are broken on
/// purpose).
fn shipped_files() -> Vec<PathBuf> {
    let scenarios = workspace_root().join("scenarios");
    let mut files: Vec<PathBuf> = [scenarios.clone(), scenarios.join("alerts")]
        .iter()
        .flat_map(|dir| std::fs::read_dir(dir).expect("scenario dir lists"))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    files
}

/// Byte ranges of every object key in `json`, at any depth: each string
/// literal followed (after whitespace) by a colon.
fn key_spans(json: &str) -> Vec<(usize, usize)> {
    let bytes = json.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'"' {
            i += 1;
            continue;
        }
        let start = i + 1;
        let mut end = start;
        while bytes[end] != b'"' {
            end += if bytes[end] == b'\\' { 2 } else { 1 };
        }
        let next = json[end + 1..].trim_start().as_bytes().first();
        if next == Some(&b':') {
            spans.push((start, end));
        }
        i = end + 1;
    }
    spans
}

#[test]
fn every_misspelled_key_in_every_shipped_file_is_refused() {
    let files = shipped_files();
    assert!(
        files.iter().any(|p| classify(p) == FileKind::Alerts),
        "the alerts/ files must be covered"
    );
    let mut mutants = 0;
    for path in &files {
        let json = std::fs::read_to_string(path).expect("shipped file reads");
        let clean = check_text(path, &json);
        assert_eq!(
            clean.errors(),
            0,
            "{} must lint clean as shipped:\n{}",
            path.display(),
            clean.render_text()
        );
        for (start, end) in key_spans(&json) {
            let key = &json[start..end];
            if key.starts_with('_') {
                continue;
            }
            // Drop the key's last letter.
            let mutant = format!("{}{}", &json[..end - 1], &json[end..]);
            let report = catch_unwind(AssertUnwindSafe(|| check_text(path, &mutant)))
                .unwrap_or_else(|_| panic!("{}: lint panicked on `{key}` typo", path.display()));
            assert!(
                report.errors() > 0,
                "{}: misspelling `{key}` (at byte {start}) must be refused:\n{}",
                path.display(),
                report.render_text()
            );
            mutants += 1;
        }
    }
    assert!(mutants > 100, "only {mutants} keys mutated");
}
