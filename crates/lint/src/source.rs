//! Source analysis: the determinism scan (MPT2xx).
//!
//! The simulator's core value proposition is bit-exact reproducibility:
//! same spec, same seed, same trace. The cheapest way to lose that is a
//! stray `Instant::now()` or an iteration over a `HashMap`. This pass
//! walks the `src/` trees of the deterministic crates and flags calls to
//! nondeterministic APIs outside the allowlist file
//! (`crates/lint/determinism.allow`), which names the one sanctioned
//! wall-clock site: `mpt_obs::clock`.
//!
//! The scan is textual by design — no syntax tree, no type resolution —
//! so it is fast, dependency-free and predictable. Comment-only lines
//! are skipped and scanning stops at the first `#[cfg(test)]` marker
//! (tests may time and hash freely).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::diag::{Code, Diagnostic, Report};

/// Crates whose `src/` trees must stay deterministic: the simulator and
/// everything whose output feeds the jobs-1-vs-N contract (the kernel
/// model, the workloads, the telemetry store). `mpt-obs` is included: it
/// *measures* wall time, but only through its own `clock` module, which
/// the allowlist sanctions.
pub(crate) const SCANNED_CRATES: [&str; 8] = [
    "crates/core",
    "crates/daq",
    "crates/kernel",
    "crates/obs",
    "crates/sim",
    "crates/soc",
    "crates/thermal",
    "crates/workloads",
];

/// The patterns the scan flags, as `(needle, code)`.
pub(crate) const PATTERNS: [(&str, Code); 7] = [
    ("Instant::now", Code::WallClockRead),
    (".elapsed()", Code::WallClockRead),
    ("SystemTime", Code::WallClockRead),
    ("thread_rng", Code::NondeterministicRng),
    ("rand::random", Code::NondeterministicRng),
    ("HashMap", Code::UnorderedContainer),
    ("HashSet", Code::UnorderedContainer),
];

/// Parsed form of `determinism.allow`: lines of
/// `<workspace-relative-path> <pattern>`, `#` comments ignored. An entry
/// permits one pattern in one file.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<(String, String)>,
}

impl Allowlist {
    /// Parses allowlist text.
    #[must_use]
    pub(crate) fn parse(text: &str) -> Self {
        let entries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let (path, pattern) = l.split_once(char::is_whitespace)?;
                Some((path.to_owned(), pattern.trim().to_owned()))
            })
            .collect();
        Self { entries }
    }

    /// Loads and parses an allowlist file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying read error.
    pub fn load(path: &Path) -> io::Result<Self> {
        Ok(Self::parse(&fs::read_to_string(path)?))
    }

    /// Whether `pattern` is sanctioned in the file at `rel_path`
    /// (workspace-relative, `/`-separated).
    #[must_use]
    pub(crate) fn permits(&self, rel_path: &str, pattern: &str) -> bool {
        self.entries
            .iter()
            .any(|(p, pat)| p == rel_path && pat == pattern)
    }
}

/// Scans one file's content. `rel_path` is the workspace-relative path
/// used both for reporting and for allowlist matching.
#[must_use]
pub(crate) fn scan_file_content(
    rel_path: &str,
    content: &str,
    allowlist: &Allowlist,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (lineno, line) in content.lines().enumerate() {
        let trimmed = line.trim_start();
        if trimmed == "#[cfg(test)]" {
            break; // unit tests may time and hash freely
        }
        if trimmed.starts_with("//") {
            continue;
        }
        // Strip trailing line comments so prose about, say, HashMap in a
        // doc sentence on a code line does not fire.
        let code_part = line.split("//").next().unwrap_or(line);
        for (needle, code) in PATTERNS {
            if code_part.contains(needle) && !allowlist.permits(rel_path, needle) {
                out.push(
                    Diagnostic::new(
                        code,
                        rel_path,
                        format!("nondeterministic API `{needle}` outside the allowlist"),
                    )
                    .with_line(lineno + 1),
                );
            }
        }
    }
    out
}

/// Recursively collects `.rs` files under `dir`, sorted for a
/// deterministic report order.
fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<_> = fs::read_dir(&d)?.collect::<io::Result<_>>()?;
        entries.sort_by_key(std::fs::DirEntry::path);
        for entry in entries {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Scans every `src/` tree in `SCANNED_CRATES` under `root`.
///
/// # Errors
///
/// I/O errors reading the trees.
pub fn scan_workspace(root: &Path, allowlist: &Allowlist) -> io::Result<Report> {
    let mut r = Report::default();
    for krate in SCANNED_CRATES {
        let src = root.join(krate).join("src");
        for file in rust_files(&src)? {
            r.checks_run += 1;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let content = fs::read_to_string(&file)?;
            r.diagnostics
                .extend(scan_file_content(&rel, &content, allowlist));
        }
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_each_pattern_with_line_numbers() {
        let src = "use std::time::Instant;\n\
                   let t = Instant::now();\n\
                   let d = t.elapsed();\n\
                   let mut m = HashMap::new();\n";
        let diags = scan_file_content("crates/sim/src/x.rs", src, &Allowlist::default());
        let found: Vec<(Code, usize)> = diags.iter().map(|d| (d.code, d.line.unwrap())).collect();
        assert_eq!(
            found,
            vec![
                (Code::WallClockRead, 2),
                (Code::WallClockRead, 3),
                (Code::UnorderedContainer, 4),
            ]
        );
    }

    #[test]
    fn comments_and_test_modules_are_exempt() {
        let src = "// Instant::now() in prose\n\
                   let x = 1; // explain HashMap here\n\
                   #[cfg(test)]\n\
                   mod tests { fn t() { Instant::now(); } }\n";
        let diags = scan_file_content("crates/sim/src/x.rs", src, &Allowlist::default());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn allowlist_permits_exact_file_pattern_pairs() {
        let allow = Allowlist::parse(
            "# the clock authority\n\
             crates/obs/src/clock.rs Instant::now\n",
        );
        assert_eq!(allow.entries.len(), 1);
        let sanctioned = scan_file_content("crates/obs/src/clock.rs", "Instant::now()", &allow);
        assert!(sanctioned.is_empty());
        let elsewhere = scan_file_content("crates/sim/src/x.rs", "Instant::now()", &allow);
        assert_eq!(elsewhere.len(), 1);
        let other_pattern = scan_file_content("crates/obs/src/clock.rs", "HashSet::new()", &allow);
        assert_eq!(other_pattern.len(), 1);
    }
}
