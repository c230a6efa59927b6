//! End-to-end and per-layer benchmark of the mobile-thermal simulator.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_fixed --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Generates the workload's op kinds from the seed, runs them
//! round-robin in a closed loop (one process, one op in flight) for the
//! given seconds after one untimed warm-up round, checks every output,
//! and prints the metrics — end-to-end with `--trace 0`, per-layer with
//! `--trace 1` — as the last line of standard output, one JSON object.

mod alloc;
mod estimate;
mod gen;
mod ops;
mod spans;
mod traced;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use estimate::{round_robin, Estimate, KindTimes};
use gen::{OpKind, Workload};
use ops::Digest;
use spans::Tracer;
use traced::KindTrace;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perfbench --workload paper_fixed|phased_event|fleet_replay \
--seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Ops attempted and failed, with the first few failure messages.
#[derive(Default)]
struct Failures {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Failures {
    /// Counts one op; fails it on an error or a digest that differs from
    /// the kind's reference (its first successful repetition).
    fn check(
        &mut self,
        kind: &OpKind,
        reference: &mut Option<u64>,
        got: Result<u64, String>,
    ) -> bool {
        self.attempted += 1;
        let problem = match (got, *reference) {
            (Err(e), _) => Some(e),
            (Ok(d), None) => {
                *reference = Some(d);
                None
            }
            (Ok(d), Some(r)) if d == r => None,
            (Ok(d), Some(r)) => Some(format!("digest {d:016x} differs from {r:016x}")),
        };
        match problem {
            None => true,
            Some(p) => {
                self.failed += 1;
                if self.messages.len() < 5 {
                    self.messages.push(format!("{}: {p}", kind.label));
                }
                false
            }
        }
    }
}

/// The untraced loop: one untimed warm-up round whose digests become the
/// references, then timed round-robin rounds for `budget_s` seconds.
fn untraced(
    kinds: &[OpKind],
    budget_s: f64,
    fails: &mut Failures,
    refs: &mut [Option<u64>],
) -> Vec<KindTimes> {
    for (k, kind) in kinds.iter().enumerate() {
        let (_, got) = ops::run(kind);
        fails.check(kind, &mut refs[k], got);
    }
    let mut times: Vec<KindTimes> = kinds
        .iter()
        .map(|k| KindTimes {
            sim_s: k.sim_s,
            ..KindTimes::default()
        })
        .collect();
    let epoch = Instant::now();
    round_robin(
        kinds.len(),
        budget_s,
        || epoch.elapsed().as_secs_f64(),
        |k| {
            let (t, got) = ops::run(&kinds[k]);
            if fails.check(&kinds[k], &mut refs[k], got) {
                if let Some(t) = t {
                    times[k].whole.push(t.whole_s);
                    times[k].setup.push(t.setup_s);
                }
            }
        },
    );
    times
}

fn combined_digest(refs: &[Option<u64>]) -> u64 {
    let mut h = Digest::new();
    refs.iter().for_each(|r| h.u64(r.unwrap_or(0)));
    h.finish()
}

/// Peak resident set size of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

fn print_kinds(kinds: &[OpKind], times: &[KindTimes]) {
    for (i, (kind, t)) in kinds.iter().zip(times).enumerate() {
        let ms = |v: Option<f64>| v.map_or_else(|| "-".to_owned(), |v| format!("{:.3}", v * 1e3));
        println!(
            "  kind {i}: {}  R={} best {} ms  median {} ms  setup {} ms",
            kind.label,
            t.whole.len(),
            ms(estimate::best(&t.whole)),
            ms(estimate::quantile(&t.whole, 0.5)),
            ms(estimate::best(&t.setup)),
        );
    }
}

fn print_noise(e: &Estimate, kinds: usize) {
    println!(
        "host noise (not gated): {kinds} kinds x {}-{} reps; raw median {:.3} ms/op, p90 {:.3} ms/op; median/best {:.3}",
        e.reps.0,
        e.reps.1,
        e.raw_median_s * 1e3,
        e.raw_p90_s * 1e3,
        e.median_over_best
    );
}

fn result_json(correct: bool, fails: &Failures, metrics: &[(String, f64, &str)]) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            body,
            r#"{sep}"{name}": {{"value": {value:?}, "unit": "{unit}"}}"#
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{body}}}}}"#,
        fails.attempted.max(1),
        fails.failed
    )
}

type Metrics = Vec<(String, f64, &'static str)>;

/// The end-to-end run: the untraced loop over the whole budget.
fn end_to_end(kinds: &[OpKind], seconds: f64, fails: &mut Failures) -> (bool, Metrics) {
    let mut refs = vec![None; kinds.len()];
    let times = untraced(kinds, seconds, fails, &mut refs);
    print_kinds(kinds, &times);
    let estimate = estimate::estimate(&times);
    let rss = peak_rss_mb();
    let e = estimate.clone().unwrap_or_default();
    println!("setup_s      {:.6} s", e.setup_s);
    println!("sim_speed    {:.3} sim_s/s", e.sim_speed);
    println!("peak_rss_mb  {:.3} MB", rss.unwrap_or(0.0));
    println!("ops          {} count", fails.attempted);
    println!("failed_ops   {} count", fails.failed);
    println!("digest       {:016x}", combined_digest(&refs));
    print_noise(&e, kinds.len());
    let correct = fails.failed == 0 && estimate.is_some() && rss.is_some();
    let metrics = vec![
        ("setup_s".to_owned(), e.setup_s, "s"),
        ("sim_speed".to_owned(), e.sim_speed, "sim_s/s"),
        ("peak_rss_mb".to_owned(), rss.unwrap_or(0.0), "MB"),
    ];
    (correct, metrics)
}

/// The traced run: a third of the budget untraced (the overhead baseline
/// and the reference digests), the rest traced.
fn per_layer(args: &Args, kinds: &[OpKind], fails: &mut Failures) -> (bool, Metrics) {
    let mut refs = vec![None; kinds.len()];
    let times = untraced(kinds, args.seconds / 3.0, fails, &mut refs);
    let plain = estimate::estimate(&times);
    let mut tracer = Tracer::new();
    let mut traces: Vec<KindTrace> = kinds
        .iter()
        .map(|k| KindTrace {
            sim_s: k.sim_s,
            ..KindTrace::default()
        })
        .collect();
    let mut traced_refs = refs.clone();
    let mut ran = 0;
    let epoch = Instant::now();
    round_robin(
        kinds.len(),
        args.seconds * 2.0 / 3.0,
        || epoch.elapsed().as_secs_f64(),
        |k| {
            // Allocations are counted in the first round only — the round
            // the counts come from — so they do not inflate the timings.
            alloc::enable(ran < kinds.len());
            ran += 1;
            let (sample, got) = traced::run_op(&mut tracer, &kinds[k]);
            // Traced outputs must match the untraced run's digests.
            if fails.check(&kinds[k], &mut traced_refs[k], got) {
                traces[k].add(sample);
            }
        },
    );
    alloc::enable(false);
    let traced_times: Vec<KindTimes> = traces
        .iter()
        .map(|k| KindTimes {
            sim_s: k.sim_s,
            whole: k.timers.get("op").cloned().unwrap_or_default(),
            setup: Vec::new(),
        })
        .collect();
    let traced_speed = estimate::sim_speed(&traced_times);
    let plain_speed = plain.as_ref().map(|e| e.sim_speed);
    let mut metrics = traced::per_layer(&traces);
    metrics.extend([
        (
            "trace.sim_speed_untraced".to_owned(),
            plain_speed.unwrap_or(0.0),
            "sim_s/s",
        ),
        (
            "trace.sim_speed_traced".to_owned(),
            traced_speed.unwrap_or(0.0),
            "sim_s/s",
        ),
        (
            "trace.overhead_ratio".to_owned(),
            match (plain_speed, traced_speed) {
                (Some(p), Some(t)) if t > 0.0 => p / t,
                _ => 0.0,
            },
            "ratio",
        ),
    ]);
    print_kinds(kinds, &traced_times);
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>14.4} {unit}");
    }
    println!("ops          {} count", fails.attempted);
    println!("failed_ops   {} count", fails.failed);
    println!(
        "digest       {:016x} untraced, {:016x} traced",
        combined_digest(&refs),
        combined_digest(&traced_refs)
    );
    let self_ns = tracer.self_ns_by_name();
    let total: u64 = self_ns.iter().map(|(_, v)| v).sum();
    let shares: Vec<String> = self_ns
        .iter()
        .map(|(n, v)| format!("{n} {:.1}%", *v as f64 * 100.0 / total.max(1) as f64))
        .collect();
    println!("span self time: {}", shares.join(", "));
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json())) {
        Ok(()) => println!(
            "spans written to {} ({} spans)",
            path.display(),
            tracer.spans().len()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    let correct =
        fails.failed == 0 && plain_speed.is_some() && traced_speed.is_some() && refs == traced_refs;
    (correct, metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let kinds = gen::kinds(args.workload, args.seed);
    println!(
        "perfbench {} seed={} seconds={} trace={}: {} op kinds, closed loop (1 process, 1 op in flight, jobs=1)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        kinds.len()
    );
    let mut fails = Failures::default();
    let (correct, metrics) = if args.trace {
        per_layer(&args, &kinds, &mut fails)
    } else {
        end_to_end(&kinds, args.seconds, &mut fails)
    };
    for m in &fails.messages {
        eprintln!("perfbench: failed op: {m}");
    }
    println!("{}", result_json(correct, &fails, &metrics));
    ExitCode::SUCCESS
}
