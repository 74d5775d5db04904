//! The repo's performance ledger. See `benchmark/README.md`.
//!
//! Two ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` — one run of
//!   one workload in this process (what `BENCHMARK.json`'s command is given).
//!   The last line of standard output is the result object.
//! * no `--workload` — the whole set: every workload in its own re-exec'd
//!   child, results printed by name and written to `out/results.json`;
//!   `--traced` adds the per-layer run, `--selfcheck` runs the set twice and
//!   compares against the recorded bounds, `--spread` runs it on ten seeds
//!   and reports each metric's quartile spread, `--quick` shrinks everything.

mod des;
mod json;
mod live;
mod metrics;
mod micro;
mod procfs;
mod span;
mod stats;
mod workload;

use json::Json;
use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};
use workload::{Outcome, RunSpec};

/// Where result files go: `benchmark/out/` of the checkout this was built
/// in (ignored by git).
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
const DEFAULT_SEED: u64 = 11;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    traced: bool,
    selfcheck: bool,
    spread: bool,
    print_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = Some(
                    value("a u64")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--quick" => args.quick = true,
            "--traced" => args.traced = true,
            "--selfcheck" => args.selfcheck = true,
            "--spread" => args.spread = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let rss_floor_kb = procfs::peak_rss_kb();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ars-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", metrics::benchmark_json().to_pretty());
        return ExitCode::SUCCESS;
    }
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(if args.quick {
        1.0
    } else {
        f64::from(RUN_SECONDS)
    });
    match &args.workload {
        Some(name) => {
            let spec = RunSpec {
                seed,
                seconds,
                traced: args.trace,
                quick: args.quick,
                rss_floor_kb,
            };
            single_run(name, spec)
        }
        None => full_set(seed, seconds, &args),
    }
}

// --- one workload, this process -----------------------------------------------------

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The metrics a run reports: the end-to-end ones untraced, the per-layer
/// ones traced.
fn reported_metrics(traced: bool) -> Vec<&'static str> {
    if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    }
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`;
/// every end-to-end metric on an untraced run, every per-layer metric on a
/// traced one (0 where a metric does not apply to the workload).
fn result_line(outcome: &Outcome, traced: bool) -> String {
    let metrics = reported_metrics(traced).into_iter().map(|name| {
        let value = outcome.values.get(name).unwrap_or(0.0);
        (
            name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::str(unit_of(name))),
            ]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_line()
}

fn single_run(name: &str, spec: RunSpec) -> ExitCode {
    let Some(outcome) = workload::run(name, spec) else {
        eprintln!(
            "ars-benchmark: unknown workload {name}; known: {}",
            WORKLOADS.map(|w| w.name).join(", ")
        );
        return ExitCode::from(2);
    };
    let correct = outcome.correct();
    for c in &outcome.checks {
        println!(
            "check {:<36} {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    // A run that failed a check has no numbers worth reading.
    for metric in reported_metrics(spec.traced) {
        match outcome.values.get(metric) {
            Some(v) if correct => println!("metric {metric:<36} {v} {}", unit_of(metric)),
            Some(_) => println!("metric {metric:<36} invalid"),
            None => println!("metric {metric:<36} n/a"),
        }
    }
    if spec.traced {
        let path = format!("{OUT_DIR}/{name}.trace.jsonl");
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, outcome.spans.to_jsonl(name)));
        match written {
            Ok(()) => println!("spans  {} written to {path}", outcome.spans.spans().len()),
            Err(e) => {
                eprintln!("ars-benchmark: cannot write {path}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    println!("{}", result_line(&outcome, spec.traced));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

// --- the whole set, one child per workload ----------------------------------------

/// One child's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child, so none outlives this process.
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("child printed nothing")?;
    for line in lines {
        println!("    {line}");
    }
    let parsed = json::parse(last).map_err(|e| format!("bad result line: {e}"))?;
    let field = |k: &str| parsed.get(k).ok_or(format!("result line lacks {k}"));
    let metrics = match field("metrics")? {
        Json::Obj(members) => members
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err("metrics is not an object".to_string()),
    };
    let result = ChildResult {
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0),
        failed: field("failed")?.as_f64().unwrap_or(0.0),
        metrics,
    };
    if !output.status.success() || !result.correct {
        return Err(format!("{workload} failed its checks ({})", output.status));
    }
    Ok(result)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn header(seed: u64, seconds: f64, quick: bool) -> Json {
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(quick)),
        ("nproc", Json::Num(procfs::nproc() as f64)),
        ("cpu_model", Json::str(procfs::cpu_model())),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("loadavg_1m", Json::Num(procfs::loadavg_1m())),
    ])
}

/// What one workload reported in one set: its end-to-end result and, on a
/// `--traced` set, its per-layer one.
struct SetRow {
    workload: &'static str,
    e2e: ChildResult,
    layers: Option<ChildResult>,
}

impl SetRow {
    fn e2e_value(&self, metric: &str) -> Option<f64> {
        self.e2e
            .metrics
            .iter()
            .find(|(k, _)| k == metric)
            .map(|(_, v)| *v)
    }
}

/// One pass over all workloads, each in its own child.
fn one_set(seed: u64, seconds: f64, traced: bool, quick: bool) -> Result<Vec<SetRow>, String> {
    let mut set = Vec::new();
    for w in &WORKLOADS {
        println!("== {} seed {seed} (end to end)", w.name);
        let e2e = run_child(w.name, seed, seconds, false, quick)?;
        let layers = if traced {
            println!("== {} seed {seed} (traced)", w.name);
            Some(run_child(w.name, seed, seconds, true, quick)?)
        } else {
            None
        };
        set.push(SetRow {
            workload: w.name,
            e2e,
            layers,
        });
    }
    Ok(set)
}

fn set_to_json(set: &[SetRow]) -> Json {
    let metrics = |r: &ChildResult| {
        Json::obj(r.metrics.iter().map(|(k, v)| {
            (
                k.clone(),
                Json::obj([("value", Json::Num(*v)), ("unit", Json::str(unit_of(k)))]),
            )
        }))
    };
    Json::Arr(
        set.iter()
            .map(|row| {
                let mut members = vec![
                    ("workload", Json::str(row.workload)),
                    ("attempted", Json::Num(row.e2e.attempted)),
                    ("failed", Json::Num(row.e2e.failed)),
                    ("end_to_end", metrics(&row.e2e)),
                ];
                if let Some(l) = &row.layers {
                    members.push(("per_layer", metrics(l)));
                }
                Json::obj(members)
            })
            .collect(),
    )
}

fn print_table(set: &[SetRow]) {
    print!("\n{:<16}", "workload");
    for m in &END_TO_END {
        print!(" {:>18}", format!("{} [{}]", m.name, m.unit));
    }
    println!();
    for row in set {
        print!("{:<16}", row.workload);
        for m in &END_TO_END {
            print!(" {:>18.6}", row.e2e_value(m.name).unwrap_or(0.0));
        }
        println!();
    }
}

/// `--selfcheck`: every end-to-end metric x workload of the second set must
/// agree with the first within the metric's recorded bound.
fn compare_sets(first: &[SetRow], second: &[SetRow]) -> usize {
    let mut violations = 0;
    println!("\nselfcheck: second set against the first");
    for (a, b) in first.iter().zip(second) {
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (a.e2e_value(m.name), b.e2e_value(m.name)) else {
                continue;
            };
            let diff = ((y - x) / x).abs();
            let ok = diff <= m.bound;
            violations += usize::from(!ok);
            println!(
                "  {:<16} {:<14} {x:>14.6} {y:>14.6}  {:>6.2}% of {:>3.0}%  {}",
                a.workload,
                m.name,
                diff * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "OUT OF BOUND" }
            );
        }
    }
    violations
}

/// `--spread`: the acceptance rule of the benchmark contract, runnable by
/// anyone — over sets run with different seeds, each metric's inter-quartile
/// distance as a share of its median must stay within the metric's bound
/// (`setup_s` is reported but exempt). Aim for a third of the bound.
fn report_spread(sets: &[Vec<SetRow>]) -> usize {
    let mut violations = 0;
    println!("\nspread over {} seeds: (q3 - q1) / median", sets.len());
    for (i, w) in WORKLOADS.iter().enumerate() {
        for m in &END_TO_END {
            let sample: Vec<f64> = sets.iter().filter_map(|s| s[i].e2e_value(m.name)).collect();
            let spread = stats::iqr_over_median(&sample);
            let gating = m.name != "setup_s";
            let ok = !gating || spread <= m.bound;
            violations += usize::from(!ok);
            println!(
                "  {:<16} {:<14} median {:>14.6}  spread {:>6.2}% of {:>3.0}%  {}",
                w.name,
                m.name,
                stats::median(&sample),
                spread * 100.0,
                m.bound * 100.0,
                match (ok, gating, spread <= m.bound / 3.0) {
                    (false, _, _) => "OUT OF BOUND",
                    (_, false, _) => "not gating",
                    (_, _, true) => "ok",
                    (_, _, false) => "ok (above a third of the bound)",
                }
            );
        }
    }
    violations
}

/// Seeds of the sets a mode runs: one set by default, the same seed twice
/// for `--selfcheck`, ten consecutive seeds for `--spread`.
fn set_seeds(seed: u64, args: &Args) -> Vec<u64> {
    if args.spread {
        (0..10).map(|i| seed + i).collect()
    } else if args.selfcheck {
        vec![seed, seed]
    } else {
        vec![seed]
    }
}

fn full_set(seed: u64, seconds: f64, args: &Args) -> ExitCode {
    let head = header(seed, seconds, args.quick);
    println!("{}", head.to_line());
    let mut sets = Vec::new();
    for s in set_seeds(seed, args) {
        match one_set(s, seconds, args.traced, args.quick) {
            Ok(set) => {
                print_table(&set);
                sets.push(set);
            }
            Err(e) => {
                eprintln!("ars-benchmark: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let violations = if args.spread {
        report_spread(&sets)
    } else if args.selfcheck {
        compare_sets(&sets[0], &sets[1])
    } else {
        0
    };
    let doc = Json::obj([
        ("header", head),
        (
            "sets",
            Json::Arr(sets.iter().map(|s| set_to_json(s)).collect()),
        ),
    ]);
    let path = format!("{OUT_DIR}/results.json");
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, doc.to_pretty()))
    {
        eprintln!("ars-benchmark: cannot write {path}: {e}");
        return ExitCode::from(1);
    }
    println!("\nresults written to {path}");
    if violations > 0 {
        eprintln!("ars-benchmark: {violations} metric(s) outside their bound");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
