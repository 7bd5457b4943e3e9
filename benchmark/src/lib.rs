//! `kvbench`: the repository's benchmark. See `benchmark/README.md`.

pub mod compare;
pub mod gen;
pub mod json;
mod layers;
pub mod manifest;
mod run;
mod span;
pub mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::Json;
use manifest::{Manifest, MetricDef};
use run::{run_repeat, Repeat, Values};
use stats::{median, Summary};

const USAGE: &str = "\
usage: kvbench run [--workload W] [--seed S] [--seconds T] [--trace 0|1]
                   [--quick] [--runs N] [--out FILE]
       kvbench compare A.json B.json

run      measures one workload (or all six) for T seconds each and prints every
         metric by name with its unit; the last line of each workload's report
         is one JSON object: {correct, attempted, failed, metrics}.
           --trace 0  end-to-end metrics, tracing off (the default)
           --trace 1  per-layer metrics: traced repeats, the layer pass, and a
                      Chrome trace written to benchmark/out/trace-<W>.json
           --quick    an eighth of the size, one second: a smoke test
           --runs N   N runs per workload on seeds S..S+N, kept in --out FILE
compare  one row per (workload, end-to-end metric) of two --out files; exits
         nonzero if B regressed against A or more operations failed";

/// Repeats a run needs before a median means anything.
const MIN_REPEATS: usize = 3;
/// Time the layer pass spends on each of its rows.
const LAYER_ROW: Duration = Duration::from_millis(40);

struct RunArgs {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    runs: u64,
    out: Option<PathBuf>,
}

/// One run of one workload: the value reported for each metric, and how
/// it spread over the run's repeats.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(MetricDef, Summary)>,
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn collect(repeats: &[&Repeat], name: &str) -> Vec<f64> {
    repeats
        .iter()
        .filter_map(|r| r.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
        .collect()
}

/// Runs one repeat in a process of its own.
///
/// Wall-clock results on this box carry a per-process factor: with the
/// same inputs, repeats inside one process stay within a few percent of
/// each other while one process's median differs from the next's by up to
/// 40 % (address-space layout was ruled out with `setarch -R`; which
/// physical pages and cores a process is dealt was not). Measured on
/// `embed-read`, 12 interleaved pairs of runs: all repeats in one process
/// spread (IQR / median) by 26 %, a process per repeat by 10 %. So every
/// repeat draws that factor anew, and the median over repeats averages it.
fn spawn_repeat(
    workload: &str,
    seed: u64,
    args: &RunArgs,
    traced: bool,
    id_base: u64,
    epoch: Instant,
) -> Result<Repeat, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating kvbench: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["repeat", workload])
        .args([seed, args.quick as u64, traced as u64, id_base].map(|x| x.to_string()))
        .arg(epoch.elapsed().as_nanos().to_string())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a repeat: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload}: a repeat failed ({})", out.status));
    }
    std::str::from_utf8(&out.stdout)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .and_then(|j| Repeat::from_json(&j))
        .ok_or_else(|| format!("{workload}: a repeat's report could not be read"))
}

/// The child side of [`spawn_repeat`].
fn repeat_main(argv: &[String]) -> Result<bool, String> {
    let [workload, rest @ ..] = argv else {
        return Err("repeat: missing arguments".into());
    };
    let nums: Vec<u64> = rest.iter().filter_map(|a| a.parse().ok()).collect();
    let [seed, quick, traced, id_base, since_epoch_ns] = nums[..] else {
        return Err("repeat: bad arguments".into());
    };
    span::set_id_base(id_base);
    // Spans are stamped against the parent's epoch, so a run's repeats
    // line up on one timeline.
    let epoch = Instant::now()
        .checked_sub(Duration::from_nanos(since_epoch_ns))
        .ok_or("repeat: epoch before the clock's origin")?;
    let rep = run_repeat(workload, seed, quick != 0, traced != 0, epoch)?;
    println!("{}", rep.to_json().render());
    Ok(true)
}

/// A metric no list of `BENCHMARK.json` declares, if the rows hold one.
/// Stage rows are named after spans the program defines; one it adds
/// later is dropped, not refused, so that it cannot break the benchmark.
fn undeclared<'v>(man: &Manifest, rows: &'v Values) -> Option<&'v str> {
    let known = |n: &str| {
        let mut all = man.end_to_end.iter().chain(&man.per_layer);
        n.contains(".stage.") || all.any(|d| d.name == n)
    };
    let stray = rows.iter().find(|(n, _)| !known(n));
    stray.map(|(n, _)| n.as_str())
}

/// The per-layer list of a traced run: counter and latency rows from the
/// traced repeats, the layer pass, and what is derived from both. A row of
/// a layer the workload does not exercise is 0 over no samples.
fn per_layer_rows(
    man: &Manifest,
    workload: &str,
    plain: &[&Repeat],
    traced: &[&Repeat],
    failed_share: f64,
) -> Result<Vec<(MetricDef, Summary)>, String> {
    let layer = layers::layer_pass(LAYER_ROW);
    if let Some(stray) = undeclared(man, &layer) {
        return Err(format!(
            "metric `{stray}` is not declared in BENCHMARK.json"
        ));
    }
    let layer_row = |name: &str| layer.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    let med = |reps: &[&Repeat], name: &str| {
        let vals = collect(reps, name);
        if vals.is_empty() {
            0.0
        } else {
            median(&vals)
        }
    };
    let rows = man.per_layer.iter().map(|def| {
        let derived = match def.name.as_str() {
            "chameleon-obs.traced_ops_share" => {
                Some(med(traced, "ops_per_s_wall") / med(plain, "ops_per_s_wall"))
            }
            "harness.failed_share" => Some(failed_share),
            // What `put` costs beyond the layer calls it makes.
            "chameleondb.put_self_ns_wall" => {
                let append = match gen::sizes(workload, false).value_len {
                    8 => "kvlog.append_8B_ns_wall",
                    _ => "kvlog.append_64B_ns_wall",
                };
                let below = [
                    append,
                    "kvtables.shared_insert_ns_wall",
                    "kvorder.insert_ns_wall",
                ];
                let below: f64 = below.iter().filter_map(|n| layer_row(n)).sum();
                let put = med(traced, "chameleondb.put_ns_wall");
                Some(if put > 0.0 { put - below } else { 0.0 })
            }
            name => layer_row(name),
        };
        let vals = derived.map_or_else(|| collect(traced, &def.name), |v| vec![v]);
        let summary = if vals.is_empty() {
            Summary {
                median: 0.0,
                min: 0.0,
                max: 0.0,
                n: 0,
            }
        } else {
            Summary::of(&vals)
        };
        (def.clone(), summary)
    });
    Ok(rows.collect())
}

fn run_workload(
    man: &Manifest,
    workload: &str,
    seed: u64,
    args: &RunArgs,
) -> Result<RunResult, String> {
    let epoch = Instant::now();
    let min_repeats = if args.quick { 1 } else { MIN_REPEATS };
    let (mut plain, mut traced): (Vec<Repeat>, Vec<Repeat>) = (Vec::new(), Vec::new());
    let mut measured = 0.0;
    let mut round = 0u64;
    while measured < args.seconds || plain.len() + traced.len() < min_repeats {
        // Each repeat draws its own inputs from the run's seed.
        let inputs = seed ^ round << 32;
        let rep = spawn_repeat(workload, inputs, args, false, round << 33, epoch)?;
        measured += rep.measured_s;
        plain.push(rep);
        if args.traced {
            // The same inputs again with the program's tracing on, so the
            // pair differs in nothing else.
            let rep = spawn_repeat(workload, inputs, args, true, round << 33 | 1 << 32, epoch)?;
            measured += rep.measured_s;
            traced.push(rep);
        }
        round += 1;
    }

    let (plain, traced): (Vec<&Repeat>, Vec<&Repeat>) =
        (plain.iter().collect(), traced.iter().collect());
    let all = || plain.iter().chain(&traced);
    if let Some(stray) = all().find_map(|r| undeclared(man, &r.values)) {
        return Err(format!(
            "metric `{stray}` is not declared in BENCHMARK.json"
        ));
    }
    let attempted: u64 = all().map(|r| r.attempted).sum();
    let failed: u64 = all().map(|r| r.failed).sum();

    let metrics = if args.traced {
        let spans: Vec<span::Span> = traced
            .iter()
            .flat_map(|r| r.spans.iter().copied())
            .collect();
        let dir = out_dir();
        let file = dir.join(format!("trace-{workload}.json"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(file, span::chrome_trace(&spans)))
            .map_err(|e| format!("writing the trace file: {e}"))?;
        per_layer_rows(
            man,
            workload,
            &plain,
            &traced,
            failed as f64 / attempted as f64,
        )?
    } else {
        // End-to-end numbers never come from a traced repeat.
        let row = |def: &MetricDef| match collect(&plain, &def.name) {
            vals if vals.is_empty() => Err(format!("{workload} did not measure `{}`", def.name)),
            vals => Ok((def.clone(), Summary::of(&vals))),
        };
        man.end_to_end.iter().map(row).collect::<Result<_, _>>()?
    };
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

fn print_result(workload: &str, seed: u64, r: &RunResult) {
    println!("== {workload}  (seed {seed})");
    for (def, s) in &r.metrics {
        if s.n == 0 {
            continue;
        }
        println!(
            "{:<46} {:>16.4} {:<10} min {:<14.4} max {:<14.4} n {}",
            def.name, s.median, def.unit, s.min, s.max, s.n
        );
    }
    println!(
        "{:<46} {:>16} of {} attempted",
        "failed", r.failed, r.attempted
    );
    let metrics = r
        .metrics
        .iter()
        .map(|(def, s)| {
            let m = vec![
                ("value".to_owned(), Json::Num(s.median)),
                ("unit".to_owned(), Json::Str(def.unit.clone())),
            ];
            (def.name.clone(), Json::Obj(m))
        })
        .collect();
    let line = Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(r.correct)),
        ("attempted".to_owned(), Json::Num(r.attempted as f64)),
        ("failed".to_owned(), Json::Num(r.failed as f64)),
        ("metrics".to_owned(), Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
}

fn run(man: &Manifest, args: &RunArgs) -> Result<bool, String> {
    let mut all_correct = true;
    let mut set = Vec::new();
    for workload in &args.workloads {
        let mut per_metric: Vec<(MetricDef, Vec<f64>)> = Vec::new();
        let (mut attempted, mut failed) = (0, 0);
        for i in 0..args.runs {
            let seed = args.seed + i;
            let r = run_workload(man, workload, seed, args)?;
            print_result(workload, seed, &r);
            all_correct &= r.correct;
            attempted += r.attempted;
            failed += r.failed;
            for (j, (def, s)) in r.metrics.into_iter().enumerate() {
                if i == 0 {
                    per_metric.push((def, Vec::new()));
                }
                per_metric[j].1.push(s.median);
            }
        }
        let metrics = per_metric
            .into_iter()
            .map(|(def, vals)| {
                let m = vec![
                    ("unit".to_owned(), Json::Str(def.unit)),
                    ("median".to_owned(), Json::Num(median(&vals))),
                    (
                        "values".to_owned(),
                        Json::Arr(vals.into_iter().map(Json::Num).collect()),
                    ),
                ];
                (def.name, Json::Obj(m))
            })
            .collect();
        set.push((
            workload.clone(),
            Json::Obj(vec![
                ("attempted".to_owned(), Json::Num(attempted as f64)),
                ("failed".to_owned(), Json::Num(failed as f64)),
                ("metrics".to_owned(), Json::Obj(metrics)),
            ]),
        ));
    }
    if let Some(path) = &args.out {
        let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
        let head = Json::Obj(vec![
            ("seed".to_owned(), Json::Num(args.seed as f64)),
            ("runs".to_owned(), Json::Num(args.runs as f64)),
            ("seconds".to_owned(), Json::Num(args.seconds)),
            ("traced".to_owned(), Json::Bool(args.traced)),
            ("quick".to_owned(), Json::Bool(args.quick)),
            (
                "available_parallelism".to_owned(),
                Json::Num(threads as f64),
            ),
        ])
        .render();
        // One workload per line keeps the committed sets reviewable.
        let lines: Vec<String> = set
            .iter()
            .map(|(w, j)| format!("\"{w}\": {}", j.render()))
            .collect();
        let text = format!(
            "{}, \"workloads\": {{\n{}\n}}}}\n",
            head.trim_end_matches('}'),
            lines.join(",\n")
        );
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(all_correct)
}

fn parse_run(man: &Manifest, argv: &[String]) -> Result<RunArgs, String> {
    let mut args = RunArgs {
        workloads: man.workloads.clone(),
        seed: 1,
        seconds: man.run_seconds as f64,
        traced: false,
        quick: false,
        runs: 1,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            args.seconds = 1.0;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                if !man.workloads.contains(value) {
                    return Err(format!("unknown workload `{value}`"));
                }
                args.workloads = vec![value.clone()];
            }
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()? as f64,
            "--runs" => args.runs = num()?.max(1),
            "--trace" => args.traced = num()? != 0,
            "--out" => args.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// The command line: `run` or `compare`.
pub fn cli(argv: &[String]) -> ExitCode {
    let man = match Manifest::load() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("kvbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match argv.first().map(String::as_str) {
        Some("run") => parse_run(&man, &argv[1..]).and_then(|args| run(&man, &args)),
        Some("compare") if argv.len() == 3 => compare::compare(&man, &argv[1], &argv[2]),
        Some("repeat") => repeat_main(&argv[1..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("kvbench: {e}");
            ExitCode::from(2)
        }
    }
}
