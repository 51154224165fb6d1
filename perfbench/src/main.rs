//! The repository benchmark: three workloads against an in-process
//! `tcrowd-service`, driven by this one process over HTTP keep-alive.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload crowd-live|backfill-refit|durable-ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run checks the service's outputs (no acked answer dropped, served
//! truth equal to offline inference, or to the pre-restart truth after a
//! restart) and prints each metric as `metric <name> <value> <unit>`. The
//! last line is one JSON object: the end-to-end metrics listed in
//! `BENCHMARK.json` (`--trace 0`), or its per-layer metrics (`--trace 1`).
//! A traced run first runs the workload untraced, then again with spans
//! recorded around the calls into each layer, and writes the spans to
//! `perfbench/out/`. A failed check prints `"correct": false` with no
//! metrics and exits 1.

mod backfill;
mod client;
mod common;
mod crowd_live;
mod durable;
mod trace;

use client::Counts;
use common::{Report, Run};
use std::path::PathBuf;
use std::sync::Arc;
use tcrowd_service::Json;
use trace::{median, percentile, Tracer};

const WORKLOADS: [&str; 3] = ["crowd-live", "backfill-refit", "durable-ingest"];

/// The end-to-end metrics of `--trace 0` runs; every workload measures each.
/// The others each run prints (tail percentiles, per-workload latencies,
/// `visible_*`, `peak_rss_mb`, `failed_frac`) are not in the result line:
/// they exist on one workload only, are 0 on a correct run, or vary more
/// between runs than any bound could allow.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("answers_per_s", "answers/s"),
    ("ingest_p50_ms", "ms"),
    ("truth_error", "ratio"),
];

/// The per-layer metrics of `--trace 1` runs. A layer that does no work on
/// a workload (no assignment, no store) reports 0.
const PER_LAYER: [(&str, &str); 34] = [
    ("http.ingest_overhead_us", "us"),
    ("http.assign_overhead_us", "us"),
    ("api.route_ingest_us_p50", "us"),
    ("api.route_ingest_us_p99", "us"),
    ("api.route_assign_us_p50", "us"),
    ("api.route_assign_us_p99", "us"),
    ("api.json_parse_ns_per_answer", "ns"),
    ("table.submit_us_p50", "us"),
    ("table.submit_us_p99", "us"),
    ("table.refresh_ms_p50", "ms"),
    ("table.lag_answers_p50", "answers"),
    ("table.lag_answers_p99", "answers"),
    ("tabular.slice_us", "us"),
    ("tabular.merge_delta_us", "us"),
    ("tabular.build_ms", "ms"),
    ("em.estep_ms", "ms"),
    ("em.mstep_ms", "ms"),
    ("em.elbo_ms", "ms"),
    ("em.iterations", "count"),
    ("em.objective_evals", "count"),
    ("corr.fit_ms", "ms"),
    ("trust.score_ms", "ms"),
    ("assign.select_us_p50", "us"),
    ("assign.select_us_p99", "us"),
    ("assign.candidates_p50", "cells"),
    ("store.frames_per_fsync", "frames"),
    ("store.commit_groups", "count"),
    ("store.bytes_per_answer", "B"),
    ("store.wal_segments", "count"),
    ("store.snapshot_links", "count"),
    ("store.recover_table_ms", "ms"),
    ("gen.late_ms_p99", "ms"),
    ("trace.closure_pct", "%"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(at + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}' (one of {})", WORKLOADS.join(", ")));
    }
    let seed = get("--seed")?.parse().map_err(|_| "--seed must be an unsigned integer")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn run_workload(args: &Args, tracer: Option<Arc<Tracer>>) -> Result<Report, String> {
    let scratch = PathBuf::from("perfbench/out").join(format!("tmp-{}", std::process::id()));
    let run = Run { seed: args.seed, seconds: args.seconds, tracer, scratch: scratch.clone() };
    let report = match args.workload.as_str() {
        "crowd-live" => crowd_live::run(&run),
        "backfill-refit" => backfill::run(&run),
        _ => durable::run(&run),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let report = report?;
    for (name, value, unit) in &report.metrics {
        println!("metric {name} {value} {unit}");
    }
    let all = report.counts();
    for (phase, c) in &report.phases {
        println!("requests {phase}: {}", c.describe());
    }
    println!("metric failed_frac {} ratio", all.failed() as f64 / all.attempted.max(1) as f64);
    Ok(report)
}

/// Per-layer metrics from the traced run's spans and samples, with the
/// tracing overhead measured against the untraced run.
fn layers(t: &Tracer, traced: &Report, untraced: &Report) -> Vec<(&'static str, f64)> {
    let p = |v: &[f64], q: f64| percentile(v, q);
    let route_ingest = t.durations_us("api.route", Some("gen.ingest"));
    let route_assign = t.durations_us("api.route", Some("gen.assign"));
    let submit = t.durations_us("table.submit", None);
    let select = t.durations_us("table.assign", None);
    let refresh = t.durations_us("table.refresh_now", None);
    let lag = t.samples("table.lag");
    let ms = |name: &str| median(&t.durations_us(name, None)) / 1e3;
    let sampled = |name: &str| median(&t.samples(name));
    // The refresher's refits are not the benchmark's calls; where it does
    // all the fitting, the table's own refit wall time stands in.
    let refresh_ms =
        if refresh.is_empty() { sampled("table.refit_ms") } else { median(&refresh) / 1e3 };

    // Closure: the share of the end-to-end p50s covered by the self times
    // of the timed layers along each request's blocking path: http (round
    // trip outside api::route), api.json_parse, and the table call. What
    // remains inside api::route (answer decode, response encode) is the gap.
    let http_ingest = median(&t.outside_us("gen.ingest", "api.route"));
    let http_assign = median(&t.outside_us("gen.assign", "api.route"));
    let http_refresh = median(&t.outside_us("gen.refresh", "api.route"));
    let json_us = median(&t.durations_us("api.json_parse", None));
    let e2e = |name: &str| traced.get(name).unwrap_or(0.0) * 1e3;
    let mut covered = http_ingest + json_us + median(&submit);
    let mut total = e2e("ingest_p50_ms");
    if !select.is_empty() {
        covered += http_assign + median(&select);
        total += e2e("assign_p50_ms");
    }
    if !refresh.is_empty() {
        covered += http_refresh + median(&refresh);
        total += e2e("refresh_p50_ms");
    }
    let closure = 100.0 * covered / total.max(f64::MIN_POSITIVE);
    let base = untraced.get("ingest_p50_ms").unwrap_or(0.0);
    let overhead =
        100.0 * (traced.get("ingest_p50_ms").unwrap_or(0.0) - base) / base.max(f64::MIN_POSITIVE);

    vec![
        ("http.ingest_overhead_us", http_ingest),
        ("http.assign_overhead_us", http_assign),
        ("api.route_ingest_us_p50", p(&route_ingest, 50.0)),
        ("api.route_ingest_us_p99", p(&route_ingest, 99.0)),
        ("api.route_assign_us_p50", p(&route_assign, 50.0)),
        ("api.route_assign_us_p99", p(&route_assign, 99.0)),
        ("api.json_parse_ns_per_answer", t.ns_per_work("api.json_parse")),
        ("table.submit_us_p50", p(&submit, 50.0)),
        ("table.submit_us_p99", p(&submit, 99.0)),
        ("table.refresh_ms_p50", refresh_ms),
        ("table.lag_answers_p50", p(&lag, 50.0)),
        ("table.lag_answers_p99", p(&lag, 99.0)),
        ("tabular.slice_us", median(&t.durations_us("tabular.slice", None))),
        ("tabular.merge_delta_us", median(&t.durations_us("tabular.merge_delta", None))),
        ("tabular.build_ms", ms("tabular.build")),
        ("em.estep_ms", sampled("em.estep_ms")),
        ("em.mstep_ms", sampled("em.mstep_ms")),
        ("em.elbo_ms", sampled("em.elbo_ms")),
        ("em.iterations", sampled("em.iterations")),
        ("em.objective_evals", sampled("em.objective_evals")),
        ("corr.fit_ms", ms("corr.fit")),
        ("trust.score_ms", ms("trust.score")),
        ("assign.select_us_p50", p(&select, 50.0)),
        ("assign.select_us_p99", p(&select, 99.0)),
        ("assign.candidates_p50", sampled("assign.candidates")),
        ("store.frames_per_fsync", sampled("store.frames_per_fsync")),
        ("store.commit_groups", sampled("store.commit_groups")),
        ("store.bytes_per_answer", sampled("store.bytes_per_answer")),
        ("store.wal_segments", sampled("store.wal_segments")),
        ("store.snapshot_links", sampled("store.snapshot_links")),
        ("store.recover_table_ms", ms("store.recover_table")),
        ("gen.late_ms_p99", traced.get("gen_late_p99_ms").unwrap_or(0.0)),
        ("trace.closure_pct", closure),
        ("trace.overhead_pct", overhead),
    ]
}

/// A short id of the benchmarked source: the git commit when there is
/// one, otherwise an FNV-1a hash of the crate sources and manifests.
fn source_id() -> String {
    let git = std::process::Command::new("git").args(["rev-parse", "--short=12", "HEAD"]).output();
    if let Some(out) = git.ok().filter(|o| o.status.success()) {
        return String::from_utf8_lossy(&out.stdout).trim().to_string();
    }
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        for e in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = e.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml")];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("src-{h:016x}")
}

/// A reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Run the workload (twice when traced) and pick the result line's metrics.
fn measure(args: &Args) -> Result<(Counts, Vec<Metric>), String> {
    let untraced = run_workload(args, None)?;
    if !args.trace {
        let metrics = END_TO_END
            .iter()
            .map(|&(name, unit)| {
                untraced
                    .get(name)
                    .map(|v| (name, v, unit))
                    .ok_or(format!("{name} was not measured"))
            })
            .collect::<Result<_, String>>()?;
        return Ok((untraced.counts(), metrics));
    }
    println!("traced run:");
    let tracer = Arc::new(Tracer::default());
    let traced = run_workload(args, Some(Arc::clone(&tracer)))?;
    let path =
        PathBuf::from(format!("perfbench/out/spans-{}-seed{}.jsonl", args.workload, args.seed));
    let n = tracer.write(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans: {n} written to {}", path.display());
    let layers = layers(&tracer, &traced, &untraced);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = layers.iter().find(|l| l.0 == name).map_or(0.0, |l| l.1);
            println!("layer {name} {value} {unit}");
            (name, value, unit)
        })
        .collect();
    let mut counts = untraced.counts();
    counts.add(&traced.counts());
    Ok((counts, metrics))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = Json::Obj(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                // JSON has no infinity: a latency every sample of which
                // failed reads as the largest finite number.
                let value = if value.is_finite() { value } else { f64::MAX };
                (
                    name.to_string(),
                    Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
                )
            })
            .collect(),
    );
    Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted as f64)),
        ("failed", Json::from(failed as f64)),
        ("metrics", metrics),
    ])
    .to_string()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} kernels={} source={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        tcrowd_stat::batch::kernels().path().name(),
        source_id(),
    );
    match measure(&args) {
        Ok((c, metrics)) => {
            println!("{}", result_line(true, c.attempted.max(1), c.failed(), &metrics));
        }
        Err(e) => {
            println!("check failed: {e}");
            println!("{}", result_line(false, 1, 1, &[]));
            std::process::exit(1);
        }
    }
}
