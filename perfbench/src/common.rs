//! What the three workloads share: the in-process server, the wire codecs,
//! the output checks and the end-to-end metric record.

use crate::client::{Client, Counts};
use crate::trace::{median, percentile, tail_pct, Tracer};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcrowd_core::{InferenceResult, TCrowd, TruthDist};
use tcrowd_service::{api, obs, Json, Request, ServerHandle, Snapshot, TableRegistry, TableState};
use tcrowd_store::Store;
use tcrowd_tabular::{Answer, AnswerLog, CellId, ColumnType, Schema, Value, WorkerId};

/// Server worker threads; the load is sized for a two-core machine.
const SERVER_THREADS: usize = 2;
/// Answers per preload body (well under the service's 1 MiB body cap).
const PRELOAD_BODY: usize = 4000;
/// Label count of every categorical column.
pub const CARDINALITY: (u32, u32) = (6, 6);
/// Seed of each workload's table (schema, ground truth) and crowd. They are
/// fixed so that runs with different `--seed`s are replicates of one
/// workload; `--seed` draws the answer stream: which answers are preloaded,
/// which worker answers when, and in what order.
pub const DATA_SEED: u64 = 0x7C0D_2018;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The run settings every workload receives.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Option<Arc<Tracer>>,
    /// Directory for the durable store and its copies.
    pub scratch: std::path::PathBuf,
}

/// SplitMix64, seeded from `--seed`: it draws each run's answer stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// An in-process `tcrowd-service`. Untraced it is exactly the shipped
/// `start`/`start_durable`; traced, the same registry is served through a
/// handler that wraps `api::route` the way `serve_registry` does and
/// records one `api.route` span per request.
pub struct Server {
    pub registry: Arc<TableRegistry>,
    pub addr: SocketAddr,
    handle: ServerHandle,
}

impl Server {
    pub fn start(store: Option<Arc<Store>>, tracer: Option<Arc<Tracer>>) -> Result<Server, String> {
        let addr = "127.0.0.1:0";
        let (registry, handle) = match tracer {
            None => match store {
                None => tcrowd_service::start(addr, SERVER_THREADS),
                Some(store) => tcrowd_service::start_durable(addr, SERVER_THREADS, store)
                    .map(|(r, h, _)| (r, h)),
            }
            .map_err(|e| format!("server start: {e}"))?,
            Some(tracer) => {
                let registry = Arc::new(match store {
                    None => TableRegistry::new(),
                    Some(store) => {
                        let registry = TableRegistry::with_store(store);
                        registry.recover()?;
                        registry
                    }
                });
                let reg = Arc::clone(&registry);
                let handler = Arc::new(move |req: &Request| {
                    let t = Instant::now();
                    let resp = api::route(&reg, req);
                    let end = Instant::now();
                    reg.obs().observe_request(&req.method, obs::endpoint_label(&req.path), end - t);
                    tracer.span("api.route", t, end, &req.request_id, 0);
                    resp
                });
                let handle = tcrowd_service::serve(addr, SERVER_THREADS, handler)
                    .map_err(|e| format!("server start: {e}"))?;
                (registry, handle)
            }
        };
        let addr = handle.addr();
        Ok(Server { registry, addr, handle })
    }

    /// Stop refreshers and commit threads, then the listener. Close every
    /// client first: a worker parked on an idle keep-alive connection only
    /// returns at its read timeout.
    pub fn stop(self) {
        self.registry.shutdown();
        self.handle.shutdown();
    }
}

/// `POST /tables` body for a generated schema plus table settings.
pub fn create_body(id: &str, schema: &Schema, rows: usize, settings: &[(&str, Json)]) -> String {
    let columns: Vec<Json> = schema
        .columns
        .iter()
        .map(|c| match &c.ty {
            ColumnType::Categorical { labels } => Json::obj([
                ("name", Json::from(c.name.clone())),
                ("type", Json::from("categorical")),
                ("labels", Json::Arr(labels.iter().map(|l| Json::from(l.clone())).collect())),
            ]),
            ColumnType::Continuous { min, max } => Json::obj([
                ("name", Json::from(c.name.clone())),
                ("type", Json::from("continuous")),
                ("min", Json::from(*min)),
                ("max", Json::from(*max)),
            ]),
        })
        .collect();
    let mut fields = vec![
        ("id".to_string(), Json::from(id)),
        ("rows".to_string(), Json::from(rows)),
        ("schema".to_string(), Json::obj([("columns", Json::Arr(columns))])),
    ];
    fields.extend(settings.iter().map(|(k, v)| (k.to_string(), v.clone())));
    Json::Obj(fields).to_string()
}

/// `{"answers": [...]}` with categorical values as label indices and
/// continuous values in shortest round-trip form, so the service stores
/// exactly these answers.
pub fn answers_body(answers: &[Answer]) -> String {
    let mut s = String::with_capacity(16 + answers.len() * 48);
    s.push_str("{\"answers\":[");
    for (i, a) in answers.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let value = match a.value {
            Value::Categorical(l) => l.to_string(),
            Value::Continuous(x) => format!("{x:?}"),
        };
        s.push_str(&format!(
            "{{\"worker\":{},\"row\":{},\"col\":{},\"value\":{value}}}",
            a.worker.0, a.cell.row, a.cell.col
        ));
    }
    s.push_str("]}");
    s
}

/// One acked ingest.
pub struct Ack {
    /// Answers the table held at the ack.
    pub total: u64,
    /// The epoch an HTTP reply reveals: `ingested_total − pending`.
    pub epoch: Option<u64>,
    pub done: Instant,
    /// The HTTP round trip's start and whether it was retried; `None` for
    /// an in-process submit.
    http: Option<(Instant, bool)>,
}

impl Ack {
    /// Milliseconds from `from` (the send time when `None`) to the ack of an
    /// HTTP ingest: infinite when it was retried, `None` in-process.
    pub fn latency_ms(&self, from: Option<Instant>) -> Option<f64> {
        self.http.map(|(sent, retried)| {
            if retried {
                f64::INFINITY
            } else {
                (self.done - from.unwrap_or(sent)).as_secs_f64() * 1e3
            }
        })
    }
}

/// `POST …/answers` with `answers`, or in a traced run's in-process cycles
/// (`inproc`) hand them to `TableState::submit` directly. Traced runs also
/// time `json::parse` on the exact body sent and record the request spans.
pub fn ingest(
    client: &mut Client,
    table: &TableState,
    answers: &[Answer],
    tracer: Option<&Tracer>,
    inproc: bool,
) -> Result<Ack, String> {
    let work = answers.len() as u64;
    if let Some(t) = tracer.filter(|_| inproc) {
        let rid = client.next_rid();
        let sent = Instant::now();
        t.time("table.submit", &rid, work, || table.submit(answers))?;
        let done = Instant::now();
        t.span("gen.ingest.inproc", sent, done, &rid, 0);
        return Ok(Ack { total: table.ingested(), epoch: None, done, http: None });
    }
    let body = answers_body(answers);
    if let Some(t) = tracer {
        let rid = format!("{}.parse", client.next_rid());
        t.time("api.json_parse", &rid, work, || tcrowd_service::json::parse(&body))?;
    }
    let reply = client.post(&format!("/tables/{}/answers", table.id), &body)?;
    if let Some(t) = tracer {
        t.span("gen.ingest", reply.sent, reply.done, &reply.rid, 0);
    }
    if reply.u64("accepted")? != work {
        return Err("ingest accepted a partial batch".into());
    }
    let total = reply.u64("ingested_total")?;
    Ok(Ack {
        total,
        epoch: Some(total.saturating_sub(reply.u64("pending")?)),
        done: reply.done,
        http: Some((reply.sent, reply.retried)),
    })
}

/// Create a table over HTTP, preload `answers` and run its first fit.
pub fn create_and_preload(
    client: &mut Client,
    body: &str,
    id: &str,
    answers: &[Answer],
) -> Result<(), String> {
    client.post("/tables", body)?;
    for chunk in answers.chunks(PRELOAD_BODY) {
        client.post(&format!("/tables/{id}/answers"), &answers_body(chunk))?;
    }
    client.post(&format!("/tables/{id}/refresh"), "")?;
    Ok(())
}

/// The served answer log, decoded back into answers.
pub fn served_log(
    client: &mut Client,
    id: &str,
    schema: &Schema,
    rows: usize,
) -> Result<AnswerLog, String> {
    let reply = client.get(&format!("/tables/{id}/answers"))?;
    let served = reply.body.get("answers").and_then(Json::as_array).ok_or("no answers array")?;
    let mut log = AnswerLog::new(rows, schema.num_columns());
    for a in served {
        let field = |k: &str| a.get(k).and_then(Json::as_u64).ok_or(format!("answer lacks {k}"));
        let col = field("col")? as usize;
        let value = match schema.column_type(col) {
            ColumnType::Categorical { labels } => {
                let name = a.get("value").and_then(Json::as_str).ok_or("bad label")?;
                Value::Categorical(
                    labels.iter().position(|l| l == name).ok_or("unknown label")? as u32
                )
            }
            ColumnType::Continuous { .. } => {
                Value::Continuous(a.get("value").and_then(Json::as_f64).ok_or("bad number")?)
            }
        };
        log.push(Answer {
            worker: WorkerId(field("worker")? as u32),
            cell: CellId::new(field("row")? as u32, col as u32),
            value,
        });
    }
    Ok(log)
}

/// The served z-space truth, flattened cell by cell.
pub fn served_truth_z(client: &mut Client, id: &str) -> Result<Vec<Vec<f64>>, String> {
    let reply = client.get(&format!("/tables/{id}/truth?z=1"))?;
    let rows = reply.body.get("truth_z").and_then(Json::as_array).ok_or("no truth_z")?;
    let mut out = Vec::new();
    for row in rows {
        for cell in row.as_array().ok_or("truth_z row is not an array")? {
            let nums: Vec<f64> = match cell.get("probs").and_then(Json::as_array) {
                Some(p) => p.iter().filter_map(Json::as_f64).collect(),
                None => vec![cell.get("mean").and_then(Json::as_f64).ok_or("no mean")?],
            };
            out.push(nums);
        }
    }
    Ok(out)
}

/// The largest gap between two flattened z-space truths.
pub fn z_gap(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    let mut gap = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        if x.len() != y.len() {
            return f64::INFINITY;
        }
        for (p, q) in x.iter().zip(y) {
            gap = gap.max((p - q).abs());
        }
    }
    gap
}

fn flat_z(result: &InferenceResult, rows: usize, cols: usize) -> Vec<Vec<f64>> {
    let mut out = Vec::with_capacity(rows * cols);
    for i in 0..rows as u32 {
        for j in 0..cols as u32 {
            out.push(match result.truth_z(CellId::new(i, j)) {
                TruthDist::Categorical(p) => p.to_vec(),
                TruthDist::Continuous(n) => vec![n.mean],
            });
        }
    }
    out
}

/// The output checks of a memory-only table after a final quiescent
/// refresh: the served log holds exactly `acked` answers, and the served
/// z-space truth equals `TCrowd::infer` re-run offline on it within 1e-6.
pub fn check_served(
    client: &mut Client,
    id: &str,
    schema: &Schema,
    rows: usize,
    acked: usize,
) -> Result<AnswerLog, String> {
    client.post(&format!("/tables/{id}/refresh"), "")?;
    let log = served_log(client, id, schema, rows)?;
    if log.len() != acked {
        return Err(format!("served log holds {} answers, {acked} were acked", log.len()));
    }
    let offline = flat_z(&TCrowd::default_full().infer(schema, &log), rows, schema.num_columns());
    let gap = z_gap(&served_truth_z(client, id)?, &offline);
    if gap >= 1e-6 {
        return Err(format!("served truth differs from offline inference by {gap:e}"));
    }
    println!(
        "check ok: {acked} acked answers all served; served truth = offline infer (gap {gap:.1e})"
    );
    Ok(log)
}

/// `1 − (0.5·categorical accuracy + 0.5·(1 − MNAD))` of `estimates`
/// against the generated ground truth.
pub fn estimate_error(schema: &Schema, truth: &[Vec<Value>], estimates: &[Vec<Value>]) -> f64 {
    let q = tcrowd_tabular::evaluate(schema, truth, estimates);
    0.5 * q.error_rate.unwrap_or(0.0) + 0.5 * q.mnad.unwrap_or(0.0)
}

/// [`estimate_error`] of the served estimates; `body` is a `GET …/truth`
/// reply body.
pub fn truth_error(body: &Json, schema: &Schema, truth: &[Vec<Value>]) -> Result<f64, String> {
    let rows = body.get("estimates").and_then(Json::as_array).ok_or("no estimates")?;
    let mut est = Vec::with_capacity(rows.len());
    for row in rows {
        let cells = row.as_array().ok_or("estimates row is not an array")?;
        let mut out = Vec::with_capacity(cells.len());
        for (j, v) in cells.iter().enumerate() {
            out.push(match schema.column_type(j) {
                ColumnType::Categorical { labels } => {
                    let name = v.as_str().ok_or("bad label")?;
                    Value::Categorical(
                        labels.iter().position(|l| l == name).ok_or("unknown label")? as u32,
                    )
                }
                ColumnType::Continuous { .. } => Value::Continuous(v.as_f64().ok_or("bad number")?),
            });
        }
        est.push(out);
    }
    Ok(estimate_error(schema, truth, &est))
}

/// Visibility latencies in ms. `acks` holds (answers the table held at the
/// ack, ack time); `replies` holds (epoch the reply was served at, reply
/// time). An ack becomes visible at the first later reply whose epoch
/// covers it; one that never does counts as visible at `end`.
pub fn visibility_ms(
    acks: &[(u64, Instant)],
    replies: &mut [(u64, Instant)],
    end: Instant,
) -> Vec<f64> {
    replies.sort_by_key(|r| r.1);
    acks.iter()
        .map(|&(need, at)| {
            let from = replies.partition_point(|r| r.1 < at);
            let seen = replies[from..].iter().find(|r| r.0 >= need).map_or(end, |r| r.1);
            seen.saturating_duration_since(at).as_secs_f64() * 1e3
        })
        .collect()
}

/// Median throughput over the whole one-second windows of `[start, end)`:
/// `acks` holds (ack time, answers acked). A median of windows keeps a
/// brief stall of the shared host from moving the figure.
pub fn median_window_rate(acks: &[(Instant, usize)], start: Instant, end: Instant) -> f64 {
    let windows = (end - start).as_secs() as usize;
    let mut per = vec![0usize; windows.max(1)];
    for &(at, n) in acks {
        if let Some(w) = per.get_mut((at - start).as_secs() as usize) {
            *w += n;
        }
    }
    median(&per.iter().map(|&n| n as f64).collect::<Vec<_>>())
}

/// Run `setup` `SETUP_REPS` times, tearing down all but the last; returns
/// the last set-up and the median set-up time in seconds.
pub fn median_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let env = setup(rep)?;
        times.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            teardown(env);
        } else {
            last = Some(env);
        }
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end record of one workload run: every metric by name with
/// its unit, plus the request accounting.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Request outcomes per phase (set-up, measure, check, ...).
    pub phases: Vec<(&'static str, Counts)>,
}

impl Report {
    pub fn counts(&self) -> Counts {
        let mut all = Counts::default();
        for (_, c) in &self.phases {
            all.add(c);
        }
        all
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// `<prefix>_p50_ms` plus the highest percentile with ten samples
    /// beyond it (named by that percentile), with the sample count.
    pub fn latency(&mut self, prefix: &str, samples: &[f64]) {
        self.put(&format!("{prefix}_p50_ms"), median(samples), "ms");
        if let Some(p) = tail_pct(samples.len()) {
            let label = format!("{p}").replace('.', "");
            self.put(&format!("{prefix}_p{label}_ms"), percentile(samples, p), "ms");
        }
        self.put(&format!("{prefix}_samples"), samples.len() as f64, "count");
    }
}

/// Traced runs: sample the EM phase times of every fit the table publishes
/// until `stop` is set.
pub fn observe_fits(tracer: &Tracer, table: &TableState, stop: &AtomicBool) {
    let mut seen = table.snapshot().refreshes;
    while !stop.load(Ordering::SeqCst) {
        let snap = table.snapshot();
        if snap.refreshes != seen {
            seen = snap.refreshes;
            sample_fit(tracer, &snap);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn sample_fit(tracer: &Tracer, snap: &Snapshot) {
    let t = &snap.result.timings;
    tracer.sample("em.estep_ms", t.estep_ns as f64 / 1e6);
    tracer.sample("em.mstep_ms", t.mstep_ns as f64 / 1e6);
    tracer.sample("em.elbo_ms", t.elbo_ns as f64 / 1e6);
    tracer.sample("em.objective_evals", t.objective_evals as f64);
    tracer.sample("em.iterations", snap.result.iterations as f64);
    tracer.sample("table.refit_ms", snap.last_refit_ms);
}
