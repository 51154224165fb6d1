//! `crowd-live`: the paper's live loop (Algorithm 2) as a closed loop. Each
//! connection cycles through simulated workers: `GET …/assignment` for one
//! worker, the oracle answers the cells, `POST …/answers`. The table is
//! memory-only with the structure-aware policy and the default cold refits
//! by its own refresher, so EM runs only in the background.

use crate::client::{Client, Counts};
use crate::common::*;
use crate::trace::Tracer;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcrowd_core::{AssignmentContext, TCrowd};
use tcrowd_service::{Json, TableState};
use tcrowd_sim::{WorkerPool, WorkerPoolConfig};
use tcrowd_tabular::{
    generate_dataset, Answer, AnswerLog, CellId, GeneratorConfig, Schema, Value, WorkerId,
};

const ROWS: usize = 300;
const COLS: usize = 8;
/// Simulated workers; each answers far fewer than `ROWS × COLS` cells in a
/// run, so an assignment never runs out of candidates.
const WORKERS: usize = 256;
const CONNECTIONS: usize = 2;
const PRELOAD_PER_CELL: usize = 3;
/// The table sizes (answers held) whose acks `visible_*` measures.
const VISIBLE_FROM: u64 = 20_000;
const VISIBLE_TO: u64 = 60_000;
/// `truth_error` is that of the truth the service serves for the first
/// `TRUTH_AT` answers of its log (a quiescent cold fit of them): the
/// quality a fixed answer budget bought, whatever the run's speed.
const TRUTH_AT: usize = 60_000;
const ID: &str = "live";
/// In a traced run every `INPROC`-th cycle calls `TableState::assign` and
/// `TableState::submit` in-process instead of over HTTP.
const INPROC: usize = 4;

#[derive(Default)]
struct ConnOut {
    assign_ms: Vec<f64>,
    ingest_ms: Vec<f64>,
    acks: Vec<(u64, Instant)>,
    replies: Vec<(u64, Instant)>,
    /// (ack time, answers acked) per acked batch.
    acked_at: Vec<(Instant, usize)>,
    empty: usize,
    counts: Counts,
}

/// The workload's simulated crowd; every connection holds its own copy, so
/// a worker's quality is the same whichever connection serves them.
fn pool(schema: &Schema, truth: &[Vec<Value>]) -> WorkerPool {
    WorkerPool::new(
        schema,
        truth,
        WorkerPoolConfig { num_workers: WORKERS, ..Default::default() },
        DATA_SEED,
    )
}

pub fn run(run: &Run) -> Result<Report, String> {
    let data = generate_dataset(
        &GeneratorConfig {
            rows: ROWS,
            columns: COLS,
            num_workers: WORKERS,
            answers_per_task: 1,
            cardinality_range: CARDINALITY,
            ..Default::default()
        },
        DATA_SEED,
    );
    let (schema, truth) = (&data.schema, &data.truth);
    // `PRELOAD_PER_CELL` oracle answers per cell, each from a worker drawn
    // by the seed.
    let mut oracle = pool(schema, truth);
    let mut rng = Rng::new(run.seed);
    let preload: Vec<Answer> = (0..ROWS * COLS * PRELOAD_PER_CELL)
        .map(|s| {
            let worker = WorkerId(rng.below(WORKERS) as u32);
            let s = s % (ROWS * COLS);
            let cell = CellId::new((s / COLS) as u32, (s % COLS) as u32);
            Answer { worker, cell, value: oracle.answer(worker, cell) }
        })
        .collect();
    let body = create_body(ID, schema, ROWS, &[("policy", Json::from("structure-aware"))]);

    let mut report = Report::default();
    let mut setup_counts = Counts::default();
    let ((server, mut admin), setup_s) = median_setup(
        |_| {
            let server = Server::start(None, run.tracer.clone())?;
            let mut admin = Client::new(server.addr, "setup");
            let made = create_and_preload(&mut admin, &body, ID, &preload);
            setup_counts.add(&admin.counts);
            made.map(|_| (server, admin))
        },
        |(server, admin)| {
            drop(admin);
            server.stop();
        },
    )?;
    admin.counts = Counts::default();
    admin.close();
    report.phases.push(("setup", setup_counts));
    report.put("setup_s", setup_s, "s");

    let table = server.registry.get(ID).ok_or("table vanished")?;
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(run.seconds);
    let outs: Vec<Result<ConnOut, String>> = std::thread::scope(|s| {
        let observer = run.tracer.as_deref().map(|t| s.spawn(|| observe_fits(t, &table, &stop)));
        let conns: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (table, tracer) = (&table, run.tracer.as_deref());
                s.spawn(move || {
                    let mut pool = pool(schema, truth);
                    let mut out = ConnOut::default();
                    let mut client = Client::new(server.addr, &format!("c{c}"));
                    // This connection's workers, in an order drawn by the seed.
                    let mut workers: Vec<u32> =
                        (c..WORKERS).step_by(CONNECTIONS).map(|w| w as u32).collect();
                    Rng::new(run.seed ^ (c as u64 + 1)).shuffle(&mut workers);
                    let r =
                        conn_loop(&workers, &mut client, &mut pool, table, tracer, until, &mut out);
                    out.counts = client.counts;
                    r.map(|_| out)
                })
            })
            .collect();
        let outs = conns.into_iter().map(|h| h.join().expect("connection thread")).collect();
        stop.store(true, Ordering::SeqCst);
        if let Some(o) = observer {
            o.join().expect("observer thread");
        }
        outs
    });
    let end = Instant::now();
    let elapsed = (end - start).as_secs_f64();
    let mut all = ConnOut::default();
    let mut phase = Counts::default();
    for out in outs {
        let out = out?;
        all.assign_ms.extend(out.assign_ms);
        all.ingest_ms.extend(out.ingest_ms);
        all.acks.extend(out.acks);
        all.replies.extend(out.replies);
        all.acked_at.extend(out.acked_at);
        all.empty += out.empty;
        phase.add(&out.counts);
    }
    report.phases.push(("measure", phase));
    report.put("answers_per_s", median_window_rate(&all.acked_at, start, end), "answers/s");
    let acked: usize = all.acked_at.iter().map(|a| a.1).sum();
    report.put("answers_per_s_mean", acked as f64 / elapsed, "answers/s");
    report.latency("ingest", &all.ingest_ms);
    report.latency("assign", &all.assign_ms);
    // Freshness is compared at equal table sizes: only acks made while the
    // table held VISIBLE_FROM..VISIBLE_TO answers count, so a run that
    // ingests faster (and so refits a larger log later on) is not judged on
    // a different table. Acks in the last quarter of the phase (at most
    // 2 s) have too little time left to be seen, and are left out too.
    let guard = Duration::from_secs_f64((run.seconds / 4.0).min(2.0));
    let acks: Vec<_> = all
        .acks
        .iter()
        .copied()
        .filter(|a| (VISIBLE_FROM..VISIBLE_TO).contains(&a.0) && a.1 + guard <= end)
        .collect();
    report.latency("visible", &visibility_ms(&acks, &mut all.replies, end));
    report.put("empty_assignments", all.empty as f64, "count");

    // Before the checks, whose decoding and offline refit are the
    // benchmark's own allocations.
    report.put("peak_rss_mb", peak_rss_mb(), "MB");
    let log = check_served(&mut admin, ID, schema, ROWS, preload.len() + acked)?;
    let mut budget = AnswerLog::new(ROWS, COLS);
    for a in log.all().iter().take(TRUTH_AT) {
        budget.push(*a);
    }
    if budget.len() < TRUTH_AT {
        println!("note: the run collected only {} answers; truth_error covers them all", log.len());
    }
    let fit = TCrowd::default_full().infer(schema, &budget);
    report.put("truth_error", estimate_error(schema, truth, &fit.estimates()), "ratio");
    report.phases.push(("check", admin.counts));
    drop(admin);
    server.stop();
    Ok(report)
}

/// One connection's closed loop until `until`.
fn conn_loop(
    workers: &[u32],
    client: &mut Client,
    pool: &mut WorkerPool,
    table: &Arc<TableState>,
    tracer: Option<&Tracer>,
    until: Instant,
    out: &mut ConnOut,
) -> Result<(), String> {
    let mut cycle = 0usize;
    while Instant::now() < until {
        let worker = WorkerId(workers[cycle % workers.len()]);
        cycle += 1;
        let inproc = tracer.filter(|_| cycle.is_multiple_of(INPROC));
        if let Some(t) = tracer {
            t.sample("table.lag", table.pending() as f64);
        }
        let cells: Vec<CellId> = match inproc {
            Some(t) => {
                let rid = client.next_rid();
                let t0 = Instant::now();
                let (snap, picks, _) =
                    t.time("table.assign", &rid, 0, || table.assign(worker, COLS, None))?;
                t.span("gen.assign.inproc", t0, Instant::now(), &rid, 0);
                let ctx = AssignmentContext {
                    schema: &table.schema,
                    answers: snap.matrix.as_ref(),
                    freeze: snap.matrix.freeze_view(),
                    inference: Some(&snap.result),
                    max_answers_per_cell: table.config.max_answers_per_cell,
                    terminated: None,
                    correlation: Some(&snap.correlation),
                };
                t.sample("assign.candidates", ctx.candidates(worker).len() as f64);
                picks
            }
            None => {
                let reply =
                    client.get(&format!("/tables/{ID}/assignment?worker={}&k={COLS}", worker.0))?;
                if let Some(t) = tracer {
                    t.span("gen.assign", reply.sent, reply.done, &reply.rid, 0);
                }
                out.assign_ms.push(reply.latency_ms());
                out.replies.push((reply.u64("epoch")?, reply.done));
                let cells = reply.body.get("cells").and_then(Json::as_array).ok_or("no cells")?;
                cells
                    .iter()
                    .map(|c| {
                        let f = |k| c.get(k).and_then(Json::as_u64).ok_or("bad cell");
                        Ok(CellId::new(f("row")? as u32, f("col")? as u32))
                    })
                    .collect::<Result<_, String>>()?
            }
        };
        if cells.is_empty() {
            out.empty += 1;
            continue;
        }
        let answers: Vec<Answer> = cells
            .iter()
            .map(|&cell| Answer { worker, cell, value: pool.answer(worker, cell) })
            .collect();
        let ack = ingest(client, table, &answers, tracer, inproc.is_some())?;
        out.acks.push((ack.total, ack.done));
        if let Some(epoch) = ack.epoch {
            out.replies.push((epoch, ack.done));
        }
        out.ingest_ms.extend(ack.latency_ms(None));
        out.acked_at.push((ack.done, answers.len()));
    }
    Ok(())
}
