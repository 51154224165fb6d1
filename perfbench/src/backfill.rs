//! `backfill-refit`: bulk writes plus full-table reads, where EM dominates.
//! Set-up imports a generated ~50k-answer log on the 1000×10 shape of the
//! inference and refresh benches and fits it once. Each measured cycle
//! posts one body of new answers, forces a synchronous cold refit with
//! `POST …/refresh` and reads `GET …/truth`. The refresher's cadence is
//! longer than any run, so only the explicit refreshes fit and every fit
//! is a pure function of the seed-fixed log.

use crate::client::{Client, Counts};
use crate::common::*;
use crate::trace::{median, Tracer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcrowd_core::CorrelationModel;
use tcrowd_service::{Json, Snapshot, TableState};
use tcrowd_tabular::{generate_dataset, AnswerMatrix, GeneratorConfig};

const ROWS: usize = 1000;
const COLS: usize = 10;
/// The generated log is 15 answers per cell; a seeded shuffle splits it
/// into the ~50k preloaded answers and the stream of the measured phase.
const ANSWERS_PER_TASK: usize = 15;
const PRELOAD: usize = 50_000;
/// Answers per measured `POST …/answers` body.
const BODY: usize = 300;
/// `truth_error` is taken from the truth served after this many cycles,
/// which every run completes, so it is deterministic for a seed.
const TRUTH_CYCLE: usize = 8;
/// Refresher cadence: longer than a run, so only explicit refreshes fit.
const REFRESH_INTERVAL_MS: u64 = 60_000;
const ID: &str = "backfill";

pub fn run(run: &Run) -> Result<Report, String> {
    let data = generate_dataset(
        &GeneratorConfig {
            rows: ROWS,
            columns: COLS,
            answers_per_task: ANSWERS_PER_TASK,
            cardinality_range: CARDINALITY,
            ..Default::default()
        },
        DATA_SEED,
    );
    let (schema, truth) = (&data.schema, &data.truth);
    let mut answers = data.answers.all().to_vec();
    Rng::new(run.seed).shuffle(&mut answers);
    let (preload, stream) = answers.split_at(PRELOAD);
    let mut batches = stream.chunks(BODY);
    let body = create_body(
        ID,
        schema,
        ROWS,
        &[
            ("refit_every", Json::from(1e15)),
            ("refresh_interval_ms", Json::from(REFRESH_INTERVAL_MS as f64)),
        ],
    );
    let mut report = Report::default();
    let mut setup_counts = Counts::default();
    let ((server, mut client), setup_s) = median_setup(
        |_| {
            let server = Server::start(None, run.tracer.clone())?;
            let mut client = Client::new(server.addr, "b");
            let made = create_and_preload(&mut client, &body, ID, preload);
            setup_counts.add(&client.counts);
            made.map(|_| (server, client))
        },
        |(server, client)| {
            drop(client);
            server.stop();
        },
    )?;
    client.counts = Counts::default();
    report.phases.push(("setup", setup_counts));
    report.put("setup_s", setup_s, "s");

    let table = server.registry.get(ID).ok_or("table vanished")?;
    let tracer = run.tracer.as_deref();
    let stop = AtomicBool::new(false);
    let (mut ingest_ms, mut refresh_ms, mut truth_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut acks, mut replies) = (Vec::new(), Vec::new());
    let mut acked = 0usize;
    let mut cycle_rate = Vec::new();
    let mut error = None;
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(run.seconds);
    let phase: Result<(), String> = std::thread::scope(|s| {
        let observer = tracer.map(|t| s.spawn(|| observe_fits(t, &table, &stop)));
        let mut cycle = 0usize;
        let result = (|| {
            while cycle < TRUTH_CYCLE || Instant::now() < until {
                cycle += 1;
                let began = Instant::now();
                // Traced runs call the table in-process on every other cycle.
                let inproc = tracer.filter(|_| cycle.is_multiple_of(2));
                let answers = batches.next().ok_or("the answer stream ran out")?;
                let prev = table.snapshot();
                let ack = ingest(&mut client, &table, answers, tracer, inproc.is_some())?;
                acks.push((ack.total, ack.done));
                ingest_ms.extend(ack.latency_ms(None));
                match inproc {
                    Some(t) => {
                        t.sample("table.lag", table.pending() as f64);
                        let rid = client.next_rid();
                        let t0 = Instant::now();
                        t.time("table.refresh_now", &rid, 0, || table.refresh_now());
                        let done = Instant::now();
                        t.span("gen.refresh.inproc", t0, done, &rid, 0);
                        replies.push((table.snapshot().epoch as u64, done));
                    }
                    None => {
                        if let Some(t) = tracer {
                            t.sample("table.lag", table.pending() as f64);
                        }
                        let reply = client.post(&format!("/tables/{ID}/refresh"), "")?;
                        refresh_ms.push(reply.latency_ms());
                        let epoch = reply.body.get("stats").and_then(|s| s.get("epoch"));
                        replies.push((epoch.and_then(Json::as_u64).ok_or("no epoch")?, reply.done));
                        if let Some(t) = tracer {
                            t.span("gen.refresh", reply.sent, reply.done, &reply.rid, 0);
                        }
                    }
                }
                acked += answers.len();
                let reply = client.get(&format!("/tables/{ID}/truth"))?;
                truth_ms.push(reply.latency_ms());
                replies.push((reply.u64("epoch")?, reply.done));
                if let Some(t) = tracer {
                    t.span("gen.truth", reply.sent, reply.done, &reply.rid, 0);
                    probe_refresh_layers(t, &table, &prev, &format!("probe-{cycle}"));
                }
                cycle_rate.push(answers.len() as f64 / began.elapsed().as_secs_f64());
                if cycle == TRUTH_CYCLE {
                    error = Some(truth_error(&reply.body, schema, truth)?);
                }
            }
            Ok(())
        })();
        stop.store(true, Ordering::SeqCst);
        if let Some(o) = observer {
            o.join().expect("observer thread");
        }
        result
    });
    phase?;
    let end = Instant::now();
    report.phases.push(("measure", client.counts));
    client.counts = Counts::default();
    // Median over cycles of the answers a cycle acks per second it takes.
    report.put("answers_per_s", median(&cycle_rate), "answers/s");
    report.put("answers_per_s_mean", acked as f64 / (end - start).as_secs_f64(), "answers/s");
    report.latency("ingest", &ingest_ms);
    report.latency("refresh", &refresh_ms);
    report.latency("truth", &truth_ms);
    report.latency("visible", &visibility_ms(&acks, &mut replies, end));
    report.put("truth_error", error.ok_or("truth cycle not reached")?, "ratio");

    report.put("peak_rss_mb", peak_rss_mb(), "MB");
    check_served(&mut client, ID, schema, ROWS, PRELOAD + acked)?;
    report.phases.push(("check", client.counts));
    drop(client);
    server.stop();
    Ok(report)
}

/// Re-run, in-process and on the same inputs, the refresh-side calls the
/// table made to publish `table`'s current snapshot after `prev`: the log
/// slice, the delta merge, a full freeze, the correlation fit and the
/// trust scoring.
fn probe_refresh_layers(t: &Tracer, table: &Arc<TableState>, prev: &Arc<Snapshot>, rid: &str) {
    let snap = table.snapshot();
    let log = snap.log.to_log();
    let tail = t.time("tabular.slice", rid, 0, || log.slice_since(prev.epoch));
    let merged = t.time("tabular.merge_delta", rid, tail.len() as u64, || {
        prev.matrix.merge_delta(tail.answers())
    });
    let built = t.time("tabular.build", rid, log.len() as u64, || AnswerMatrix::build(&log));
    std::hint::black_box((merged, built));
    let corr = t.time("corr.fit", rid, 0, || {
        CorrelationModel::fit_matrix(&table.schema, &snap.matrix, &snap.result)
    });
    let trust = t.time("trust.score", rid, 0, || {
        tcrowd_trust::score_workers(&snap.result, &snap.matrix, &table.config.trust)
    });
    std::hint::black_box((corr, trust));
}
