//! `durable-ingest`: writes with no reads, into a durable table
//! (`fsync=always`, small WAL segments). An open loop offers answer batches
//! at a fixed rate over two connections; each request is timed from the
//! moment it was due. Refreshes are rare and warm, so EM is a small share
//! of CPU while snapshot deltas, chain collapses, segment rotation and cold
//! segment compaction each happen several times a run. The run ends with a
//! final refresh, a shutdown, and a restart on the same data directory.

use crate::client::{Client, Counts};
use crate::common::*;
use crate::trace::{percentile, Tracer};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcrowd_service::{Json, TableState};
use tcrowd_sim::{WorkerPool, WorkerPoolConfig};
use tcrowd_store::{FsyncPolicy, Store};
use tcrowd_tabular::{generate_dataset, Answer, AnswerLog, CellId, GeneratorConfig, WorkerId};

const ROWS: usize = 2000;
const COLS: usize = 8;
/// Offered load: requests per second across both connections.
const RATE: f64 = 150.0;
const BATCH_MIN: usize = 16;
const BATCH_MAX: usize = 64;
const CONNECTIONS: usize = 2;
/// WAL segment size: small enough that segments rotate, and cold ones are
/// compacted, several times a run.
const SEGMENT_MAX: u64 = 64 * 1024;
const REFRESH_INTERVAL_MS: u64 = 1000;
/// In a traced run every `INPROC`-th request of a connection calls
/// `TableState::submit` in-process instead of over HTTP.
const INPROC: usize = 4;
/// Worker ids of the measured phase's crowd start here, apart from the
/// preloaded log's crowd.
const NEW_CROWD: u32 = 10_000;
const ID: &str = "durable";

fn open_store(dir: &Path) -> Result<Arc<Store>, String> {
    let store = Store::open(dir, FsyncPolicy::Always).map_err(|e| format!("open store: {e}"))?;
    Ok(Arc::new(store.with_segment_max(SEGMENT_MAX)))
}

struct Sent {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    acks: Vec<(u64, Instant)>,
    replies: Vec<(u64, Instant)>,
    acked: Vec<usize>,
    counts: Counts,
}

pub fn run(run: &Run) -> Result<Report, String> {
    let data = generate_dataset(
        &GeneratorConfig {
            rows: ROWS,
            columns: COLS,
            answers_per_task: 1,
            cardinality_range: CARDINALITY,
            ..Default::default()
        },
        DATA_SEED,
    );
    let (schema, truth) = (&data.schema, &data.truth);
    // The whole offered schedule, fixed by the seed before anything runs.
    let mut crowd = WorkerPool::new(schema, truth, WorkerPoolConfig::default(), DATA_SEED);
    let mut rng = Rng::new(run.seed);
    let requests = (RATE * run.seconds).ceil() as usize;
    let batches: Vec<Vec<Answer>> = (0..requests)
        .map(|_| {
            let n = BATCH_MIN + rng.below(BATCH_MAX - BATCH_MIN + 1);
            (0..n)
                .map(|_| {
                    let u = WorkerId(rng.below(crowd.num_workers()) as u32);
                    let cell = CellId::new(rng.below(ROWS) as u32, rng.below(COLS) as u32);
                    Answer { worker: WorkerId(NEW_CROWD + u.0), cell, value: crowd.answer(u, cell) }
                })
                .collect()
        })
        .collect();
    let body = create_body(
        ID,
        schema,
        ROWS,
        &[
            ("refit_every", Json::from(1e15)),
            ("refresh_interval_ms", Json::from(REFRESH_INTERVAL_MS as f64)),
            ("warm_refits", Json::from(true)),
        ],
    );

    let mut report = Report::default();
    let mut setup_counts = Counts::default();
    let dir_of = |rep: usize| run.scratch.join(format!("store-{rep}"));
    let ((server, mut admin, dir), setup_s) = median_setup(
        |rep| {
            let dir = dir_of(rep);
            let _ = std::fs::remove_dir_all(&dir);
            let server = Server::start(Some(open_store(&dir)?), run.tracer.clone())?;
            let mut admin = Client::new(server.addr, "setup");
            let made = create_and_preload(&mut admin, &body, ID, data.answers.all());
            setup_counts.add(&admin.counts);
            made.map(|_| (server, admin, dir))
        },
        |(server, admin, dir)| {
            drop(admin);
            server.stop();
            let _ = std::fs::remove_dir_all(dir);
        },
    )?;
    admin.counts = Counts::default();
    admin.close();
    report.phases.push(("setup", setup_counts));
    report.put("setup_s", setup_s, "s");

    let table = server.registry.get(ID).ok_or("table vanished")?;
    let tracer = run.tracer.as_deref();
    let commits_before = table.commit_stats().unwrap_or_default();
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let sent: Vec<Result<Sent, String>> = std::thread::scope(|s| {
        let observer = tracer.map(|t| s.spawn(|| observe_fits(t, &table, &stop)));
        let conns: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (table, batches) = (&table, &batches);
                s.spawn(move || {
                    let mut client = Client::new(server.addr, &format!("d{c}"));
                    let mut out = Sent {
                        latency_ms: Vec::new(),
                        late_ms: Vec::new(),
                        acks: Vec::new(),
                        replies: Vec::new(),
                        acked: Vec::new(),
                        counts: Counts::default(),
                    };
                    let r = (|| {
                        for (k, i) in (c..requests).step_by(CONNECTIONS).enumerate() {
                            let due = start + Duration::from_secs_f64(i as f64 / RATE);
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            out.late_ms.push(
                                Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3,
                            );
                            let inproc = (k + 1).is_multiple_of(INPROC);
                            let ack = ingest(&mut client, table, &batches[i], tracer, inproc)?;
                            out.acks.push((ack.total, ack.done));
                            if let Some(epoch) = ack.epoch {
                                out.replies.push((epoch, ack.done));
                            }
                            out.latency_ms.extend(ack.latency_ms(Some(due)));
                            if let Some(t) = tracer {
                                t.sample("table.lag", table.pending() as f64);
                            }
                            out.acked.push(i);
                        }
                        Ok(())
                    })();
                    out.counts = client.counts;
                    r.map(|_| out)
                })
            })
            .collect();
        let sent = conns.into_iter().map(|h| h.join().expect("connection thread")).collect();
        stop.store(true, Ordering::SeqCst);
        if let Some(o) = observer {
            o.join().expect("observer thread");
        }
        sent
    });
    let end = Instant::now();
    let mut phase = Counts::default();
    let (mut latency, mut late, mut acks, mut replies, mut acked) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for out in sent {
        let out = out?;
        latency.extend(out.latency_ms);
        late.extend(out.late_ms);
        acks.extend(out.acks);
        replies.extend(out.replies);
        acked.extend(out.acked);
        phase.add(&out.counts);
    }
    report.phases.push(("measure", phase));
    let acked_answers: usize = acked.iter().map(|&i| batches[i].len()).sum();
    report.put("offered_requests_per_s", RATE, "1/s");
    report.put("answers_per_s", acked_answers as f64 / (end - start).as_secs_f64(), "answers/s");
    report.latency("ingest", &latency);
    report.put("gen_late_p99_ms", percentile(&late, 99.0), "ms");
    // As on crowd-live: acks too close to the end to be seen are left out.
    let guard = Duration::from_secs_f64((run.seconds / 4.0).min(2.0));
    let acks: Vec<_> = acks.into_iter().filter(|a| a.1 + guard <= end).collect();
    report.latency("visible", &visibility_ms(&acks, &mut replies, end));

    // Final refresh, then the pre-restart state the restart must reproduce.
    admin.post(&format!("/tables/{ID}/refresh"), "")?;
    let log = served_log(&mut admin, ID, schema, ROWS)?;
    let mut expected: Vec<&Answer> = data.answers.all().iter().collect();
    expected.extend(acked.iter().flat_map(|&i| &batches[i]));
    check_same_answers(&log, expected)?;
    let before = served_truth_z(&mut admin, ID)?;
    let served = admin.get(&format!("/tables/{ID}/truth"))?;
    report.put("truth_error", truth_error(&served.body, schema, truth)?, "ratio");
    if let Some(t) = tracer {
        let table_dir = server.registry.store().ok_or("registry has no store")?.table_dir(ID);
        store_layers(t, &table, &table_dir, log.len(), commits_before);
    }
    report.phases.push(("check", admin.counts));
    drop((admin, table));
    server.stop();

    if let Some(t) = tracer {
        let copy = run.scratch.join("store-copy");
        copy_dir(&dir, &copy).map_err(|e| format!("copy data dir: {e}"))?;
        let store = Store::open(&copy, FsyncPolicy::Always).map_err(|e| e.to_string())?;
        t.time("store.recover_table", "recover-copy", 0, || store.recover_table(ID))
            .map_err(|e| e.to_string())?;
        let _ = std::fs::remove_dir_all(&copy);
    }

    let reopened = Instant::now();
    let server = Server::start(Some(open_store(&dir)?), run.tracer.clone())?;
    let mut client = Client::new(server.addr, "restart");
    client.get(&format!("/tables/{ID}/truth"))?;
    report.put("recover_s", reopened.elapsed().as_secs_f64(), "s");
    let recovered = served_log(&mut client, ID, schema, ROWS)?;
    if recovered.all() != log.all() {
        return Err("recovered log differs from the acked log".into());
    }
    let gap = z_gap(&served_truth_z(&mut client, ID)?, &before);
    if gap >= 1e-6 {
        return Err(format!("recovered truth differs from the pre-restart truth by {gap:e}"));
    }
    println!("check ok: restart recovered all {} answers in order; truth gap {gap:.1e}", log.len());
    report.put("peak_rss_mb", peak_rss_mb(), "MB");
    report.phases.push(("restart", client.counts));
    drop(client);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(report)
}

/// The served log holds exactly the acked answers (the order between the
/// two connections is the service's).
fn check_same_answers(log: &AnswerLog, expected: Vec<&Answer>) -> Result<(), String> {
    let key = |a: &Answer| (a.worker.0, a.cell.row, a.cell.col, format!("{:?}", a.value));
    let mut got: Vec<_> = log.all().iter().map(key).collect();
    let mut want: Vec<_> = expected.into_iter().map(key).collect();
    got.sort();
    want.sort();
    if got != want {
        return Err(format!(
            "served log ({} answers) differs from the {} acked",
            got.len(),
            want.len()
        ));
    }
    println!("check ok: served log = the {} acked answers", want.len());
    Ok(())
}

fn store_layers(
    t: &Tracer,
    table: &TableState,
    table_dir: &Path,
    answers: usize,
    before: tcrowd_store::CommitStatsView,
) {
    let after = table.commit_stats().unwrap_or_default();
    let groups = after.groups - before.groups;
    t.sample("store.commit_groups", groups as f64);
    t.sample(
        "store.frames_per_fsync",
        (after.frames - before.frames) as f64 / groups.max(1) as f64,
    );
    t.sample("store.wal_segments", table.wal_segments().unwrap_or(0) as f64);
    t.sample("store.snapshot_links", table.store_snapshot_links().unwrap_or(0) as f64);
    let bytes = dir_bytes(table_dir);
    t.sample("store.bytes_per_answer", bytes as f64 / answers.max(1) as f64);
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
