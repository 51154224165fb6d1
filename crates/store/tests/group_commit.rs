//! Group-commit and segment-rotation integration tests.
//!
//! Two contracts live here:
//!
//! * **Group commit** (`tcrowd_store::GroupCommit`): every acked ticket
//!   implies the frame is on disk (reopen check), coalescing actually
//!   batches (>1 frame per fsync under load), and acks survive arbitrary
//!   fault schedules across rotation/fsync boundaries.
//! * **Segment rotation**: logical offsets are rotation-oblivious, cold
//!   compaction bounds replay by the live tail while making the snapshot
//!   load-bearing, and `compact_table` collapses the chain back to one
//!   segment.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use tcrowd_store::{
    DurableMark, Fault, FaultKind, FaultOp, FaultyIo, FsyncPolicy, GroupCommit, MarkSink, Store,
    StoreIo, TableMeta, TableSnapshot, WalPosition, EIO, ENOSPC,
};
use tcrowd_tabular::{Answer, CellId, Column, ColumnType, Schema, Value, WorkerId};

const ROWS: usize = 6;

fn meta() -> TableMeta {
    TableMeta {
        rows: ROWS,
        schema: Schema::new(
            "t",
            "k",
            vec![
                Column::new("kind", ColumnType::categorical_with_cardinality(4)),
                Column::new("size", ColumnType::Continuous { min: -10.0, max: 10.0 }),
                Column::new("tag", ColumnType::categorical_with_cardinality(2)),
            ],
        ),
        config: Vec::new(),
    }
}

fn random_answers(n: usize, seed: u64) -> Vec<Answer> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let cell = CellId::new(rng.gen_range(0..ROWS as u32), rng.gen_range(0..3u32));
            let value = if cell.col == 1 {
                Value::Continuous(rng.gen_range(-5.0..5.0))
            } else {
                Value::Categorical(rng.gen_range(0..2))
            };
            Answer { worker: WorkerId(rng.gen_range(0..8)), cell, value }
        })
        .collect()
}

fn random_batches(answers: &[Answer], seed: u64) -> Vec<Vec<Answer>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C4);
    let mut out = Vec::new();
    let mut at = 0;
    while at < answers.len() {
        let take = rng.gen_range(1..=5usize).min(answers.len() - at);
        out.push(answers[at..at + take].to_vec());
        at += take;
    }
    out
}

fn log_of(answers: &[Answer]) -> tcrowd_tabular::AnswerLog {
    let mut log = tcrowd_tabular::AnswerLog::new(ROWS, 3);
    for &a in answers {
        log.push(a);
    }
    log
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("tcrowd_store_group_commit_tests")
        .join(format!("{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn segment_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .filter(|n| tcrowd_store::parse_segment_file_name(n).is_some())
        .collect();
    names.sort();
    names
}

#[test]
fn rotation_preserves_logical_offsets_and_recovery() {
    let dir = fresh_dir("rotate");
    // A 512-byte trigger rotates every handful of batches.
    let store = Store::open(&dir, FsyncPolicy::Flush).unwrap().with_segment_max(512);
    let answers = random_answers(300, 11);
    let batches = random_batches(&answers, 11);
    let mut wal = store.create_table("t", &meta()).unwrap();
    let mut boundaries = vec![wal.position()];
    for b in &batches {
        boundaries.push(wal.append_answers(b).unwrap());
    }
    wal.sync().unwrap();
    let tip = wal.position();
    drop(wal);

    let tdir = store.table_dir("t");
    assert!(segment_files(&tdir).len() > 1, "512-byte trigger must have rotated");
    // Logical positions are cumulative across segments and strictly monotone.
    for w in boundaries.windows(2) {
        assert!(w[1].offset > w[0].offset);
    }

    let rec = store.recover_table("t").unwrap();
    assert_eq!(rec.log.all(), answers.as_slice());
    assert!(rec.torn.is_none());
    drop(rec);

    let report = store.verify_table("t").unwrap();
    assert!(report.errors.is_empty(), "verify errors: {:?}", report.errors);
    assert!(report.segments > 1);
    assert!(!report.head_compacted);
    assert_eq!(report.answers, answers.len() as u64);
    // Physical bytes across the chain equal the logical end (base is 0).
    assert_eq!(report.wal_bytes, tip.offset);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cold_compaction_bounds_replay_and_makes_snapshot_load_bearing() {
    let dir = fresh_dir("coldcompact");
    let store = Store::open(&dir, FsyncPolicy::Flush).unwrap().with_segment_max(512);
    let answers = random_answers(300, 12);
    let mut wal = store.create_table("t", &meta()).unwrap();
    for b in random_batches(&answers, 12) {
        wal.append_answers(&b).unwrap();
    }
    wal.sync().unwrap();
    let pos = wal.position();
    drop(wal);
    let tdir = store.table_dir("t");
    let before = segment_files(&tdir).len();
    assert!(before > 2);

    tcrowd_store::write_snapshot(
        &tdir,
        &TableSnapshot {
            epoch: pos.answers,
            wal_offset: pos.offset,
            meta: meta(),
            log: log_of(&answers),
            fit: None,
            quarantine: Vec::new(),
        },
        &tcrowd_store::real_io(),
    )
    .unwrap();
    let removed = store.compact_cold_segments("t", pos.offset).unwrap();
    assert_eq!(removed as usize, before - 1, "all but the active segment are cold");
    assert!(!tdir.join(tcrowd_store::WAL_FILE).exists(), "segment 0 compacted away");

    // Recovery now *requires* the snapshot — and still restores everything.
    let rec = store.recover_table("t").unwrap();
    assert_eq!(rec.log.all(), answers.as_slice());
    assert_eq!(rec.snapshot_epoch(), Some(answers.len() as u64));
    assert_eq!(rec.replayed_tail, 0);
    let mut wal = rec.wal.unwrap();
    // The reopened chain keeps accepting appends at logical offsets.
    let more = random_answers(10, 13);
    wal.append_answers(&more).unwrap();
    wal.sync().unwrap();
    drop(wal);
    let rec = store.recover_table("t").unwrap();
    assert_eq!(rec.log.len(), answers.len() + more.len());
    drop(rec);

    let report = store.verify_table("t").unwrap();
    assert!(report.errors.is_empty(), "verify errors: {:?}", report.errors);
    assert!(report.head_compacted);
    assert_eq!(report.answers, (answers.len() + more.len()) as u64);

    // Losing the snapshot after head compaction is fatal, loudly: the
    // full-replay fallback is gone by design.
    std::fs::remove_file(tdir.join(tcrowd_store::SNAPSHOT_FILE)).unwrap();
    assert!(store.recover_table("t").is_err());
    let report = store.verify_table("t").unwrap();
    assert!(!report.errors.is_empty(), "verify must flag an unrecoverable table");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compact_table_collapses_chain_to_one_segment() {
    let dir = fresh_dir("compact");
    let store = Store::open(&dir, FsyncPolicy::Flush).unwrap().with_segment_max(512);
    let answers = random_answers(200, 14);
    let mut wal = store.create_table("t", &meta()).unwrap();
    for b in random_batches(&answers, 14) {
        wal.append_answers(&b).unwrap();
    }
    wal.sync().unwrap();
    drop(wal);
    let tdir = store.table_dir("t");
    assert!(segment_files(&tdir).len() > 1);

    let report = store.compact_table("t").unwrap();
    assert!(report.segments_before > 1);
    assert_eq!(report.segments_after, 1);
    assert_eq!(report.answers, answers.len() as u64);
    assert_eq!(segment_files(&tdir), vec![tcrowd_store::WAL_FILE.to_string()]);

    let rec = store.recover_table("t").unwrap();
    assert_eq!(rec.log.all(), answers.as_slice());
    drop(rec);
    let verify = store.verify_table("t").unwrap();
    assert!(verify.errors.is_empty(), "verify errors: {:?}", verify.errors);
    std::fs::remove_dir_all(&dir).ok();
}

/// A [`StoreIo`] that sleeps inside every fsync — long enough that
/// concurrent submitters pile up behind the commit thread, forcing groups
/// of more than one frame.
#[derive(Debug)]
struct SlowSyncIo;

impl StoreIo for SlowSyncIo {
    fn write_all(&self, _path: &Path, file: &mut File, bytes: &[u8]) -> std::io::Result<()> {
        use std::io::Write;
        file.write_all(bytes)
    }

    fn sync_data(&self, _path: &Path, file: &File) -> std::io::Result<()> {
        std::thread::sleep(std::time::Duration::from_millis(2));
        file.sync_data()
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)
    }
}

/// Satellite: the commit-thread torture test. N submitter threads race one
/// commit thread; every ack must imply frame-on-disk (reopen check), and
/// coalescing must actually batch (>1 frame per fsync under load).
#[test]
fn torture_concurrent_submitters_acks_are_durable_and_coalesced() {
    const THREADS: usize = 8;
    const BATCHES_PER_THREAD: usize = 30;
    let dir = fresh_dir("torture");
    let store = Store::open_with_io(&dir, FsyncPolicy::Always, Arc::new(SlowSyncIo)).unwrap();
    // Rotate mid-run too: group commit and rotation share the WAL lock.
    let store = store.with_segment_max(4096);
    let wal = Arc::new(Mutex::new(store.create_table("t", &meta()).unwrap()));
    let mark = DurableMark::starting_at(wal.lock().unwrap().position());
    let committer =
        Arc::new(GroupCommit::spawn_plain(Arc::clone(&wal), Arc::new(MarkSink(mark.clone()))));

    // Every acked (position, batch) pair, across all threads.
    type AckedLog = Arc<Mutex<Vec<(WalPosition, Vec<Answer>)>>>;
    let acked: AckedLog = Arc::new(Mutex::new(Vec::new()));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let committer = Arc::clone(&committer);
            let acked = Arc::clone(&acked);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x7047 + t as u64);
                for i in 0..BATCHES_PER_THREAD {
                    let batch =
                        random_answers(rng.gen_range(1..=4), (t * BATCHES_PER_THREAD + i) as u64);
                    let ticket = committer.submit(batch.clone()).unwrap();
                    let pos = ticket.wait().expect("healthy disk never NACKs");
                    acked.lock().unwrap().push((pos, batch));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = committer.stats();
    committer.shutdown();
    drop(committer);
    drop(wal);

    assert_eq!(stats.frames, (THREADS * BATCHES_PER_THREAD) as u64);
    assert!(
        stats.groups < stats.frames,
        "no coalescing happened: {} groups for {} frames",
        stats.groups,
        stats.frames
    );

    // Reopen: every ack implies its frame (and everything before it) is on
    // disk, at exactly the position the ticket reported.
    let rec = store.recover_table("t").unwrap();
    let log = rec.log.all();
    let acked = acked.lock().unwrap();
    assert_eq!(log.len(), acked.iter().map(|(_, b)| b.len()).sum::<usize>());
    for (pos, batch) in acked.iter() {
        let end = pos.answers as usize;
        let start = end - batch.len();
        assert_eq!(&log[start..end], batch.as_slice(), "acked batch must sit at its position");
    }
    // The durable watermark is the last committed position.
    let tip = acked.iter().map(|(p, _)| *p).max_by_key(|p| p.answers).unwrap();
    assert_eq!(mark.get(), tip);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Satellite: seeded fault injection over segment-rotation and
    /// group-commit-fsync boundaries. Whatever the schedule tears —
    /// mid-frame writes, rotation tmp writes/renames, group fsyncs —
    /// recovery must yield a **bit-identical batch-boundary prefix** of
    /// what was attempted that contains **every acked batch**.
    #[test]
    fn faulty_io_over_rotation_boundaries_never_loses_an_ack(
        n in 1usize..120,
        seed in any::<u64>(),
        n_faults in 0usize..5,
        seg_max in 128u64..2048,
    ) {
        let dir = fresh_dir(&format!("prop_rot_{seed}_{n}_{n_faults}"));
        let io = FaultyIo::new();
        let store = Store::open_with_io(&dir, FsyncPolicy::Always, io.clone() as _)
            .unwrap()
            .with_segment_max(seg_max);
        let answers = random_answers(n, seed);
        let batches = random_batches(&answers, seed ^ 0xFA17);
        // Create before arming faults: aborted creation is covered elsewhere.
        let wal = Arc::new(Mutex::new(store.create_table("t", &meta()).unwrap()));
        let mut frng = StdRng::seed_from_u64(seed ^ 0xFA172);
        for _ in 0..n_faults {
            let op = match frng.gen_range(0..4u8) {
                0 | 1 => FaultOp::Write,
                2 => FaultOp::Sync,
                _ => FaultOp::Rename,
            };
            let (w, s, r) = io.counts();
            let base = match op {
                FaultOp::Write => w,
                FaultOp::Sync => s,
                FaultOp::Rename => r,
            };
            let nth = base + frng.gen_range(1..=batches.len() as u64 * 2 + 3);
            let kind = match op {
                FaultOp::Write if frng.gen_bool(0.5) => {
                    FaultKind::ShortWrite { keep: frng.gen_range(0..64), errno: ENOSPC }
                }
                FaultOp::Write => FaultKind::Error(ENOSPC),
                _ => FaultKind::Error(EIO),
            };
            io.arm(Fault { op, nth, path_contains: None, kind });
        }

        let mark = DurableMark::starting_at(wal.lock().unwrap().position());
        let committer = GroupCommit::spawn_plain(Arc::clone(&wal), Arc::new(MarkSink(mark.clone())));
        // Acks are a prefix of the batches: the WAL poisons itself on the
        // first failed group and the committer NACKs everything after.
        let mut acked = 0usize;
        for b in &batches {
            let ticket = committer.submit(b.clone()).unwrap();
            match ticket.wait() {
                Ok(pos) => {
                    acked += b.len();
                    prop_assert_eq!(pos.answers as usize, acked);
                }
                Err(_) => break,
            }
        }
        committer.shutdown();
        drop(committer);
        drop(wal);

        // The disk stops failing; recovery must restore every ack. (It may
        // restore *more*: an fsync that failed after complete frames hit the
        // file legitimately resurrects NACKed batches — but only whole ones,
        // in order.)
        io.heal();
        let rec = store.recover_table("t").unwrap();
        let recovered = rec.log.len();
        prop_assert!(recovered >= acked, "recovered {recovered} < acked {acked}");
        prop_assert_eq!(rec.log.all(), &answers[..recovered], "bit-identical prefix");
        prop_assert!(mark.get().answers as usize <= recovered, "watermark past recovery");
        let mut boundary = 0usize;
        let at_boundary = batches.iter().any(|b| {
            boundary += b.len();
            boundary == recovered
        }) || recovered == 0;
        prop_assert!(at_boundary, "recovered {recovered} answers is not a batch boundary");
        drop(rec);
        // Idempotence, through whatever rotation residue the faults left.
        let again = store.recover_table("t").unwrap();
        prop_assert_eq!(again.log.all(), &answers[..recovered]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
