//! The snapshot-chain writer: the one place that decides, at each persist,
//! whether a table's chain gets a delta link, a full base or nothing.
//!
//! * A **base** when the chain has none, after recovery found a broken
//!   link, past 32 links, or once the links carry at least 1024 answers
//!   *and* as many as the base (geometric, so the amortised cost per
//!   answer stays constant). The stale links and the WAL segments wholly
//!   below the base are then deleted: no recovery reads them again.
//! * Otherwise a **delta** with the answers since the tip — `O(Δ)`, no
//!   full-log copy. A new fit at an unchanged epoch is a zero-answer
//!   delta, or recovery would seed from the older fit.
//! * **Nothing** for an unchanged epoch and fit (an empty durable table
//!   would otherwise grow one link per restart).

use crate::io::IoHandle;
use crate::obs::ObsHandle;
use crate::segment::{compact_cold_segments, count_segments};
use crate::snapshot::{
    remove_snapshot, remove_snapshot_deltas, write_snapshot, write_snapshot_delta, ChainInfo,
    SnapshotDelta, TableSnapshot,
};
use crate::store::rewrite_wal;
use crate::wal::{FsyncPolicy, QuarantineEntry, TableMeta, Wal, WalPosition, WAL_FILE};
use crate::StoreError;
use std::path::PathBuf;
use std::time::Instant;
use tcrowd_core::FitParams;
use tcrowd_tabular::{Answer, SharedLog};

/// Links after which the next persist collapses the chain into a full base
/// (bounds recovery's chain walk and the table directory's file count).
const SNAPSHOT_CHAIN_MAX_LINKS: u64 = 32;
/// A chain whose links carry at least this many answers, and at least as
/// many as its base, collapses at the next persist.
const SNAPSHOT_CHAIN_MIN_COLLAPSE: u64 = 1024;

/// What one [`SnapshotChain::persist`] wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Persisted {
    /// Nothing: the chain already holds this epoch with this fit, or a
    /// later epoch.
    Nothing,
    /// One delta link with the answers since the previous tip.
    Delta,
    /// A full base.
    Base {
        /// Cold WAL segments deleted below the base.
        segments_removed: u64,
        /// A removal of stale links or cold segments that failed: it costs
        /// disk and replay time, never correctness; the next base retries.
        cleanup: Option<String>,
    },
}

/// One table's snapshot chain and the position the next write extends:
/// new with [`SnapshotChain::new`], or the one [`crate::Recovered`] hands
/// back.
#[derive(Debug)]
pub struct SnapshotChain {
    dir: PathBuf,
    meta: TableMeta,
    io: IoHandle,
    has_base: bool,
    epoch: u64,
    links: u64,
    /// Above every sequence on disk, so a stale orphan never shadows a link.
    next_seq: u64,
    /// Also the number of answers the base carries.
    base_epoch: u64,
    chain_answers: u64,
    broken: Option<String>,
    fit: Option<FitParams>,
}

impl SnapshotChain {
    /// A chain with no base yet: the first persist writes one. `io` is the
    /// handle of the store that owns `dir`.
    pub fn new(dir: PathBuf, meta: TableMeta, io: IoHandle) -> SnapshotChain {
        SnapshotChain {
            dir,
            meta,
            io,
            has_base: false,
            epoch: 0,
            links: 0,
            next_seq: 1,
            base_epoch: 0,
            chain_answers: 0,
            broken: None,
            fit: None,
        }
    }

    /// The chain recovery read: positioned at its tip (`epoch`, carrying
    /// `fit`), forced to a base when a link was broken.
    pub(crate) fn recovered(
        dir: PathBuf,
        meta: TableMeta,
        io: IoHandle,
        info: ChainInfo,
        epoch: u64,
        fit: Option<FitParams>,
    ) -> SnapshotChain {
        SnapshotChain {
            has_base: true,
            epoch,
            links: info.links,
            next_seq: info.max_seq_on_disk + 1,
            base_epoch: info.base_epoch,
            chain_answers: info.chain_answers,
            broken: info.broken,
            fit,
            ..SnapshotChain::new(dir, meta, io)
        }
    }

    /// Whether a base exists for the next persist to extend.
    pub fn has_base(&self) -> bool {
        self.has_base
    }

    /// Epoch the chain covers (0 before the first write).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Delta links on top of the base (0 right after a base write).
    pub fn links(&self) -> u64 {
        self.links
    }

    /// The base snapshot's epoch.
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// Answers carried by the delta links.
    pub fn chain_answers(&self) -> u64 {
        self.chain_answers
    }

    /// Why recovery truncated the chain, until the next base replaces it.
    pub fn broken(&self) -> Option<&str> {
        self.broken.as_deref()
    }

    /// The fit the chain tip carries.
    pub fn fit(&self) -> Option<&FitParams> {
        self.fit.as_ref()
    }

    /// Record that the tip carries `fit` without writing it: a fit
    /// re-derived from the chain's own, so a restart appends no delta.
    pub fn set_fit(&mut self, fit: Option<FitParams>) {
        self.fit = fit;
    }

    /// Persist `(log, fit, quarantine)` at `pos`, the WAL record boundary
    /// at `log.len()` answers, by the rules in the module docs; timings and
    /// the segment count go to `obs`. On error the position is unchanged.
    pub fn persist(
        &mut self,
        pos: WalPosition,
        log: &SharedLog,
        fit: Option<FitParams>,
        quarantine: &[QuarantineEntry],
        obs: &ObsHandle,
    ) -> Result<Persisted, StoreError> {
        let epoch = pos.answers;
        debug_assert_eq!(epoch, log.len() as u64, "pos must be the log's own position");
        let same_fit = self.fit == fit;
        if self.has_base
            && (self.epoch > epoch
                || (self.epoch == epoch && same_fit && (epoch != 0 || self.broken.is_none())))
        {
            return Ok(Persisted::Nothing);
        }
        let delta_answers = epoch - self.epoch;
        let collapse = !self.has_base
            || self.broken.is_some()
            || self.links + 1 > SNAPSHOT_CHAIN_MAX_LINKS
            || {
                let grown = self.chain_answers + delta_answers;
                grown >= SNAPSHOT_CHAIN_MIN_COLLAPSE && grown >= self.base_epoch
            };
        if !collapse {
            let delta = SnapshotDelta {
                seq: self.next_seq,
                parent_epoch: self.epoch,
                epoch,
                wal_offset: pos.offset,
                answers: log.range_vec(self.epoch as usize, epoch as usize),
                fit,
                quarantine: quarantine.to_vec(),
            };
            let t = Instant::now();
            write_snapshot_delta(&self.dir, &delta, &self.io)?;
            obs.snapshot_persist_ns(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
            self.epoch = epoch;
            self.links += 1;
            self.next_seq += 1;
            self.chain_answers += delta_answers;
            self.fit = delta.fit;
            return Ok(Persisted::Delta);
        }
        let base = TableSnapshot {
            epoch,
            wal_offset: pos.offset,
            meta: self.meta.clone(),
            log: log.to_log(),
            fit,
            quarantine: quarantine.to_vec(),
        };
        let t = Instant::now();
        write_snapshot(&self.dir, &base, &self.io)?;
        obs.snapshot_persist_ns(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        *self = SnapshotChain {
            has_base: true,
            epoch,
            base_epoch: epoch,
            fit: base.fit,
            ..SnapshotChain::new(self.dir.clone(), base.meta, self.io.clone())
        };
        let mut failed = Vec::new();
        if let Err(e) = remove_snapshot_deltas(&self.dir) {
            failed.push(format!("stale snapshot deltas not removed: {e}"));
        }
        let segments_removed = compact_cold_segments(&self.dir, pos.offset).unwrap_or_else(|e| {
            failed.push(format!("cold WAL segments not compacted: {e}"));
            0
        });
        if segments_removed > 0 {
            obs.wal_segments(count_segments(&self.dir));
        }
        let cleanup = if failed.is_empty() { None } else { Some(failed.join("; ")) };
        Ok(Persisted::Base { segments_removed, cleanup })
    }

    /// Replace the WAL with one fresh segment holding `answers` and the
    /// `quarantine` set, and reset to a chain with no base. The old chain
    /// describes the old byte layout, so it is removed first: a crash can
    /// never pair a stale offset with the new log. Returns the rewritten
    /// WAL, open for appending at its end with `policy`.
    pub fn rebuild_wal(
        &mut self,
        answers: &[Answer],
        quarantine: &[QuarantineEntry],
        policy: FsyncPolicy,
    ) -> Result<Wal, StoreError> {
        *self = SnapshotChain::new(self.dir.clone(), self.meta.clone(), self.io.clone());
        remove_snapshot(&self.dir)?;
        let pos = rewrite_wal(&self.dir, &self.meta, answers, quarantine, &self.io)?;
        Wal::open_for_append_with_io(self.dir.join(WAL_FILE), pos, policy, self.io.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::real_io;
    use crate::obs::noop_obs;
    use crate::snapshot::{read_snapshot_chain, DELTA_PREFIX};
    use crate::store::Store;
    use crate::wal::{FsyncPolicy, Wal};
    use tcrowd_tabular::{CellId, Column, ColumnType, Schema, Value, WorkerId};

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
                ],
            ),
            config: Vec::new(),
        }
    }

    fn answer(i: usize) -> Answer {
        let cell = CellId::new((i % ROWS) as u32, (i % 2) as u32);
        let value = if cell.col == 1 {
            Value::Continuous(i as f64 % 7.0)
        } else {
            Value::Categorical((i % 4) as u32)
        };
        Answer { worker: WorkerId((i % 5) as u32), cell, value }
    }

    fn fit(tag: f64) -> Option<FitParams> {
        Some(FitParams {
            rows: ROWS,
            cols: 2,
            alpha: vec![tag; ROWS],
            beta: vec![1.0; 2],
            workers: vec![WorkerId(0)],
            phi: vec![0.5],
            renorm_shift: (0.0, 0.0),
        })
    }

    /// A table whose WAL and in-memory log grow together, with a chain
    /// that persists from them.
    struct Table {
        dir: PathBuf,
        store: Store,
        wal: Wal,
        log: SharedLog,
        chain: SnapshotChain,
    }

    impl Table {
        fn new(tag: &str, segment_max: u64) -> Table {
            let root = std::env::temp_dir()
                .join("tcrowd_store_chain_tests")
                .join(format!("{}_{tag}", std::process::id()));
            std::fs::remove_dir_all(&root).ok();
            let store =
                Store::open(&root, FsyncPolicy::Flush).unwrap().with_segment_max(segment_max);
            let wal = store.create_table("t", &meta()).unwrap();
            let chain = SnapshotChain::new(store.table_dir("t"), meta(), real_io());
            Table { dir: root, store, wal, log: SharedLog::new(ROWS, 2), chain }
        }

        /// Append `n` more answers in batches of 8 and return the tip.
        fn grow(&mut self, n: usize) -> WalPosition {
            let from = self.log.len();
            let batch: Vec<Answer> = (from..from + n).map(answer).collect();
            for chunk in batch.chunks(8) {
                self.wal.append_answers(chunk).unwrap();
            }
            self.wal.sync().unwrap();
            self.log.append(&tcrowd_tabular::LogSlice::new(from, batch));
            self.wal.position()
        }

        fn persist(&mut self, pos: WalPosition, fit: Option<FitParams>) -> Persisted {
            self.chain.persist(pos, &self.log, fit, &[], &noop_obs()).unwrap()
        }

        fn delta_files(&self) -> usize {
            std::fs::read_dir(self.store.table_dir("t"))
                .unwrap()
                .filter(|e| {
                    let name = e.as_ref().unwrap().file_name();
                    name.to_str().unwrap().starts_with(DELTA_PREFIX)
                })
                .count()
        }

        /// The chain as a recovery would read it: `(epoch, links)`.
        fn on_disk(&self) -> (u64, u64) {
            let (snap, info) = read_snapshot_chain(&self.store.table_dir("t")).unwrap().unwrap();
            assert!(info.broken.is_none(), "{:?}", info.broken);
            assert_eq!(snap.log.all(), self.log.range_vec(0, snap.epoch as usize).as_slice());
            (snap.epoch, info.links)
        }
    }

    impl Drop for Table {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.dir).ok();
        }
    }

    fn base() -> Persisted {
        Persisted::Base { segments_removed: 0, cleanup: None }
    }

    #[test]
    fn first_persist_writes_a_base_and_later_ones_deltas() {
        let mut t = Table::new("first", u64::MAX);
        let pos = t.grow(10);
        assert_eq!(t.persist(pos, fit(1.0)), base());
        assert_eq!((t.chain.epoch(), t.chain.links(), t.chain.base_epoch()), (10, 0, 10));
        assert_eq!(t.on_disk(), (10, 0));
        for (i, n) in [5, 7].into_iter().enumerate() {
            let pos = t.grow(n);
            assert_eq!(t.persist(pos, fit(1.0)), Persisted::Delta);
            assert_eq!(t.chain.links(), i as u64 + 1);
        }
        assert_eq!(t.chain.chain_answers(), 12);
        assert_eq!(t.on_disk(), (22, 2));
        assert_eq!(t.delta_files(), 2);
    }

    #[test]
    fn same_epoch_writes_nothing_unless_the_fit_changed() {
        let mut t = Table::new("same_epoch", u64::MAX);
        let pos = t.grow(10);
        t.persist(pos, fit(1.0));
        // Same epoch, same fit: nothing to add.
        assert_eq!(t.persist(pos, fit(1.0)), Persisted::Nothing);
        assert_eq!(t.delta_files(), 0);
        // A new fit at the same epoch goes out as a zero-answer delta.
        assert_eq!(t.persist(pos, fit(2.0)), Persisted::Delta);
        assert_eq!((t.chain.links(), t.chain.chain_answers()), (1, 0));
        let (snap, _) = read_snapshot_chain(&t.store.table_dir("t")).unwrap().unwrap();
        assert_eq!(snap.fit, fit(2.0), "recovery must seed from the newer fit");
        assert_eq!(t.persist(pos, fit(2.0)), Persisted::Nothing);
        // An epoch behind the chain is a stale persist.
        let stale = t.log.clone();
        let later = t.grow(3);
        t.persist(later, fit(2.0));
        assert_eq!(
            t.chain.persist(pos, &stale, fit(3.0), &[], &noop_obs()).unwrap(),
            Persisted::Nothing
        );
    }

    #[test]
    fn the_chain_collapses_past_the_link_cap() {
        let mut t = Table::new("link_cap", u64::MAX);
        let pos = t.grow(4);
        t.persist(pos, fit(1.0));
        for _ in 0..SNAPSHOT_CHAIN_MAX_LINKS {
            let pos = t.grow(1);
            assert_eq!(t.persist(pos, fit(1.0)), Persisted::Delta);
        }
        assert_eq!(t.chain.links(), SNAPSHOT_CHAIN_MAX_LINKS);
        let pos = t.grow(1);
        assert_eq!(t.persist(pos, fit(1.0)), base());
        assert_eq!(t.chain.links(), 0);
        assert_eq!(t.delta_files(), 0, "the collapsed links are removed");
        assert_eq!(t.on_disk(), (4 + SNAPSHOT_CHAIN_MAX_LINKS + 1, 0));
    }

    #[test]
    fn the_chain_collapses_once_its_links_outgrow_the_base() {
        let mut t = Table::new("size", u64::MAX);
        let min = SNAPSHOT_CHAIN_MIN_COLLAPSE as usize;
        // A small base: the links collapse once they carry `min` answers.
        let pos = t.grow(100);
        t.persist(pos, fit(1.0));
        let pos = t.grow(min - 1);
        assert_eq!(t.persist(pos, fit(1.0)), Persisted::Delta);
        let pos = t.grow(1);
        assert_eq!(t.persist(pos, fit(1.0)), base());
        assert_eq!(t.chain.base_epoch(), 100 + min as u64);
        // A larger base: `min` answers of links are not yet as many as it.
        let pos = t.grow(min);
        assert_eq!(t.persist(pos, fit(1.0)), Persisted::Delta);
        let pos = t.grow(100);
        assert_eq!(t.persist(pos, fit(1.0)), base());
        assert_eq!(t.on_disk(), (100 + 2 * min as u64 + 100, 0));
    }

    #[test]
    fn a_broken_link_forces_a_base_that_removes_the_orphans() {
        let mut t = Table::new("broken", u64::MAX);
        let pos = t.grow(10);
        t.persist(pos, fit(1.0));
        for _ in 0..3 {
            let pos = t.grow(5);
            t.persist(pos, fit(1.0));
        }
        // Rot link 2: recovery keeps link 1 and replays the tail past it.
        let victim = t.store.table_dir("t").join(format!("{DELTA_PREFIX}2"));
        let mut bytes = std::fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();
        let rec = t.store.recover_table("t").unwrap();
        assert_eq!(rec.log.len(), 25);
        t.wal = rec.wal.unwrap();
        t.chain = rec.chain;
        assert!(t.chain.broken().is_some());
        assert_eq!((t.chain.epoch(), t.chain.links()), (15, 1));
        // The next write is a base even though a delta would be due, and
        // it takes the unreachable links with it.
        let pos = t.grow(2);
        assert_eq!(t.persist(pos, fit(1.0)), base());
        assert!(t.chain.broken().is_none());
        assert_eq!(t.delta_files(), 0);
        assert_eq!(t.on_disk(), (27, 0));
    }

    #[test]
    fn a_base_removes_the_cold_wal_segments_below_it() {
        let mut t = Table::new("cold", 512);
        let pos = t.grow(20);
        t.persist(pos, fit(1.0));
        // Deltas never touch the WAL.
        let pos = t.grow(200);
        let before = count_segments(&t.store.table_dir("t"));
        assert!(before > 2, "512-byte segments must have rotated");
        assert_eq!(t.persist(pos, fit(1.0)), Persisted::Delta);
        assert_eq!(count_segments(&t.store.table_dir("t")), before);
        // A base covers every segment but the active one.
        for _ in 1..SNAPSHOT_CHAIN_MAX_LINKS {
            let pos = t.grow(1);
            t.persist(pos, fit(1.0));
        }
        let after = count_segments(&t.store.table_dir("t"));
        assert_eq!(
            t.chain.persist(t.wal.position(), &t.log, fit(2.0), &[], &noop_obs()).unwrap(),
            Persisted::Base { segments_removed: after - 1, cleanup: None }
        );
        assert_eq!(count_segments(&t.store.table_dir("t")), 1);
        // Recovery still restores everything from the base.
        let rec = t.store.recover_table("t").unwrap();
        assert_eq!(rec.log.len(), t.log.len());
        assert_eq!(rec.replayed_tail, 0);
    }
}
