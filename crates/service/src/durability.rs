//! The durable half of a table: its WAL and commit thread, the durable
//! mark snapshots pin to, the store-snapshot chain, the WAL rebuild that
//! repairs a poisoned log, and the deletion tombstone.

use crate::health::{Axis, Health};
use crate::lock_recover;
use crate::table::TableState;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use tcrowd_core::FitParams;
use tcrowd_store::{
    count_segments, CommitSink, CommitStatsView, CommittedBatch, DurableMark, GroupCommit,
    ObsHandle, Persisted, QuarantineEntry, SnapshotChain, Wal, WalPosition,
};
use tcrowd_tabular::{Answer, AnswerLog};

/// The durable half of a table: its open WAL (shared with the per-table
/// commit thread), its directory, and its store-snapshot chain.
///
/// Lock order: the ingest `Mutex` is always taken before
/// the `wal` mutex by direct appenders (quarantine records,
/// tombstones, the rebuild path); the commit thread takes the WAL mutex
/// *alone* and its sink takes the ingest mutex *alone* — neither nests,
/// so the commit thread can never deadlock against a direct appender.
/// The chain mutex comes last: the rebuild path takes it under the ingest
/// and WAL locks, and a persist takes nothing under it but the published
/// snapshot's read lock.
pub struct Durability {
    wal: Arc<Mutex<Wal>>,
    dir: PathBuf,
    pub(crate) chain: Mutex<SnapshotChain>,
    /// The commit thread coalescing concurrent `submit` batches into one
    /// `write+fsync` each ([`GroupCommit`]). `None` until
    /// [`Durability::start`] runs in `spawn`, and again after
    /// [`TableState::shutdown_committer`] on the deletion path.
    committer: Mutex<Option<Arc<GroupCommit>>>,
    /// The commit thread's durable watermark: the WAL position whose
    /// answers are both committed and in the in-memory log. Snapshots pin
    /// to this instead of syncing the WAL under the ingest lock.
    mark: DurableMark,
}

impl Durability {
    /// Wrap a table's open WAL and its snapshot chain — a new
    /// [`SnapshotChain`] for a freshly-created table, the recovered one
    /// otherwise.
    pub fn new(wal: Wal, chain: SnapshotChain) -> Durability {
        Durability {
            dir: wal.dir().to_path_buf(),
            mark: DurableMark::starting_at(wal.position()),
            wal: Arc::new(Mutex::new(wal)),
            chain: Mutex::new(chain),
            committer: Mutex::new(None),
        }
    }

    /// Route WAL timings into `obs`, seed its segment gauge, and start the
    /// commit thread, which pushes committed batches into `log` and advances
    /// the durable mark before any submitter is acked. Called once.
    pub(crate) fn start(&self, log: Arc<Mutex<AnswerLog>>, obs: ObsHandle) {
        lock_recover(&self.wal).set_obs(Arc::clone(&obs));
        obs.wal_segments(count_segments(&self.dir));
        let sink = Arc::new(ServiceSink { log, mark: self.mark.clone() });
        let committer = GroupCommit::spawn(Arc::clone(&self.wal), sink, obs);
        *lock_recover(&self.committer) = Some(Arc::new(committer));
    }

    /// Durably append the full-replacement quarantine record. Callers hold
    /// the trust lock — the documented trust → wal order.
    pub(crate) fn append_quarantine(&self, set: &[QuarantineEntry]) -> Result<(), String> {
        lock_recover(&self.wal).append_quarantine(set).map(|_| ()).map_err(|e| e.to_string())
    }

    /// Read the durable mark under the ingest lock `log` — the mark moves
    /// with the log under that lock, so the pair is exact — then release it
    /// and sync the WAL under the WAL lock alone, with ingestion flowing
    /// (under `fsync=always` this finds nothing new). A failed sync is a
    /// WAL failure and yields `None`: a snapshot pinned to the mark could
    /// point past the durable prefix.
    pub(crate) fn synced_mark(
        &self,
        log: MutexGuard<'_, AnswerLog>,
        health: &Health,
    ) -> Option<WalPosition> {
        let pos = self.mark.get();
        debug_assert_eq!(pos.answers as usize, log.len());
        drop(log);
        let sync = lock_recover(&self.wal).sync();
        match sync {
            Ok(()) => Some(pos),
            Err(e) => {
                health.fail(Axis::Wal, format!("WAL sync failed: {e}"));
                None
            }
        }
    }
}

/// The service's [`CommitSink`]: delivers each durably-committed group
/// into the in-memory log and advances the durable mark in the same
/// ingest-lock hold, so "log length == mark.answers == acked prefix" is
/// an invariant every ingest-lock holder can rely on.
struct ServiceSink {
    log: Arc<Mutex<AnswerLog>>,
    mark: DurableMark,
}

impl CommitSink for ServiceSink {
    fn committed(&self, batches: &[CommittedBatch<'_>]) {
        let mut log = lock_recover(&self.log);
        for batch in batches {
            for &a in batch.answers {
                log.push(a);
            }
        }
        if let Some(last) = batches.last() {
            self.mark.set(last.position);
        }
    }
}

impl TableState {
    /// Whether this table persists to a WAL.
    pub fn durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Group-commit coalescing counters (`None` for memory-only tables or
    /// after the commit thread shut down on the deletion path).
    pub fn commit_stats(&self) -> Option<CommitStatsView> {
        self.durability
            .as_ref()
            .and_then(|d| lock_recover(&d.committer).as_ref().map(|c| c.stats()))
    }

    /// Live WAL segments on disk (`None` for memory-only tables).
    pub fn wal_segments(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| count_segments(&d.dir))
    }

    /// Epoch of the store-snapshot chain written for this table (`None` for
    /// memory-only tables, `Some(0)` before the first write).
    pub fn last_store_snapshot_epoch(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| lock_recover(&d.chain).epoch())
    }

    /// Incremental links in the store-snapshot chain (`None` for
    /// memory-only tables, `Some(0)` right after a full base write).
    pub fn store_snapshot_links(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| lock_recover(&d.chain).links())
    }

    /// Drain the submission queue, commit what is queued, and join the
    /// commit thread (idempotent; no-op for memory-only tables): no batch
    /// is acked after this returns. Must not be called with the ingest or
    /// WAL lock held (the committer takes both while draining).
    pub fn shutdown_committer(&self) {
        let committer = self.durability.as_ref().and_then(|d| lock_recover(&d.committer).take());
        if let Some(c) = committer {
            c.shutdown();
        }
    }

    /// The durable half of [`TableState::submit`]: hand `answers` to the
    /// commit thread and park on the ticket with no lock held. The deletion
    /// path shuts the committer down *before* writing its tombstone, so a
    /// post-tombstone submit fails here rather than acking.
    pub(crate) fn commit(&self, d: &Durability, answers: &[Answer]) -> Result<(), String> {
        let committer = lock_recover(&d.committer).clone().filter(|_| !self.is_deleted());
        let Some(committer) = committer else {
            return Err(format!("table '{}' was deleted", self.id));
        };
        let ticket = committer
            .submit(answers.to_vec())
            .map_err(|e| format!("storage: WAL append failed: {e}"))?;
        match ticket.wait() {
            Ok(_) => Ok(()),
            Err(e) => {
                self.health.fail(Axis::Wal, e.clone());
                Err(format!("storage: {e}"))
            }
        }
    }

    /// Durably append the deletion tombstone to the WAL (no-op for
    /// memory-only tables). Call after [`Self::mark_deleted`]. Shuts the
    /// commit thread down first — that drains and commits every batch
    /// already queued and refuses anything submitted later, so no
    /// acknowledged batch can ever sit *after* the Delete frame in the
    /// WAL. Must not be called with the ingest or WAL lock held (the
    /// drain takes both).
    pub(crate) fn append_tombstone(&self) -> Result<(), String> {
        self.shutdown_committer();
        if let Some(d) = &self.durability {
            let _log = lock_recover(&self.ingest);
            let mut wal = lock_recover(&d.wal);
            wal.append_delete().map_err(|e| format!("tombstone append failed: {e}"))?;
        }
        Ok(())
    }

    /// Persist the current published snapshot to the store, pinned to the
    /// commit thread's durable watermark. Used by recovery, shutdown and
    /// the persist repair to re-establish the snapshot fast path.
    pub fn persist_store_snapshot(&self) {
        let Some(d) = &self.durability else { return };
        if let Some(pos) = d.synced_mark(lock_recover(&self.ingest), &self.health) {
            self.write_store_snapshot(d, pos);
        }
    }

    /// Hand the published snapshot to the table's [`SnapshotChain`] if it
    /// matches `pos`; the chain decides between a delta, a full base and
    /// nothing. Failures degrade the table (`persist_failures` + background
    /// re-attempt), never stop serving: the store snapshot is a recovery
    /// accelerator, the WAL already holds the data.
    pub(crate) fn write_store_snapshot(&self, d: &Durability, pos: WalPosition) {
        if self.is_deleted() {
            return;
        }
        // The chain mutex serialises read → write → advance: the snapshot
        // is read under it, so a slower writer can never write a snapshot
        // (or a fit) that a faster one already superseded, nor chain a
        // delta from a position that one left behind.
        let mut chain = lock_recover(&d.chain);
        let snap = self.snapshot();
        if snap.epoch as u64 != pos.answers {
            // A racing persist captured a different epoch; the call whose
            // position matches its snapshot will write the pair.
            return;
        }
        let outcome = chain.persist(
            pos,
            &snap.log,
            Some(FitParams::of(&snap.result)),
            &snap.trust.quarantine,
            &self.obs.store_sink(),
        );
        drop(chain);
        let kind = match outcome {
            Ok(Persisted::Nothing) => return self.health.clear(Axis::Persist),
            Ok(Persisted::Delta) => "chain delta",
            Ok(Persisted::Base { segments_removed, cleanup }) => {
                if let Some(e) = cleanup {
                    eprintln!("tcrowd-service: table '{}' snapshot cleanup: {e}", self.id);
                }
                if segments_removed > 0 {
                    self.obs.event(
                        "wal_compacted",
                        format!(
                            "{segments_removed} cold segment(s) removed below offset {}",
                            pos.offset
                        ),
                        None,
                    );
                }
                "full base"
            }
            Err(e) => {
                let msg = format!("snapshot write failed: {e}");
                self.obs.event("snapshot_persist_failed", msg.clone(), None);
                return self.health.fail(Axis::Persist, msg);
            }
        };
        self.obs.event("snapshot_persisted", format!("epoch {} ({kind})", snap.epoch), None);
        self.health.clear(Axis::Persist)
    }

    /// Repair a poisoned WAL by rewriting it from the in-memory ingest log.
    /// Sound because of WAL-before-ack: an append either committed before
    /// its batch entered the log, or errored before the log was touched —
    /// so the in-memory log is *exactly* the acknowledged answer set, and a
    /// log rewritten from it loses nothing and invents nothing. The chain's
    /// rebuild drops the stale snapshot chain (whose offsets describe the
    /// old byte layout) first and resets it; the next persist writes a
    /// fresh full base.
    pub(crate) fn rebuild_wal(&self) {
        let Some(d) = &self.durability else { return };
        if self.is_deleted() {
            return;
        }
        // Captured before the ingest/WAL locks: the trust lock must never
        // be taken under the WAL lock (trust → wal is the documented
        // order). A decision racing the rebuild re-appends on the next
        // refresh — the record is a full replacement, so that is benign.
        let quarantine = self.trust.quarantine();
        let result: Result<(), String> = (|| {
            let log = lock_recover(&self.ingest);
            let mut wal = lock_recover(&d.wal);
            if !wal.is_poisoned() {
                // Already healthy (e.g. a racing repair, or the failure was
                // an fsync refused by a poisoned WAL that a restart fixed).
                return Ok(());
            }
            let mut chain = lock_recover(&d.chain);
            *wal = chain
                .rebuild_wal(log.all(), &quarantine, wal.fsync_policy())
                .map_err(|e| format!("log rewrite: {e}"))?;
            let pos = wal.position();
            debug_assert_eq!(pos.answers as usize, log.len());
            // Reset the durable mark under the same ingest-lock hold: the
            // rewritten log's byte layout replaces the old one, and `pos`
            // covers exactly the in-memory (acked) prefix.
            d.mark.set(pos);
            Ok(())
        })();
        match result {
            Ok(()) => {
                eprintln!("tcrowd-service: table '{}' WAL rebuilt; ingest re-enabled", self.id);
                self.obs.event(
                    "wal_rebuilt",
                    "log rewritten from the acknowledged prefix; ingest re-enabled".to_string(),
                    None,
                );
                // The rewrite collapses the chain to a single segment.
                self.obs.store_sink().wal_segments(count_segments(&d.dir));
                self.health.clear(Axis::Wal);
            }
            Err(msg) => self.health.fail(Axis::Wal, format!("WAL rebuild failed: {msg}")),
        }
    }
}
