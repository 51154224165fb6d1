//! Worker trust for one table (the crate docs describe the policy): the
//! hysteresis states, the quarantine set last made durable, the trust
//! sequence number, and the [`TrustView`] published with every snapshot.

use crate::config::TableConfig;
use crate::durability::Durability;
use crate::health::{Axis, Health};
use crate::lock_recover;
use crate::obs::TableObs;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tcrowd_core::FitState;
use tcrowd_store::QuarantineEntry;
use tcrowd_tabular::WorkerId;
use tcrowd_trust::{advance, score_workers, TrustState, WorkerTrust};

/// One worker's row in the published trust report.
#[derive(Debug, Clone)]
pub struct WorkerStatus {
    /// Evidence and scores from [`tcrowd_trust::score_workers`] (answer
    /// count, fitted or shadow quality, collusion signal).
    pub trust: WorkerTrust,
    /// Hysteresis state at publish time.
    pub state: TrustState,
    /// Operator-pinned (manual quarantine).
    pub manual: bool,
}

/// The trust report published with a [`crate::Snapshot`]: every scored
/// worker, the quarantine decision set, and the exclusion set the published
/// fit actually ran under. Readers get it with the snapshot's `Arc` clone —
/// `GET …/workers` never takes the trust or fitter lock.
#[derive(Debug, Clone)]
pub struct TrustView {
    /// Per-worker rows, ascending by worker id.
    pub workers: Vec<WorkerStatus>,
    /// The quarantine decision set when this snapshot was published.
    pub quarantine: Vec<QuarantineEntry>,
    /// The workers the published fit excluded (lags `quarantine` by at
    /// most one refresh).
    pub excluded: Vec<WorkerId>,
    /// The table's trust sequence number at publish.
    pub seq: u64,
}

impl TrustView {
    /// Workers in the `Suspect` state.
    pub(crate) fn suspects(&self) -> usize {
        self.workers.iter().filter(|s| s.state == TrustState::Suspect).count()
    }
}

/// Per-worker trust bookkeeping: the hysteresis state plus whether an
/// operator pinned it (`manual` entries are never auto-released).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TrustEntry {
    state: TrustState,
    manual: bool,
}

/// The table's quarantine book. Lock order: its mutex may be held while
/// taking the WAL mutex (so quarantine decisions serialise their
/// full-replacement WAL records in decision order) — never the reverse.
pub(crate) struct TrustBook {
    book: Mutex<Book>,
    /// Bumped on every trust-state or quarantine-set change, manual or
    /// automatic, and only then.
    seq: AtomicU64,
    obs: Arc<TableObs>,
}

struct Book {
    /// Workers in a non-`Trusted` state, or operator-pinned. Auto entries
    /// that recover to `Trusted` are dropped, keeping the map at the size
    /// of the problem rather than the workforce.
    states: BTreeMap<WorkerId, TrustEntry>,
    /// The quarantine set last durably appended to the WAL — compared
    /// before every append so an unchanged set never writes a record.
    persisted: Vec<QuarantineEntry>,
}

impl Book {
    /// Set or remove `worker`'s entry, returning the previous one.
    fn set(&mut self, worker: WorkerId, e: Option<TrustEntry>) -> Option<TrustEntry> {
        match e {
            Some(e) => self.states.insert(worker, e),
            None => self.states.remove(&worker),
        }
    }

    /// The quarantined subset of the states, sorted by worker.
    fn quarantined(&self) -> Vec<QuarantineEntry> {
        self.states
            .iter()
            .filter(|(_, e)| e.state == TrustState::Quarantined)
            .map(|(&w, e)| QuarantineEntry { worker: w, manual: e.manual })
            .collect()
    }

    /// Durably append the quarantine set as a full-replacement record when
    /// it differs from the set last appended (memory-only tables append
    /// nothing). A failed append is a WAL failure.
    fn persist(&mut self, durability: Option<&Durability>, health: &Health) -> Result<(), String> {
        let set = self.quarantined();
        if set == self.persisted {
            return Ok(());
        }
        if let Some(d) = durability {
            if let Err(e) = d.append_quarantine(&set) {
                let msg = format!("quarantine record append failed: {e}");
                health.fail(Axis::Wal, msg.clone());
                return Err(msg);
            }
        }
        self.persisted = set;
        Ok(())
    }
}

impl TrustBook {
    /// A book holding `quarantine` (the recovered set, already durable) and
    /// the trust gauges seeded from it.
    pub(crate) fn new(quarantine: Vec<QuarantineEntry>, obs: Arc<TableObs>) -> TrustBook {
        let states = quarantine
            .iter()
            .map(|q| (q.worker, TrustEntry { state: TrustState::Quarantined, manual: q.manual }))
            .collect();
        obs.set_trust(0, quarantine.len(), 0);
        TrustBook {
            book: Mutex::new(Book { states, persisted: quarantine }),
            seq: AtomicU64::new(0),
            obs,
        }
    }

    /// Monotonic counter bumped on every trust-state or quarantine-set
    /// change (manual or automatic).
    pub(crate) fn seq(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// The current quarantine decision set (sorted by worker id).
    pub(crate) fn quarantine(&self) -> Vec<QuarantineEntry> {
        lock_recover(&self.book).quarantined()
    }

    /// The workers the quarantine decisions exclude from the fit.
    pub(crate) fn excluded(&self) -> Vec<WorkerId> {
        self.quarantine().iter().map(|q| q.worker).collect()
    }

    /// Whether the quarantine decision set differs from `excluded`, the
    /// exclusions a fit ran under (a refresh closes the gap).
    pub(crate) fn differs_from(&self, excluded: &[WorkerId]) -> bool {
        self.excluded() != excluded
    }

    /// Manually quarantine (`quarantined = true`, pinned against
    /// auto-release) or release `worker`, appending the changed set to the
    /// WAL before it takes effect. Returns whether the worker's entry
    /// changed; a decision that changes nothing moves neither the sequence
    /// number nor the event trace.
    pub(crate) fn set_manual(
        &self,
        worker: WorkerId,
        quarantined: bool,
        durability: Option<&Durability>,
        health: &Health,
    ) -> Result<bool, String> {
        let mut book = lock_recover(&self.book);
        let next =
            quarantined.then_some(TrustEntry { state: TrustState::Quarantined, manual: true });
        let prev = book.set(worker, next);
        if let Err(e) = book.persist(durability, health) {
            // Roll back: the in-memory decision must not outrun the WAL.
            book.set(worker, prev);
            return Err(format!("storage: {e}"));
        }
        drop(book);
        if prev == next {
            return Ok(false);
        }
        self.seq.fetch_add(1, Ordering::SeqCst);
        let what = if quarantined { "quarantined" } else { "released" };
        self.obs.event("quarantine", format!("worker {} {what} (manual)", worker.0), None);
        Ok(true)
    }

    /// Score every worker from the just-refit `fit`, advance the hysteresis
    /// states (when `trust_auto` is on; manual pins are never auto-released)
    /// and apply the quarantine set to the fit: when it changed, one extra
    /// refit over the filtered freeze runs so the published result never
    /// mixes quarantined workers in. A failed append of a changed set keeps
    /// the decision (the workers stay excluded) and degrades the table.
    /// Runs under the fitter lock, inside the refresh's panic containment.
    /// Returns the score report for the published trust view.
    pub(crate) fn apply(
        &self,
        fit: &mut FitState,
        config: &TableConfig,
        durability: Option<&Durability>,
        health: &Health,
    ) -> Vec<WorkerTrust> {
        let mut report = score_workers(fit.result(), fit.matrix(), &config.trust);
        let mut book = lock_recover(&self.book);
        if config.trust_auto {
            for t in &report {
                let entry = book
                    .states
                    .entry(t.worker)
                    .or_insert(TrustEntry { state: TrustState::Trusted, manual: false });
                if entry.manual {
                    continue;
                }
                let next = advance(entry.state, t, &config.trust);
                if next != entry.state {
                    self.obs.event(
                        "trust",
                        format!("worker {} {:?} -> {next:?} (auto)", t.worker.0, entry.state),
                        None,
                    );
                    entry.state = next;
                    self.seq.fetch_add(1, Ordering::SeqCst);
                }
            }
            book.states.retain(|_, e| e.manual || e.state != TrustState::Trusted);
        }
        let _ = book.persist(durability, health);
        let excluded = book.quarantined().iter().map(|q| q.worker).collect();
        drop(book);
        if fit.set_exclusions(excluded) {
            self.seq.fetch_add(1, Ordering::SeqCst);
            fit.refit(config.warm_refits);
            // Re-score over the filtered fit so the published report agrees
            // with the published result (quarantined workers show shadow
            // scores, not stale fitted qualities). States advanced above
            // from the pre-change fit and are not re-advanced here.
            report = score_workers(fit.result(), fit.matrix(), &config.trust);
        }
        report
    }

    /// The trust view to publish: the score `report` overlaid with the
    /// book's states, plus book-only workers (e.g. quarantined before their
    /// first answer) appended with empty evidence. `excluded` is the set
    /// the published fit ran under.
    pub(crate) fn view(&self, report: Vec<WorkerTrust>, excluded: &[WorkerId]) -> TrustView {
        let book = lock_recover(&self.book);
        let mut workers: Vec<WorkerStatus> = report
            .into_iter()
            .map(|t| {
                let e = book.states.get(&t.worker);
                WorkerStatus {
                    state: e.map_or(TrustState::Trusted, |e| e.state),
                    manual: e.is_some_and(|e| e.manual),
                    trust: t,
                }
            })
            .collect();
        for (&w, e) in &book.states {
            if !workers.iter().any(|s| s.trust.worker == w) {
                workers.push(WorkerStatus {
                    trust: WorkerTrust {
                        worker: w,
                        answers: 0,
                        quality: None,
                        score: 1.0,
                        max_agreement: 0.0,
                        partner: None,
                        value_collisions: 0,
                    },
                    state: e.state,
                    manual: e.manual,
                });
            }
        }
        workers.sort_by_key(|s| s.trust.worker);
        TrustView {
            workers,
            quarantine: book.quarantined(),
            excluded: excluded.to_vec(),
            seq: self.seq(),
        }
    }

    /// Update the trust gauges from a just-published view.
    pub(crate) fn publish_gauges(&self, view: &TrustView) {
        self.obs.set_trust(view.suspects(), view.quarantine.len(), view.seq);
    }
}
