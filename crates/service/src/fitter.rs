//! The fit half of a table: the evolving [`FitState`] behind the fitter
//! mutex, the refresh that publishes a new [`Snapshot`], and the background
//! refresher thread that drives it.
//!
//! A refresh runs in five phases (the crate docs draw them): **slice** the
//! log tail since the fit epoch under a brief ingest lock; **fit** —
//! delta-merge, EM and trust — with the ingest lock free; **catch-up** the
//! answers that arrived mid-fit (a second brief slice, plus the durable
//! mark); **publish** the snapshot; **persist** it to the store. The fit
//! and catch-up phases run under panic containment: a panic marks the
//! pipeline dirty (it is rebuilt from the ingest log on the next refresh)
//! and degrades the table's refit axis instead of killing the refresher or
//! poisoning the fitter mutex.

use crate::fresh::FreshOverlay;
use crate::health::Axis;
use crate::lock_recover;
use crate::table::{Snapshot, TableState};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};
use tcrowd_core::{CorrelationModel, FitState, TCrowd};
use tcrowd_tabular::{AnswerLog, LogSlice, SharedLog};

/// The evolving [`FitState`] plus the arrival-order [`SharedLog`] mirror at
/// the same epoch. Lives behind the fitter mutex — held across EM, never
/// while the ingest lock is wanted by `submit`.
pub(crate) struct FitPipeline {
    pub(crate) fit: FitState,
    pub(crate) shared: SharedLog,
}

impl FitPipeline {
    /// A pipeline over `fit` and `log`, the log it covers.
    pub(crate) fn new(fit: FitState, log: &AnswerLog) -> FitPipeline {
        assert_eq!(fit.epoch(), log.len(), "fit state must cover the adopted log");
        FitPipeline { fit, shared: SharedLog::from_log(log) }
    }

    fn absorb(&mut self, slice: &LogSlice) {
        self.fit.absorb(slice);
        self.shared.append(slice);
    }

    fn catch_up(&mut self, slice: &LogSlice) {
        self.fit.catch_up(slice);
        self.shared.append(slice);
    }
}

/// The refresher thread and its wake/stop channel.
#[derive(Default)]
pub(crate) struct Refresher {
    stop: Mutex<bool>,
    wake: Condvar,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Refresher {
    /// Start the thread: it refreshes `table` every `interval` when work is
    /// pending, and at once when woken over the `refit_every` threshold.
    /// It holds the table only weakly, between waits.
    pub(crate) fn start(self: &Arc<Self>, table: Weak<TableState>, interval: Duration) {
        let ctl = Arc::clone(self);
        // The refresher must be unkillable by a sibling panic: every lock
        // here recovers from poisoning (the stop flag is a plain bool — a
        // poisoned guard is still a valid bool), and the tick body contains
        // its own failures, so one panicked request thread can never strand
        // a table without its refresher.
        let handle = std::thread::spawn(move || loop {
            let stop = {
                let guard = lock_recover(&ctl.stop);
                // Only sleep while below the wake threshold: a notify_one
                // that fires while a refresh is running (not while we wait)
                // would otherwise be lost and the burst would sit for a full
                // interval.
                let idle = table.upgrade().is_some_and(|t| t.pending() < t.config.refit_every);
                if *guard || !idle {
                    *guard
                } else {
                    *ctl.wake.wait_timeout(guard, interval).unwrap_or_else(|p| p.into_inner()).0
                }
            };
            match table.upgrade() {
                Some(table) if !stop => table.tick(),
                _ => return,
            }
        });
        *lock_recover(&self.thread) = Some(handle);
    }

    /// Wake the thread. Notifies while holding its mutex: this serialises
    /// against the thread's below-threshold check, so the wake either lands
    /// while it waits or the re-check sees the new state — never lost in
    /// the check→wait window.
    pub(crate) fn wake(&self) {
        let _guard = lock_recover(&self.stop);
        self.wake.notify_one();
    }

    /// Stop and join the thread (idempotent).
    pub(crate) fn stop(&self) {
        *lock_recover(&self.stop) = true;
        self.wake.notify_all();
        if let Some(handle) = lock_recover(&self.thread).take() {
            let _ = handle.join();
        }
    }
}

impl TableState {
    /// Whether a refresh would change the published state: answers are
    /// pending, the last publish folded in mid-fit arrivals incrementally
    /// and a settling refit would make it exact again, or the quarantine
    /// decision set has moved past the exclusions the published fit used.
    pub fn needs_refresh(&self) -> bool {
        let snap = self.snapshot();
        self.pending() > 0
            || snap.catchup_merged > 0
            || self.trust.differs_from(&snap.trust.excluded)
    }

    /// Re-fit and publish a fresh snapshot (plus, on durable tables, an
    /// incremental store snapshot). The ingest lock is held only for two
    /// `O(Δ)` tail slices; EM and the delta merges run outside it, under
    /// the fitter mutex (which serialises concurrent refreshes). No-op
    /// (returns `false`) when the published snapshot is already current or
    /// the table has been tombstoned. Runs on the refresher thread
    /// normally; `POST …/refresh` calls it synchronously.
    pub fn refresh_now(&self) -> bool {
        let mut pipe = self.lock_fitter();

        // Slice (brief ingest lock): the tail since the fit epoch.
        let tail = lock_recover(&self.ingest).slice_since(pipe.fit.epoch());
        if tail.is_empty() {
            // Nothing new AND the published state is already the exact fit
            // of its epoch (no catch-up answers folded in incrementally, no
            // quarantine decision waiting to be applied): a refresh would
            // republish the same state.
            let snap = self.snapshot();
            if snap.epoch == pipe.fit.epoch()
                && snap.catchup_merged == 0
                && !self.trust.differs_from(pipe.fit.exclusions())
            {
                self.health.clear(Axis::Refit);
                return false;
            }
        }

        // Fit (no ingest lock): delta-merge + EM + trust while ingestion
        // flows.
        self.obs.event(
            "refit_started",
            format!("epoch {} (+{} pending)", pipe.fit.epoch(), tail.len()),
            None,
        );
        let t0 = Instant::now();
        let Some(trust_report) = self.contained("refit", || {
            self.maybe_inject_refit_panic();
            pipe.absorb(&tail);
            pipe.fit.refit(self.config.warm_refits);
            self.trust.apply(&mut pipe.fit, &self.config, self.durability.as_ref(), &self.health)
        }) else {
            return false;
        };
        let fitted_epoch = pipe.fit.epoch();

        // Catch-up (brief ingest lock): the mid-fit arrivals and the durable
        // mark, read in one hold so the (epoch, offset) pair is exact; the
        // O(Δ') merge + §5.1 update then runs outside it. A failed WAL sync
        // still publishes; only the store persist is skipped.
        let (catch, wal_pos) = {
            let log = lock_recover(&self.ingest);
            let catch = log.slice_since(fitted_epoch);
            let wal_pos = match &self.durability {
                Some(d) => d.synced_mark(log, &self.health),
                None => None,
            };
            (catch, wal_pos)
        };
        let Some((epoch, matrix, result, correlation)) = self.contained("catch-up merge", || {
            pipe.catch_up(&catch);
            let correlation =
                CorrelationModel::fit_matrix(&self.schema, pipe.fit.matrix(), pipe.fit.result());
            (pipe.fit.epoch(), pipe.fit.matrix_arc(), pipe.fit.result().clone(), correlation)
        }) else {
            return false;
        };

        // Publish.
        let last_refit_ms = t0.elapsed().as_secs_f64() * 1e3;
        let catchup_merged = catch.len();
        let snapshot = Arc::new(Snapshot {
            log: pipe.shared.clone(),
            matrix,
            result,
            correlation,
            epoch,
            fitted_epoch,
            catchup_merged,
            last_refit_ms,
            refreshes: self.snapshot().refreshes + 1,
            published_at: Instant::now(),
            trust: Arc::new(self.trust.view(trust_report, pipe.fit.exclusions())),
            fresh: FreshOverlay::new(epoch),
        });
        // Tombstone guard: a refresh that was mid-refit when the table was
        // removed must not publish a snapshot for a dead table.
        if self.is_deleted() {
            return false;
        }
        let published = {
            let mut slot = self.published.write().unwrap_or_else(|p| p.into_inner());
            // Refreshes are serialised by the fitter mutex, so the epoch can
            // only advance; keep the guard anyway — never replace a newer
            // snapshot with an older one.
            let newer = snapshot.epoch >= slot.epoch;
            if newer {
                *slot = Arc::clone(&snapshot);
            }
            newer
        };
        self.health.clear(Axis::Refit);
        if !published {
            return true;
        }
        let timings = &snapshot.result.timings;
        self.obs.observe_refit((last_refit_ms * 1e6) as u64, timings.estep_ns, timings.mstep_ns);
        self.trust.publish_gauges(&snapshot.trust);
        self.obs.event(
            "refit_published",
            format!("epoch {epoch} (fitted {fitted_epoch}, catch-up {catchup_merged})"),
            None,
        );

        // Persist.
        if let (Some(d), Some(pos)) = (&self.durability, wal_pos) {
            self.write_store_snapshot(d, pos);
        }
        true
    }

    /// The fitter pipeline, rebuilt first when a contained panic (or a
    /// panic that poisoned the mutex) may have left it inconsistent.
    fn lock_fitter(&self) -> MutexGuard<'_, FitPipeline> {
        let mut pipe = self.fitter.lock().unwrap_or_else(|poisoned| {
            // A sibling panicked under the fitter lock (without the
            // refresh path's containment — e.g. an OOM-adjacent abort
            // path): its half-mutated pipeline cannot be trusted.
            self.fitter_dirty.store(true, Ordering::SeqCst);
            poisoned.into_inner()
        });
        if self.fitter_dirty.swap(false, Ordering::SeqCst) {
            // Rebuild from the system of record: an empty pipeline whose
            // next absorb covers the whole ingest log (one cold fit — the
            // same work a fresh recovery would do). The exclusion set is
            // re-seeded from the trust book so the rebuilt fit filters
            // from its first refit.
            let mut fit = FitState::empty(TCrowd::default_full(), self.schema.clone(), self.rows);
            fit.set_exclusions(self.trust.excluded());
            *pipe = FitPipeline::new(fit, &AnswerLog::new(self.rows, self.cols()));
        }
        pipe
    }

    /// Run one refresh step under panic containment. A panic marks the
    /// pipeline dirty, is traced, and degrades the refit axis; the fitter
    /// guard outlives the catch, so the mutex is not poisoned by it.
    fn contained<R>(&self, step: &str, f: impl FnOnce() -> R) -> Option<R> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(r) => Some(r),
            Err(payload) => {
                self.fitter_dirty.store(true, Ordering::SeqCst);
                let msg = panic_message(&payload);
                self.obs.event("refit_panicked", msg.clone(), None);
                self.health.fail(Axis::Refit, format!("{step} panicked: {msg}"));
                None
            }
        }
    }

    /// One refresher-loop iteration: run due repairs, then refresh unless
    /// the fit path is in backoff.
    fn tick(&self) {
        let due = self.health.repair(|broken| {
            if broken.has(Axis::Wal) {
                self.rebuild_wal();
            }
            if broken.has(Axis::Persist) && !self.health.is_broken(Axis::Wal) {
                self.persist_store_snapshot();
            }
        });
        let refit_due = due.is_some_and(|broken| broken.has(Axis::Refit));
        if !self.health.backing_off(Axis::Refit) && (self.needs_refresh() || refit_due) {
            self.refresh_now();
        }
    }

    /// Chaos hook: make the next `n` fit steps panic inside the refresh
    /// path's containment (each consumes one budget unit).
    pub fn inject_refit_panics(&self, n: u64) {
        self.refit_panic_budget.store(n, Ordering::SeqCst);
    }

    fn maybe_inject_refit_panic(&self) {
        if self
            .refit_panic_budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
            .is_ok()
        {
            panic!("injected refit panic (chaos budget)");
        }
    }
}

/// Best-effort panic payload → message (panics carry `&str` or `String`
/// nearly always).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
