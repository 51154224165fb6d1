//! One hosted table: the [`TableState`] that ties its parts together, and
//! its ingest and read paths. The request path is split in three (the
//! crate docs draw it):
//!
//! * **Ingest** (`POST …/answers`) appends to the [`AnswerLog`] behind a
//!   `Mutex` — an `O(1)` log push per answer, nothing else. On a durable
//!   table the batch is first group-committed to the write-ahead log
//!   **before** it enters memory or is acknowledged: an acked answer is a
//!   durable answer.
//! * **Reads** (assignment, truth, stats) share an immutable [`Snapshot`]
//!   behind an `RwLock<Arc<…>>` and never contend with ingestion.
//!   Assignment alone also counts the answers acked since the snapshot's
//!   epoch: each snapshot carries an overlay that applies them once, with
//!   the §5.1 incremental update, to a private copy of its posteriors (see
//!   [`TableState::assign`]); `/truth` keeps serving the snapshot.
//! * **Fits** run under a separate *fitter* mutex and **never hold the
//!   ingest lock while EM runs** (the `fitter` module: the refresh phases
//!   and the refresher thread).
//!
//! The other parts each have one owner: [`crate::config`] (the knobs),
//! [`crate::durability`] (WAL, commit thread, snapshot chain, WAL rebuild,
//! tombstone), the `health` module (the degradation machine) and
//! [`crate::trust`] (worker states and the quarantine set).
//!
//! Deletion uses a **tombstone guard**: `TableRegistry::remove` marks the
//! table deleted *before* joining the refresher, so a refresh that is
//! mid-refit when the table dies can never publish (or persist a store
//! snapshot for) a dead table.

use crate::config::TableConfig;
use crate::durability::Durability;
use crate::fitter::{FitPipeline, Refresher};
use crate::fresh::FreshOverlay;
use crate::health::{Health, HealthView};
use crate::lock_recover;
use crate::obs::TableObs;
use crate::policy::make_policy;
use crate::trust::{TrustBook, TrustView};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;
use tcrowd_core::{
    AssignmentContext, CorrelationModel, FitParams, FitState, InferenceResult, TCrowd,
};
use tcrowd_store::{QuarantineEntry, Recovered};
use tcrowd_tabular::{Answer, AnswerLog, AnswerMatrix, CellId, Schema, SharedLog, WorkerId};
use tcrowd_trust::{score_workers, TrustState};

/// An immutable published view of one table: everything the read endpoints
/// serve, consistent at one epoch. Publishing one costs `O(Δ)` — the log
/// is structurally shared and the freeze is an `Arc`.
pub struct Snapshot {
    /// The collected answers up to [`Snapshot::epoch`], in arrival order
    /// (structurally shared with past and future snapshots).
    pub log: SharedLog,
    /// The frozen columnar store of [`Snapshot::log`].
    pub matrix: Arc<AnswerMatrix>,
    /// The inference result published with this snapshot: the EM fit at
    /// [`Snapshot::fitted_epoch`], plus the §5.1 incremental update for
    /// each catch-up answer.
    pub result: InferenceResult,
    /// The structure-aware correlation model fitted from this freeze + fit
    /// (a pure function of the two, cached here so assignment requests stop
    /// re-fitting it per call).
    pub correlation: CorrelationModel,
    /// Number of log answers this snapshot covers.
    pub epoch: usize,
    /// Number of log answers the EM fit itself covered (the catch-up merge
    /// extends the snapshot past it: `epoch − fitted_epoch =`
    /// [`Snapshot::catchup_merged`]).
    pub fitted_epoch: usize,
    /// Answers that arrived mid-fit and were folded in by the catch-up
    /// merge (0 at every quiescent refresh — then the published state is
    /// exactly the cold fit of the log).
    pub catchup_merged: usize,
    /// Wall-clock of the out-of-lock work (merge + EM + catch-up) that
    /// produced this snapshot, in milliseconds (0 for the initial publish).
    pub last_refit_ms: f64,
    /// How many refreshes this table has published (0 = the initial empty
    /// fit).
    pub refreshes: u64,
    /// When this snapshot was published.
    pub published_at: Instant,
    /// The trust report published with this snapshot (worker scores,
    /// states, and the exclusion set the fit ran under).
    pub trust: Arc<TrustView>,
    /// What assignment scores against: [`Snapshot::result`] plus the §5.1
    /// update of every answer acked since [`Snapshot::epoch`], advanced by
    /// the assignment requests themselves (see the `fresh` module).
    pub(crate) fresh: FreshOverlay,
}

/// Per-worker token bucket for the ingest rate limit.
struct Bucket {
    tokens: f64,
    last: Instant,
}

/// One hosted table.
pub struct TableState {
    /// Table id (registry key).
    pub id: String,
    /// The table schema.
    pub schema: Schema,
    /// Service configuration.
    pub config: TableConfig,
    pub(crate) rows: usize,
    /// The mutate state: the committed answer order. On a durable table
    /// only the commit thread's sink pushes here (in WAL order);
    /// memory-only tables push directly from `submit`. Either way every
    /// mutation is `O(batch)` under this lock.
    pub(crate) ingest: Arc<Mutex<AnswerLog>>,
    /// The fit state: evolving freeze + result + shared-log mirror.
    /// Serialises refreshes; EM runs under it with the ingest lock free.
    pub(crate) fitter: Mutex<FitPipeline>,
    /// Set when a caught panic may have left the fitter pipeline
    /// inconsistent; the next refresh rebuilds it from the ingest log
    /// before touching it.
    pub(crate) fitter_dirty: AtomicBool,
    /// Chaos hook: the next N fit steps panic (contained by the refresh
    /// path).
    pub(crate) refit_panic_budget: AtomicU64,
    pub(crate) published: RwLock<Arc<Snapshot>>,
    ingested: AtomicU64,
    /// Deletion tombstone: set by the registry before the refresher is
    /// joined, checked before every publish and store-snapshot write.
    deleted: AtomicBool,
    pub(crate) durability: Option<Durability>,
    pub(crate) refresher: Arc<Refresher>,
    created_at: Instant,
    /// Degradation state machine (a leaf lock).
    pub(crate) health: Health,
    /// Worker trust states and the quarantine set (see [`TrustBook`] for
    /// the lock-order contract with the WAL mutex).
    pub(crate) trust: TrustBook,
    /// Batches refused by the per-worker ingest rate limit.
    rate_limited: AtomicU64,
    /// Per-worker token buckets (leaf lock; only `submit` touches it).
    buckets: Mutex<HashMap<u32, Bucket>>,
    /// Per-table metrics and the lifecycle event ring ([`crate::obs`]).
    pub(crate) obs: Arc<TableObs>,
}

impl TableState {
    /// Create a table (empty log, initial fit published) and start its
    /// refresher thread. `durability` carries the freshly-created WAL for
    /// durable tables, `None` keeps the table memory-only. `obs` is the
    /// table's observability bundle: the registry's, so its series appear
    /// in the shared `/metrics` registry, or [`TableObs::standalone`].
    pub fn create_with_obs(
        id: String,
        schema: Schema,
        rows: usize,
        config: TableConfig,
        durability: Option<Durability>,
        obs: Arc<TableObs>,
    ) -> Arc<TableState> {
        let log = AnswerLog::new(rows, schema.num_columns());
        let fit = FitState::empty(TCrowd::default_full(), schema, rows);
        Self::spawn(id, config, log, fit, durability, Vec::new(), obs)
    }

    /// Resurrect a table from its recovered durable state: the WAL-replayed
    /// log, and — when a snapshot chain survived — the persisted fit
    /// parameters.
    ///
    /// Three cases, strongest first:
    ///
    /// 1. **Chain covers the whole log** (the steady state — a snapshot
    ///    delta follows every publish): the pre-crash *published* state is
    ///    republished verbatim via [`TCrowd::evaluate_seeded`] — one E-step
    ///    at the stored parameters, **no EM**. Recovered served truth ≡
    ///    pre-crash served truth ≡ offline `TCrowd::infer` on the log, to
    ///    float rounding.
    /// 2. **A WAL tail extends past the chain**: the same refit the
    ///    refresher would have run for those pending answers — cold by
    ///    default (published state stays a pure function of the log),
    ///    warm-seeded from the chain's fit when the table is configured
    ///    with `warm_refits`.
    /// 3. **No usable snapshot**: a cold fit of the replayed log.
    pub fn recover(rec: Recovered, config: TableConfig, obs: Arc<TableObs>) -> Arc<TableState> {
        let Recovered { id, meta, log, wal, replayed_tail, mut chain, quarantine, .. } = rec;
        let (schema, rows) = (meta.schema, meta.rows);
        let model = TCrowd::default_full();
        let matrix = log.to_matrix();
        // A recovered quarantine set means the persisted fit parameters were
        // computed over the *filtered* matrix — seed/evaluate over the same
        // filtered view, while the adopted freeze keeps covering the full
        // log (exclusion is a property of the fit, never the data).
        let excluded: Vec<WorkerId> = quarantine.iter().map(|q| q.worker).collect();
        let filtered =
            if excluded.is_empty() { None } else { Some(matrix.without_workers(&excluded)) };
        let fit_matrix = filtered.as_ref().unwrap_or(&matrix);
        // With no tail the chain tip's fit is re-evaluated, not refitted:
        // the result carries that fit (up to the seeding round trip), so the
        // chain already holds it and the first persist has nothing to add.
        let seed = chain.fit().cloned();
        let result = match &seed {
            Some(seed) if replayed_tail == 0 && seed.shape_matches(rows, schema.num_columns()) => {
                let result = model.evaluate_seeded(&schema, fit_matrix, seed);
                chain.set_fit(Some(FitParams::of(&result)));
                result
            }
            Some(seed) if config.warm_refits => {
                model.infer_matrix_seeded(&schema, fit_matrix, seed)
            }
            _ => model.infer_matrix(&schema, fit_matrix),
        };
        let mut fit_state = FitState::from_parts(model, schema, matrix, result);
        fit_state.set_exclusions(excluded);
        let wal = wal.expect("recovered live table carries an open WAL");
        // The recovered chain sits at the on-disk tip: the follow-up
        // persist_store_snapshot appends one O(tail) delta for the replayed
        // tail (or writes nothing when the chain already covers everything)
        // instead of rewriting a byte-identical full snapshot on every
        // restart.
        let durability = Durability::new(wal, chain);
        let table = Self::spawn(id, config, log, fit_state, Some(durability), quarantine, obs);
        // Persist right away: the recovery fit is exactly what a next crash
        // would want to seed from, and it re-establishes the fast path when
        // a tail was replayed.
        table.persist_store_snapshot();
        table
    }

    fn spawn(
        id: String,
        config: TableConfig,
        log: AnswerLog,
        fit: FitState,
        durability: Option<Durability>,
        quarantine: Vec<QuarantineEntry>,
        obs: Arc<TableObs>,
    ) -> Arc<TableState> {
        let (schema, rows) = (fit.schema().clone(), log.rows());
        let pipe = FitPipeline::new(fit, &log);
        let trust = TrustBook::new(quarantine, Arc::clone(&obs));
        let report = score_workers(pipe.fit.result(), pipe.fit.matrix(), &config.trust);
        let correlation =
            CorrelationModel::fit_matrix(&schema, pipe.fit.matrix(), pipe.fit.result());
        let snapshot = Arc::new(Snapshot {
            log: pipe.shared.clone(),
            matrix: pipe.fit.matrix_arc(),
            result: pipe.fit.result().clone(),
            correlation,
            epoch: log.len(),
            fitted_epoch: log.len(),
            catchup_merged: 0,
            last_refit_ms: 0.0,
            refreshes: 0,
            published_at: Instant::now(),
            trust: Arc::new(trust.view(report, pipe.fit.exclusions())),
            fresh: FreshOverlay::new(log.len()),
        });
        let ingested = log.len() as u64;
        let ingest = Arc::new(Mutex::new(log));
        // The commit thread needs the ingest log behind its `Arc`, which
        // only exists from here on.
        if let Some(d) = &durability {
            d.start(Arc::clone(&ingest), obs.store_sink());
        }
        let health = Health::new(&id, config.seed, Arc::clone(&obs));
        let table = Arc::new(TableState {
            id,
            schema,
            config,
            rows,
            ingest,
            fitter: Mutex::new(pipe),
            fitter_dirty: AtomicBool::new(false),
            refit_panic_budget: AtomicU64::new(0),
            published: RwLock::new(snapshot),
            ingested: AtomicU64::new(ingested),
            deleted: AtomicBool::new(false),
            durability,
            refresher: Arc::default(),
            created_at: Instant::now(),
            health,
            trust,
            rate_limited: AtomicU64::new(0),
            buckets: Mutex::new(HashMap::new()),
            obs,
        });
        table.refresher.start(Arc::downgrade(&table), table.config.refresh_interval);
        table
    }

    /// Number of table rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of table columns.
    pub fn cols(&self) -> usize {
        self.schema.num_columns()
    }

    /// Total answers accepted since creation (including recovered ones).
    pub fn ingested(&self) -> u64 {
        self.ingested.load(Ordering::SeqCst)
    }

    /// Answers accepted but not yet covered by the published snapshot (the
    /// refresh lag: log epoch − published epoch).
    pub fn pending(&self) -> usize {
        (self.ingested() as usize).saturating_sub(self.snapshot().epoch)
    }

    /// Batches refused by the per-worker ingest rate limit since creation.
    pub fn rate_limited(&self) -> u64 {
        self.rate_limited.load(Ordering::SeqCst)
    }

    /// Manually quarantine (`quarantined = true`, pinned against
    /// auto-release) or release `worker`. The decision is appended to the
    /// WAL as a full-replacement quarantine record **before** it takes
    /// effect — a trust decision that silently reverted on crash would be
    /// worse than none — and reaches inference at the next refresh (the
    /// refresher is woken; `POST …/refresh` forces it synchronously).
    /// Returns the worker's new trust state.
    pub fn set_worker_quarantine(
        &self,
        worker: WorkerId,
        quarantined: bool,
    ) -> Result<TrustState, String> {
        if self.trust.set_manual(worker, quarantined, self.durability.as_ref(), &self.health)? {
            // Wake the refresher so the decision reaches the fit promptly.
            self.refresher.wake();
        }
        Ok(if quarantined { TrustState::Quarantined } else { TrustState::Trusted })
    }

    /// Whether the deletion tombstone is set.
    pub fn is_deleted(&self) -> bool {
        self.deleted.load(Ordering::SeqCst)
    }

    /// Set the deletion tombstone: no snapshot (in-memory or on-disk) will
    /// be published from this point on, even by a refresh already running.
    pub fn mark_deleted(&self) {
        self.deleted.store(true, Ordering::SeqCst);
    }

    /// The current published snapshot (cheap: one `Arc` clone). Recovers
    /// from lock poisoning: the slot always holds a complete `Arc` (it is
    /// only ever replaced whole), so the last good snapshot stays servable
    /// no matter which thread panicked.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.published.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// Validate and ingest a batch of answers. The whole batch is rejected
    /// (nothing ingested) if any answer is malformed, so callers can safely
    /// retry verbatim. On durable tables the batch is handed to the table's
    /// commit thread, which coalesces concurrent batches into one
    /// `write+fsync` and applies them to the in-memory log — in WAL order,
    /// under the ingest lock — **before** this call returns, so WAL order ≡
    /// memory order and recovery replays exactly the acknowledged sequence.
    /// The submitter parks on its commit ticket holding **no** lock; no
    /// request thread ever holds a lock across an fsync. Returns the number
    /// accepted.
    pub fn submit(&self, answers: &[Answer]) -> Result<usize, String> {
        self.submit_traced(answers, None)
    }

    /// [`TableState::submit`] carrying the originating request's
    /// correlation id, so the traced `ingest_committed` event links back to
    /// the HTTP request that caused it.
    pub fn submit_traced(
        &self,
        answers: &[Answer],
        request_id: Option<&str>,
    ) -> Result<usize, String> {
        for (i, a) in answers.iter().enumerate() {
            if a.cell.row as usize >= self.rows || a.cell.col as usize >= self.cols() {
                return Err(format!(
                    "answer {i}: cell ({}, {}) outside the {}x{} table",
                    a.cell.row,
                    a.cell.col,
                    self.rows,
                    self.cols()
                ));
            }
            if !self.schema.column_type(a.cell.col as usize).accepts(&a.value) {
                return Err(format!(
                    "answer {i}: value does not match column {} ({})",
                    a.cell.col, self.schema.columns[a.cell.col as usize].name
                ));
            }
        }
        if self.is_deleted() {
            return Err(format!("table '{}' was deleted", self.id));
        }
        // Nothing to commit: don't write a zero-answer WAL record (13 bytes
        // plus a flush/fsync per policy) or wake the refresher for it.
        if answers.is_empty() {
            return Ok(0);
        }
        // Backpressure: past `max_pending` answers of refresh lag, new
        // answers would only push the served snapshot further behind the
        // log — refuse (the client retries after the refresher catches up)
        // instead of letting staleness grow without bound.
        if let Some(limit) = self.config.max_pending {
            if self.pending() >= limit {
                return Err(format!(
                    "overloaded: {} pending answers at the max_pending bound of {limit}; \
                     retry after the next refresh",
                    self.pending()
                ));
            }
        }
        self.check_rate_limit(answers)?;
        match &self.durability {
            Some(d) => self.commit(d, answers)?,
            None => {
                let mut log = lock_recover(&self.ingest);
                if self.is_deleted() {
                    return Err(format!("table '{}' was deleted", self.id));
                }
                for &a in answers {
                    log.push(a);
                }
            }
        }
        self.ingested.fetch_add(answers.len() as u64, Ordering::SeqCst);
        self.obs.ingest_committed(answers.len(), request_id);
        if self.pending() >= self.config.refit_every {
            self.refresher.wake();
        }
        Ok(answers.len())
    }

    /// Per-worker token-bucket admission: each worker's bucket refills at
    /// `worker_rate` answers/second up to `worker_burst`. The whole batch
    /// is admitted or refused atomically (the first worker over budget
    /// names the offender); a refused batch debits nothing and costs no
    /// ingest-lock hold. Quarantine does NOT feed into this — quarantined
    /// workers' answers are still collected (and excluded at fit time), so
    /// un-quarantine stays instant and exact.
    fn check_rate_limit(&self, answers: &[Answer]) -> Result<(), String> {
        let rate = self.config.worker_rate;
        if rate <= 0.0 {
            return Ok(());
        }
        let burst = f64::from(self.config.worker_burst).max(1.0);
        let mut counts: BTreeMap<u32, f64> = BTreeMap::new();
        for a in answers {
            *counts.entry(a.worker.0).or_insert(0.0) += 1.0;
        }
        let now = Instant::now();
        let mut buckets = lock_recover(&self.buckets);
        for (&w, &n) in &counts {
            let b = buckets.entry(w).or_insert(Bucket { tokens: burst, last: now });
            let dt = now.saturating_duration_since(b.last).as_secs_f64();
            b.tokens = (b.tokens + dt * rate).min(burst);
            b.last = now;
            if n > b.tokens + 1e-9 {
                self.rate_limited.fetch_add(1, Ordering::SeqCst);
                return Err(format!(
                    "overloaded: worker {w} exceeded the per-worker rate limit \
                     ({rate} answers/s, burst {}); retry shortly",
                    self.config.worker_burst
                ));
            }
        }
        for (&w, &n) in &counts {
            if let Some(b) = buckets.get_mut(&w) {
                b.tokens -= n;
            }
        }
        Ok(())
    }

    /// Select up to `k` cells for `worker` from the published snapshot,
    /// using `policy` (or the table's configured default). Returns the
    /// snapshot the decision was made from alongside the picks, so callers
    /// can report the decision epoch.
    ///
    /// Every answer acked before the call counts, published or not: the
    /// snapshot's overlay is first advanced over the log tail it does not
    /// cover yet (an `O(Δ)` slice under the ingest lock, then the §5.1
    /// update of each new answer, once per snapshot), and the policy scores
    /// against the overlay's posteriors with the cells `worker` answered
    /// since the epoch excluded.
    pub fn assign(
        &self,
        worker: tcrowd_tabular::WorkerId,
        k: usize,
        policy: Option<&str>,
    ) -> Result<(Arc<Snapshot>, Vec<CellId>, String), String> {
        let name = policy.unwrap_or(&self.config.policy).to_string();
        let mut policy = make_policy(&name, self.rows, self.config.seed)?;
        let snap = self.snapshot();
        let from = snap.fresh.upto();
        if self.ingested() as usize > from {
            let tail = lock_recover(&self.ingest).slice_since(from);
            snap.fresh.advance(&snap.result, &snap.trust.excluded, &tail);
        }
        let picks = snap.fresh.read(&snap.result, worker, |result, answered| {
            let ctx = AssignmentContext {
                schema: &self.schema,
                // The freeze answers the point queries too: a snapshot
                // carries no indexed log at all.
                answers: snap.matrix.as_ref(),
                freeze: snap.matrix.freeze_view(),
                inference: Some(result),
                max_answers_per_cell: self.config.max_answers_per_cell,
                terminated: answered,
                correlation: Some(&snap.correlation),
            };
            policy.select(worker, k, &ctx)
        });
        Ok((snap, picks, name))
    }

    /// Milliseconds since this table was created.
    pub fn age_ms(&self) -> u128 {
        self.created_at.elapsed().as_millis()
    }

    /// Stop and join the refresher thread (idempotent). The registry calls
    /// this on removal/shutdown; a table dropped without it would leave the
    /// thread parked until its weak upgrade fails on the next tick.
    pub fn stop_refresher(&self) {
        self.refresher.stop();
    }

    /// A point-in-time copy of the degradation state (for `/stats` and
    /// `/healthz`).
    pub fn health(&self) -> HealthView {
        self.health.view()
    }

    /// The `Retry-After` hint (seconds, ≥ 1) a refused client should wait:
    /// the remaining repair backoff when degraded, one refresh interval for
    /// plain backpressure.
    pub fn retry_after_secs(&self) -> u64 {
        let wait = self.health.retry_after().unwrap_or(self.config.refresh_interval);
        wait.as_secs().max(1)
    }

    /// This table's observability bundle (metrics handles + event ring).
    pub fn obs(&self) -> &Arc<TableObs> {
        &self.obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CONFIG_KEYS;
    use std::time::Duration;
    use tcrowd_tabular::{generate_dataset, Dataset, GeneratorConfig, Value, WorkerId};

    fn make_table(refit_every: usize) -> (Arc<TableState>, Dataset) {
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 12,
                columns: 3,
                num_workers: 8,
                answers_per_task: 3,
                ..Default::default()
            },
            5,
        );
        let config = TableConfig {
            refit_every,
            refresh_interval: Duration::from_millis(10),
            ..Default::default()
        };
        let t = TableState::create_with_obs(
            "t".into(),
            d.schema.clone(),
            d.rows(),
            config,
            None,
            TableObs::standalone("t"),
        );
        (t, d)
    }

    /// `GET /healthz` is served from the observability health gauges, so it
    /// must answer while a table's ingest AND fitter locks are both held
    /// (a wedged refit or a stalled ingest cannot wedge the health probe).
    #[test]
    fn healthz_answers_with_ingest_and_fitter_locks_held() {
        let reg = Arc::new(crate::registry::TableRegistry::new());
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 4,
                columns: 2,
                num_workers: 3,
                answers_per_task: 1,
                ..Default::default()
            },
            1,
        );
        let t = reg
            .create(Some("wedged".into()), d.schema.clone(), d.rows(), TableConfig::default())
            .unwrap();
        // Wedge the table the way a stuck refit + stuck ingest would.
        let _ingest = t.ingest.lock().unwrap();
        let _fitter = t.fitter.lock().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let probe_reg = Arc::clone(&reg);
        std::thread::spawn(move || {
            let req = crate::http::Request {
                method: "GET".into(),
                path: "/healthz".into(),
                query: Vec::new(),
                body: Vec::new(),
                keep_alive: false,
                request_id: "probe".into(),
            };
            tx.send(crate::api::route(&probe_reg, &req)).ok();
        });
        let resp = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("/healthz must not block on table locks");
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        drop(_fitter);
        drop(_ingest);
        reg.shutdown();
    }

    #[test]
    fn ingest_refresh_and_read_paths_agree() {
        let (t, d) = make_table(usize::MAX);
        assert_eq!(t.snapshot().epoch, 0);
        assert!(!t.durable());
        t.submit(d.answers.all()).unwrap();
        assert_eq!(t.ingested() as usize, d.answers.len());
        // Synchronous refresh publishes everything.
        assert!(t.refresh_now());
        let snap = t.snapshot();
        assert_eq!(snap.epoch, d.answers.len());
        assert_eq!(snap.matrix.len(), d.answers.len());
        assert_eq!(snap.log.to_vec(), d.answers.all());
        assert_eq!(t.pending(), 0);
        // Quiescent refresh: nothing arrived mid-fit, so the published state
        // is exactly the cold batch fit.
        assert_eq!(snap.catchup_merged, 0);
        assert_eq!(snap.fitted_epoch, snap.epoch);
        let batch = TCrowd::default_full().infer(&d.schema, &d.answers);
        assert_eq!(snap.result.estimates(), batch.estimates());
        // Assignment works off the snapshot (and its cached correlation
        // model: same picks as a per-request fit).
        let (used, picks, name) = t.assign(WorkerId(999), 3, None).unwrap();
        assert_eq!(used.epoch, snap.epoch);
        assert_eq!(picks.len(), 3);
        assert_eq!(name, "structure-aware");
        let mut fresh = crate::policy::make_policy("structure-aware", t.rows(), 1).unwrap();
        let uncached_ctx = AssignmentContext {
            schema: &d.schema,
            answers: snap.matrix.as_ref(),
            freeze: snap.matrix.freeze_view(),
            inference: Some(&snap.result),
            max_answers_per_cell: None,
            terminated: None,
            correlation: None,
        };
        assert_eq!(picks, fresh.select(WorkerId(999), 3, &uncached_ctx));
        t.stop_refresher();
    }

    #[test]
    fn background_refresher_publishes_on_threshold() {
        let (t, d) = make_table(4);
        t.submit(&d.answers.all()[..8]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        while t.snapshot().epoch < 8 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(t.snapshot().epoch, 8, "refresher should publish pending answers");
        assert!(t.snapshot().refreshes >= 1);
        t.stop_refresher();
    }

    #[test]
    fn submit_rejects_bad_batches_atomically() {
        let (t, d) = make_table(usize::MAX);
        let good = d.answers.all()[0];
        let bad_cell = Answer { cell: CellId::new(999, 0), ..good };
        let err = t.submit(&[good, bad_cell]).unwrap_err();
        assert!(err.contains("answer 1"), "{err}");
        assert_eq!(t.ingested(), 0, "a rejected batch must ingest nothing");
        // Wrong datatype for the column.
        let col0 = d.schema.column_type(0).clone();
        let wrong = Answer {
            value: if col0.is_categorical() {
                Value::Continuous(1.0)
            } else {
                Value::Categorical(0)
            },
            ..good
        };
        assert!(t.submit(&[wrong]).is_err());
        t.stop_refresher();
    }

    #[test]
    fn tombstoned_table_refuses_to_publish_mid_refit() {
        // Regression (deletion race): a refresher that is mid-refit when the
        // table is removed must not publish a snapshot for the dead table.
        // Simulated deterministically: ingest, tombstone, then drive the
        // publish path a racing refresh would run.
        let (t, d) = make_table(usize::MAX);
        t.submit(&d.answers.all()[..6]).unwrap();
        assert!(t.refresh_now());
        let epoch_before = t.snapshot().epoch;
        t.submit(&d.answers.all()[6..12]).unwrap();
        t.mark_deleted();
        assert!(!t.refresh_now(), "a tombstoned table must not publish");
        assert_eq!(t.snapshot().epoch, epoch_before, "snapshot must be unchanged");
        // Ingest after deletion is refused too.
        assert!(t.submit(&d.answers.all()[..1]).is_err());
        t.stop_refresher();
    }

    #[test]
    fn catchup_merge_folds_in_mid_fit_arrivals() {
        // Deterministic re-enactment of the mid-fit race: advance the fit
        // state to a prefix, let "mid-fit" answers land, then run the
        // refresh — the catch-up phase must fold them into the published
        // snapshot (log, freeze and epoch) without an extra refresh cycle.
        let (t, d) = make_table(usize::MAX);
        let split = d.answers.len() / 2;
        t.submit(&d.answers.all()[..split]).unwrap();
        assert!(t.refresh_now());
        assert_eq!(t.snapshot().catchup_merged, 0);
        // Answers land between the fit and the next refresh's catch-up: the
        // next refresh fits on what its phase-1 slice saw. Here everything
        // is already committed pre-refresh, so catchup_merged is 0 — the
        // race itself is exercised under real concurrency in
        // tests/concurrent.rs; this test pins the bookkeeping invariants.
        t.submit(&d.answers.all()[split..]).unwrap();
        assert!(t.refresh_now());
        let snap = t.snapshot();
        assert_eq!(snap.epoch, d.answers.len());
        assert_eq!(snap.fitted_epoch + snap.catchup_merged, snap.epoch);
        assert_eq!(snap.log.len(), snap.epoch);
        assert_eq!(snap.matrix.len(), snap.epoch);
        assert!(snap.last_refit_ms >= 0.0);
        // The shared log is the committed order.
        assert_eq!(snap.log.to_vec(), d.answers.all());
        t.stop_refresher();
    }

    #[test]
    fn config_kv_roundtrip() {
        let config = TableConfig {
            policy: "entropy".into(),
            refit_every: 17,
            refresh_interval: Duration::from_millis(321),
            warm_refits: true,
            max_answers_per_cell: Some(9),
            seed: 42,
            max_pending: Some(1_000),
            trust_auto: true,
            trust: tcrowd_trust::TrustConfig {
                min_answers: 5,
                suspect_enter: 0.61,
                suspect_exit: 0.77,
                quarantine_enter: 0.33,
                quarantine_exit: 0.52,
                collusion_min_overlap: 4,
                collusion_agreement: 0.875,
                collusion_value_collisions: 6,
            },
            worker_rate: 12.5,
            worker_burst: 7,
        };
        let back = TableConfig::from_kv(&config.to_kv());
        assert_eq!(back.policy, config.policy);
        assert_eq!(back.refit_every, config.refit_every);
        assert_eq!(back.refresh_interval, config.refresh_interval);
        assert_eq!(back.warm_refits, config.warm_refits);
        assert_eq!(back.max_answers_per_cell, config.max_answers_per_cell);
        assert_eq!(back.seed, config.seed);
        assert_eq!(back.max_pending, config.max_pending);
        assert!(back.trust_auto);
        assert_eq!(back.trust, config.trust);
        assert_eq!(back.worker_rate, config.worker_rate);
        assert_eq!(back.worker_burst, config.worker_burst);
        // `set` has a rule for every key `to_kv` writes: each refuses junk.
        assert!(CONFIG_KEYS.windows(2).all(|w| w[0].0 < w[1].0), "sorted by name");
        for (key, _) in CONFIG_KEYS {
            let err = TableConfig::default().set(key, "junk").unwrap_err();
            assert!(err.starts_with(&format!("'{key}' must be")), "{err}");
        }
        // Unknown keys and absent keys degrade to defaults, not errors.
        let sparse = TableConfig::from_kv(&[("future_knob".into(), "1".into())]);
        assert_eq!(sparse.policy, TableConfig::default().policy);
        // None round-trips through the empty string.
        let none = TableConfig { max_answers_per_cell: None, ..TableConfig::default() };
        assert_eq!(TableConfig::from_kv(&none.to_kv()).max_answers_per_cell, None);
        // A replayed value create would refuse keeps its default; one create
        // would clamp is clamped the same way.
        let kv = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect()
        };
        let defaults = TableConfig::default();
        let refused = TableConfig::from_kv(&kv(&[
            ("policy", "bogus"),
            ("max_pending", "0"),
            ("worker_burst", "0"),
            ("worker_rate", "-1"),
            ("seed", "x"),
        ]));
        assert_eq!(refused.policy, defaults.policy);
        assert_eq!(refused.max_pending, None);
        assert_eq!(refused.worker_burst, defaults.worker_burst);
        assert_eq!(refused.worker_rate, defaults.worker_rate);
        assert_eq!(refused.seed, defaults.seed);
        let clamped =
            TableConfig::from_kv(&kv(&[("refit_every", "0"), ("refresh_interval_ms", "0")]));
        assert_eq!(clamped.refit_every, 1);
        assert_eq!(clamped.refresh_interval, Duration::from_millis(1));
        let slow = TableConfig::from_kv(&kv(&[("refresh_interval_ms", "3600000")]));
        assert_eq!(slow.refresh_interval, Duration::from_millis(60_000));
        // Trust thresholds are checked together: an inverted hysteresis
        // band falls back to the default thresholds.
        let inverted = TableConfig::from_kv(&kv(&[
            ("trust_suspect_enter", "0.9"),
            ("trust_suspect_exit", "0.5"),
        ]));
        assert_eq!(inverted.trust, defaults.trust);
        // The same rules refuse the value outright at create time.
        let mut config = TableConfig::default();
        assert!(config.set("max_pending", "0").unwrap_err().contains("max_pending"));
        assert!(config.set("policy", "bogus").is_err());
        assert!(config.set("future_knob", "1").is_ok(), "unknown keys are ignored");
    }

    #[test]
    fn manual_quarantine_filters_the_fit_and_release_restores_it() {
        let (t, d) = make_table(usize::MAX);
        t.submit(d.answers.all()).unwrap();
        assert!(t.refresh_now());
        let baseline = t.snapshot();
        let w = d.answers.all()[0].worker;
        assert_eq!(t.set_worker_quarantine(w, true).unwrap(), TrustState::Quarantined);
        // The woken background refresher may apply the decision before this
        // synchronous refresh — either way the published state must filter.
        t.refresh_now();
        let snap = t.snapshot();
        assert_eq!(snap.trust.excluded, vec![w]);
        assert_eq!(snap.trust.quarantine.len(), 1);
        assert!(snap.trust.quarantine[0].manual);
        assert!(snap.result.quality_of(w).is_none(), "excluded worker has no fitted quality");
        // The quarantine is a fit-level filter: the log is untouched.
        assert_eq!(snap.epoch, baseline.epoch);
        assert_eq!(snap.log.to_vec(), baseline.log.to_vec());
        // The published estimates equal a batch fit of a log that never
        // contained the worker's answers.
        let batch = TCrowd::default_full().infer(&d.schema, &d.answers.without_workers(&[w]));
        assert_eq!(snap.result.estimates(), batch.estimates());
        // The worker still shows up in the trust report, with a shadow score.
        let row = snap.trust.workers.iter().find(|s| s.trust.worker == w).unwrap();
        assert_eq!(row.state, TrustState::Quarantined);
        assert!(row.trust.quality.is_none());
        // Release: bit-identical to the baseline full fit.
        assert_eq!(t.set_worker_quarantine(w, false).unwrap(), TrustState::Trusted);
        t.refresh_now();
        let back = t.snapshot();
        assert!(back.trust.excluded.is_empty());
        assert_eq!(back.result.estimates(), baseline.result.estimates());
        assert_eq!(back.result.iterations, baseline.result.iterations);
        assert!(t.trust.seq() >= 2);
        t.stop_refresher();
    }

    /// A manual decision that leaves the worker's entry as it was changes
    /// nothing: no trust-sequence bump, no `quarantine` event.
    #[test]
    fn a_no_op_quarantine_decision_changes_nothing() {
        let (t, _) = make_table(usize::MAX);
        // No background refresh may trace events or move the sequence.
        t.stop_refresher();
        let state = || (t.trust.seq(), t.obs().events().last_seq());
        let before = state();
        assert_eq!(t.set_worker_quarantine(WorkerId(3), false).unwrap(), TrustState::Trusted);
        assert_eq!(state(), before, "releasing a never-quarantined worker");
        assert_eq!(t.set_worker_quarantine(WorkerId(3), true).unwrap(), TrustState::Quarantined);
        let pinned = state();
        assert_eq!(pinned.0, before.0 + 1, "the first quarantine is a change");
        assert_eq!(t.set_worker_quarantine(WorkerId(3), true).unwrap(), TrustState::Quarantined);
        assert_eq!(state(), pinned, "re-pinning a pinned worker");
    }

    /// The assignment overlay applies each since-epoch answer once with
    /// the §5.1 update — except a quarantined worker's, which must leave
    /// every posterior as published — and never touches the snapshot.
    #[test]
    fn assignment_overlay_skips_quarantined_workers_and_spares_the_snapshot() {
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 12,
                columns: 3,
                num_workers: 8,
                answers_per_task: 3,
                ..Default::default()
            },
            5,
        );
        let config = TableConfig {
            refit_every: usize::MAX,
            refresh_interval: Duration::from_secs(3600),
            ..Default::default()
        };
        let t = TableState::create_with_obs(
            "t".into(),
            d.schema.clone(),
            d.rows(),
            config,
            None,
            TableObs::standalone("t"),
        );
        t.submit(d.answers.all()).unwrap();
        let q = d.answers.all()[0].worker;
        t.set_worker_quarantine(q, true).unwrap();
        t.refresh_now();
        // No refresh from here on: every later answer is since-epoch.
        t.stop_refresher();
        let snap = t.snapshot();
        assert_eq!(snap.trust.excluded, vec![q]);
        let posteriors = |r: &InferenceResult| -> Vec<tcrowd_core::TruthDist> {
            (0..d.rows() as u32)
                .flat_map(|i| (0..d.cols() as u32).map(move |j| CellId::new(i, j)))
                .map(|c| r.truth_z(c).clone())
                .collect()
        };
        let published = posteriors(&snap.result);

        // The quarantined worker answers every cell again.
        let again: Vec<Answer> =
            d.answers.all().iter().map(|a| Answer { worker: q, ..*a }).collect();
        t.submit(&again).unwrap();
        let (used, picks, _) = t.assign(q, d.rows() * d.cols(), None).unwrap();
        assert!(Arc::ptr_eq(&used, &snap), "no refresh may have published");
        assert!(picks.is_empty(), "every cell was answered by {q:?}: {picks:?}");
        assert_eq!(snap.fresh.upto(), d.answers.len() + again.len());
        snap.fresh.read(&snap.result, q, |fresh, answered| {
            assert_eq!(posteriors(fresh), published, "quarantined answers moved a posterior");
            assert_eq!(answered.map(|a| a.len()), Some(d.rows() * d.cols()));
        });

        // An honest worker's since-epoch answer moves its cell in the
        // overlay — once, however many requests follow — and only there.
        let honest = WorkerId(77);
        let a = Answer { worker: honest, ..d.answers.all()[1] };
        t.submit(&[a]).unwrap();
        let mut expected = snap.result.clone();
        tcrowd_core::apply_answer_incrementally(&mut expected, a.worker, a.cell, &a.value);
        for _ in 0..3 {
            let (_, picks, _) = t.assign(honest, d.rows() * d.cols(), None).unwrap();
            assert!(!picks.contains(&a.cell));
            assert_eq!(picks.len(), d.rows() * d.cols() - 1);
        }
        snap.fresh.read(&snap.result, honest, |fresh, _| {
            assert_eq!(posteriors(fresh), posteriors(&expected));
            assert_ne!(fresh.truth_z(a.cell), snap.result.truth_z(a.cell));
        });
        assert_eq!(posteriors(&t.snapshot().result), published, "the snapshot changed");
    }

    #[test]
    fn per_worker_rate_limit_refuses_whole_batches() {
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 8,
                columns: 2,
                num_workers: 4,
                answers_per_task: 2,
                ..Default::default()
            },
            11,
        );
        let config = TableConfig {
            refit_every: usize::MAX,
            worker_rate: 0.001, // effectively no refill within the test
            worker_burst: 4,
            ..Default::default()
        };
        let t = TableState::create_with_obs(
            "rl".into(),
            d.schema.clone(),
            d.rows(),
            config,
            None,
            TableObs::standalone("rl"),
        );
        let by_worker = |w: u32| -> Vec<Answer> {
            d.answers.all().iter().copied().filter(|a| a.worker == WorkerId(w)).collect()
        };
        let w0 = by_worker(0);
        assert!(w0.len() >= 4, "generator should give worker 0 at least burst answers");
        // Within burst: admitted.
        t.submit(&w0[..4]).unwrap();
        // Bucket drained: the whole next batch is refused with the
        // backpressure prefix (→ 429 + Retry-After at the HTTP layer).
        let err = t.submit(&w0[..1]).unwrap_err();
        assert!(err.starts_with("overloaded:"), "{err}");
        assert!(err.contains("worker 0"), "{err}");
        assert_eq!(t.rate_limited(), 1);
        // Other workers are unaffected.
        let w1 = by_worker(1);
        t.submit(&w1[..1]).unwrap();
        // A mixed batch containing the throttled worker is refused whole.
        let mixed = vec![w1[1], w0[4 % w0.len()]];
        assert!(t.submit(&mixed).unwrap_err().starts_with("overloaded:"));
        assert_eq!(t.ingested() as usize, 5, "refused batches must ingest nothing");
        t.stop_refresher();
    }

    #[test]
    fn auto_trust_quarantines_a_spammer_and_defends_accuracy() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 20,
                columns: 3,
                num_workers: 10,
                answers_per_task: 4,
                ..Default::default()
            },
            13,
        );
        let config = TableConfig {
            refit_every: usize::MAX,
            trust_auto: true,
            trust: tcrowd_trust::TrustConfig { min_answers: 8, ..Default::default() },
            ..Default::default()
        };
        let t = TableState::create_with_obs(
            "spam".into(),
            d.schema.clone(),
            d.rows(),
            config,
            None,
            TableObs::standalone("spam"),
        );
        t.submit(d.answers.all()).unwrap();
        // A spammer answering uniformly at random over every cell.
        let mut rng = StdRng::seed_from_u64(77);
        let spam: Vec<Answer> = (0..d.rows() as u32)
            .flat_map(|i| (0..d.schema.num_columns() as u32).map(move |j| (i, j)))
            .map(|(i, j)| Answer {
                worker: WorkerId(500),
                cell: CellId::new(i, j),
                value: match d.schema.column_type(j as usize) {
                    tcrowd_tabular::ColumnType::Categorical { labels } => {
                        Value::Categorical(rng.gen_range(0..labels.len() as u32))
                    }
                    tcrowd_tabular::ColumnType::Continuous { min, max } => {
                        Value::Continuous(rng.gen_range(*min..*max))
                    }
                },
            })
            .collect();
        t.submit(&spam).unwrap();
        // Drive refits until the hysteresis machine walks the spammer down
        // to Quarantined (Trusted → Suspect → Quarantined needs ≥2 refits).
        for _ in 0..4 {
            t.refresh_now();
        }
        let snap = t.snapshot();
        let row = snap.trust.workers.iter().find(|s| s.trust.worker == WorkerId(500)).unwrap();
        assert_eq!(
            row.state,
            TrustState::Quarantined,
            "spammer score {} should pin near chance and quarantine",
            row.trust.score
        );
        assert!(!row.manual, "auto decision must not be operator-pinned");
        assert_eq!(snap.trust.excluded, vec![WorkerId(500)]);
        // Defense: with the spammer excluded the estimates equal the fit of
        // the honest log alone.
        let honest = TCrowd::default_full().infer(&d.schema, &d.answers);
        assert_eq!(snap.result.estimates(), honest.estimates());
        // No honest worker got quarantined alongside.
        for s in &snap.trust.workers {
            if s.trust.worker != WorkerId(500) {
                assert_ne!(s.state, TrustState::Quarantined, "honest {:?}", s.trust.worker);
            }
        }
        t.stop_refresher();
    }

    /// A persist held at the chain lock while a new fit is published at the
    /// same epoch (the settling refit after a catch-up publish) must write
    /// the new fit, not the one published when it started: the snapshot it
    /// persists is read under the chain lock.
    #[test]
    fn persist_held_at_the_chain_lock_writes_the_fit_published_meanwhile() {
        let dir =
            std::env::temp_dir().join(format!("tcrowd_table_persist_race_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = tcrowd_store::Store::open(&dir, tcrowd_store::FsyncPolicy::Flush).unwrap();
        let reg = crate::registry::TableRegistry::with_store(Arc::new(store));
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 12,
                columns: 3,
                num_workers: 8,
                answers_per_task: 3,
                ..Default::default()
            },
            5,
        );
        let config = TableConfig {
            refit_every: usize::MAX,
            refresh_interval: Duration::from_secs(3600),
            ..Default::default()
        };
        let t = reg.create(Some("race".into()), d.schema.clone(), d.rows(), config).unwrap();
        t.submit(d.answers.all()).unwrap();
        assert!(t.refresh_now());
        let first = t.snapshot();
        let chain = &t.durability.as_ref().expect("durable table").chain;
        assert_eq!(lock_recover(chain).fit(), Some(&FitParams::of(&first.result)));
        // Another fit of the same log: what a settling refit publishes.
        let em = tcrowd_core::EmOptions { max_iters: 1, ..Default::default() };
        let settled = TCrowd::new(tcrowd_core::TCrowdOptions { em, ..Default::default() })
            .infer(&d.schema, &d.answers);
        let settled_fit = FitParams::of(&settled);
        assert_ne!(Some(&settled_fit), lock_recover(chain).fit());

        let held = lock_recover(chain);
        std::thread::scope(|s| {
            let persist = s.spawn(|| t.persist_store_snapshot());
            // Let the persist reach the chain lock, then publish the new fit
            // at the unchanged epoch before letting it through.
            std::thread::sleep(Duration::from_millis(100));
            *t.published.write().unwrap() = Arc::new(Snapshot {
                log: first.log.clone(),
                matrix: Arc::clone(&first.matrix),
                result: settled,
                correlation: first.correlation.clone(),
                epoch: first.epoch,
                fitted_epoch: first.fitted_epoch,
                catchup_merged: 0,
                last_refit_ms: 0.0,
                refreshes: first.refreshes + 1,
                published_at: Instant::now(),
                trust: Arc::clone(&first.trust),
                fresh: FreshOverlay::new(first.epoch),
            });
            drop(held);
            persist.join().unwrap();
        });
        assert_eq!(lock_recover(chain).fit(), Some(&settled_fit), "the persisted fit is stale");
        reg.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
