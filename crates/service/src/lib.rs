//! # tcrowd-service
//!
//! A multi-table crowdsourcing **service layer** over the incremental
//! T-Crowd pipeline: a std-only HTTP/1.1 JSON API plus a background
//! refresher per table. This is the paper's live-platform setting (Fig. 1,
//! Algorithm 2) made operational — workers request tasks and submit answers
//! over the network while the system interleaves collection with inference:
//!
//! ```text
//!   POST /tables ────────────────▶ TableRegistry ──▶ TableState (one per table)
//!                                                        │
//!   POST /tables/:id/answers ──▶ ingest Mutex<AnswerLog>      (O(1) push per
//!                                    │                         answer — nothing
//!                                    │                         else under the lock)
//!                         refresher thread (per table, fitter mutex):
//!                            O(Δ) tail slice under the ingest lock
//!                            ─▶ delta-merge + warm/cold EM OUTSIDE the lock
//!                            ─▶ O(Δ') catch-up slice for mid-fit arrivals
//!                                    │
//!                                    ▼ publish atomically (O(Δ): SharedLog +
//!                                      Arc<AnswerMatrix>, no deep clones)
//!   GET /tables/:id/assignment ─▶ RwLock<Arc<Snapshot>>  (shared log@epoch,
//!   GET /tables/:id/truth ──────▶   frozen AnswerMatrix, InferenceResult) —
//!   GET /tables/:id/stats ──────▶   readers never block ingestion
//! ```
//!
//! Reads are served from the last *published snapshot* — a consistent
//! `(log, freeze, fit)` triple at one epoch — so assignment and truth
//! queries proceed concurrently with ingestion and with each other; only
//! the refresher (or an explicit `POST …/refresh`) moves the epoch forward.
//! Assignment additionally scores against the answers acked since that
//! epoch (each applied once per snapshot with the §5.1 incremental
//! update), so a worker is never offered a cell they already answered.
//! EM itself **never runs under the ingest lock**: collection keeps
//! flowing during a refit (`bench_service` measures the ingest-stall ratio
//! and CI gates it), and the answers that land mid-fit are folded in by a
//! catch-up merge before the publish. With cold re-fits (the default) a
//! quiescent refresh makes the published state a pure function of the
//! collected answer order: replaying the served log through
//! `TCrowd::infer` offline reproduces the service's estimates exactly,
//! which the concurrency tests and `bench_service` assert.
//!
//! Everything is `std`-only (the offline build has no `serde`/`hyper`):
//! [`json`] is a ~300-line JSON tree/parser, [`http`] a
//! `TcpListener` + worker-thread-pool front end with keep-alive.
//!
//! ## Modules
//!
//! [`api`] routes requests onto a [`TableRegistry`] of [`TableState`]s
//! ([`table`]: ingest, reads, the published [`Snapshot`]). Each other part
//! of a table has one owner: [`config`], [`durability`] (WAL, commit
//! thread, snapshot chain, WAL rebuild, tombstone), `fitter` (refresh
//! phases, refresher thread), `health` (the degradation machine below)
//! and [`trust`] (worker states, the quarantine set).
//!
//! ## Durability
//!
//! A registry built over a [`tcrowd_store::Store`] ([`start_durable`] /
//! [`TableRegistry::with_store`]) makes every table persistent: ingest
//! batches are group-committed to a per-table CRC-framed write-ahead log
//! *before* they are acknowledged, each published snapshot appends an
//! **incremental store-snapshot delta** (the answers since the last
//! snapshot + fit parameters + chained WAL offset — `O(Δ)`, collapsed into
//! a full base periodically by the store's [`tcrowd_store::SnapshotChain`],
//! which owns those rules), and boot recovers every table — torn WAL
//! tails truncated at the first bad checksum, the pre-crash served state
//! republished without re-running EM when the snapshot chain covers the
//! log (see [`table::TableState::recover`]). `GET …/stats` reports
//! `durable`, `store_snapshot_epoch` and `store_snapshot_links`; a WAL
//! failure turns `POST …/answers` into a 503 with nothing ingested, so
//! clients may retry verbatim.
//!
//! ## Graceful degradation
//!
//! Tables survive disk failures, refit panics and overload without ever
//! dropping an acknowledged answer or refusing a read. Each table runs a
//! health state machine over three independent failure axes — **refit**
//! (a panicked/failed EM refit leaves the last good snapshot served and
//! retries with exponential backoff + jitter), **persist** (a failed
//! store-snapshot write keeps serving and re-attempts in the background),
//! and **WAL** (a broken log flips ingest to `503 Retry-After` while reads
//! keep working, then is rebuilt from the in-memory answer log — exactly
//! the acked set — by the refresher). Lock poisoning is recovered
//! everywhere, so one panicked thread never bricks a table. A `max_pending`
//! bound (per table, or server-wide via `serve --max-pending`) answers
//! `429 Retry-After` when the refresher falls too far behind. `GET
//! …/stats` reports `health`, `degraded_since_ms`, `refit_failures`,
//! `persist_failures` and `last_error`; `GET /healthz` aggregates per-table
//! health. The `chaos` test suite drives all of this with injected fault
//! schedules ([`tcrowd_store::FaultyIo`]).
//!
//! ## Worker trust & quarantine
//!
//! Every refit scores each worker from the fitted quality posteriors
//! ([`tcrowd_trust::score_workers`]: fitted quality, or a shadow quality
//! for already-excluded workers, plus a pairwise-agreement collusion
//! signal) and — when `trust_auto` is on — walks a hysteresis state
//! machine `Trusted → Suspect → Quarantined` with separate enter/exit
//! thresholds so scores hovering at a boundary don't flap between refits.
//! Quarantine is a **fit-level filter**, never a data mutation: the
//! answer log and WAL keep every answer, EM simply runs over a view that
//! excludes the quarantined workers' answers
//! ([`tcrowd_core::FitState::set_exclusions`]), so releasing a worker is
//! instant and bit-identically restores the unfiltered fit. Decisions are
//! durable — each change appends a full-replacement quarantine record (WAL
//! record kind 4) before it takes effect, and recovery reapplies the
//! latest set. Manual decisions (`POST …/workers/:w/quarantine`) pin the
//! worker against auto-release; `…/release` un-pins. A per-worker
//! token-bucket rate limit (`worker_rate`/`worker_burst`) refuses
//! flooding workers at ingest with `429 Retry-After`. `GET …/workers`
//! serves the trust report straight off the published snapshot.
//!
//! ## Endpoints
//!
//! | Method & path | Meaning |
//! |---|---|
//! | `GET /healthz` | liveness + table count + per-table health aggregation (served from health gauges — no table locks) |
//! | `GET /metrics` | Prometheus text exposition: latency histograms, counters, health/trust gauges |
//! | `GET /tables` | hosted table ids |
//! | `POST /tables` | create a table (body below) |
//! | `DELETE /tables/:id` | drop a table and its refresher |
//! | `GET /tables/:id/assignment?worker=U[&k=K][&policy=P]` | top-`k` cells for worker `U` from the current snapshot |
//! | `POST /tables/:id/answers` | ingest one answer or `{"answers": [...]}` |
//! | `GET /tables/:id/answers` | dump the published answer log |
//! | `GET /tables/:id/truth[?z=1]` | current estimates (or z-space posteriors) |
//! | `GET /tables/:id/stats` | ingest/refresh/EM/trust counters |
//! | `POST /tables/:id/refresh` | force a re-fit + publish now |
//! | `GET /tables/:id/workers` | per-worker trust report (answers, quality, score, state) |
//! | `POST /tables/:id/workers/:w/quarantine` | manually quarantine worker `w` (WAL-durable) |
//! | `POST /tables/:id/workers/:w/release` | release worker `w` |
//! | `GET /tables/:id/events?since=S[&max=N]` | lifecycle event trace (`seq > S`), `tcrowd events` dumps it |
//!
//! ## Observability
//!
//! The [`obs`] module threads a [`tcrowd_obs::Registry`] through every
//! table: per-endpoint request-latency histograms, ingest counters, EM
//! phase timings, WAL append/fsync and snapshot-persist durations (routed
//! from `tcrowd-store` through its `ObsSink` trait), health and trust
//! gauges — all exposed at `GET /metrics`. Each table also keeps a
//! bounded ring of structured lifecycle events at `GET …/events`, with
//! `?since=seq` pagination that survives ring wraparound. Every request
//! carries a correlation id: the `x-request-id` header is honored when
//! present, generated otherwise, always echoed in the response, and
//! attached to the events the request causes. `bench_obs` measures the
//! instrumentation overhead and CI gates it at ≤5% of ingest throughput.
//!
//! ## Wire format
//!
//! `POST /tables` body:
//!
//! ```json
//! {
//!   "id": "celebrity",              // optional; "table-N" otherwise
//!   "rows": 100,
//!   "schema": {
//!     "name": "Celebrity", "key": "Picture",
//!     "columns": [
//!       {"name": "Nationality", "type": "categorical", "labels": ["US", "UK"]},
//!       {"name": "Age",         "type": "continuous", "min": 0, "max": 100}
//!     ]
//!   },
//!   "policy": "structure-aware",    // assignment default; see policy names
//!   "refit_every": 64,              // pending answers that wake the refresher
//!   "refresh_interval_ms": 200,     // refresher cadence
//!   "warm_refits": false,           // warm-start re-fits (latency over replayability)
//!   "max_answers_per_cell": null,   // optional redundancy cap
//!   "seed": 1                       // stochastic-policy seed
//! }
//! ```
//!
//! Categorical cardinality may be given as `"cardinality": k` instead of
//! labels. An answer is `{"worker": 7, "row": 3, "col": 1, "value": v}` —
//! `col` accepts a column name, `value` is a number for continuous columns
//! and a label index *or* label string for categorical ones; responses
//! encode categorical values as label strings. `truth?z=1` returns, per
//! cell, `{"probs": [...]}` (categorical) or `{"mean": m, "var": v}`
//! (continuous) in z-space — the representation behind the warm/cold 1e-6
//! agreement contract. Errors are `{"error": "..."}` with a 4xx/5xx status.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod config;
pub mod durability;
mod fitter;
mod fresh;
mod health;
pub mod http;
pub mod json;
pub mod obs;
pub mod policy;
pub mod registry;
pub mod table;
pub mod trust;

pub use config::TableConfig;
pub use durability::Durability;
pub use health::HealthView;
pub use http::{serve, Handler, Request, Response, ServerHandle};
pub use json::Json;
pub use obs::{ServiceObs, TableObs};
pub use policy::{make_policy, POLICY_NAMES};
pub use registry::{RecoveryReport, TableRegistry};
pub use table::{Snapshot, TableState};
pub use trust::{TrustView, WorkerStatus};

use std::sync::{Arc, Mutex, MutexGuard};

/// Recover a mutex guard even when a sibling thread panicked while holding
/// the lock. Safe for every lock it is used on: the ingest log is
/// append-only (a panicked pusher leaves a valid, possibly shorter log —
/// and WAL-before-ack means nothing un-acked is served), the WAL carries
/// its own poison flag, the chain/health/trust/refresher structs are plain
/// bookkeeping, and the fitter pipeline is re-validated via
/// `fitter_dirty`/rebuild before use.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Start the full service: an empty [`TableRegistry`] served on `addr`
/// (port 0 picks an ephemeral port) by `threads` worker threads. Returns
/// the registry (for in-process orchestration and shutdown) and the running
/// server handle.
pub fn start(addr: &str, threads: usize) -> std::io::Result<(Arc<TableRegistry>, ServerHandle)> {
    serve_registry(Arc::new(TableRegistry::new()), addr, threads)
}

/// Start the **durable** service: tables persist into `store` (WAL before
/// ack, snapshot after publish) and every table already in the store is
/// recovered before the listener accepts its first request — no window
/// where a client can observe a booted-but-amnesiac service. Returns the
/// recovery report alongside the registry and server handle.
pub fn start_durable(
    addr: &str,
    threads: usize,
    store: Arc<tcrowd_store::Store>,
) -> std::io::Result<(Arc<TableRegistry>, ServerHandle, RecoveryReport)> {
    let registry = Arc::new(TableRegistry::with_store(store));
    let report =
        registry.recover().map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let (registry, handle) = serve_registry(registry, addr, threads)?;
    Ok((registry, handle, report))
}

fn serve_registry(
    registry: Arc<TableRegistry>,
    addr: &str,
    threads: usize,
) -> std::io::Result<(Arc<TableRegistry>, ServerHandle)> {
    let handler_registry = Arc::clone(&registry);
    let handle = http::serve(
        addr,
        threads,
        Arc::new(move |req: &Request| {
            let t = std::time::Instant::now();
            let resp = api::route(&handler_registry, req);
            handler_registry.obs().observe_request(
                &req.method,
                obs::endpoint_label(&req.path),
                t.elapsed(),
            );
            resp
        }),
    )?;
    Ok((registry, handle))
}
