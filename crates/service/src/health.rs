//! A table's degradation state machine over three independent failure
//! axes ([`Axis`]; the crate docs say what each does to serving):
//!
//! ```text
//! Healthy ──failure──▶ Degraded{reason} ──retry due──▶ Recovering
//!    ▲                      ▲                              │
//!    └──────── all clear ───┴────────── still failing ─────┘
//! ```
//!
//! The table is healthy only when every axis is clear. Every failure
//! schedules the next repair attempt with exponential backoff plus
//! deterministic jitter, and every transition goes through [`Health`],
//! which keeps the `tcrowd_table_health` gauge — what `/healthz` is served
//! from — and the `health` event trace in step with the machine.

use crate::lock_recover;
use crate::obs::{health_name, TableObs, HEALTH_DEGRADED, HEALTH_HEALTHY, HEALTH_RECOVERING};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Initial retry backoff after a contained failure.
const BACKOFF_MIN_MS: u64 = 50;
/// Backoff ceiling: a persistently-faulty disk is probed at least this
/// often (plus jitter).
const BACKOFF_MAX_MS: u64 = 5_000;

/// One failure axis of a table's [`Health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Axis {
    /// The fit step panicked or failed.
    Refit,
    /// A store-snapshot write failed.
    Persist,
    /// The WAL refused a write or sync and poisoned itself.
    Wal,
}

/// The failure axes that are down, indexed by [`Axis`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Broken([bool; 3]);

impl Broken {
    /// Whether `axis` is down.
    pub(crate) fn has(self, axis: Axis) -> bool {
        self.0[axis as usize]
    }

    fn any(self) -> bool {
        self.0.contains(&true)
    }
}

/// The machine behind a leaf-level mutex (nothing else is ever acquired
/// while it is held).
pub(crate) struct Health {
    state: Mutex<State>,
    obs: Arc<TableObs>,
    table: String,
}

#[derive(Debug, Default)]
struct State {
    broken: Broken,
    /// A repair attempt is executing right now.
    recovering: bool,
    /// Contained failures per axis (the WAL's are not reported).
    failures: [u64; 3],
    last_error: Option<String>,
    degraded_since: Option<Instant>,
    retry_at: Option<Instant>,
    backoff_ms: u64,
    /// splitmix64 state for backoff jitter (deterministic per seed).
    jitter: u64,
}

impl State {
    fn new(seed: u64) -> State {
        State { jitter: seed ^ 0x9E37_79B9_7F4A_7C15, ..State::default() }
    }

    /// The `tcrowd_table_health` gauge code: recovering outranks degraded,
    /// which outranks healthy. `/stats` and `/healthz` read its name.
    fn code(&self) -> i64 {
        if self.recovering {
            HEALTH_RECOVERING
        } else if self.broken.any() {
            HEALTH_DEGRADED
        } else {
            HEALTH_HEALTHY
        }
    }

    /// Advance the exponential backoff and return the next retry delay:
    /// the backoff plus deterministic jitter of up to 50% of it, so many
    /// tables degraded by one disk don't retry in lockstep.
    fn next_delay(&mut self) -> Duration {
        self.backoff_ms = if self.backoff_ms == 0 {
            BACKOFF_MIN_MS
        } else {
            (self.backoff_ms * 2).min(BACKOFF_MAX_MS)
        };
        self.jitter = self.jitter.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.jitter;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let jitter_ms = (z ^ (z >> 31)) % (self.backoff_ms / 2 + 1);
        Duration::from_millis(self.backoff_ms + jitter_ms)
    }

    fn fail(&mut self, axis: Axis, error: String) {
        self.broken.0[axis as usize] = true;
        self.failures[axis as usize] += 1;
        self.last_error = Some(error);
        if self.degraded_since.is_none() {
            self.degraded_since = Some(Instant::now());
        }
        self.retry_at = Some(Instant::now() + self.next_delay());
    }

    /// Clear `axis`. Once every axis is clear the episode's bookkeeping
    /// goes too; `last_error` stays — it reports the most recent problem
    /// even after recovery.
    ///
    /// The WAL axis clears only through a rebuild, and a rebuild resets the
    /// snapshot chain, so clearing it leaves a fresh base owed: the persist
    /// axis becomes pending with its retry due at once.
    fn clear(&mut self, axis: Axis) {
        if !std::mem::take(&mut self.broken.0[axis as usize]) {
            return;
        }
        if axis == Axis::Wal {
            self.broken.0[Axis::Persist as usize] = true;
            self.backoff_ms = 0;
            self.retry_at = Some(Instant::now());
        } else if !self.broken.any() {
            self.degraded_since = None;
            self.retry_at = None;
            self.backoff_ms = 0;
        }
    }
}

/// A point-in-time, lock-free copy of a table's health for `/stats` and
/// `/healthz`.
#[derive(Debug, Clone)]
pub struct HealthView {
    /// `"healthy"`, `"degraded"` or `"recovering"`.
    pub health: &'static str,
    /// Why the table is degraded (`None` when healthy).
    pub reason: Option<String>,
    /// Milliseconds spent in the current degraded episode.
    pub degraded_since_ms: Option<u64>,
    /// Refit panics/failures contained since creation.
    pub refit_failures: u64,
    /// Store-snapshot persist failures since creation.
    pub persist_failures: u64,
    /// The most recent contained error (sticky across recovery).
    pub last_error: Option<String>,
}

impl Health {
    /// A healthy machine for table `table`, its jitter seeded by `seed`.
    /// Seeds the health gauge so `/healthz` reads the table before its
    /// first transition.
    pub(crate) fn new(table: &str, seed: u64, obs: Arc<TableObs>) -> Health {
        obs.set_health(HEALTH_HEALTHY);
        Health { state: Mutex::new(State::new(seed)), obs, table: table.to_string() }
    }

    /// Record a contained failure on `axis` and schedule the next repair
    /// attempt.
    pub(crate) fn fail(&self, axis: Axis, msg: String) {
        let what = match axis {
            Axis::Refit => "refit contained",
            Axis::Persist => "persist degraded",
            Axis::Wal => "WAL degraded",
        };
        eprintln!("tcrowd-service: table '{}' {what}: {msg}", self.table);
        if axis == Axis::Wal {
            self.obs.event("wal_poisoned", msg.clone(), None);
        }
        self.mutate(|s| s.fail(axis, msg));
    }

    /// Record that `axis` works again (a no-op when it was not broken).
    pub(crate) fn clear(&self, axis: Axis) {
        self.mutate(|s| s.clear(axis));
    }

    /// Whether `axis` is down.
    pub(crate) fn is_broken(&self, axis: Axis) -> bool {
        lock_recover(&self.state).broken.has(axis)
    }

    /// Whether `axis` is down and its next retry is not due yet.
    pub(crate) fn backing_off(&self, axis: Axis) -> bool {
        let s = lock_recover(&self.state);
        s.broken.has(axis) && s.retry_at.is_some_and(|t| Instant::now() < t)
    }

    /// When the table is degraded and its retry is due, run `f` over the
    /// axes that are down with the table marked recovering, and return
    /// those axes; otherwise do nothing and return `None`.
    pub(crate) fn repair(&self, f: impl FnOnce(Broken)) -> Option<Broken> {
        let broken = {
            let s = lock_recover(&self.state);
            let due = s.broken.any() && s.retry_at.is_none_or(|t| Instant::now() >= t);
            due.then_some(s.broken)
        }?;
        self.mutate(|s| s.recovering = true);
        f(broken);
        self.mutate(|s| s.recovering = false);
        Some(broken)
    }

    /// Time left until the next repair attempt (`None` when healthy).
    pub(crate) fn retry_after(&self) -> Option<Duration> {
        let s = lock_recover(&self.state);
        let t = s.retry_at.filter(|_| s.broken.any())?;
        Some(t.saturating_duration_since(Instant::now()))
    }

    /// A point-in-time copy for `/stats`.
    pub(crate) fn view(&self) -> HealthView {
        let s = lock_recover(&self.state);
        let mut reasons: Vec<&str> = Vec::new();
        if s.broken.has(Axis::Wal) {
            reasons.push("wal-broken: ingest disabled until the log is rebuilt");
        }
        if s.broken.has(Axis::Refit) {
            reasons.push("refit-failing: serving the last good snapshot");
        }
        if s.broken.has(Axis::Persist) {
            reasons.push("persist-failing: store snapshot re-attempt pending");
        }
        HealthView {
            health: health_name(s.code()),
            reason: if reasons.is_empty() { None } else { Some(reasons.join("; ")) },
            degraded_since_ms: s.degraded_since.map(|t| t.elapsed().as_millis() as u64),
            refit_failures: s.failures[Axis::Refit as usize],
            persist_failures: s.failures[Axis::Persist as usize],
            last_error: s.last_error.clone(),
        }
    }

    /// Run `f` under the lock; afterwards (lock released), if the gauge
    /// code changed, update the gauge and trace a `health` event.
    fn mutate(&self, f: impl FnOnce(&mut State)) {
        let (before, after) = {
            let mut s = lock_recover(&self.state);
            let before = s.code();
            f(&mut s);
            (before, s.code())
        };
        if before != after {
            self.obs.set_health(after);
            self.obs.event(
                "health",
                format!("{} -> {}", health_name(before), health_name(after)),
                None,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn health() -> (Health, Arc<TableObs>) {
        let obs = TableObs::standalone("t");
        (Health::new("t", 7, Arc::clone(&obs)), obs)
    }

    fn health_events(obs: &TableObs) -> Vec<String> {
        let page = obs.events().since(0, 1000);
        page.events.into_iter().filter(|e| e.kind == "health").map(|e| e.detail).collect()
    }

    #[test]
    fn backoff_starts_at_50ms_and_doubles_to_a_5s_cap() {
        let mut s = State::new(1);
        let mut backoffs = Vec::new();
        for _ in 0..10 {
            s.next_delay();
            backoffs.push(s.backoff_ms);
        }
        assert_eq!(backoffs, [50, 100, 200, 400, 800, 1600, 3200, 5000, 5000, 5000]);
        // Each failure advances the ladder; full recovery restarts it.
        let (h, _) = health();
        h.fail(Axis::Refit, "x".into());
        h.fail(Axis::Refit, "y".into());
        assert_eq!(lock_recover(&h.state).backoff_ms, 100);
        h.clear(Axis::Refit);
        h.fail(Axis::Refit, "z".into());
        assert_eq!(lock_recover(&h.state).backoff_ms, 50);
    }

    #[test]
    fn jitter_adds_at_most_half_the_backoff_and_follows_the_seed() {
        let (mut a, mut b, mut c) = (State::new(42), State::new(42), State::new(43));
        let mut differs = false;
        for _ in 0..40 {
            let da = a.next_delay();
            assert_eq!(da, b.next_delay(), "equal seeds must give equal jitter");
            differs |= da != c.next_delay();
            let base = Duration::from_millis(a.backoff_ms);
            assert!(da >= base && da <= base + base / 2, "{da:?} vs backoff {base:?}");
        }
        assert!(differs, "different seeds should not retry in lockstep");
    }

    #[test]
    fn healthy_only_once_every_axis_is_clear() {
        let (h, _) = health();
        assert_eq!(h.view().health, "healthy");
        h.fail(Axis::Refit, "refit".into());
        h.fail(Axis::Persist, "persist".into());
        h.fail(Axis::Wal, "wal".into());
        let v = h.view();
        assert_eq!(v.health, "degraded");
        assert_eq!((v.refit_failures, v.persist_failures), (1, 1));
        let reason = v.reason.unwrap();
        for part in ["wal-broken", "refit-failing", "persist-failing"] {
            assert!(reason.contains(part), "{reason}");
        }
        h.clear(Axis::Refit);
        assert_eq!(h.view().health, "degraded");
        // Clearing the WAL axis leaves a fresh base owed, due now.
        h.clear(Axis::Wal);
        assert!(h.is_broken(Axis::Persist));
        assert_eq!(h.retry_after(), Some(Duration::ZERO));
        assert_eq!(h.view().health, "degraded");
        h.clear(Axis::Persist);
        let v = h.view();
        assert_eq!(v.health, "healthy");
        assert_eq!((v.reason, v.degraded_since_ms), (None, None));
        assert_eq!(h.retry_after(), None);
    }

    #[test]
    fn last_error_survives_recovery() {
        let (h, _) = health();
        h.fail(Axis::Persist, "disk full".into());
        h.clear(Axis::Persist);
        let v = h.view();
        assert_eq!(v.health, "healthy");
        assert_eq!(v.last_error.as_deref(), Some("disk full"));
        assert_eq!(v.persist_failures, 1);
    }

    #[test]
    fn recovering_outranks_degraded_in_the_view_and_the_gauge() {
        let (h, obs) = health();
        h.fail(Axis::Refit, "boom".into());
        assert_eq!(obs.health_code(), HEALTH_DEGRADED);
        // Make the jittered retry due now.
        lock_recover(&h.state).retry_at = None;
        let seen = h.repair(|broken| {
            assert_eq!(broken.0, [true, false, false]);
            assert_eq!(h.view().health, "recovering");
            assert_eq!(obs.health_code(), HEALTH_RECOVERING);
        });
        assert!(seen.is_some());
        assert_eq!(h.view().health, "degraded");
        assert_eq!(obs.health_code(), HEALTH_DEGRADED);
    }

    #[test]
    fn gauge_and_event_fire_once_per_code_change() {
        let (h, obs) = health();
        assert!(health_events(&obs).is_empty());
        h.fail(Axis::Refit, "a".into());
        // Same code (degraded) after each of these: no gauge move, no event.
        h.fail(Axis::Persist, "b".into());
        h.fail(Axis::Refit, "c".into());
        h.clear(Axis::Persist);
        h.clear(Axis::Wal);
        assert_eq!(health_events(&obs), ["healthy -> degraded"]);
        assert_eq!(obs.health_code(), HEALTH_DEGRADED);
        h.clear(Axis::Refit);
        h.clear(Axis::Refit);
        assert_eq!(health_events(&obs), ["healthy -> degraded", "degraded -> healthy"]);
        assert_eq!(obs.health_code(), HEALTH_HEALTHY);
        // A repair that is not due changes nothing.
        assert!(h.repair(|_| panic!("nothing is broken")).is_none());
        assert_eq!(health_events(&obs).len(), 2);
    }
}
