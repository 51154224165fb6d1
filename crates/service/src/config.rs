//! Per-table service configuration: the knobs of `POST /tables` and the
//! key/value form the WAL Create record persists.

use crate::policy::POLICY_NAMES;
use std::time::Duration;
use tcrowd_trust::TrustConfig;

/// Per-table service policy knobs (the `POST /tables` request body).
#[derive(Debug, Clone)]
pub struct TableConfig {
    /// Default assignment policy (a [`crate::make_policy`] name).
    pub policy: String,
    /// Pending-answer threshold that wakes the refresher immediately.
    pub refit_every: usize,
    /// Refresher cadence: every tick with pending answers re-fits and
    /// publishes, threshold reached or not.
    pub refresh_interval: Duration,
    /// Warm-start re-fits from the previous published fit (see
    /// `TCrowd::infer_matrix_warm`). Off by default: cold re-fits make the
    /// published state a pure function of the collected log, which the
    /// determinism tests and the bench's offline-agreement gate rely on.
    pub warm_refits: bool,
    /// Optional per-cell redundancy cap enforced at assignment time.
    pub max_answers_per_cell: Option<usize>,
    /// Seed for stochastic policies (random baseline, entity grouping).
    pub seed: u64,
    /// Backpressure bound: when the refresh lag ([`crate::TableState::pending`])
    /// reaches this many answers, ingest is refused with an `overloaded:`
    /// error (HTTP 429 + `Retry-After`) until the refresher catches up —
    /// bounding how stale the served snapshot can get under overload.
    /// `None` = unbounded (the default).
    pub max_pending: Option<usize>,
    /// Run the trust state machine automatically on every refit: workers
    /// whose trust score pins near chance (or who show a collusion signal)
    /// are demoted `Trusted → Suspect → Quarantined` and auto-promoted back
    /// when their score recovers past the hysteresis exit thresholds. Off
    /// by default — manual quarantine always works regardless.
    pub trust_auto: bool,
    /// Thresholds for the trust scorer and hysteresis state machine.
    pub trust: TrustConfig,
    /// Per-worker ingest rate limit in answers/second (token bucket;
    /// `0` = unlimited, the default). A worker over budget gets the whole
    /// batch refused with an `overloaded:` error (HTTP 429 + `Retry-After`).
    pub worker_rate: f64,
    /// Token-bucket burst capacity for [`TableConfig::worker_rate`].
    pub worker_burst: u32,
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig {
            policy: "structure-aware".to_string(),
            refit_every: 64,
            refresh_interval: Duration::from_millis(200),
            warm_refits: false,
            max_answers_per_cell: None,
            seed: 1,
            max_pending: None,
            trust_auto: false,
            trust: TrustConfig::default(),
            worker_rate: 0.0,
            worker_burst: 64,
        }
    }
}

/// Every config key, sorted by name, with its value as the WAL Create record
/// stores it — the one list [`TableConfig::to_kv`] writes and
/// [`TableConfig::set`] accepts.
pub(crate) const CONFIG_KEYS: &[(&str, ConfigValue)] = &[
    ("max_answers_per_cell", |c| opt_string(c.max_answers_per_cell)),
    ("max_pending", |c| opt_string(c.max_pending)),
    ("policy", |c| c.policy.clone()),
    ("refit_every", |c| c.refit_every.to_string()),
    ("refresh_interval_ms", |c| (c.refresh_interval.as_millis() as u64).to_string()),
    ("seed", |c| c.seed.to_string()),
    ("trust_auto", |c| c.trust_auto.to_string()),
    ("trust_collusion_agreement", |c| c.trust.collusion_agreement.to_string()),
    ("trust_collusion_collisions", |c| c.trust.collusion_value_collisions.to_string()),
    ("trust_collusion_overlap", |c| c.trust.collusion_min_overlap.to_string()),
    ("trust_min_answers", |c| c.trust.min_answers.to_string()),
    ("trust_quarantine_enter", |c| c.trust.quarantine_enter.to_string()),
    ("trust_quarantine_exit", |c| c.trust.quarantine_exit.to_string()),
    ("trust_suspect_enter", |c| c.trust.suspect_enter.to_string()),
    ("trust_suspect_exit", |c| c.trust.suspect_exit.to_string()),
    ("warm_refits", |c| c.warm_refits.to_string()),
    ("worker_burst", |c| c.worker_burst.to_string()),
    ("worker_rate", |c| c.worker_rate.to_string()),
];

/// How [`CONFIG_KEYS`] reads one key's value.
type ConfigValue = fn(&TableConfig) -> String;

/// The optional keys store `None` as the empty string.
fn opt_string(v: Option<usize>) -> String {
    v.map(|v| v.to_string()).unwrap_or_default()
}

impl TableConfig {
    /// Serialize as the sorted key/value pairs the store's `TableMeta`
    /// persists (the WAL Create record).
    pub fn to_kv(&self) -> Vec<(String, String)> {
        CONFIG_KEYS.iter().map(|(key, get)| (key.to_string(), get(self))).collect()
    }

    /// Parse and validate one config key's value — the rules `POST /tables`
    /// and WAL replay share: `refit_every` is raised to at least 1,
    /// `refresh_interval_ms` clamped to 1..=60000, and an unparsable value,
    /// an unknown policy, a `max_pending` or `worker_burst` of 0 and a
    /// negative or non-finite `worker_rate` are refused. The empty string
    /// is `None` for the optional keys. Keys not in `CONFIG_KEYS` are
    /// ignored, so a value is never accepted here and then dropped by
    /// [`TableConfig::to_kv`]. The trust thresholds are checked together
    /// afterwards ([`TrustConfig::validate`]).
    pub fn set(&mut self, key: &str, v: &str) -> Result<(), String> {
        if !CONFIG_KEYS.iter().any(|&(name, _)| name == key) {
            return Ok(());
        }
        let must = |what: &str| format!("'{key}' must be {what}");
        let int = || must("a non-negative integer");
        let num = || must("a number");
        let boolean = || must("a boolean");
        let t = &mut self.trust;
        match key {
            "max_answers_per_cell" if v.is_empty() => self.max_answers_per_cell = None,
            "max_answers_per_cell" => {
                self.max_answers_per_cell = Some(v.parse().map_err(|_| int())?)
            }
            "max_pending" if v.is_empty() => self.max_pending = None,
            "max_pending" => match v.parse() {
                Ok(0) | Err(_) => return Err(must("a positive integer")),
                Ok(n) => self.max_pending = Some(n),
            },
            "policy" if POLICY_NAMES.contains(&v) => self.policy = v.to_string(),
            "policy" => return Err(must(&format!("one of {}", POLICY_NAMES.join(", ")))),
            "refit_every" => self.refit_every = v.parse::<usize>().map_err(|_| int())?.max(1),
            "refresh_interval_ms" => {
                let ms = v.parse::<u64>().map_err(|_| int())?;
                self.refresh_interval = Duration::from_millis(ms.clamp(1, 60_000));
            }
            "seed" => self.seed = v.parse().map_err(|_| int())?,
            "trust_auto" => self.trust_auto = v.parse().map_err(|_| boolean())?,
            "trust_collusion_agreement" => t.collusion_agreement = v.parse().map_err(|_| num())?,
            "trust_collusion_collisions" => {
                t.collusion_value_collisions = v.parse().map_err(|_| int())?
            }
            "trust_collusion_overlap" => t.collusion_min_overlap = v.parse().map_err(|_| int())?,
            "trust_min_answers" => t.min_answers = v.parse().map_err(|_| int())?,
            "trust_quarantine_enter" => t.quarantine_enter = v.parse().map_err(|_| num())?,
            "trust_quarantine_exit" => t.quarantine_exit = v.parse().map_err(|_| num())?,
            "trust_suspect_enter" => t.suspect_enter = v.parse().map_err(|_| num())?,
            "trust_suspect_exit" => t.suspect_exit = v.parse().map_err(|_| num())?,
            "warm_refits" => self.warm_refits = v.parse().map_err(|_| boolean())?,
            "worker_burst" => match v.parse() {
                Ok(0) | Err(_) => return Err(must("a positive u32")),
                Ok(n) => self.worker_burst = n,
            },
            "worker_rate" => match v.parse::<f64>() {
                Ok(r) if r.is_finite() && r >= 0.0 => self.worker_rate = r,
                _ => return Err(must("a finite non-negative number")),
            },
            _ => return Err(format!("config key '{key}' has no parse rule")),
        }
        Ok(())
    }

    /// Rebuild from persisted key/value pairs with the rules of
    /// [`TableConfig::set`]. Missing keys, unknown keys and values `set`
    /// refuses keep their defaults (an invalid set of trust thresholds
    /// falls back to the default set) — config can evolve without a WAL
    /// format change in either direction.
    pub fn from_kv(kv: &[(String, String)]) -> TableConfig {
        let mut config = TableConfig::default();
        for (k, v) in kv {
            let _ = config.set(k, v);
        }
        if config.trust.validate().is_err() {
            config.trust = TrustConfig::default();
        }
        config
    }
}
