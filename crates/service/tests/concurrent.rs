//! Concurrency torture: one table hammered by interleaved submit and
//! assignment threads (with the background refresher live) must end in a
//! state identical to a *serial replay of the same answer order* — the lock
//! protocol may interleave ingestion, refreshes and reads arbitrarily, but
//! it must not lose, duplicate or reorder state relative to the log it
//! committed.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;
use tcrowd_core::{diagnostics::max_z_discrepancy, OnlineTCrowd, TCrowd};
use tcrowd_service::{TableConfig, TableRegistry};
use tcrowd_tabular::{generate_dataset, GeneratorConfig, WorkerId};

#[test]
fn concurrent_ingest_and_assignment_equal_serial_replay() {
    let d = generate_dataset(
        &GeneratorConfig {
            rows: 16,
            columns: 4,
            num_workers: 24,
            answers_per_task: 4,
            ..Default::default()
        },
        21,
    );
    let registry = Arc::new(TableRegistry::new());
    let table = registry
        .create(
            Some("torture".into()),
            d.schema.clone(),
            d.rows(),
            TableConfig {
                // Aggressive cadence + tiny threshold: the refresher re-fits
                // and publishes *while* the submitters run, maximising
                // publish/ingest/read interleavings.
                refit_every: 8,
                refresh_interval: Duration::from_millis(5),
                ..Default::default()
            },
        )
        .expect("create table");

    const SUBMITTERS: usize = 4;
    const READERS: usize = 2;
    let accepted = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicBool::new(false));
    // Submitters start only once every reader has been served once, so no
    // reader can find the run already over.
    let start = Arc::new(Barrier::new(SUBMITTERS + READERS));

    // Submit threads: each pushes an interleaved slice of the generated
    // stream in small random-sized batches.
    let submit_threads: Vec<_> = (0..SUBMITTERS)
        .map(|t| {
            let table = Arc::clone(&table);
            let accepted = Arc::clone(&accepted);
            let start = Arc::clone(&start);
            let mine: Vec<tcrowd_tabular::Answer> =
                d.answers.all().iter().skip(t).step_by(SUBMITTERS).copied().collect();
            std::thread::spawn(move || {
                start.wait();
                let mut at = 0usize;
                let mut step = 1usize;
                while at < mine.len() {
                    let hi = (at + step).min(mine.len());
                    table.submit(&mine[at..hi]).expect("valid answers must be accepted");
                    accepted.fetch_add(hi - at, Ordering::SeqCst);
                    at = hi;
                    step = step % 5 + 1; // 1..=5, varies batch size
                    std::thread::yield_now();
                }
            })
        })
        .collect();

    // Assignment/read threads: hammer the published snapshot while ingestion
    // runs. Every response must be internally consistent (in-range distinct
    // cells, fresh freeze) regardless of interleaving.
    let read_threads: Vec<_> = (0..READERS)
        .map(|t| {
            let table = Arc::clone(&table);
            let done = Arc::clone(&done);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut served = 0usize;
                let mut worker = 1000 + t as u32;
                while !done.load(Ordering::SeqCst) {
                    let assigned = table.assign(WorkerId(worker), 3, Some("inherent"));
                    if served == 0 {
                        start.wait();
                    }
                    let (snap, picks, _) = assigned.expect("assignment must not fail");
                    assert!(picks.len() <= 3);
                    let mut dedup = picks.clone();
                    dedup.sort();
                    dedup.dedup();
                    assert_eq!(dedup.len(), picks.len(), "duplicate cells in one HIT");
                    for c in &picks {
                        assert!((c.row as usize) < 16 && (c.col as usize) < 4);
                    }
                    assert_eq!(snap.matrix.len(), snap.epoch, "freeze must cover its epoch");
                    served += 1;
                    worker += 2;
                }
                served
            })
        })
        .collect();

    for t in submit_threads {
        t.join().expect("submitter");
    }
    done.store(true, Ordering::SeqCst);
    for t in read_threads {
        let served = t.join().expect("reader");
        assert!(served > 0, "reader thread should have been served");
    }

    // Zero dropped answers.
    assert_eq!(accepted.load(Ordering::SeqCst), d.answers.len());
    assert!(table.refresh_now() || table.pending() == 0);
    let snap = table.snapshot();
    assert_eq!(snap.epoch, d.answers.len(), "every accepted answer is published");
    assert_eq!(snap.log.len(), d.answers.len());
    assert_eq!(snap.matrix.len(), d.answers.len());

    // Determinism under the lock protocol: replay the *same* committed
    // answer order serially through a fresh OnlineTCrowd (the service's own
    // ingest machinery) and through a batch fit; both must reproduce the
    // published state exactly.
    let mut serial = OnlineTCrowd::empty(TCrowd::default_full(), d.schema.clone(), d.rows());
    serial.refit_every = usize::MAX;
    for &a in &snap.log.to_vec() {
        serial.add_answer(a);
    }
    serial.flush_refit();
    assert_eq!(serial.estimates(), snap.result.estimates(), "serial replay diverged");
    assert_eq!(max_z_discrepancy(serial.result(), &snap.result), 0.0);

    let batch = TCrowd::default_full().infer(&d.schema, &snap.log.to_log());
    assert_eq!(batch.estimates(), snap.result.estimates(), "batch fit diverged");
    assert_eq!(batch.iterations, snap.result.iterations);

    registry.shutdown();
}

/// The mid-fit race, hammered: submitters push answers continuously while a
/// dedicated thread drives EM refits back to back (on top of the live
/// background refresher), so fits constantly overlap ingestion and every
/// refresh has to catch up answers that arrived mid-fit. Three contracts:
///
/// * ingest is never blocked into an error and no answer is lost;
/// * every published snapshot is internally consistent — the log, freeze
///   and epoch agree, and `fitted_epoch + catchup_merged == epoch`;
/// * once ingest quiesces, a settling refresh makes the published state
///   equal a serial offline `TCrowd::infer` of the committed order within
///   1e-6 z-units (exactly, with cold refits).
#[test]
fn mid_fit_ingest_race_converges_to_offline_inference() {
    let d = generate_dataset(
        &GeneratorConfig {
            rows: 24,
            columns: 4,
            num_workers: 24,
            answers_per_task: 6,
            ..Default::default()
        },
        77,
    );
    let registry = Arc::new(TableRegistry::new());
    let table = registry
        .create(
            Some("midfit".into()),
            d.schema.clone(),
            d.rows(),
            TableConfig {
                refit_every: 16,
                refresh_interval: Duration::from_millis(5),
                ..Default::default()
            },
        )
        .expect("create table");

    const SUBMITTERS: usize = 3;
    let accepted = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicBool::new(false));

    let submit_threads: Vec<_> = (0..SUBMITTERS)
        .map(|t| {
            let table = Arc::clone(&table);
            let accepted = Arc::clone(&accepted);
            let mine: Vec<tcrowd_tabular::Answer> =
                d.answers.all().iter().skip(t).step_by(SUBMITTERS).copied().collect();
            std::thread::spawn(move || {
                let mut at = 0usize;
                let mut step = 1usize;
                while at < mine.len() {
                    let hi = (at + step).min(mine.len());
                    table.submit(&mine[at..hi]).expect("ingest must never be refused mid-fit");
                    accepted.fetch_add(hi - at, Ordering::SeqCst);
                    at = hi;
                    step = step % 4 + 1;
                    std::thread::yield_now();
                }
            })
        })
        .collect();

    // The refit hammer: synchronous refreshes back to back, each one an EM
    // fit that overlaps ongoing ingestion (plus the background refresher's
    // own ticks — the fitter mutex serialises them).
    let refit_thread = {
        let table = Arc::clone(&table);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut refits = 0usize;
            let mut max_catchup = 0usize;
            while !done.load(Ordering::SeqCst) {
                if table.refresh_now() {
                    refits += 1;
                    max_catchup = max_catchup.max(table.snapshot().catchup_merged);
                }
                std::thread::yield_now();
            }
            (refits, max_catchup)
        })
    };

    // Snapshot invariants under fire.
    let invariant_thread = {
        let table = Arc::clone(&table);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            while !done.load(Ordering::SeqCst) {
                let snap = table.snapshot();
                assert_eq!(snap.log.len(), snap.epoch, "shared log must cover the epoch");
                assert_eq!(snap.matrix.len(), snap.epoch, "freeze must cover the epoch");
                assert_eq!(
                    snap.fitted_epoch + snap.catchup_merged,
                    snap.epoch,
                    "catch-up bookkeeping must balance"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    for t in submit_threads {
        t.join().expect("submitter");
    }
    done.store(true, Ordering::SeqCst);
    let (refits, max_catchup) = refit_thread.join().expect("refit thread");
    invariant_thread.join().expect("invariant thread");
    assert!(refits > 0, "the refit hammer must have driven refreshes");
    assert_eq!(accepted.load(Ordering::SeqCst), d.answers.len());

    // Quiesce: settle until the published state is the exact fit of the
    // full committed order (at most two refreshes: one absorbs any tail,
    // one clears a residual catch-up).
    while table.needs_refresh() {
        table.refresh_now();
    }
    let snap = table.snapshot();
    assert_eq!(snap.epoch, d.answers.len(), "every accepted answer is published");
    assert_eq!(snap.catchup_merged, 0, "a settling refresh leaves no incremental residue");
    println!(
        "mid-fit torture: {refits} refreshes under load, max catch-up delta {max_catchup} answers"
    );

    // The committed order as served, replayed offline.
    let served = snap.log.to_log();
    let offline = TCrowd::default_full().infer(&d.schema, &served);
    let divergence = max_z_discrepancy(&offline, &snap.result);
    assert!(
        divergence <= 1e-6,
        "published state diverges from offline inference by {divergence:.3e}"
    );
    // Cold refits make it exact, not merely close.
    assert_eq!(offline.estimates(), snap.result.estimates());

    registry.shutdown();
}

/// Multiple tables ingest and refresh independently: concurrent traffic on
/// one table must not perturb another's state.
#[test]
fn tables_are_isolated() {
    let d1 = generate_dataset(
        &GeneratorConfig { rows: 8, columns: 3, num_workers: 8, ..Default::default() },
        31,
    );
    let d2 = generate_dataset(
        &GeneratorConfig { rows: 6, columns: 2, num_workers: 6, ..Default::default() },
        32,
    );
    let registry = Arc::new(TableRegistry::new());
    let cfg = || TableConfig {
        refit_every: 4,
        refresh_interval: Duration::from_millis(5),
        ..Default::default()
    };
    let t1 = registry.create(Some("a".into()), d1.schema.clone(), d1.rows(), cfg()).unwrap();
    let t2 = registry.create(Some("b".into()), d2.schema.clone(), d2.rows(), cfg()).unwrap();

    let h1 = {
        let t1 = Arc::clone(&t1);
        let answers = d1.answers.all().to_vec();
        std::thread::spawn(move || {
            for chunk in answers.chunks(3) {
                t1.submit(chunk).unwrap();
            }
        })
    };
    for chunk in d2.answers.all().chunks(3) {
        t2.submit(chunk).unwrap();
    }
    h1.join().unwrap();
    t1.refresh_now();
    t2.refresh_now();

    assert_eq!(t1.snapshot().epoch, d1.answers.len());
    assert_eq!(t2.snapshot().epoch, d2.answers.len());
    let b1 = TCrowd::default_full().infer(&d1.schema, &d1.answers);
    // Table 1 received d1's answers in chunk order = original order.
    assert_eq!(t1.snapshot().result.estimates(), b1.estimates());
    let b2 = TCrowd::default_full().infer(&d2.schema, &d2.answers);
    assert_eq!(t2.snapshot().result.estimates(), b2.estimates());
    registry.shutdown();
}
