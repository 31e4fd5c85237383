//! The deterministic fault matrix: every rung of the matching
//! runtime's degradation ladder, driven by `eid-fault` plans on a
//! fixed seed. The headline demo is the ISSUE acceptance scenario —
//! an injected worker panic on the n=800 scaling workload degrades
//! `blocked_parallel → blocked` and still produces MT/NMT
//! byte-identical to a fault-free serial run.
//!
//! The fault plan is process-global state, so every test here
//! serializes on one mutex and clears the plan before returning.

use std::sync::Mutex;

use entity_id::core::error::CoreError;
use entity_id::core::matcher::{EntityMatcher, JoinAlgorithm, MatchConfig, MatchOutcome};
use entity_id::core::runtime::{AbortReason, RunBudget};
use entity_id::core::stats::{counter, label};
use entity_id::datagen::{generate, GeneratorConfig};
use entity_id::relational::Relation;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The acceptance workload: 800 entities, full ILFD coverage, fixed
/// seed 42 — large enough that every block plan chunks into multiple
/// tasks and the parallel arm actually engages.
fn workload_800() -> (Relation, Relation, MatchConfig) {
    let w = generate(&GeneratorConfig {
        n_entities: 800,
        overlap: 0.5,
        homonym_rate: 0.1,
        ilfd_coverage: 1.0,
        noise: 0.0,
        n_specialities: 32,
        n_cuisines: 10,
        seed: 42,
    });
    let config = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
    (w.r, w.s, config)
}

fn run(r: &Relation, s: &Relation, config: MatchConfig) -> MatchOutcome {
    EntityMatcher::new(r.clone(), s.clone(), config)
        .expect("construct matcher")
        .run()
        .expect("fault-free run")
}

/// MT/NMT must be *identical* — same entries, same order.
fn assert_same_tables(a: &MatchOutcome, b: &MatchOutcome) {
    assert_eq!(a.matching.entries(), b.matching.entries(), "MT differs");
    assert_eq!(a.negative.entries(), b.negative.entries(), "NMT differs");
    assert_eq!(a.undetermined, b.undetermined);
}

/// The nested-loop rung guarantees the same decision *sets* (its
/// emission order differs from the blocked arms).
fn assert_same_table_sets(a: &MatchOutcome, b: &MatchOutcome) {
    let sorted = |t: &entity_id::core::match_table::PairTable| {
        let mut v: Vec<String> = t.entries().iter().map(|e| format!("{e:?}")).collect();
        v.sort();
        v
    };
    assert_eq!(sorted(&a.matching), sorted(&b.matching), "MT set differs");
    assert_eq!(sorted(&a.negative), sorted(&b.negative), "NMT set differs");
    assert_eq!(a.undetermined, b.undetermined);
}

/// The acceptance demo: a seed-driven worker panic
/// (`engine/worker@s8`, seed 42) on the parallel arm. The run must
/// degrade to the serial rerun and produce byte-identical tables,
/// with the abort and degradation visible in the report.
#[test]
fn injected_worker_panic_degrades_to_byte_identical_serial_run() {
    let _l = lock();
    eid_fault::quiet_panics();
    let (r, s, config) = workload_800();

    let mut serial = config.clone();
    serial.threads = 1;
    let oracle = run(&r, &s, serial);
    assert_eq!(oracle.stats.label(label::ENGINE_ARM), Some("blocked"));

    eid_fault::install("engine/worker@s8", 42).unwrap();
    let mut parallel = config;
    parallel.threads = 4;
    let degraded = run(&r, &s, parallel);
    eid_fault::clear();

    assert_same_tables(&oracle, &degraded);
    assert!(
        degraded.stats.counter(counter::ENGINE_ABORTED_TASKS) >= 1,
        "no aborted tasks recorded:\n{}",
        degraded.stats
    );
    assert_eq!(
        degraded.stats.counter(counter::RUNTIME_DEGRADED_TO_BLOCKED),
        1
    );
    assert_eq!(degraded.stats.label(label::ENGINE_ARM), Some("blocked"));
}

/// Poisoning the serial rerun too drops to the index-free
/// nested-loop arm, which still agrees exactly.
#[test]
fn double_poison_falls_back_to_nested_loop() {
    let _l = lock();
    eid_fault::quiet_panics();
    let (r, s, config) = workload_800();

    let mut serial = config.clone();
    serial.threads = 1;
    let oracle = run(&r, &s, serial);

    eid_fault::install("engine/worker@1;engine/serial@1", 0).unwrap();
    let mut parallel = config;
    parallel.threads = 4;
    let degraded = run(&r, &s, parallel);
    eid_fault::clear();

    assert_same_table_sets(&oracle, &degraded);
    assert_eq!(degraded.stats.label(label::ENGINE_ARM), Some("nested_loop"));
    assert_eq!(
        degraded
            .stats
            .counter(counter::RUNTIME_DEGRADED_TO_NESTED_LOOP),
        1
    );
}

/// Exhausting every rung surfaces the typed terminal error — never a
/// raw panic out of the matcher.
#[test]
fn exhausted_ladder_is_a_typed_error() {
    let _l = lock();
    eid_fault::quiet_panics();
    let (r, s, mut config) = workload_800();
    config.threads = 4;

    eid_fault::install("engine/worker@1;engine/serial@1;engine/nested@1", 0).unwrap();
    let err = EntityMatcher::new(r, s, config)
        .unwrap()
        .run()
        .expect_err("every rung was poisoned");
    eid_fault::clear();

    match err {
        CoreError::WorkerPanic { site } => assert_eq!(site, "engine/nested"),
        other => panic!("expected WorkerPanic, got: {other}"),
    }
}

/// Interner poisoning during encode is retried once on a clean
/// interner; the run then succeeds and the retry is counted.
#[test]
fn interner_poison_retries_encode_once() {
    let _l = lock();
    eid_fault::quiet_panics();
    let (r, s, config) = workload_800();

    let mut serial = config.clone();
    serial.threads = 1;
    let oracle = run(&r, &s, serial.clone());

    eid_fault::install("interner/poison@1", 0).unwrap();
    let retried = run(&r, &s, serial);
    eid_fault::clear();

    assert_same_tables(&oracle, &retried);
    assert_eq!(retried.stats.counter(counter::RUNTIME_ENCODE_RETRIES), 1);
}

/// A second consecutive encode poisoning escapes the retry and is
/// caught at the matcher's isolation boundary as a typed error.
#[test]
fn double_interner_poison_is_a_typed_error() {
    let _l = lock();
    eid_fault::quiet_panics();
    let (r, s, config) = workload_800();

    eid_fault::install("interner/poison@1;interner/poison@2", 0).unwrap();
    let err = EntityMatcher::new(r, s, config)
        .unwrap()
        .run()
        .expect_err("encode poisoned twice");
    eid_fault::clear();

    match err {
        CoreError::WorkerPanic { site } => assert_eq!(site, "engine/encode"),
        other => panic!("expected WorkerPanic, got: {other}"),
    }
}

/// A tripped pair budget is a typed abort carrying partial progress —
/// the guard's meters, not a panic and not a half-filled table.
#[test]
fn pair_budget_trips_with_partial_stats() {
    let _l = lock();
    let (r, s, mut config) = workload_800();
    config.budget = RunBudget {
        max_candidate_pairs: Some(10),
        ..RunBudget::default()
    };

    let err = EntityMatcher::new(r, s, config)
        .unwrap()
        .run()
        .expect_err("ten pairs cannot cover the workload");
    match err {
        CoreError::Aborted { reason, partial } => {
            match reason {
                AbortReason::PairBudgetExceeded { limit, observed } => {
                    assert_eq!(limit, 10);
                    assert!(observed > limit);
                }
                other => panic!("expected PairBudgetExceeded, got: {other}"),
            }
            assert!(partial.pairs_charged > 10);
        }
        other => panic!("expected Aborted, got: {other}"),
    }
}

/// A zero deadline trips before any matching work happens.
#[test]
fn deadline_trips_as_typed_abort() {
    let _l = lock();
    let (r, s, mut config) = workload_800();
    config.budget = RunBudget {
        timeout_ms: Some(0),
        ..RunBudget::default()
    };

    let err = EntityMatcher::new(r, s, config)
        .unwrap()
        .run()
        .expect_err("zero deadline");
    match err {
        CoreError::Aborted { reason, .. } => {
            assert!(matches!(
                reason,
                AbortReason::DeadlineExceeded { timeout_ms: 0 }
            ));
        }
        other => panic!("expected Aborted, got: {other}"),
    }
}

/// A memory budget too small for the blocked indexes first degrades
/// to the index-free arm, then trips on the pair lists themselves —
/// still a typed abort.
#[test]
fn memory_budget_trips_as_typed_abort() {
    let _l = lock();
    let (r, s, mut config) = workload_800();
    config.budget = RunBudget {
        max_pair_bytes: Some(64),
        ..RunBudget::default()
    };

    let err = EntityMatcher::new(r, s, config)
        .unwrap()
        .run()
        .expect_err("64 bytes of pair lists");
    match err {
        CoreError::Aborted { reason, .. } => {
            assert!(matches!(reason, AbortReason::MemBudgetExceeded { .. }));
        }
        other => panic!("expected Aborted, got: {other}"),
    }
}

/// Cancellation through a cloned guard handle: the run stops at the
/// next checkpoint with the `cancelled` reason.
#[test]
fn cancelled_guard_aborts_the_run() {
    let _l = lock();
    let (r, s, config) = workload_800();
    let matcher = EntityMatcher::new(r, s, config).unwrap();
    let guard = entity_id::core::runtime::RunGuard::unlimited();
    guard.cancel();
    let err = matcher.run_guarded(&guard).expect_err("pre-cancelled run");
    match err {
        CoreError::Aborted { reason, .. } => assert!(matches!(reason, AbortReason::Cancelled)),
        other => panic!("expected Aborted, got: {other}"),
    }
}

/// A poisoned parallel convert degrades to the serial dedup on the
/// main thread — same tables, counted fallback. Only buffered runs
/// dedup raw pair lists, so both runs take the nested-loop arm, the
/// buffered path the planner keeps for its oracle.
#[test]
fn convert_fault_degrades_to_serial_dedup() {
    let _l = lock();
    let (r, s, mut config) = workload_800();
    config.join = JoinAlgorithm::NestedLoop;

    let mut serial = config.clone();
    serial.threads = 1;
    let oracle = run(&r, &s, serial);

    let mut parallel = config;
    parallel.threads = 4;
    eid_fault::install("convert/worker@1", 0).unwrap();
    let degraded = run(&r, &s, parallel);
    eid_fault::clear();

    assert_same_tables(&oracle, &degraded);
    // The fault site only arms when the convert would have gone
    // parallel; the refutation grid at n=800 clears that threshold.
    assert_eq!(
        degraded
            .stats
            .counter(counter::RUNTIME_CONVERT_SERIAL_FALLBACK),
        1,
        "convert never went parallel"
    );
}
