//! Streaming pair-sink properties: the streamed emission path (workers
//! push refuted pairs straight into row-range bitset shards, merged
//! after the scope) must classify *identically* to the nested-loop
//! oracle's buffered `Vec` path at every thread count, its plan must
//! carry a [`Sink`] node that the serial twin keeps and the
//! index-free and buffered rewrites lower, and an abort or injected
//! fault mid-stream must surface as a typed error with coherent
//! partial stats — never a panic, never a wrong table.
//!
//! The fault plan is process-global and every engine run passes its
//! fault sites, so every test here holds the file's lock for its
//! whole duration; the one that arms a plan clears it before
//! returning.
//!
//! [`Sink`]: entity_id::core::plan::PlanNodeKind::Sink

use std::sync::Mutex;

use proptest::prelude::*;

use entity_id::core::error::CoreError;
use entity_id::core::matcher::{EntityMatcher, JoinAlgorithm, MatchConfig, MatchOutcome};
use entity_id::core::plan::{EmitMode, PlanNodeKind};
use entity_id::core::runtime::{AbortReason, RunBudget};
use entity_id::core::stats::counter;
use entity_id::datagen::{generate, GeneratorConfig, Workload};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn arb_config() -> impl Strategy<Value = GeneratorConfig> {
    (
        10..80usize,  // n_entities
        0.0..1.0f64,  // overlap
        0.0..0.4f64,  // homonym_rate
        0.0..1.0f64,  // ilfd_coverage
        0.0..0.3f64,  // noise
        any::<u64>(), // seed
    )
        .prop_map(
            |(n, overlap, homonym, coverage, noise, seed)| GeneratorConfig {
                n_entities: n,
                overlap,
                homonym_rate: homonym,
                ilfd_coverage: coverage,
                noise,
                n_specialities: 16,
                n_cuisines: 6,
                seed,
            },
        )
}

fn world(n: usize, seed: u64) -> (Workload, MatchConfig) {
    let w = generate(&GeneratorConfig {
        n_entities: n,
        overlap: 0.5,
        homonym_rate: 0.1,
        ilfd_coverage: 1.0,
        noise: 0.0,
        n_specialities: 32,
        n_cuisines: 10,
        seed,
    });
    let config = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
    (w, config)
}

fn run(w: &Workload, config: MatchConfig) -> MatchOutcome {
    EntityMatcher::new(w.r.clone(), w.s.clone(), config)
        .expect("construct matcher")
        .run()
        .expect("successful run")
}

/// The nested-loop oracle: every rule scanned serially, emission
/// buffered.
fn nested_loop_oracle(w: &Workload, config: &MatchConfig) -> MatchOutcome {
    let mut oracle = config.clone();
    oracle.join = JoinAlgorithm::NestedLoop;
    run(w, oracle)
}

/// Same decision *sets* and counts. The streamed path decodes its
/// merged bitset in ascending row order while the oracle's buffered
/// path keeps first-occurrence order, so entry order is not compared.
fn assert_same_table_sets(
    a: &MatchOutcome,
    b: &MatchOutcome,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(a.matching.includes(&b.matching), "{label}: matching ⊉");
    prop_assert!(b.matching.includes(&a.matching), "{label}: matching ⊈");
    prop_assert!(a.negative.includes(&b.negative), "{label}: negative ⊉");
    prop_assert!(b.negative.includes(&a.negative), "{label}: negative ⊈");
    prop_assert_eq!(a.matching.len(), b.matching.len(), "{}: |MT|", label);
    prop_assert_eq!(a.negative.len(), b.negative.len(), "{}: |NMT|", label);
    prop_assert_eq!(a.undetermined, b.undetermined, "{}: undetermined", label);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On ANY generated world, the auto plan's streamed emission
    /// classifies identically to the nested-loop oracle's buffered
    /// path at thread counts 1, 2, and 7 — streaming is an execution
    /// detail, never a semantic one.
    #[test]
    fn streamed_equals_buffered_at_any_thread_count(config in arb_config()) {
        let _l = lock();
        let w = generate(&config);
        let base = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
        let oracle = nested_loop_oracle(&w, &base);
        prop_assert!(
            oracle.stats.label("plan/emit").unwrap_or("?").starts_with("buffered"),
            "the oracle must run the buffered path"
        );

        for threads in [1usize, 2, 7] {
            let mut streamed = base.clone();
            streamed.threads = threads;
            let got = run(&w, streamed);
            let emit = got.stats.label("plan/emit").unwrap_or("?");
            prop_assert!(emit.starts_with("streamed"), "t={}: auto plan emit {}", threads, emit);
            assert_same_table_sets(&oracle, &got, &format!("streamed t={threads}"))?;
            // When anything was refuted, the sink counters prove the
            // streamed path actually engaged (shards allocate lazily,
            // so an all-positive world may legitimately record none).
            if !oracle.negative.is_empty() {
                prop_assert!(
                    got.stats.counter(counter::SINK_SHARDS) >= 1,
                    "t={}: no sink shards recorded", threads
                );
            }
        }
    }

    /// A pair budget under streamed emission is exact-or-typed: the
    /// run either completes with the fault-free decisions or returns
    /// a typed abort whose partial stats are coherent — including
    /// mid-stream trips, where refuted pairs already pushed into
    /// sink shards must be accounted in `partial.negative`.
    #[test]
    fn streamed_pair_budget_is_exact_or_typed_abort(
        n in 30..90usize,
        world_seed in any::<u64>(),
        max_pairs in 1..30_000u64,
    ) {
        let _l = lock();
        let (w, config) = world(n, world_seed);
        let oracle = nested_loop_oracle(&w, &config);

        let mut budgeted = config;
        budgeted.threads = 2;
        budgeted.budget = RunBudget {
            max_candidate_pairs: Some(max_pairs),
            ..RunBudget::default()
        };
        match EntityMatcher::new(w.r.clone(), w.s.clone(), budgeted).unwrap().run() {
            Ok(outcome) => assert_same_table_sets(&oracle, &outcome, "within budget")?,
            Err(CoreError::Aborted { reason, partial }) => {
                match reason {
                    AbortReason::PairBudgetExceeded { limit, observed } => {
                        prop_assert_eq!(limit, max_pairs);
                        prop_assert!(observed > limit);
                        prop_assert_eq!(partial.pairs_charged, observed);
                    }
                    other => prop_assert!(false, "wrong reason: {other}"),
                }
                // The trip happened before the tasks it charged ran
                // to completion — the partial task tally reflects it.
                prop_assert!(partial.tasks_completed <= partial.tasks_total);
            }
            Err(other) => prop_assert!(false, "untyped failure: {other}"),
        }
    }
}

/// The auto plan streams: it carries exactly one
/// [`PlanNodeKind::Sink`] node and streamed emission metadata. Its
/// serial twin — the plan the ladder's serial rung runs — keeps the
/// sink node and the emission; the index-free and buffered twins
/// lower it back to a buffered `Dedup`.
#[test]
fn streamed_plan_has_sink_node_and_rewrites_lower_to_buffered() {
    let _l = lock();
    let (w, config) = world(200, 7);
    let matcher = EntityMatcher::new(w.r.clone(), w.s.clone(), config).unwrap();
    let plan = matcher.plan().unwrap();

    assert_eq!(plan.emit.mode, EmitMode::Streamed, "{}", plan.emit_why);
    let sinks = plan
        .nodes
        .iter()
        .filter(|n| matches!(n.kind, PlanNodeKind::Sink { .. }))
        .count();
    assert_eq!(sinks, 1, "streamed plan should carry one sink node");

    let serial = plan.rewrite_serial();
    assert_eq!(serial.emit, plan.emit, "serial twin emit");
    assert_eq!(serial.nodes, plan.nodes, "serial twin nodes");

    for (name, twin) in [
        ("index-free", plan.rewrite_index_free()),
        ("buffered", plan.rewrite_buffered()),
    ] {
        assert_eq!(twin.emit.mode, EmitMode::Buffered, "{name} twin emit");
        assert!(
            !twin
                .nodes
                .iter()
                .any(|n| matches!(n.kind, PlanNodeKind::Sink { .. })),
            "{name} twin still has a sink node"
        );
    }

    // Lowering is idempotent: a buffered plan is returned unchanged.
    let buffered = plan.rewrite_buffered();
    assert_eq!(buffered.rewrite_buffered().emit_why, buffered.emit_why);
}

/// An injected panic at the shard-merge fault site degrades the
/// streamed parallel arm to the serial rung instead of escaping. The
/// rerun streams into *fresh* sinks and re-merges, so it is
/// byte-identical to a fault-free streamed serial run (and set-equal
/// to the nested-loop oracle), and the degradation is counted.
#[test]
fn sink_merge_fault_degrades_and_matches_oracle() {
    let _l = lock();
    eid_fault::quiet_panics();
    let (w, config) = world(400, 42);

    let mut serial_streamed = config.clone();
    serial_streamed.threads = 1;
    let oracle = run(&w, serial_streamed);
    let nested_oracle = nested_loop_oracle(&w, &config);

    eid_fault::install("engine/sink_merge@1", 0).unwrap();
    let mut faulty = config;
    faulty.threads = 2;
    let degraded = EntityMatcher::new(w.r.clone(), w.s.clone(), faulty)
        .unwrap()
        .run();
    eid_fault::clear();
    let degraded = degraded.expect("merge fault should degrade, not fail");

    assert_eq!(
        oracle.matching.entries(),
        degraded.matching.entries(),
        "MT differs after sink-merge degradation"
    );
    assert_eq!(
        oracle.negative.entries(),
        degraded.negative.entries(),
        "NMT differs after sink-merge degradation"
    );
    assert_eq!(oracle.undetermined, degraded.undetermined);
    assert_eq!(
        degraded.stats.counter(counter::RUNTIME_DEGRADED_TO_BLOCKED),
        1,
        "sink-merge panic should degrade parallel → blocked serial"
    );

    // Same decision sets as the oracle's buffered path —
    // classification never depends on the emission mode, degraded or
    // not.
    assert!(degraded.matching.includes(&nested_oracle.matching));
    assert!(nested_oracle.matching.includes(&degraded.matching));
    assert!(degraded.negative.includes(&nested_oracle.negative));
    assert!(nested_oracle.negative.includes(&degraded.negative));
}

/// Cancelling mid-stream from another thread surfaces as the typed
/// `Cancelled` abort with partial stats — the sink shards already
/// holding pairs are discarded, not published.
#[test]
fn cancel_mid_stream_is_typed() {
    use entity_id::core::runtime::RunGuard;

    let _l = lock();
    let (w, mut config) = world(400, 11);
    config.threads = 2;
    let matcher = EntityMatcher::new(w.r.clone(), w.s.clone(), config).unwrap();

    // Pre-cancelled guard: the first checkpoint trips, wherever the
    // run is — construction-order independence is the point.
    let guard = RunGuard::new(&RunBudget::default());
    guard.cancel();
    match matcher.run_guarded(&guard) {
        Err(CoreError::Aborted { reason, partial }) => {
            assert_eq!(reason, AbortReason::Cancelled);
            assert_eq!(partial.matching, 0);
            assert_eq!(partial.negative, 0);
        }
        other => panic!("expected typed cancel, got {other:?}"),
    }
}
