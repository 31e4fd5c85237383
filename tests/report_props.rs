//! Invariant properties of the observability reports attached to
//! [`MatchOutcome::stats`]: counters must sum correctly (blocking
//! precision, memoization, classification), the classification
//! counters must mirror the outcome's tables exactly, and reports
//! from the blocked arm (kernels on and off) and the nested-loop arm
//! must agree on the classification of the same world. A report that
//! lies is worse than no report.

use proptest::prelude::*;

use entity_id::core::stats::{counter, histogram};
use entity_id::datagen::{generate, GeneratorConfig};
use entity_id::obs::MatchReport;
use entity_id::prelude::*;

fn arb_config() -> impl Strategy<Value = GeneratorConfig> {
    (
        10..60usize,  // n_entities
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

fn run(w_r: &Relation, w_s: &Relation, config: &MatchConfig) -> MatchOutcome {
    EntityMatcher::new(w_r.clone(), w_s.clone(), config.clone())
        .unwrap()
        .run()
        .unwrap()
}

/// The classification counters every arm records, read back as a
/// comparable tuple: (mt, nmt, overlap, undetermined, pairs_total).
fn classification(outcome: &MatchOutcome) -> (u64, u64, u64, u64, u64) {
    let s = &outcome.stats;
    (
        s.counter(counter::CLASSIFY_MT),
        s.counter(counter::CLASSIFY_NMT),
        s.counter(counter::CLASSIFY_OVERLAP),
        s.counter(counter::CLASSIFY_UNDETERMINED),
        s.counter(counter::CLASSIFY_PAIRS_TOTAL),
    )
}

/// Invariants that must hold for any arm's report.
fn assert_common_invariants(
    outcome: &MatchOutcome,
    pairs_total: usize,
    label: &str,
) -> Result<(), TestCaseError> {
    let (mt, nmt, overlap, undetermined, total) = classification(outcome);
    // Classification counters mirror the outcome verbatim.
    prop_assert_eq!(mt, outcome.matching.len() as u64, "{}: classify/mt", label);
    prop_assert_eq!(
        nmt,
        outcome.negative.len() as u64,
        "{}: classify/nmt",
        label
    );
    prop_assert_eq!(
        undetermined,
        outcome.undetermined as u64,
        "{}: classify/undetermined",
        label
    );
    prop_assert_eq!(total, pairs_total as u64, "{}: classify/pairs_total", label);
    // Figure 3's partition accounts for every pair: MT + NMT +
    // undetermined covers the space, with double-recorded pairs
    // (inconsistent knowledge) counted once extra on each side.
    prop_assert_eq!(
        mt + nmt + undetermined,
        total + overlap,
        "{}: classification partition",
        label
    );
    // Derivation pushed every tuple of both sides exactly once, and
    // each was either memoized or freshly derived.
    let tuples = outcome.stats.counter(counter::DERIVE_TUPLES);
    prop_assert_eq!(
        tuples,
        (outcome.extended_r.relation.len() + outcome.extended_s.relation.len()) as u64,
        "{}: derive/tuples",
        label
    );
    prop_assert_eq!(
        outcome.stats.counter(counter::DERIVE_MEMO_HITS)
            + outcome.stats.counter(counter::DERIVE_MEMO_MISSES),
        tuples,
        "{}: memo hits + misses",
        label
    );
    // The run's wall clock bounds its sequential children.
    let wall = outcome.stats.stage_nanos("match").unwrap_or(0);
    for child in ["match/derive", "match/engine", "match/convert"] {
        prop_assert!(
            outcome.stats.stage_nanos(child).unwrap_or(0) <= wall,
            "{label}: stage {child} exceeds the run's wall time"
        );
    }
    Ok(())
}

/// Invariants specific to the blocked engine's report.
fn assert_blocked_invariants(outcome: &MatchOutcome) -> Result<(), TestCaseError> {
    let s = &outcome.stats;
    // Blocking precision sums: every candidate was either accepted
    // or rejected, globally and per rule.
    let candidates = s.counter(counter::BLOCK_CANDIDATES);
    let accepted = s.counter(counter::BLOCK_ACCEPTED);
    let rejected = s.counter(counter::BLOCK_REJECTED);
    prop_assert_eq!(candidates, accepted + rejected, "block/* sum");
    let rule_sum = |what: &str| -> u64 {
        s.counters_with_prefix("rule/")
            .filter(|c| c.name.ends_with(what))
            .map(|c| c.value)
            .sum()
    };
    prop_assert_eq!(rule_sum("/candidates"), candidates, "per-rule candidates");
    prop_assert_eq!(rule_sum("/accepted"), accepted, "per-rule accepted");
    // The engine ran with at least one worker, executed at least the
    // extended-key identity plan, and recorded every task's duration.
    prop_assert!(s.counter(counter::ENGINE_WORKERS) >= 1);
    let tasks = s.counter(counter::ENGINE_TASKS);
    prop_assert!(tasks >= 1, "no tasks recorded");
    prop_assert!(s.counter(counter::ENGINE_SERIAL_FALLBACK) <= 1);
    let task_hist = s
        .histograms
        .iter()
        .find(|h| h.name == histogram::ENGINE_TASK_NANOS)
        .expect("engine/task_nanos histogram missing");
    prop_assert_eq!(task_hist.snapshot.count, tasks, "task histogram count");
    // Compile accounting: every source rule produced at least one
    // orientation or was folded/dropped, never silently vanished.
    prop_assert!(s.counter(counter::COMPILE_SOURCE_RULES) >= 1);
    prop_assert!(s.counter(counter::COMPILE_COMPILED) >= 1);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Per-arm report invariants hold on arbitrary worlds, and the
    /// three arms' reports agree on the classification counters
    /// (same world ⇒ same partition, whichever engine computed it).
    #[test]
    fn reports_are_sound_and_agree_across_engines(config in arb_config()) {
        let w = generate(&config);
        let base = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
        let pairs_total = w.r.len() * w.s.len();

        let mut outcomes = Vec::new();
        for (join, kernels, label) in [
            (JoinAlgorithm::Blocked, true, "blocked"),
            (JoinAlgorithm::Blocked, false, "blocked (kernels off)"),
            (JoinAlgorithm::NestedLoop, true, "nested-loop"),
        ] {
            let mut c = base.clone();
            c.join = join;
            c.kernels = kernels;
            let outcome = run(&w.r, &w.s, &c);
            assert_common_invariants(&outcome, pairs_total, label)?;
            outcomes.push((label, outcome));
        }
        assert_blocked_invariants(&outcomes[0].1)?;
        assert_blocked_invariants(&outcomes[1].1)?;

        let oracle = classification(&outcomes[2].1);
        for (label, outcome) in &outcomes[..2] {
            prop_assert_eq!(
                classification(outcome), oracle,
                "{} classification disagrees with nested-loop", label
            );
        }
    }

    /// Each run gets a fresh recorder: running the same matcher twice
    /// yields identical work counters (no cross-run accumulation),
    /// not doubled ones. Two counter families legitimately vary
    /// between runs and are excluded from the equality check:
    /// `*/nanos` measures wall time, and `plan/cache_*` reports the
    /// matcher-lifetime plan-cache ledger, which accumulates across
    /// runs *by design* — asserted separately.
    #[test]
    fn repeated_runs_do_not_accumulate(mut config in arb_config()) {
        config.n_entities = config.n_entities.min(25);
        let w = generate(&config);
        let c = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
        let matcher = EntityMatcher::new(w.r.clone(), w.s.clone(), c).unwrap();
        let first = matcher.run().unwrap();
        let second = matcher.run().unwrap();
        let deterministic = |stats: &MatchReport| -> Vec<_> {
            stats
                .counters
                .iter()
                .filter(|c| !c.name.ends_with("/nanos") && !c.name.starts_with("plan/cache_"))
                .cloned()
                .collect()
        };
        prop_assert_eq!(deterministic(&first.stats), deterministic(&second.stats));
        // The plan cache misses once (the first run plans) and hits
        // on every rerun; each report carries the ledger as of its
        // own run.
        prop_assert_eq!(first.stats.counter(counter::PLAN_CACHE_MISSES), 1);
        prop_assert_eq!(first.stats.counter(counter::PLAN_CACHE_HITS), 0);
        prop_assert_eq!(second.stats.counter(counter::PLAN_CACHE_MISSES), 1);
        prop_assert_eq!(second.stats.counter(counter::PLAN_CACHE_HITS), 1);
    }
}

/// A deterministic spot check on a fixed world: the serial fallback
/// fires below the pair threshold (small input, auto threads), and
/// the blocked report carries the full stage hierarchy.
#[test]
fn small_world_report_shape() {
    let config = GeneratorConfig {
        n_entities: 12,
        overlap: 0.5,
        homonym_rate: 0.1,
        ilfd_coverage: 0.8,
        noise: 0.1,
        n_specialities: 16,
        n_cuisines: 6,
        seed: 7,
    };
    let w = generate(&config);
    let mut c = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
    c.threads = 0; // auto: small input must take the serial path
    let outcome = run(&w.r, &w.s, &c);
    let s = &outcome.stats;
    assert_eq!(s.counter(counter::ENGINE_SERIAL_FALLBACK), 1);
    assert_eq!(s.counter(counter::ENGINE_WORKERS), 1);
    for path in [
        "match",
        "match/derive",
        "match/derive/r",
        "match/derive/s",
        "match/engine",
        "match/engine/compile",
        "match/engine/index",
        "match/convert",
    ] {
        assert!(s.stage_nanos(path).is_some(), "stage {path} missing");
    }
    // The report round-trips through its JSON serializer without
    // panicking and mentions every classification counter.
    let json = s.to_json();
    for name in [
        counter::CLASSIFY_MT,
        counter::CLASSIFY_NMT,
        counter::CLASSIFY_UNDETERMINED,
        counter::CLASSIFY_PAIRS_TOTAL,
    ] {
        assert!(json.contains(name), "{name} absent from JSON");
    }
}
