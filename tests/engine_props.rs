//! Property-based validation of the entity-identification engine on
//! synthetic integrated worlds with ground truth: soundness (§3.2),
//! monotonicity (§3.3), join-algorithm agreement, integrated-table
//! invariants, and CSV round-trips.

use proptest::prelude::*;

use entity_id::core::integrate::IntegratedTable;
use entity_id::datagen::{generate, GeneratorConfig};
use entity_id::prelude::*;
use entity_id::relational::csv;

fn arb_config() -> impl Strategy<Value = GeneratorConfig> {
    (
        10..80usize,  // n_entities
        0.0..1.0f64,  // overlap
        0.0..0.4f64,  // homonym_rate
        0.0..1.0f64,  // ilfd_coverage
        any::<u64>(), // seed
    )
        .prop_map(|(n, overlap, homonym, coverage, seed)| GeneratorConfig {
            n_entities: n,
            overlap,
            homonym_rate: homonym,
            ilfd_coverage: coverage,
            noise: 0.0,
            n_specialities: 16,
            n_cuisines: 6,
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The ILFD technique is sound on every generated world: no false
    /// matches, no false refutations, and the §3.2 verification
    /// passes.
    #[test]
    fn matcher_is_always_sound(config in arb_config()) {
        let w = generate(&config);
        let outcome = EntityMatcher::new(
            w.r.clone(), w.s.clone(),
            MatchConfig::new(w.extended_key.clone(), w.ilfds.clone()),
        ).unwrap().run().unwrap();
        outcome.verify().unwrap();
        let eval = Evaluation::compute(
            &w.truth, &outcome.matching, &outcome.negative, w.r.len() * w.s.len());
        prop_assert!(eval.is_sound(), "{eval:?} for {config:?}");
    }

    /// Full ILFD coverage additionally yields full recall.
    #[test]
    fn full_coverage_finds_everything(mut config in arb_config()) {
        config.ilfd_coverage = 1.0;
        let w = generate(&config);
        let outcome = EntityMatcher::new(
            w.r.clone(), w.s.clone(),
            MatchConfig::new(w.extended_key.clone(), w.ilfds.clone()),
        ).unwrap().run().unwrap();
        let eval = Evaluation::compute(
            &w.truth, &outcome.matching, &outcome.negative, w.r.len() * w.s.len());
        prop_assert_eq!(eval.match_recall(), 1.0, "{:?}", config);
    }

    /// The blocked engine and nested loop produce identical tables.
    #[test]
    fn join_algorithms_agree(config in arb_config()) {
        let w = generate(&config);
        let mut c = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
        let blocked = EntityMatcher::new(w.r.clone(), w.s.clone(), c.clone())
            .unwrap().run().unwrap();
        c.join = JoinAlgorithm::NestedLoop;
        let nested = EntityMatcher::new(w.r.clone(), w.s.clone(), c)
            .unwrap().run().unwrap();
        prop_assert!(blocked.matching.includes(&nested.matching));
        prop_assert!(nested.matching.includes(&blocked.matching));
        prop_assert!(blocked.negative.includes(&nested.negative));
        prop_assert!(nested.negative.includes(&blocked.negative));
    }

    /// First-match and fixpoint derivation agree whenever the ILFD
    /// set is conflict-free (the generator's families are functional,
    /// so they always are).
    #[test]
    fn derivation_strategies_agree(config in arb_config()) {
        let w = generate(&config);
        let mut c = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
        let first = EntityMatcher::new(w.r.clone(), w.s.clone(), c.clone())
            .unwrap().run().unwrap();
        c.strategy = DerivationStrategy::Fixpoint;
        let fix = EntityMatcher::new(w.r.clone(), w.s.clone(), c)
            .unwrap().run().unwrap();
        prop_assert!(first.matching.includes(&fix.matching));
        prop_assert!(fix.matching.includes(&first.matching));
    }

    /// Monotonicity (§3.3): sweeping ILFDs in any prefix order never
    /// retracts a decision.
    #[test]
    fn knowledge_sweeps_are_monotonic(mut config in arb_config()) {
        config.n_entities = config.n_entities.min(30); // sweep is quadratic
        config.ilfd_coverage = 1.0;
        let w = generate(&config);
        let ilfds: Vec<_> = w.full_ilfds.iter().cloned().collect();
        let base = MatchConfig::new(w.extended_key.clone(), IlfdSet::new());
        let sweep = entity_id::core::monotonic::KnowledgeSweep::run(
            &w.r, &w.s, &base, &ilfds).unwrap();
        prop_assert_eq!(sweep.verify_monotonic(), None);
        // Undetermined counts are non-increasing.
        for win in sweep.steps.windows(2) {
            prop_assert!(win[1].partition.undetermined <= win[0].partition.undetermined);
        }
    }

    /// Integrated-table invariants: row count is |R| + |S| − |MT|,
    /// and every R tuple's street (a column unique to R) appears
    /// exactly once.
    #[test]
    fn integrated_table_accounts_for_every_tuple(config in arb_config()) {
        let w = generate(&config);
        let outcome = EntityMatcher::new(
            w.r.clone(), w.s.clone(),
            MatchConfig::new(w.extended_key.clone(), w.ilfds.clone()),
        ).unwrap().run().unwrap();
        // Only valid when MT is one-to-one, which soundness guarantees.
        outcome.verify().unwrap();
        let t = IntegratedTable::build(&w.r, &w.s, &outcome, &w.extended_key).unwrap();
        prop_assert_eq!(t.len(), w.r.len() + w.s.len() - outcome.matching.len());

        let street_pos = t.relation().schema()
            .position(&"r_street".into()).unwrap();
        let mut streets: Vec<String> = t.relation().iter()
            .filter_map(|row| row.get(street_pos).as_str().map(str::to_string))
            .collect();
        streets.sort();
        let mut expected: Vec<String> = w.r.iter()
            .map(|row| row.get(2).as_str().unwrap().to_string())
            .collect();
        expected.sort();
        prop_assert_eq!(streets, expected);
    }

    /// Relations survive a CSV round trip.
    #[test]
    fn csv_round_trip(config in arb_config()) {
        let w = generate(&config);
        for rel in [&w.r, &w.s, &w.universe] {
            let text = csv::to_csv(rel);
            let back = csv::from_csv(rel.schema().clone(), &text).unwrap();
            prop_assert!(rel.same_tuples(&back));
        }
    }

    /// The generator's promise: its extended key really is a key of
    /// the universe, so extended-key equivalence is a valid identity
    /// rule for these worlds.
    #[test]
    fn generated_extended_key_is_valid(config in arb_config()) {
        let w = generate(&config);
        prop_assert!(w.extended_key.unique_in(&w.universe));
    }
}
