//! Equivalence properties for the blocked matching engine: on
//! randomized generated worlds, [`JoinAlgorithm::Blocked`] (the
//! default) and the exhaustive [`JoinAlgorithm::NestedLoop`] oracle
//! must produce identical matching tables, negative matching tables,
//! and undetermined counts — for any thread count — the matching
//! table must equal the independent §4.2 relational-algebra
//! pipeline's, and the incremental matcher must still converge to the
//! same state as a batch run under the default engine.

use std::cmp::Ordering;

use proptest::prelude::*;

use entity_id::core::algebra_pipeline;
use entity_id::datagen::{generate, GeneratorConfig};
use entity_id::prelude::*;
use entity_id::relational::{Columns, Interner, NULL_SYM};
use entity_id::rules::{IdentityRule, Predicate};

/// Values engineered for collisions: a tiny alphabet, numerically
/// equal `Int`/`Float` pairs, both zero signs, and NULLs.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-3i64..3).prop_map(Value::int),
        (-6i32..6).prop_map(|n| Value::float(f64::from(n) / 2.0)),
        Just(Value::float(0.0)),
        Just(Value::float(-0.0)),
        prop::sample::select(vec!["a", "b", "chinese", "wash_ave"]).prop_map(Value::str),
    ]
}

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

fn assert_same_tables(
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

    /// The interner round-trips every value, and symbol equality is
    /// exactly `Value::compare == Equal` for non-NULL values — the
    /// contract that lets compiled `=`/`≠` predicates run as integer
    /// compares.
    #[test]
    fn interner_roundtrip_and_equality_contract(values in prop::collection::vec(arb_value(), 0..120)) {
        let mut interner = Interner::new();
        let syms: Vec<_> = values.iter().map(|v| interner.intern(v)).collect();
        for (v, &sym) in values.iter().zip(&syms) {
            if v.is_null() {
                prop_assert_eq!(sym, NULL_SYM);
                prop_assert!(interner.resolve(sym).is_null());
            } else {
                // Round-trip up to compare-equality (the canonical
                // representative may differ in float sign/type).
                prop_assert_eq!(
                    interner.resolve(sym).compare(v), Some(Ordering::Equal),
                    "{:?} resolved to {:?}", v, interner.resolve(sym));
                // Interning is idempotent on the representative.
                prop_assert_eq!(interner.clone().intern(interner.resolve(sym)), sym);
            }
        }
        for (v1, &s1) in values.iter().zip(&syms) {
            for (v2, &s2) in values.iter().zip(&syms) {
                if !v1.is_null() && !v2.is_null() {
                    prop_assert_eq!(
                        s1 == s2,
                        v1.compare(v2) == Some(Ordering::Equal),
                        "{:?} vs {:?}", v1, v2);
                }
            }
        }
    }

    /// The columnar encoding is cell-for-cell equivalent to the row
    /// relations it came from: NULL cells get `NULL_SYM`, every other
    /// cell resolves back compare-equal. (The three join arms consume
    /// the same generated worlds in the equivalence tests below, so
    /// this ties the columnar view to what they all match over.)
    #[test]
    fn columnar_view_agrees_with_rows(config in arb_config()) {
        let w = generate(&config);
        let mut interner = Interner::new();
        for rel in [&w.r, &w.s] {
            let cols = Columns::encode(rel, &mut interner);
            prop_assert_eq!(cols.rows(), rel.len());
            prop_assert_eq!(cols.arity(), rel.schema().arity());
            for (row, t) in rel.iter().enumerate() {
                for col in 0..cols.arity() {
                    let v = t.get(col);
                    let sym = cols.get(row, col);
                    prop_assert_eq!(sym, cols.col(col)[row]);
                    if v.is_null() {
                        prop_assert_eq!(sym, NULL_SYM);
                    } else {
                        prop_assert_eq!(
                            interner.resolve(sym).compare(v),
                            Some(Ordering::Equal));
                    }
                }
            }
        }
    }

    /// Blocked (default) agrees with the nested-loop oracle on
    /// MT_RS, NMT_RS, and the undetermined count; under fixpoint
    /// derivation its MT_RS also equals the §4.2 algebra pipeline's.
    #[test]
    fn blocked_equals_nested_loop_oracle(config in arb_config()) {
        let w = generate(&config);
        let base = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
        let mut oracle_cfg = base.clone();
        oracle_cfg.join = JoinAlgorithm::NestedLoop;
        let oracle = run(&w.r, &w.s, &oracle_cfg);
        let got = run(&w.r, &w.s, &base);
        assert_same_tables(&got, &oracle, "Blocked vs oracle")?;

        let mut fixpoint = base;
        fixpoint.strategy = DerivationStrategy::Fixpoint;
        let got = run(&w.r, &w.s, &fixpoint);
        let pipeline =
            algebra_pipeline::run(&w.r, &w.s, &w.extended_key, &w.ilfds).unwrap();
        prop_assert!(got.matching.includes(&pipeline.matching), "pipeline: matching ⊉");
        prop_assert!(pipeline.matching.includes(&got.matching), "pipeline: matching ⊈");
    }

    /// The blocked engine's output is byte-identical for every
    /// thread count (serial, fixed pools of 2 and 7, auto): the
    /// planner's task list never depends on the worker count, only
    /// the concurrency of draining it does.
    #[test]
    fn blocked_is_thread_count_invariant(config in arb_config()) {
        let w = generate(&config);
        let base = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
        let mut serial_cfg = base.clone();
        serial_cfg.threads = 1;
        let serial = run(&w.r, &w.s, &serial_cfg);
        for threads in [0usize, 2, 7] {
            let mut c = base.clone();
            c.threads = threads;
            let got = run(&w.r, &w.s, &c);
            prop_assert_eq!(
                serial.matching.entries(), got.matching.entries(),
                "threads={}", threads);
            prop_assert_eq!(
                serial.negative.entries(), got.negative.entries(),
                "threads={}", threads);
        }
    }

    /// Extra identity rules route through the engine's identity
    /// plans; they must agree with the oracle.
    #[test]
    fn extra_identity_rules_agree_with_oracle(config in arb_config()) {
        let w = generate(&config);
        let mut base = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
        base.extra_rules.add_identity(
            IdentityRule::new(
                "same-name-same-cuisine",
                vec![Predicate::cross_eq("name"), Predicate::cross_eq("cuisine")],
            )
            .unwrap(),
        );
        let mut oracle_cfg = base.clone();
        oracle_cfg.join = JoinAlgorithm::NestedLoop;
        let oracle = run(&w.r, &w.s, &oracle_cfg);
        let got = run(&w.r, &w.s, &base);
        assert_same_tables(&got, &oracle, "Blocked with extra rules")?;
    }

    /// Planner equivalence: plan shapes follow the hint, the
    /// planner-chosen Auto plan agrees byte-identically (after
    /// canonical ordering) with its kernels-off scalar twin and the
    /// NestedLoop oracle, and the degradation-ladder rewrites
    /// (serial twin, index-free twin) do not change the executed
    /// pair sets.
    #[test]
    fn planner_equivalence_and_rewrite_noops(config in arb_config()) {
        use entity_id::core::plan::{PlanNodeKind, ProbeStrategy};

        let w = generate(&config);
        let base = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());

        let canon_tables = |o: &MatchOutcome| {
            let canon = |t: &PairTable| {
                let mut v: Vec<String> = t
                    .entries()
                    .iter()
                    .map(|e| format!("{} <-> {}", e.r_key, e.s_key))
                    .collect();
                v.sort();
                v
            };
            (canon(&o.matching), canon(&o.negative))
        };

        // Plan shapes follow the hint: Auto probes the extended key,
        // the NestedLoop oracle scans everything.
        let auto_plan = EntityMatcher::new(w.r.clone(), w.s.clone(), base.clone())
            .unwrap()
            .plan()
            .unwrap();
        prop_assert!(auto_plan.probe_nodes().any(|n| matches!(
            &n.kind,
            PlanNodeKind::IdentityProbe { strategy: ProbeStrategy::Probe { .. }, .. }
        )));
        let mut nl_cfg = base.clone();
        nl_cfg.join = JoinAlgorithm::NestedLoop;
        let nl_plan = EntityMatcher::new(w.r.clone(), w.s.clone(), nl_cfg.clone())
            .unwrap()
            .plan()
            .unwrap();
        prop_assert!(nl_plan.probe_nodes().all(|n| matches!(
            &n.kind,
            PlanNodeKind::IdentityProbe { strategy: ProbeStrategy::Scan, .. }
                | PlanNodeKind::Refute { strategy: ProbeStrategy::Scan, .. }
        )));

        // The three arms produce byte-identical tables once
        // canonically ordered.
        let auto = run(&w.r, &w.s, &base);
        let golden = canon_tables(&auto);
        let mut scalar_cfg = base.clone();
        scalar_cfg.kernels = false;
        for (cfg, tag) in [(scalar_cfg, "scalar"), (nl_cfg, "nested_loop")] {
            let got = run(&w.r, &w.s, &cfg);
            prop_assert_eq!(&canon_tables(&got), &golden, "{} vs auto", tag);
            prop_assert_eq!(got.undetermined, auto.undetermined, "{}: undetermined", tag);
        }

        // Ladder rewrites are semantic no-ops on the executed pair
        // sets (rung 2 = serial twin, memory degradation = index-free
        // twin, rung 3 = both).
        let matcher = EntityMatcher::new(w.r.clone(), w.s.clone(), base).unwrap();
        let rb = matcher.rule_base().unwrap();
        let exec = Executor::new(
            &auto.extended_r.relation,
            &auto.extended_s.relation,
            &rb,
            2,
        );
        let plan = exec.plan(true, true, ArmHint::Auto);
        let guard = RunGuard::unlimited();
        let canon_pairs = |p: &EnginePairs| {
            let dedup_sort = |v: &[(u32, u32)]| {
                let mut v = v.to_vec();
                v.sort_unstable();
                v.dedup();
                v
            };
            (dedup_sort(&p.matching), dedup_sort(&p.negative_pairs()))
        };
        let baseline = canon_pairs(&exec.execute(&plan, &guard).unwrap());
        for (tag, rewritten) in [
            ("serial", plan.rewrite_serial()),
            ("index-free", plan.rewrite_index_free()),
            ("nested", plan.rewrite_index_free().rewrite_serial()),
        ] {
            let got = canon_pairs(&exec.execute(&rewritten, &guard).unwrap());
            prop_assert_eq!(&got, &baseline, "rewrite {} changed the pair sets", tag);
        }
    }

    /// The incremental matcher (bulk refutation now runs through the
    /// blocked engine) still converges to the batch state under the
    /// default engine: seed it with the full relations, then check
    /// add_ilfd convergence from an empty knowledge base.
    #[test]
    fn incremental_matches_batch_under_default_engine(mut config in arb_config()) {
        config.n_entities = config.n_entities.min(25);
        let w = generate(&config);
        let base = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());

        let batch = run(&w.r, &w.s, &base);
        let inc = IncrementalMatcher::new(w.r.clone(), w.s.clone(), base.clone()).unwrap();
        prop_assert!(inc.matching().includes(&batch.matching));
        prop_assert!(batch.matching.includes(inc.matching()));
        prop_assert!(inc.negative().includes(&batch.negative));
        prop_assert!(batch.negative.includes(inc.negative()));

        // Growing knowledge: start with no ILFDs, add them one by
        // one; the final state must equal the batch run above.
        let mut empty_cfg = base.clone();
        empty_cfg.ilfds = IlfdSet::new();
        let mut grown =
            IncrementalMatcher::new(w.r.clone(), w.s.clone(), empty_cfg).unwrap();
        for ilfd in w.ilfds.iter() {
            grown.add_ilfd(ilfd.clone()).unwrap();
        }
        prop_assert!(grown.matching().includes(&batch.matching));
        prop_assert!(batch.matching.includes(grown.matching()));
        prop_assert!(grown.negative().includes(&batch.negative));
        prop_assert!(batch.negative.includes(grown.negative()));
    }
}
