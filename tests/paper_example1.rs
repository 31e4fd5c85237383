//! Experiment E1 — the paper's Example 1 (Table 1).
//!
//! Demonstrates why naive common-attribute matching fails and how the
//! extra semantic information the paper hints at ("restaurants have
//! unique (name, street, city); Wash. Ave. is only in Mpls; the
//! restaurant owned by Hwang is only on Wash. Ave.") resolves it.

use entity_id::baselines::{run_technique, KeyEquivalence};
use entity_id::datagen::restaurant;
use entity_id::prelude::*;

/// Naive matching on the common attribute `name` matches VillageWok
/// and OldCountry across the two relations.
#[test]
fn name_matching_looks_plausible_before_the_insert() {
    let (r, s) = restaurant::example1();
    let naive = KeyEquivalence::new(&["name"], true);
    let outcome = run_technique(&naive, &r, &s);
    assert_eq!(outcome.matching.len(), 2);
    // And the uniqueness constraint holds — so the flaw is invisible.
    assert!(outcome.matching.verify_uniqueness().is_ok());
}

/// After inserting ("VillageWok", "Penn.Ave."), one S tuple matches
/// two R tuples: the uniqueness constraint (§3.2) is violated and the
/// naive technique is exposed as unsound.
#[test]
fn ambiguous_insert_breaks_uniqueness() {
    let (mut r, s) = restaurant::example1();
    restaurant::example1_ambiguous_insert(&mut r);
    let naive = KeyEquivalence::new(&["name"], true);
    let outcome = run_technique(&naive, &r, &s);
    assert_eq!(outcome.matching.len(), 3);
    let err = outcome.matching.verify_uniqueness().unwrap_err();
    assert!(err.to_string().contains("villagewok"));
}

/// The paper's fix: with the extended key {name, street, city} and
/// ILFDs capturing the extra knowledge, the first tuples match and
/// the Penn. Ave. insertion no longer causes any problem.
#[test]
fn extended_key_with_ilfds_resolves_the_ambiguity() {
    let (mut r, s) = restaurant::example1();
    restaurant::example1_ambiguous_insert(&mut r);

    let key = ExtendedKey::of_strs(&["name", "street", "city"]);
    let ilfds: IlfdSet = vec![
        // "Wash.Ave. is only in city Mpls."
        Ilfd::of_strs(&[("street", "wash_ave")], &[("city", "mpls")]),
        // "The restaurant owned by Hwang is only on Wash.Ave." —
        // manager is an S attribute; derive the street from it.
        Ilfd::of_strs(&[("manager", "hwang")], &[("street", "wash_ave")]),
    ]
    .into_iter()
    .collect();

    let outcome = EntityMatcher::new(r, s, MatchConfig::new(key, ilfds))
        .unwrap()
        .run()
        .unwrap();
    outcome.verify().expect("sound under the extended key");

    // Exactly the Wash. Ave. VillageWok matches; Penn. Ave. does not.
    assert_eq!(outcome.matching.len(), 1);
    let e = &outcome.matching.entries()[0];
    assert_eq!(e.r_key, Tuple::of_strs(&["villagewok", "wash_ave"]));
    assert_eq!(e.s_key, Tuple::of_strs(&["villagewok", "mpls"]));
}

/// Without city knowledge, OldCountry's Roseville record cannot be
/// matched to the Co. B2 Rd. record — the sound technique stays
/// undetermined rather than guessing.
#[test]
fn sound_technique_prefers_undetermined_over_guessing() {
    let (r, s) = restaurant::example1();
    let key = ExtendedKey::of_strs(&["name", "street", "city"]);
    let ilfds: IlfdSet = vec![Ilfd::of_strs(
        &[("street", "wash_ave")],
        &[("city", "mpls")],
    )]
    .into_iter()
    .collect();
    let outcome = EntityMatcher::new(r, s, MatchConfig::new(key, ilfds))
        .unwrap()
        .run()
        .unwrap();
    outcome.verify().unwrap();
    // Nothing is provable without the Hwang rule: street of S tuples
    // is underivable, so no extended-key match fires.
    assert_eq!(outcome.matching.len(), 0);
    assert!(outcome.undetermined > 0);
}

/// The planner's Auto arm on Example 1 (with the Penn. Ave. insert)
/// takes the fast path: each Proposition-1 distinctness rule
/// ¬[(street = wash_ave) → (city = mpls)] becomes a vectorized
/// `Disagree` scan, and refuted pairs stream into a bitset sink. At
/// every thread count the run classifies exactly like the nested-loop
/// oracle, and its matching table equals the §4.2 algebra
/// pipeline's. Without a refutation phase the plan falls back to
/// buffered emission and says why.
#[test]
fn auto_plan_vectorizes_streams_and_agrees_with_both_oracles() {
    use entity_id::core::algebra_pipeline;
    use entity_id::core::plan::{EmitMode, PlanNodeKind};

    let (mut r, s) = restaurant::example1();
    restaurant::example1_ambiguous_insert(&mut r);
    let key = ExtendedKey::of_strs(&["name", "street", "city"]);
    let ilfds: IlfdSet = vec![
        Ilfd::of_strs(&[("street", "wash_ave")], &[("city", "mpls")]),
        Ilfd::of_strs(&[("manager", "hwang")], &[("street", "wash_ave")]),
    ]
    .into_iter()
    .collect();
    let mut config = MatchConfig::new(key.clone(), ilfds.clone());
    config.kernels = true;

    let plan = EntityMatcher::new(r.clone(), s.clone(), config.clone())
        .unwrap()
        .plan()
        .unwrap();
    let count =
        |pred: fn(&PlanNodeKind) -> bool| plan.nodes.iter().filter(|n| pred(&n.kind)).count();
    assert!(
        count(|k| matches!(k, PlanNodeKind::VectorScan { .. })) >= 1,
        "no vector-scan node in:\n{}",
        plan.to_json()
    );
    assert_eq!(count(|k| matches!(k, PlanNodeKind::Sink { .. })), 1);
    assert_eq!(plan.emit.mode, EmitMode::Streamed, "{}", plan.emit_why);

    let mut nested_cfg = config.clone();
    nested_cfg.join = JoinAlgorithm::NestedLoop;
    let oracle = EntityMatcher::new(r.clone(), s.clone(), nested_cfg)
        .unwrap()
        .run()
        .unwrap();
    let pipeline = algebra_pipeline::run(&r, &s, &key, &ilfds).unwrap();
    assert!(pipeline.matching.includes(&oracle.matching));
    assert!(oracle.matching.includes(&pipeline.matching));
    assert!(!oracle.negative.is_empty(), "Example 1 refutes some pairs");

    for threads in [1, 2, 7] {
        let mut c = config.clone();
        c.threads = threads;
        let got = EntityMatcher::new(r.clone(), s.clone(), c)
            .unwrap()
            .run()
            .unwrap();
        assert!(
            got.stats
                .label("plan/emit")
                .is_some_and(|e| e.starts_with("streamed")),
            "t={threads}: {:?}",
            got.stats.label("plan/emit")
        );
        assert!(got.matching.includes(&oracle.matching), "t={threads} MT ⊉");
        assert!(oracle.matching.includes(&got.matching), "t={threads} MT ⊈");
        assert!(got.negative.includes(&oracle.negative), "t={threads} NMT ⊉");
        assert!(oracle.negative.includes(&got.negative), "t={threads} NMT ⊈");
        assert_eq!(got.undetermined, oracle.undetermined, "t={threads}");
        assert!(
            got.matching.includes(&pipeline.matching),
            "t={threads} vs §4.2"
        );
        assert!(
            pipeline.matching.includes(&got.matching),
            "t={threads} vs §4.2"
        );
    }

    // No refutation phase: nothing to stream, and the plan says so.
    config.collect_negative = false;
    let plan = EntityMatcher::new(r, s, config).unwrap().plan().unwrap();
    assert_eq!(plan.emit.mode, EmitMode::Buffered);
    assert!(
        plan.emit_why.contains("no refutation phase"),
        "{}",
        plan.emit_why
    );
}
