//! Equivalence properties for the vectorized refutation kernels:
//! the chunked term kernels must agree with scalar three-valued
//! semantics on arbitrary symbol columns (NULLs, both float zero
//! signs, numerically equal `Int`/`Float` pairs), the per-rule term
//! lists derived from interned rule shapes must agree with
//! [`InternedRule::fires`] driver by driver, kernels-on and
//! kernels-off runs must classify identically, and a plan carrying
//! [`PlanNodeKind::VectorScan`] nodes must execute byte-identically
//! to its scalar rewrite twins at every thread count.

use proptest::prelude::*;

use entity_id::core::kernels::{self, KernelTally, Term, TermOp, LANES};
use entity_id::core::plan::PlanNodeKind;
use entity_id::datagen::{generate, GeneratorConfig};
use entity_id::prelude::*;
use entity_id::relational::{Columns, Interner, Sym, NULL_SYM};
use entity_id::rules::{CompiledRuleBase, InternedRule, InternedRuleBase, NeqSide};

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

/// Non-NULL values for kernel term targets (rule literals are never
/// NULL: the compiler rejects them before interning).
fn arb_target() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-3i64..3).prop_map(Value::int),
        (-6i32..6).prop_map(|n| Value::float(f64::from(n) / 2.0)),
        Just(Value::float(0.0)),
        Just(Value::float(-0.0)),
        prop::sample::select(vec!["a", "b", "chinese", "wash_ave"]).prop_map(Value::str),
    ]
}

fn arb_config() -> impl Strategy<Value = GeneratorConfig> {
    (
        10..50usize,  // n_entities
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

/// The scalar three-valued reference a term must agree with: `=`
/// fires on symbol equality (NULL symbols never equal a literal),
/// `≠` fires only when the symbol is known and different.
fn scalar_term(v: Sym, sym: Sym, op: TermOp) -> bool {
    match op {
        TermOp::Eq => v == sym,
        TermOp::Ne => v != sym && v != NULL_SYM,
    }
}

/// One rule's residual evaluation state for driver row `i`, derived
/// from the interned shapes exactly as the engine's vectorized
/// residual does: `None` when an `R`-side check fails (or a join
/// column is NULL) so the rule cannot fire for any `j`; otherwise
/// the `S`-side term list whose conjunction decides each `j`.
fn driver_terms<'c>(
    rule: &InternedRule,
    cols_r: &Columns,
    cols_s: &'c Columns,
    i: usize,
) -> Option<Vec<Term<'c>>> {
    let mut r_checks: Vec<(usize, Sym, TermOp)> = Vec::new();
    let mut joins: Vec<(usize, usize)> = Vec::new();
    let mut s_consts: Vec<(usize, Sym, TermOp)> = Vec::new();
    if let Some(shape) = rule.identity_shape() {
        r_checks.extend(shape.r_lits.iter().map(|&(p, s)| (p, s, TermOp::Eq)));
        joins.extend(shape.join.iter().copied());
        s_consts.extend(shape.s_lits.iter().map(|&(p, s)| (p, s, TermOp::Eq)));
    } else if let Some(shape) = rule.distinct_shape() {
        r_checks.extend(shape.r_lits.iter().map(|&(p, s)| (p, s, TermOp::Eq)));
        s_consts.extend(shape.s_lits.iter().map(|&(p, s)| (p, s, TermOp::Eq)));
        let (side, pos, sym) = shape.neq;
        match side {
            NeqSide::R => r_checks.push((pos, sym, TermOp::Ne)),
            NeqSide::S => s_consts.push((pos, sym, TermOp::Ne)),
        }
    } else {
        unreachable!("kernel shape without identity or distinct shape");
    }
    for &(p, sym, op) in &r_checks {
        if !scalar_term(cols_r.get(i, p), sym, op) {
            return None;
        }
    }
    let mut terms = Vec::with_capacity(joins.len() + s_consts.len());
    for &(rp, sp) in &joins {
        let sym = cols_r.get(i, rp);
        if sym == NULL_SYM {
            return None;
        }
        terms.push(Term {
            col: cols_s.col(sp),
            sym,
            op: TermOp::Eq,
        });
    }
    for &(p, sym, op) in &s_consts {
        terms.push(Term {
            col: cols_s.col(p),
            sym,
            op,
        });
    }
    Some(terms)
}

/// `(matching, negative)` id pairs, sorted and deduplicated — the
/// set view two plans must share even when emission order differs.
type PairSets = (Vec<(u32, u32)>, Vec<(u32, u32)>);

fn canon_pairs(p: &EnginePairs) -> PairSets {
    let dedup_sort = |v: &[(u32, u32)]| {
        let mut v = v.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    };
    (dedup_sort(&p.matching), dedup_sort(&p.negative_pairs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `conj_scan` (and the AVX2/portable `conj_chunk` under it)
    /// emits exactly the rows where every term's scalar three-valued
    /// test holds, in ascending order, on arbitrary interned columns.
    #[test]
    fn conj_scan_agrees_with_scalar_terms(
        cells in prop::collection::vec(arb_value(), 0..150),
        arity in 1..4usize,
        specs in prop::collection::vec((0..4usize, arb_target(), any::<bool>()), 1..5),
    ) {
        let mut interner = Interner::new();
        let rows = cells.len() / arity;
        let cols: Vec<Vec<Sym>> = (0..arity)
            .map(|c| {
                cells[c * rows..(c + 1) * rows]
                    .iter()
                    .map(|v| interner.intern(v))
                    .collect()
            })
            .collect();
        let terms: Vec<Term<'_>> = specs
            .iter()
            .map(|(c, target, eq)| Term {
                col: &cols[c % arity],
                sym: interner.intern(target),
                op: if *eq { TermOp::Eq } else { TermOp::Ne },
            })
            .collect();
        let expected: Vec<u32> = (0..rows)
            .filter(|&j| terms.iter().all(|t| scalar_term(t.col[j], t.sym, t.op)))
            .map(|j| j as u32)
            .collect();
        let mut tally = KernelTally::default();
        let mut got = Vec::new();
        kernels::conj_scan(&terms, 0..rows, &mut tally, |row| got.push(row));
        prop_assert_eq!(&got, &expected);
        // The tally accounts for every row exactly once.
        prop_assert_eq!(
            tally.lane_rows + tally.scalar_tail,
            rows as u64,
            "lane_rows + scalar_tail must cover the scan"
        );
        prop_assert_eq!(tally.scalar_tail as usize, rows % LANES);
    }

    /// The disagreement kernels (dense scan and gather variant) keep
    /// exactly the rows whose symbol is known and different from the
    /// constant — never NULL rows, never agreeing rows.
    #[test]
    fn disagree_kernels_agree_with_scalar(
        cells in prop::collection::vec(arb_value(), 0..150),
        target in arb_target(),
        keep in prop::collection::vec(any::<bool>(), 0..150),
    ) {
        let mut interner = Interner::new();
        let col: Vec<Sym> = cells.iter().map(|v| interner.intern(v)).collect();
        let c = interner.intern(&target);
        let expected: Vec<u32> = (0..col.len())
            .filter(|&j| col[j] != c && col[j] != NULL_SYM)
            .map(|j| j as u32)
            .collect();
        let mut tally = KernelTally::default();
        let mut got = Vec::new();
        kernels::disagree_rows(&col, c, &mut tally, &mut got);
        prop_assert_eq!(&got, &expected);

        // Gather variant over an arbitrary pre-filtered subset.
        let subset: Vec<u32> = (0..col.len())
            .filter(|&j| keep.get(j).copied().unwrap_or(false))
            .map(|j| j as u32)
            .collect();
        let expected_subset: Vec<u32> = subset
            .iter()
            .copied()
            .filter(|&j| col[j as usize] != c && col[j as usize] != NULL_SYM)
            .collect();
        let mut got_subset = Vec::new();
        kernels::gather_disagree(&col, c, &subset, &mut tally, &mut got_subset);
        prop_assert_eq!(&got_subset, &expected_subset);
    }

    /// For every interned rule with a kernel shape, the term-list
    /// evaluation the vectorized residual runs (R-side checks
    /// resolved per driver, S-side conjunction swept by the kernel)
    /// agrees with [`InternedRule::fires`] on every `(i, j)` pair of
    /// the extended relations.
    #[test]
    fn kernel_terms_agree_with_interned_rule_fires(config in arb_config()) {
        let w = generate(&config);
        let base = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
        let matcher = EntityMatcher::new(w.r.clone(), w.s.clone(), base).unwrap();
        let outcome = matcher.run().unwrap();
        let rb = matcher.rule_base().unwrap();
        let ext_r = &outcome.extended_r.relation;
        let ext_s = &outcome.extended_s.relation;
        let compiled = CompiledRuleBase::compile(&rb, ext_r.schema(), ext_s.schema());
        let mut interner = Interner::new();
        let interned = InternedRuleBase::from_compiled(&compiled, &mut interner);
        let cols_r = Columns::encode(ext_r, &mut interner);
        let cols_s = Columns::encode(ext_s, &mut interner);
        let mut shaped = 0usize;
        for rule in interned.identity.iter().chain(interned.distinctness.iter()) {
            if rule.kernel_shape().is_none() {
                continue;
            }
            shaped += 1;
            for i in 0..cols_r.rows() {
                let expected: Vec<u32> = (0..cols_s.rows())
                    .filter(|&j| rule.fires(&cols_r, i, &cols_s, j, &interner))
                    .map(|j| j as u32)
                    .collect();
                match driver_terms(rule, &cols_r, &cols_s, i) {
                    None => prop_assert!(
                        expected.is_empty(),
                        "rule {} driver {}: R-side checks failed but fires() found {} rows",
                        rule.name, i, expected.len()
                    ),
                    Some(terms) => {
                        let mut tally = KernelTally::default();
                        let mut got = Vec::new();
                        kernels::conj_scan(&terms, 0..cols_s.rows(), &mut tally, |row| {
                            got.push(row);
                        });
                        prop_assert_eq!(&got, &expected, "rule {} driver {}", rule.name, i);
                    }
                }
            }
        }
        // The generated rule bases always contain kernel-shaped
        // rules (the extended key compiles to an equi-join identity
        // rule); an accidental all-skip would hollow out the test.
        prop_assert!(shaped > 0, "no kernel-shaped rules in the generated rule base");
    }

    /// Kernels on and kernels off classify every generated world
    /// identically — same matching table, same negative table, same
    /// undetermined count — at several thread counts.
    #[test]
    fn kernels_on_off_classify_identically(
        config in arb_config(),
        threads in prop::sample::select(vec![0usize, 1, 2, 7]),
    ) {
        let w = generate(&config);
        let mut on_cfg = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
        on_cfg.threads = threads;
        on_cfg.kernels = true;
        let mut off_cfg = on_cfg.clone();
        off_cfg.kernels = false;
        let run = |cfg: &MatchConfig| {
            EntityMatcher::new(w.r.clone(), w.s.clone(), cfg.clone())
                .unwrap()
                .run()
                .unwrap()
        };
        let on = run(&on_cfg);
        let off = run(&off_cfg);
        prop_assert_eq!(on.matching.entries(), off.matching.entries(), "matching");
        prop_assert_eq!(on.negative.entries(), off.negative.entries(), "negative");
        prop_assert_eq!(on.undetermined, off.undetermined, "undetermined");
    }
}

/// On a mid-size world the Auto planner dispatches `VectorScan`
/// nodes, and the vectorized plan is
/// byte-identical to its serial rewrite twin, set-identical to the
/// index-free (nested-loop) twin and to a kernels-off plan, and
/// invariant across thread counts.
#[test]
fn vector_scan_plan_agrees_with_scalar_twins() {
    let config = GeneratorConfig {
        n_entities: 1200,
        overlap: 0.5,
        homonym_rate: 0.1,
        ilfd_coverage: 0.9,
        noise: 0.05,
        n_specialities: 16,
        n_cuisines: 6,
        seed: 42,
    };
    let w = generate(&config);
    let base = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
    let matcher = EntityMatcher::new(w.r.clone(), w.s.clone(), base).unwrap();
    let outcome = matcher.run().unwrap();
    let rb = matcher.rule_base().unwrap();
    let ext_r = &outcome.extended_r.relation;
    let ext_s = &outcome.extended_s.relation;
    let guard = RunGuard::unlimited();

    let exec = Executor::new(ext_r, ext_s, &rb, 2);
    assert!(
        exec.kernels_enabled(),
        "kernels default on in this environment"
    );
    let plan = exec.plan(true, true, ArmHint::Auto);
    let vector_nodes = plan
        .nodes
        .iter()
        .filter(|n| matches!(n.kind, PlanNodeKind::VectorScan { .. }))
        .count();
    assert!(
        vector_nodes > 0,
        "Auto planner must emit VectorScan at n_entities=1200"
    );

    let baseline = exec.execute(&plan, &guard).unwrap();
    let golden = canon_pairs(&baseline);

    // Serial rewrite twin: byte-identical emission, not just the
    // same set — the vectorized scans enumerate drivers and rows in
    // the same ascending order the scalar paths do.
    let serial = exec.execute(&plan.rewrite_serial(), &guard).unwrap();
    assert_eq!(
        serial.matching, baseline.matching,
        "serial twin: matching order"
    );
    assert_eq!(
        serial.negative_pairs(),
        baseline.negative_pairs(),
        "serial twin: negative order"
    );

    // Index-free (nested-loop) twin: same sets. The rewrite drops
    // every VectorScan back to a scalar residual scan.
    let nested_plan = plan.rewrite_index_free().rewrite_serial();
    assert!(
        !nested_plan
            .nodes
            .iter()
            .any(|n| matches!(n.kind, PlanNodeKind::VectorScan { .. })),
        "rewrite_index_free must lower VectorScan"
    );
    let nested = exec.execute(&nested_plan, &guard).unwrap();
    assert_eq!(canon_pairs(&nested), golden, "index-free twin");

    // Kernels-off executor: scalar plan, same sets.
    let mut scalar_exec = Executor::new(ext_r, ext_s, &rb, 2);
    scalar_exec.set_kernels(false);
    let scalar_plan = scalar_exec.plan(true, true, ArmHint::Auto);
    assert!(
        !scalar_plan
            .nodes
            .iter()
            .any(|n| matches!(n.kind, PlanNodeKind::VectorScan { .. })),
        "kernels-off planner must not emit VectorScan"
    );
    let scalar = scalar_exec.execute(&scalar_plan, &guard).unwrap();
    assert_eq!(canon_pairs(&scalar), golden, "kernels off vs on");

    // Thread invariance: the vectorized plan's output does not
    // depend on the worker count.
    for threads in [1usize, 2, 7] {
        let exec_t = Executor::new(ext_r, ext_s, &rb, threads);
        let plan_t = exec_t.plan(true, true, ArmHint::Auto);
        let got = exec_t.execute(&plan_t, &guard).unwrap();
        assert_eq!(
            canon_pairs(&got),
            golden,
            "threads={threads} changed the pair sets"
        );
    }
}
