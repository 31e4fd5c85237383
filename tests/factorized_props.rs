//! The factorized negative matching table: a union of per-rule
//! refutation rectangles plus a residual pair set.
//!
//! * Against a brute-force dense grid, [`FactorizedPairs`] must agree
//!   on `len`, every `contains`, the ascending decode order, and the
//!   overlap with an arbitrary pair list — over overlapping
//!   rectangles, empty sides, 0-row relations, and with no, grid-backed
//!   or hash-backed residual pairs.
//! * End to end, the Auto plan streams (every ILFD rule a rectangle,
//!   a non-factorizable distinctness rule through the sinks) and must
//!   classify exactly like the nested-loop oracle and, on the matching
//!   side, the §4.2 relational-algebra pipeline at threads {1, 2, 7}.

use proptest::prelude::*;

use entity_id::core::algebra_pipeline;
use entity_id::core::{FactorizedPairs, PairSet, Rect};
use entity_id::datagen::{generate, GeneratorConfig};
use entity_id::prelude::*;
use entity_id::rules::{CmpOp, DistinctnessRule, Operand, Predicate, Side};

/// Raw members for one case; the test folds them into the grid
/// (`x % len`, dropped when that side has no rows).
type RawPairs = Vec<(u32, u32)>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rectangle_set_agrees_with_a_dense_grid(
        r_len in 0..40usize,
        s_len in 0..90usize,
        raw_rects in proptest::collection::vec(
            (
                proptest::collection::vec(0..1000u32, 0..48),
                proptest::collection::vec(0..1000u32, 0..48),
            ),
            0..5,
        ),
        raw_residual in proptest::option::of(
            proptest::collection::vec((0..1000u32, 0..1000u32), 0..40)
        ),
        hashed in any::<bool>(),
        raw_probes in proptest::collection::vec((0..1000u32, 0..1000u32), 0..60),
    ) {
        let fold = |xs: &[u32], len: usize| -> Vec<u32> {
            if len == 0 {
                Vec::new()
            } else {
                xs.iter().map(|&x| x % len as u32).collect()
            }
        };
        let fold_pairs = |ps: &RawPairs| -> RawPairs {
            if r_len == 0 || s_len == 0 {
                Vec::new()
            } else {
                ps.iter()
                    .map(|&(i, j)| (i % r_len as u32, j % s_len as u32))
                    .collect()
            }
        };
        let rects: Vec<(Vec<u32>, Vec<u32>)> = raw_rects
            .iter()
            .map(|(rows, cols)| (fold(rows, r_len), fold(cols, s_len)))
            .collect();
        let residual = raw_residual.as_ref().map(fold_pairs);
        let probes = fold_pairs(&raw_probes);

        let in_rects = |i: u32, j: u32| {
            rects.iter().any(|(rows, cols)| rows.contains(&i) && cols.contains(&j))
        };
        let listed = residual.clone().unwrap_or_default();
        let member = |i: u32, j: u32| in_rects(i, j) || listed.contains(&(i, j));
        let mut want: Vec<(u32, u32)> = Vec::new();
        for i in 0..r_len as u32 {
            for j in 0..s_len as u32 {
                if member(i, j) {
                    want.push((i, j));
                }
            }
        }

        let residual = residual.map(|pairs| {
            let mut set = if hashed {
                PairSet::hashed(pairs.len())
            } else {
                PairSet::new(r_len, s_len, pairs.len())
            };
            for (i, j) in pairs {
                set.insert(i, j);
            }
            set
        });
        let rects: Vec<Rect> = rects
            .iter()
            .map(|(rows, cols)| Rect::new(r_len, s_len, rows.iter().copied(), cols.iter().copied()))
            .collect();
        let set = FactorizedPairs::new(r_len, s_len, rects, residual);

        prop_assert_eq!(set.len(), want.len());
        prop_assert_eq!(set.is_empty(), want.is_empty());
        prop_assert_eq!(set.to_pairs(), want.clone());
        for i in 0..r_len as u32 {
            for j in 0..s_len as u32 {
                prop_assert_eq!(set.contains(i, j), member(i, j), "({}, {})", i, j);
            }
        }
        let overlap = probes.iter().filter(|&&(i, j)| member(i, j)).count();
        prop_assert_eq!(set.intersection_count(&probes), overlap);
    }
}

/// A distinctness rule that does not factorize: it compares two
/// attributes, so the planner fuses it into the residual scan and its
/// pairs reach the sinks. Sound on noise-free worlds.
fn residual_rule() -> DistinctnessRule {
    DistinctnessRule::new(
        "city-differs",
        vec![Predicate::new(
            Operand::attr(Side::E1, "city"),
            CmpOp::Ne,
            Operand::attr(Side::E2, "city"),
        )],
    )
    .expect("valid residual rule")
}

fn arb_world() -> impl Strategy<Value = GeneratorConfig> {
    (
        10..70usize,  // n_entities
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

fn sorted_entries(t: &PairTable) -> Vec<String> {
    let mut v: Vec<String> = t.entries().iter().map(|e| format!("{e:?}")).collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Auto plans on all-factorized worlds (ILFD rules only) and on
    /// worlds mixed with a residual rule classify exactly like the
    /// nested-loop oracle, and their MT equals the algebra pipeline's,
    /// at every thread count.
    #[test]
    fn auto_plans_agree_with_the_oracle_and_the_algebra_pipeline(
        config in arb_world(),
        mixed in any::<bool>(),
    ) {
        let w = generate(&config);
        let mut base = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
        base.strategy = DerivationStrategy::Fixpoint;
        if mixed {
            base.extra_rules.add_distinctness(residual_rule());
        }
        let mut oracle_cfg = base.clone();
        oracle_cfg.join = JoinAlgorithm::NestedLoop;
        let oracle = EntityMatcher::new(w.r.clone(), w.s.clone(), oracle_cfg)
            .unwrap()
            .run()
            .unwrap();
        let pipeline = algebra_pipeline::run(&w.r, &w.s, &w.extended_key, &w.ilfds).unwrap();

        for threads in [1usize, 2, 7] {
            let mut cfg = base.clone();
            cfg.threads = threads;
            let got = EntityMatcher::new(w.r.clone(), w.s.clone(), cfg)
                .unwrap()
                .run()
                .unwrap();
            let emit = got.stats.label("plan/emit").unwrap_or("?").to_string();
            prop_assert!(emit.starts_with("streamed"), "t={}: emit {}", threads, emit);
            prop_assert_eq!(sorted_entries(&got.matching), sorted_entries(&oracle.matching));
            prop_assert_eq!(sorted_entries(&got.negative), sorted_entries(&oracle.negative));
            prop_assert_eq!(got.undetermined, oracle.undetermined);
            prop_assert!(got.matching.includes(&pipeline.matching), "t={}: MT ⊉ pipeline", threads);
            prop_assert!(pipeline.matching.includes(&got.matching), "t={}: MT ⊈ pipeline", threads);
            prop_assert_eq!(got.stats.counter("classify/overlap"), 0);
            got.verify().unwrap();
            // Kernels on, every ILFD rule kept its rectangle; only the
            // residual rule's pairs can have reached the sinks.
            if got.stats.counter("kernel/batches") > 0 && !mixed {
                prop_assert_eq!(got.stats.counter("sink/bytes"), 0);
            }
        }
    }
}
