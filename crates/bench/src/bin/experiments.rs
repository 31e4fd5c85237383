//! Regenerates every table and figure of Lim et al. (ICDE 1993) plus
//! the repository's own quantitative studies.
//!
//! Usage:
//!
//! ```text
//! experiments [all | table1 | figure1 | figure2 | figure3 | table2_3 |
//!              table4 | table5_7 | table8 | figure4 | prototype |
//!              theory | techniques | scaling]
//! ```

use std::collections::HashMap;
use std::time::Instant;

use eid_baselines::{
    evaluate_technique, KeyEquivalence, ProbabilisticAttr, ProbabilisticKey, Technique,
    UserSpecified,
};
use eid_bench::scaling_workload;
use eid_core::algebra_pipeline;
use eid_core::integrate::IntegratedTable;
use eid_core::matcher::{EntityMatcher, JoinAlgorithm, MatchConfig};
use eid_core::metrics::Evaluation;
use eid_core::monotonic::KnowledgeSweep;
use eid_core::partition::Partition;
use eid_core::session::Session;
use eid_datagen::{generate, restaurant, GeneratorConfig};
use eid_ilfd::axioms::prove;
use eid_ilfd::closure::{enumerate_closure, implies, minimal_cover};
use eid_ilfd::tables::paper_table8;
use eid_ilfd::{Ilfd, IlfdSet};
use eid_relational::display::render_default;
use eid_rules::ExtendedKey;

fn banner(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// E1 — Table 1 and Example 1.
fn table1() {
    banner("Table 1 / Example 1: no common candidate key");
    let (mut r, s) = restaurant::example1();
    println!("{}", render_default("R (key: name, street)", &r));
    println!("{}", render_default("S (key: name, city)", &s));

    let naive = KeyEquivalence::new(&["name"], true);
    let before = eid_baselines::run_technique(&naive, &r, &s);
    println!(
        "naive name matching: {} pairs, uniqueness {}",
        before.matching.len(),
        if before.matching.verify_uniqueness().is_ok() {
            "OK (flaw hidden)"
        } else {
            "VIOLATED"
        }
    );

    restaurant::example1_ambiguous_insert(&mut r);
    println!("\ninsert (villagewok, penn_ave, chinese) into R …");
    let after = eid_baselines::run_technique(&naive, &r, &s);
    println!(
        "naive name matching: {} pairs, uniqueness {}",
        after.matching.len(),
        match after.matching.verify_uniqueness() {
            Ok(()) => "OK".to_string(),
            Err(e) => format!("VIOLATED — {e}"),
        }
    );
}

/// E2 — Figure 1: tuples vs real-world entities.
fn figure1() {
    banner("Figure 1: correspondence between tuples and entities");
    // A five-entity world: e1 R-only, e2/e3 in both, e4 unmodeled,
    // e5 S-only — the figure's a-/b- instance pattern.
    let w = generate(&GeneratorConfig {
        n_entities: 5,
        overlap: 0.5,
        homonym_rate: 0.0,
        seed: 4,
        ..GeneratorConfig::default()
    });
    println!("integrated world: {} entities", w.universe.len());
    println!(
        "relation R models {} of them, S models {}",
        w.r.len(),
        w.s.len()
    );
    println!("true matches (a_i ~ b_j pairs): {}", w.truth.len());
    for (rk, sk) in w.truth.iter().map(|p| (&p.0, &p.1)) {
        println!("  R{rk} ~ S{sk}");
    }
}

/// E3 — Figure 2: the soundness trap and the domain-attribute fix.
fn figure2() {
    banner("Figure 2: identical attribute values, different entities");
    let (db1, db2) = restaurant::figure2();
    let prob = ProbabilisticAttr::uniform(0.9, 0.2);
    let d = prob.decide(
        db1.schema(),
        &db1.tuples()[0],
        db2.schema(),
        &db2.tuples()[0],
    );
    println!("attribute-equivalence on (villagewok, chinese) vs (villagewok, chinese): {d:?}");
    println!("  → declared matching, but the entities are DIFFERENT (soundness violated)");

    let (db1, db2) = restaurant::figure2_with_domain();
    let d = prob.decide(
        db1.schema(),
        &db1.tuples()[0],
        db2.schema(),
        &db2.tuples()[0],
    );
    println!("with the domain attribute (db1 vs db2): {d:?}");
    println!("  → the pair no longer reaches the accept threshold; soundness restored");
}

/// E4 — Figure 3: the three-region partition as knowledge grows.
fn figure3() {
    banner("Figure 3: matching / not-matching / undetermined vs #ILFDs");
    let (r, s, key, ilfds) = restaurant::example3();
    let list: Vec<Ilfd> = ilfds.iter().cloned().collect();
    let config = MatchConfig::new(key, IlfdSet::new());
    let sweep = KnowledgeSweep::run(&r, &s, &config, &list).expect("sweep");
    println!("ILFDs | matching | not-matching | undetermined | completeness");
    for (k, p) in sweep.series() {
        println!(
            "{k:>5} | {:>8} | {:>12} | {:>12} | {:>10.1}%",
            p.matching,
            p.not_matching,
            p.undetermined,
            p.completeness() * 100.0
        );
    }
    assert!(sweep.verify_monotonic().is_none());
    println!("(monotonic: no decided pair ever retracted)");
}

/// E5 + E6 — Example 2 (Tables 2, 3) and Table 4.
fn table2_3_4() {
    banner("Tables 2-4 / Example 2: extended key {name, cuisine} + one ILFD");
    let (r, s, key, ilfds) = restaurant::example2();
    println!("{}", render_default("R", &r));
    println!("{}", render_default("S", &s));
    println!("ILFD: {}", ilfds.as_slice()[0]);
    let outcome = EntityMatcher::new(r, s, MatchConfig::new(key, ilfds))
        .expect("matcher")
        .run()
        .expect("run");
    println!(
        "\n{}",
        render_default(
            "Table 3 — matching table MT_RS",
            &outcome.matching.to_relation("MT").unwrap()
        )
    );
    println!(
        "{}",
        render_default(
            "Table 4 — negative matching table NMT_RS",
            &outcome.negative.to_relation("NMT").unwrap()
        )
    );
    outcome.verify().expect("sound");
    println!("{}", Partition::of(&outcome));
}

/// E7 — Example 3 (Tables 5, 6, 7).
fn table5_7() {
    banner("Tables 5-7 / Example 3: full restaurant workload");
    let (r, s, _key, ilfds) = restaurant::example3();
    println!("{}", render_default("Table 5 — R", &r));
    println!("{}", render_default("Table 5 — S", &s));
    println!("ILFDs I1-I8:\n{ilfds}");
    println!(
        "derived I9: {} (implied: {})",
        restaurant::ilfd_i9(),
        implies(&ilfds, &restaurant::ilfd_i9())
    );

    let mut session = Session::new(r, s, ilfds);
    session
        .setup_extended_key(&["name", "cuisine", "speciality"])
        .expect("setup");
    println!("\n{}", session.extended_r_display().unwrap());
    println!("{}", session.extended_s_display().unwrap());
    println!("{}", session.matching_table_display().unwrap());
}

/// E8 — Table 8: ILFD tables and the §4.2 algebra pipeline.
fn table8() {
    banner("Table 8: ILFD table IM(speciality; cuisine) + algebra pipeline");
    let t8 = paper_table8();
    println!(
        "{}",
        render_default("IM(speciality; cuisine)", t8.relation())
    );

    let (r, s, key, ilfds) = restaurant::example3();
    let pipeline = algebra_pipeline::run(&r, &s, &key, &ilfds).expect("pipeline");
    println!(
        "{}",
        render_default(
            "MT via relational expressions (Π(R' ⋈_KExt S'))",
            &pipeline.matching.to_relation("MT").unwrap()
        )
    );

    let mut config = MatchConfig::new(key, ilfds);
    config.strategy = eid_ilfd::Strategy::Fixpoint;
    let matcher = EntityMatcher::new(r, s, config).unwrap().run().unwrap();
    let agree = pipeline.matching.includes(&matcher.matching)
        && matcher.matching.includes(&pipeline.matching);
    println!("pipeline ≡ rule-based matcher: {agree}");
    assert!(agree);
}

/// E9 — Figure 4: the end-to-end dataflow.
fn figure4() {
    banner("Figure 4: entity identification using ILFD tables (dataflow)");
    let (r, s, key, ilfds) = restaurant::example3();
    println!(
        "R ({} tuples), S ({} tuples)  ──►  [extend with K_Ext − K]",
        r.len(),
        s.len()
    );
    let outcome = EntityMatcher::new(r.clone(), s.clone(), MatchConfig::new(key.clone(), ilfds))
        .unwrap()
        .run()
        .unwrap();
    println!(
        "R' ({} tuples), S' ({} tuples)  ──►  [⋈ over K_Ext]",
        outcome.extended_r.relation.len(),
        outcome.extended_s.relation.len()
    );
    println!(
        "MT_RS ({} pairs)  ──►  [MT ⋈ R ⟗ S]",
        outcome.matching.len()
    );
    let t = IntegratedTable::build(&r, &s, &outcome, &key).unwrap();
    println!("T_RS ({} rows)", t.len());
    println!(
        "\n{}",
        render_default("integrated table T_RS", t.relation())
    );
}

/// E10 — the §6.3 prototype transcript.
fn prototype() {
    banner("§6.3 prototype session transcript");
    let (r, s, _, ilfds) = restaurant::example3();
    let mut session = Session::new(r, s, ilfds);

    println!("| ?- setup_extkey.    % keys = {{name, speciality, cuisine}}");
    let rep = session
        .setup_extended_key(&["name", "speciality", "cuisine"])
        .unwrap();
    println!("{}", rep.message);

    println!("\n| ?- setup_extkey.    % keys = {{name}}");
    let rep = session.setup_extended_key(&["name"]).unwrap();
    println!("{}", rep.message);

    // Restore the good key and print the tables as the transcript does.
    session
        .setup_extended_key(&["name", "speciality", "cuisine"])
        .unwrap();
    println!(
        "\n| ?- print_matchtable.\n{}",
        session.matching_table_display().unwrap()
    );
    println!(
        "| ?- print_integ_table.\n{}",
        session.integrated_table_display().unwrap()
    );
}

/// E11 — §5 theory demonstrations.
fn theory() {
    banner("§5 theory: axioms, closures, covers");
    // The §5.2 closure example.
    let f: IlfdSet = vec![
        Ilfd::of_strs(&[("A", "a1")], &[("B", "b1")]),
        Ilfd::of_strs(&[("B", "b1")], &[("C", "c1")]),
    ]
    .into_iter()
    .collect();
    println!("F = {{ {} ; {} }}", f.as_slice()[0], f.as_slice()[1]);
    let target = Ilfd::of_strs(&[("A", "a1")], &[("C", "c1")]);
    println!("F ⊨ {target}: {}", implies(&f, &target));
    let proof = prove(&f, &target).expect("derivable");
    println!("axiom derivation found, {} steps", proof.size());

    // Bounded F+ enumeration — "expensive to compute".
    let universe: Vec<_> = f
        .iter()
        .flat_map(|i| i.antecedent().iter().chain(i.consequent().iter()).cloned())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let start = Instant::now();
    let fplus = enumerate_closure(&f, &universe, universe.len());
    println!(
        "|F⁺| over its own {}-symbol universe: {} non-trivial ILFDs ({:?})",
        universe.len(),
        fplus.len(),
        start.elapsed()
    );

    // Minimal cover demo.
    let mut redundant = f.clone();
    redundant.insert(target);
    let cover = minimal_cover(&redundant);
    println!(
        "minimal cover of F ∪ {{derived}}: {} ILFDs (redundancy removed)",
        cover.len()
    );

    // I9 derivation.
    let ilfds = restaurant::example3_ilfds();
    println!(
        "\npaper I9 {}: implied = {}",
        restaurant::ilfd_i9(),
        implies(&ilfds, &restaurant::ilfd_i9())
    );
}

/// S3 — technique comparison across homonym rates.
fn techniques() {
    banner("S3: soundness/completeness of all techniques vs homonym rate");
    println!(
        "{:<22} {:>8} {:>10} {:>10} {:>12} {:>7}",
        "technique", "homonyms", "precision", "recall", "completeness", "sound"
    );
    for rate in [0.0, 0.1, 0.2, 0.3, 0.4] {
        let w = generate(&GeneratorConfig {
            n_entities: 200,
            overlap: 0.6,
            homonym_rate: rate,
            ilfd_coverage: 1.0,
            noise: 0.1,
            seed: 7,
            ..GeneratorConfig::default()
        });
        let total = w.r.len() * w.s.len();

        // The paper's technique.
        let outcome = EntityMatcher::new(
            w.r.clone(),
            w.s.clone(),
            MatchConfig::new(w.extended_key.clone(), w.ilfds.clone()),
        )
        .unwrap()
        .run()
        .unwrap();
        let evals: Vec<(String, Evaluation)> = vec![
            (
                "ilfd-extended-key".into(),
                Evaluation::compute(&w.truth, &outcome.matching, &outcome.negative, total),
            ),
            (
                "key-equivalence".into(),
                evaluate_technique(&KeyEquivalence::new(&["name"], true), &w.r, &w.s, &w.truth),
            ),
            (
                "probabilistic-key".into(),
                evaluate_technique(
                    &ProbabilisticKey::new(&["name"], 0.6, 0.1),
                    &w.r,
                    &w.s,
                    &w.truth,
                ),
            ),
            (
                "probabilistic-attr".into(),
                evaluate_technique(&ProbabilisticAttr::uniform(0.9, 0.2), &w.r, &w.s, &w.truth),
            ),
            ("user-specified(50%)".into(), {
                let full =
                    UserSpecified::from_truth(w.truth.iter().cloned(), vec![0, 2], vec![0, 1]);
                let mut k = 0;
                let half = full.thin(|_| {
                    k += 1;
                    k % 2 == 0
                });
                evaluate_technique(&half, &w.r, &w.s, &w.truth)
            }),
        ];
        for (name, e) in evals {
            println!(
                "{:<22} {:>8.2} {:>10.3} {:>10.3} {:>12.3} {:>7}",
                name,
                rate,
                e.match_precision(),
                e.match_recall(),
                e.completeness(),
                e.is_sound()
            );
        }
        println!();
    }
}

/// Extended-key discovery from FD knowledge (the §4.1 minimality
/// requirement, automated).
fn keys() {
    banner("Extended-key discovery: candidate keys of the integrated scheme");
    use eid_ilfd::fd::Fd;
    use eid_relational::AttrName;
    // Example 3's integrated scheme and its FD knowledge:
    // speciality → cuisine; (name, street) → everything.
    let attrs = ["name", "cuisine", "speciality", "street", "county"]
        .iter()
        .map(AttrName::new);
    let fds = vec![
        Fd::of_strs(&["speciality"], &["cuisine"]),
        Fd::of_strs(&["street"], &["county"]),
        Fd::of_strs(&["name", "street"], &["speciality"]),
        Fd::of_strs(&["name", "cuisine", "speciality"], &["street"]),
    ];
    println!("FDs asserted about the integrated world:");
    for fd in &fds {
        println!("  {fd}");
    }
    let keys = ExtendedKey::suggest_from_fds(attrs, &fds);
    println!("\ncandidate extended keys (all minimal):");
    for k in &keys {
        println!("  {k}");
    }
    assert!(!keys.is_empty());
}

/// S1/S2/S4 — quick scaling numbers (full statistics live in the
/// Criterion benches; this prints one-shot timings for the record).
fn scaling() {
    banner("S1: matching-table construction scaling (one-shot timings)");
    println!(
        "{:>8} {:>10} {:>14} {:>14}",
        "entities", "pairs", "blocked", "nested loop"
    );
    for n in [100usize, 400, 1600] {
        let w = scaling_workload(n, 11);
        let mut config = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
        config.collect_negative = false;

        let start = Instant::now();
        let blocked = EntityMatcher::new(w.r.clone(), w.s.clone(), config.clone())
            .unwrap()
            .run()
            .unwrap();
        let blocked_t = start.elapsed();

        config.join = JoinAlgorithm::NestedLoop;
        let start = Instant::now();
        let nested = EntityMatcher::new(w.r.clone(), w.s.clone(), config)
            .unwrap()
            .run()
            .unwrap();
        let nested_t = start.elapsed();

        assert_eq!(blocked.matching.len(), nested.matching.len());
        println!(
            "{:>8} {:>10} {:>14?} {:>14?}",
            n,
            w.r.len() * w.s.len(),
            blocked_t,
            nested_t
        );
    }

    banner("S4: derivation-strategy ablation (first-match vs fixpoint)");
    println!("{:>8} {:>14} {:>14}", "entities", "first-match", "fixpoint");
    for n in [400usize, 1600] {
        let w = scaling_workload(n, 13);
        let mut config = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
        config.collect_negative = false;
        let start = Instant::now();
        let a = EntityMatcher::new(w.r.clone(), w.s.clone(), config.clone())
            .unwrap()
            .run()
            .unwrap();
        let t1 = start.elapsed();
        config.strategy = eid_ilfd::Strategy::Fixpoint;
        let start = Instant::now();
        let b = EntityMatcher::new(w.r.clone(), w.s.clone(), config)
            .unwrap()
            .run()
            .unwrap();
        let t2 = start.elapsed();
        assert_eq!(a.matching.len(), b.matching.len());
        println!("{:>8} {:>14?} {:>14?}", n, t1, t2);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let mut commands: HashMap<&str, fn()> = HashMap::new();
    commands.insert("table1", table1 as fn());
    commands.insert("figure1", figure1);
    commands.insert("figure2", figure2);
    commands.insert("figure3", figure3);
    commands.insert("table2_3", table2_3_4);
    commands.insert("table4", table2_3_4);
    commands.insert("table5_7", table5_7);
    commands.insert("table8", table8);
    commands.insert("figure4", figure4);
    commands.insert("prototype", prototype);
    commands.insert("theory", theory);
    commands.insert("techniques", techniques);
    commands.insert("scaling", scaling);
    commands.insert("keys", keys);

    match which {
        "all" => {
            for f in [
                table1, figure1, figure2, figure3, table2_3_4, table5_7, table8, figure4,
                prototype, theory, keys, techniques, scaling,
            ] {
                f();
            }
        }
        name => match commands.get(name) {
            Some(f) => f(),
            None => {
                eprintln!(
                    "unknown experiment `{name}`; known: all, {}",
                    commands.keys().copied().collect::<Vec<_>>().join(", ")
                );
                std::process::exit(2);
            }
        },
    }
}
