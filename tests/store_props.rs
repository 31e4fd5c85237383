//! Dataset-store round-trip properties: encoding a world, writing it
//! to a `.eids` directory, and reopening it must classify *exactly*
//! like the in-memory path — at every thread count and emission mode
//! — and any injected store-I/O fault must surface as a typed
//! [`CoreError::Store`], never a panic and never a half-written
//! dataset left on disk.
//!
//! The fault plan is process-global; every test that passes a store
//! fault site serializes on a mutex, and those that arm a plan clear
//! it before returning.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use entity_id::core::error::CoreError;
use entity_id::core::matcher::{EntityMatcher, JoinAlgorithm, MatchConfig, MatchOutcome};
use entity_id::core::plan::{EmitHint, StatsSource};
use entity_id::core::store::Dataset;
use entity_id::datagen::{generate, GeneratorConfig, Workload};
use entity_id::ilfd::Strategy as DerivationStrategy;

static FAULT_LOCK: Mutex<()> = Mutex::new(());
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fresh scratch directory; proptest reruns share a process, so a
/// sequence number keeps concurrently-live cases apart.
fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "eid-store-props-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
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

/// The in-memory nested-loop oracle (serial, buffered emission).
fn oracle(w: &Workload) -> MatchOutcome {
    let mut config = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
    config.join = JoinAlgorithm::NestedLoop;
    EntityMatcher::new(w.r.clone(), w.s.clone(), config)
        .expect("construct matcher")
        .run()
        .expect("successful run")
}

fn encode(w: &Workload) -> Dataset {
    Dataset::encode(
        "w",
        w.r.clone(),
        w.s.clone(),
        w.extended_key.clone(),
        w.ilfds.clone(),
        DerivationStrategy::FirstMatch,
    )
    .expect("encode dataset")
}

/// Same decision *sets* and counts (streamed/spilled emission decode
/// in row order, so entry order is not compared).
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On ANY generated world, the encoded backend AND the reopened
    /// on-disk backend classify identically to the in-memory path at
    /// thread counts 1, 2, and 7 under every emission mode — the
    /// store is a representation change, never a semantic one. The
    /// reopened dataset plans from *persisted* statistics, the fresh
    /// encode from computed ones.
    #[test]
    fn reopened_store_matches_in_memory_everywhere(config in arb_config()) {
        // Writes and opens pass the store fault sites the other tests
        // here arm, so this test serializes on the same lock.
        let _l = lock();
        let w = generate(&config);
        let want = oracle(&w);

        let encoded = Arc::new(encode(&w));
        let parent = tmp("roundtrip");
        let dir = parent.join("w.eids");
        encoded.write(&dir).unwrap();
        let opened = Arc::new(Dataset::open(&dir).unwrap());
        prop_assert!(opened.persisted());
        prop_assert!(!encoded.persisted());

        for threads in [1usize, 2, 7] {
            for emit in [EmitHint::Auto, EmitHint::Spilled] {
                for (label, ds) in [("encoded", &encoded), ("opened", &opened)] {
                    let mut cfg = ds.match_config();
                    cfg.threads = threads;
                    cfg.emit = emit;
                    let got = EntityMatcher::from_dataset(Arc::clone(ds), cfg)
                        .unwrap()
                        .run()
                        .unwrap();
                    assert_same_table_sets(
                        &want,
                        &got,
                        &format!("{label} t={threads} emit={emit:?}"),
                    )?;
                }
            }
        }

        let plan = EntityMatcher::from_dataset(Arc::clone(&opened), opened.match_config())
            .unwrap()
            .plan()
            .unwrap();
        prop_assert_eq!(plan.stats_source, StatsSource::Persisted);
        let plan = EntityMatcher::from_dataset(Arc::clone(&encoded), encoded.match_config())
            .unwrap()
            .plan()
            .unwrap();
        prop_assert_eq!(plan.stats_source, StatsSource::Computed);

        let _ = std::fs::remove_dir_all(&parent);
    }

    /// ANY `store/read` fault schedule during open: the open either
    /// succeeds — and then matches the in-memory oracle exactly — or
    /// fails with a typed [`CoreError::Store`]. No trigger count may
    /// leak a panic or an undetected partial load.
    #[test]
    fn any_store_read_fault_is_typed_or_exact(
        n in 10..40usize,
        world_seed in any::<u64>(),
        k in 1..60u64,
        fault_seed in any::<u64>(),
    ) {
        let _l = lock();
        let w = generate(&GeneratorConfig {
            n_entities: n,
            overlap: 0.5,
            homonym_rate: 0.1,
            ilfd_coverage: 1.0,
            noise: 0.0,
            n_specialities: 16,
            n_cuisines: 6,
            seed: world_seed,
        });
        let parent = tmp("readfault");
        let dir = parent.join("w.eids");
        encode(&w).write(&dir).unwrap();

        eid_fault::install(&format!("store/read@{k}"), fault_seed).unwrap();
        let opened = Dataset::open(&dir);
        eid_fault::clear();

        match opened {
            Ok(ds) => {
                // The schedule never fired within the open's read
                // count — the dataset must be complete and exact.
                let got = EntityMatcher::from_dataset(Arc::new(ds), {
                    let mut cfg = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
                    cfg.threads = 1;
                    cfg
                })
                .unwrap()
                .run()
                .unwrap();
                assert_same_table_sets(&oracle(&w), &got, &format!("read@{k} survived"))?;
            }
            Err(CoreError::Store { .. }) => {}
            Err(other) => prop_assert!(false, "untyped failure: {other}"),
        }
        let _ = std::fs::remove_dir_all(&parent);
    }
}

/// `store/open` and `store/write` faults are typed, and a failed
/// write adopts its temp directory — nothing leaks next to the
/// destination, and the destination itself never appears.
#[test]
fn open_and_write_faults_are_typed_and_leak_nothing() {
    let _l = lock();
    let w = generate(&GeneratorConfig {
        n_entities: 20,
        overlap: 0.5,
        homonym_rate: 0.1,
        ilfd_coverage: 1.0,
        noise: 0.0,
        n_specialities: 16,
        n_cuisines: 6,
        seed: 3,
    });
    let ds = encode(&w);
    let parent = tmp("openwrite");
    let dir = parent.join("w.eids");

    eid_fault::install("store/write@1", 0).unwrap();
    let err = ds.write(&dir).unwrap_err();
    eid_fault::clear();
    assert!(matches!(err, CoreError::Store { .. }), "{err}");
    assert!(!dir.exists(), "failed write left the destination behind");
    assert!(
        !parent.join("w.eids.tmp").exists(),
        "failed write leaked its temp directory"
    );

    // A clean write after the fault proves the path is reusable…
    ds.write(&dir).unwrap();
    // …and an open fault on the intact store is typed too.
    eid_fault::install("store/open@1", 0).unwrap();
    let err = Dataset::open(&dir).unwrap_err();
    eid_fault::clear();
    assert!(matches!(err, CoreError::Store { .. }), "{err}");

    let _ = std::fs::remove_dir_all(&parent);
}
