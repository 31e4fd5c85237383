//! Chaos-schedule fault harness: randomized *multi-fault* schedules
//! across every runtime site — worker panics, merge panics, interner
//! poisoning, transient spill I/O failures, forced memory-budget
//! trips — driven against both emission hints (auto, which streams,
//! and forced spilled) and thread counts {1, 2, 7}. The invariant
//! under ANY schedule: the run returns the exact fault-free decision
//! sets (possibly via a degraded execution or emission rung) or a
//! typed error — never corruption, never a raw panic, and never a
//! leaked spill temp file (the run directory is RAII-guarded through
//! aborts, poisons, and panics alike).
//!
//! Failing cases report the fault plan and seed verbatim so a
//! schedule can be replayed with `eid_fault::install(plan, seed)`.
//!
//! The fault plan is process-global; every test serializes on a
//! mutex and clears it before returning.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use proptest::prelude::*;

use entity_id::core::error::CoreError;
use entity_id::core::matcher::{EntityMatcher, JoinAlgorithm, MatchConfig, MatchOutcome};
use entity_id::core::plan::EmitHint;
use entity_id::core::runtime::{AbortReason, RunBudget};
use entity_id::datagen::{generate, GeneratorConfig, Workload};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every site a chaos schedule may arm. Spill I/O sites only fire
/// under spilled emission; `runtime/budget` forces a memory-budget
/// trip at an arbitrary checkpoint.
const CHAOS_SITES: [&str; 10] = [
    "engine/worker",
    "engine/serial",
    "engine/nested",
    "engine/sink_merge",
    "interner/poison",
    "convert/worker",
    "sink/spill_open",
    "sink/spill_write",
    "sink/spill_read",
    "runtime/budget",
];

/// The acceptance grid: serial, small-parallel, and a worker count
/// that doesn't divide anything evenly.
const THREADS: [usize; 3] = [1, 2, 7];

const EMITS: [EmitHint; 2] = [EmitHint::Auto, EmitHint::Spilled];

fn world(n: usize, seed: u64) -> (Workload, MatchConfig) {
    let w = generate(&GeneratorConfig {
        n_entities: n,
        overlap: 0.6,
        homonym_rate: 0.2,
        ilfd_coverage: 1.0,
        noise: 0.0,
        n_specialities: 12,
        n_cuisines: 5,
        seed,
    });
    let config = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
    (w, config)
}

/// The fault-free reference: the nested-loop oracle, run serially
/// with no fault plan armed.
fn nested_loop_oracle(w: &Workload, config: &MatchConfig) -> MatchOutcome {
    let mut oracle = config.clone();
    oracle.join = JoinAlgorithm::NestedLoop;
    EntityMatcher::new(w.r.clone(), w.s.clone(), oracle)
        .unwrap()
        .run()
        .unwrap()
}

fn sorted_entries(t: &entity_id::core::match_table::PairTable) -> Vec<String> {
    let mut v: Vec<String> = t.entries().iter().map(|e| format!("{e:?}")).collect();
    v.sort();
    v
}

/// Byte-identical tables: same entries, same undetermined count.
fn same_decisions(a: &MatchOutcome, b: &MatchOutcome) -> bool {
    sorted_entries(&a.matching) == sorted_entries(&b.matching)
        && sorted_entries(&a.negative) == sorted_entries(&b.negative)
        && a.undetermined == b.undetermined
}

/// A per-case scratch parent for spill files. The matcher's own
/// [`SpillDirGuard`](entity_id::core::SpillDirGuard) creates — and
/// must remove — a run subdirectory underneath; [`ScratchDir::leaked`]
/// lists whatever survived. Drop removes the (expected-empty) parent.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> ScratchDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "eid-chaos-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("create chaos scratch dir");
        ScratchDir(path)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }

    /// Entries left behind after a run — must always be empty.
    fn leaked(&self) -> Vec<String> {
        std::fs::read_dir(&self.0)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .collect()
            })
            .unwrap_or_default()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// ANY multi-fault chaos schedule (2–3 seed-driven clauses over
    /// every runtime site), at every thread count × emission mode:
    /// byte-identical tables or a typed error, never corruption,
    /// never a leaked temp file.
    #[test]
    fn chaos_schedules_are_exact_or_typed(
        n in 10..60usize,
        world_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        sites in proptest::collection::vec(0..CHAOS_SITES.len(), 2..=3),
        thread_sel in 0..THREADS.len(),
        emit_sel in 0..EMITS.len(),
    ) {
        let _l = lock();
        eid_fault::quiet_panics();
        let (w, config) = world(n, world_seed);
        let oracle = nested_loop_oracle(&w, &config);

        // Seed-driven triggers: `@s12` spreads each clause over the
        // first dozen calls at its site, deterministically per seed.
        let plan = sites.iter()
            .map(|&s| format!("{}@s12", CHAOS_SITES[s]))
            .collect::<Vec<_>>()
            .join(";");
        let scratch = ScratchDir::new();
        let mut faulty = config;
        faulty.threads = THREADS[thread_sel];
        faulty.emit = EMITS[emit_sel];
        faulty.spill_dir = Some(scratch.path().clone());
        eid_fault::install(&plan, fault_seed).unwrap();
        let got = EntityMatcher::new(w.r.clone(), w.s.clone(), faulty)
            .unwrap().run();
        eid_fault::clear();

        match got {
            Ok(outcome) => {
                prop_assert!(
                    same_decisions(&oracle, &outcome),
                    "diverged under plan `{plan}` seed {fault_seed} \
                     threads={} emit={:?}",
                    THREADS[thread_sel], EMITS[emit_sel]
                );
                outcome.verify().unwrap();
            }
            // Degradation ladder exhausted by injected panics: typed.
            Err(CoreError::WorkerPanic { .. }) => {}
            // Injected `runtime/budget` trip: typed abort whose
            // partial stats are internally consistent.
            Err(CoreError::Aborted { reason, partial }) => {
                prop_assert!(
                    matches!(reason, AbortReason::MemBudgetExceeded { .. }),
                    "unexpected abort reason under plan `{plan}` seed {fault_seed}: {reason}"
                );
                prop_assert!(partial.tasks_completed <= partial.tasks_total);
            }
            Err(other) => prop_assert!(
                false,
                "untyped failure under plan `{plan}` seed {fault_seed}: {other}"
            ),
        }
        let leaked = scratch.leaked();
        prop_assert!(
            leaked.is_empty(),
            "leaked spill files under plan `{plan}` seed {fault_seed}: {leaked:?}"
        );
    }

    /// A `max_pair_bytes` budget plus a fault-forced trip at ANY
    /// checkpoint (`runtime/budget@k`): the run lands in spilled mode
    /// with exact counts, or trips as a typed abort with consistent
    /// partial stats — never a mixed table.
    #[test]
    fn budget_trip_at_any_checkpoint_is_spilled_exact_or_typed_abort(
        n in 40..120usize,
        world_seed in any::<u64>(),
        k in 1..40u64,
        thread_sel in 0..THREADS.len(),
    ) {
        let _l = lock();
        let (w, config) = world(n, world_seed);
        let oracle = nested_loop_oracle(&w, &config);

        // 8 KiB: below any workload here's estimated pair bytes, so
        // an auto parallel plan must degrade to out-of-core emission
        // rather than plan an abort.
        let budget = 8 * 1024u64;
        let scratch = ScratchDir::new();
        let mut budgeted = config;
        budgeted.threads = THREADS[thread_sel];
        budgeted.budget = RunBudget {
            max_pair_bytes: Some(budget),
            ..RunBudget::default()
        };
        budgeted.spill_dir = Some(scratch.path().clone());
        eid_fault::install(&format!("runtime/budget@{k}"), 0).unwrap();
        let got = EntityMatcher::new(w.r.clone(), w.s.clone(), budgeted)
            .unwrap().run();
        eid_fault::clear();

        match got {
            Ok(outcome) => {
                prop_assert!(
                    same_decisions(&oracle, &outcome),
                    "diverged under budget@{k} threads={}",
                    THREADS[thread_sel]
                );
                outcome.verify().unwrap();
                // Whether the planner chose spilled here depends on
                // its pair estimate vs the budget — tiny worlds can
                // legitimately stay streamed and fit. The
                // deterministic budget→spilled planning check lives
                // in `no_spill_restores_abort_as_the_final_rung`.
            }
            Err(CoreError::Aborted { reason, partial }) => {
                match reason {
                    AbortReason::MemBudgetExceeded { limit, observed } => {
                        prop_assert_eq!(limit, budget);
                        prop_assert!(observed >= 1);
                        prop_assert!(partial.tasks_completed <= partial.tasks_total);
                    }
                    other => prop_assert!(false, "wrong abort reason: {other}"),
                }
            }
            Err(other) => prop_assert!(false, "untyped failure under budget@{k}: {other}"),
        }
        let leaked = scratch.leaked();
        prop_assert!(leaked.is_empty(), "leaked spill files: {leaked:?}");
    }
}

/// Builds a world big enough that spilled emission writes real
/// segments: the sink needs at least two row-range shards (rows per
/// side past the ~1 M-bit shard target) before a worker's resident
/// bytes can ever exceed the per-shard cap and trigger a flush.
fn big_world() -> (Workload, MatchConfig) {
    world(1600, 7)
}

/// Deterministic spill I/O chaos: transient faults retry with backoff
/// and stay exact; exhausted writes are contained (shards stay
/// resident); exhausted reads drop the emission rung spilled →
/// streamed and still land exact. The spill dir is empty after every
/// variant.
#[test]
fn spill_io_faults_recover_or_degrade_a_rung() {
    let _l = lock();
    eid_fault::quiet_panics();
    let (w, config) = big_world();

    let mut serial = config.clone();
    serial.threads = 1;
    let oracle = EntityMatcher::new(w.r.clone(), w.s.clone(), serial)
        .unwrap()
        .run()
        .unwrap();

    // (plan, expects_io_retries, expects_rung_drop)
    let exhaust = |site: &str| -> String {
        (1..=4)
            .map(|t| format!("{site}@{t}"))
            .collect::<Vec<_>>()
            .join(";")
    };
    let schedules: Vec<(String, bool, bool)> = vec![
        // One transient failure per site: the retry recovers it.
        ("sink/spill_open@1".to_string(), true, false),
        ("sink/spill_write@1".to_string(), true, false),
        ("sink/spill_read@1".to_string(), true, false),
        // Write exhaustion is contained: the sink latches write-failed
        // and keeps shards resident — still exact, same rung.
        (exhaust("sink/spill_write"), true, false),
        // Read exhaustion at merge is terminal for the spilled rung:
        // the ladder drops to streamed emission and reruns.
        (exhaust("sink/spill_read"), true, true),
        // No faults: the baseline spilled run itself.
        (String::new(), false, false),
    ];

    for (plan, expect_retries, expect_drop) in schedules {
        let scratch = ScratchDir::new();
        let mut spilled = config.clone();
        spilled.threads = 2;
        spilled.emit = EmitHint::Spilled;
        spilled.spill_dir = Some(scratch.path().clone());
        if !plan.is_empty() {
            eid_fault::install(&plan, 0).unwrap();
        }
        let got = EntityMatcher::new(w.r.clone(), w.s.clone(), spilled)
            .unwrap()
            .run();
        eid_fault::clear();

        let outcome = got.unwrap_or_else(|e| panic!("plan `{plan}` failed typed: {e}"));
        assert!(
            same_decisions(&oracle, &outcome),
            "plan `{plan}` diverged from the fault-free oracle"
        );
        outcome.verify().unwrap();
        let retries = outcome.stats.counter("runtime/io_retries");
        if expect_retries {
            assert!(retries >= 1, "plan `{plan}` recorded no io retries");
        }
        let fallbacks = outcome.stats.counter("runtime/spill_fallback");
        assert_eq!(
            fallbacks,
            u64::from(expect_drop),
            "plan `{plan}` rung drops"
        );
        if plan.is_empty() {
            // The clean spilled run must actually have spilled.
            assert!(
                outcome.stats.counter("sink/spill_bytes") > 0,
                "baseline spilled run wrote no segments — workload too small"
            );
        }
        let leaked = scratch.leaked();
        assert!(leaked.is_empty(), "plan `{plan}` leaked: {leaked:?}");
    }
}

/// `--no-spill` opts out: the same budget that degrades to spilled by
/// default aborts typed when spilling is disabled — the final rung of
/// the ladder is unchanged.
#[test]
fn no_spill_restores_abort_as_the_final_rung() {
    let _l = lock();
    // Streamed emission keeps one bitset grid per worker resident, so
    // spilling only saves memory once the grid spans many shards and
    // several workers hold them: ~3.8k × 3.9k rows (12 shards) under
    // four workers.
    let (w, config) = world(4800, 7);

    // Between the spilled run's resident bytes and the streamed run's
    // (four workers' full grids plus the merged one): with spill the
    // run completes out-of-core, without it the same budget is a
    // typed abort.
    const BUDGET: u64 = 6 * 1024 * 1024;
    let budget = RunBudget {
        max_pair_bytes: Some(BUDGET),
        ..RunBudget::default()
    };

    let mut with_spill = config.clone();
    with_spill.threads = 4;
    with_spill.budget = budget.clone();
    let ok = EntityMatcher::new(w.r.clone(), w.s.clone(), with_spill)
        .unwrap()
        .run()
        .expect("budgeted run should degrade to spilled, not abort");
    assert!(
        ok.stats
            .label("plan/emit")
            .unwrap_or("?")
            .starts_with("spilled"),
        "budgeted run did not plan spilled emission"
    );

    let mut no_spill = config;
    no_spill.threads = 4;
    no_spill.budget = budget;
    no_spill.spill = false;
    match EntityMatcher::new(w.r.clone(), w.s.clone(), no_spill)
        .unwrap()
        .run()
    {
        Err(CoreError::Aborted {
            reason: AbortReason::MemBudgetExceeded { limit, .. },
            ..
        }) => assert_eq!(limit, BUDGET),
        other => panic!("--no-spill run should abort typed, got {other:?}"),
    }
}
