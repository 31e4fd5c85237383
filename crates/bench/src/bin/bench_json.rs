//! Machine-readable matching benchmark: nested-loop oracle vs the
//! blocked engine (serial and parallel), at a few workload sizes, written to `BENCH_matching.json` at the repo
//! root. Each engine entry embeds the per-stage breakdown and engine
//! counters from its [`MatchOutcome::stats`] report, so a regression
//! can be localised (compile? index? residual scan?) without
//! re-profiling — plus the planner's decisions (execution mode,
//! chosen blocking keys per rule) and the plan-cache hit/miss
//! counts, so a perf delta can also be traced to a *plan* change.
//!
//! Run with `cargo run --release -p eid-bench --bin bench_json`.
//! Pass sizes as arguments to override the defaults, e.g.
//! `bench_json 100 200`. `--out <path>` redirects the JSON file
//! (the smoke test in `scripts/check.sh` writes to a temp file
//! instead of clobbering the committed benchmark), and
//! `--engines blocked,blocked_parallel` restricts the arms — handy
//! when iterating on the fast engines without re-running the
//! multi-second oracle arms. The cross-engine agreement assert uses
//! the first selected arm as the reference, so the committed
//! benchmark (all arms) still checks everything against the
//! nested-loop oracle.

use std::sync::Arc;
use std::time::Instant;

use eid_bench::scaling_workload;
use eid_core::matcher::{EntityMatcher, JoinAlgorithm, MatchConfig, MatchOutcome};
use eid_core::plan::{EmitHint, PlanNodeKind};
use eid_core::store::Dataset;
use eid_core::SpillDirGuard;
use eid_obs::MatchReport;

/// One engine configuration under measurement.
struct Engine {
    name: &'static str,
    join: JoinAlgorithm,
    threads: usize,
    /// Largest workload this arm runs at. The quadratic scalar
    /// oracle arms stop at 3200 — beyond that they dominate the
    /// whole benchmark's wall time while measuring nothing new; the
    /// cross-engine agreement assert then uses the first *selected*
    /// arm as its reference.
    max_n: usize,
}

const ENGINES: &[Engine] = &[
    Engine {
        name: "nested_loop",
        join: JoinAlgorithm::NestedLoop,
        threads: 1,
        max_n: 3200,
    },
    Engine {
        name: "blocked",
        join: JoinAlgorithm::Blocked,
        threads: 1,
        max_n: usize::MAX,
    },
    Engine {
        name: "blocked_parallel",
        join: JoinAlgorithm::Blocked,
        threads: 0,
        max_n: usize::MAX,
    },
];

struct Measurement {
    name: &'static str,
    seconds: f64,
    pairs_per_sec: f64,
    matching: usize,
    negative: usize,
    undetermined: usize,
    /// Observability report of the last timed run (stage timings are
    /// that run's, not the best-of-3's).
    stats: MatchReport,
    /// Plan-cache `(hits, misses)` across every rep of this engine —
    /// all reps after the first should hit.
    plan_cache: (u64, u64),
    /// `VectorScan` nodes in the plan this engine ran.
    vector_nodes: usize,
}

/// The planner's decisions for one engine run, as a JSON object:
/// the execution-mode and emission labels, the vectorized node
/// count, the chosen blocking key (with the cost model's rationale)
/// per probed identity rule, and the plan-cache accounting. Read off
/// the run's `plan/*` report labels.
fn plan_json(m: &Measurement) -> String {
    let stats = &m.stats;
    let mode = stats.label("plan/mode").unwrap_or("?");
    let emit = stats.label("plan/emit").unwrap_or("?");
    let keys: Vec<String> = stats
        .labels
        .iter()
        .filter_map(|l| {
            l.name
                .strip_prefix("plan/key/")
                .map(|rule| format!("\"{rule}\": \"{}\"", l.value))
        })
        .collect();
    format!(
        "\"plan\": {{\"mode\": \"{mode}\", \"emit\": \"{emit}\", \"vector_nodes\": {}, \
         \"keys\": {{{}}}, \"cache_hits\": {}, \"cache_misses\": {}}}",
        m.vector_nodes,
        keys.join(", "),
        m.plan_cache.0,
        m.plan_cache.1
    )
}

/// The per-stage and counter breakdown of one engine run, as three
/// JSON maps: stage path → seconds, counter name → value, histogram
/// name → tail quantiles (p50/p95/p99 in nanoseconds — the per-task
/// latency distribution, not just its sum). Per-rule counters are
/// elided (they scale with the rule base, not the engine).
fn breakdown_json(stats: &MatchReport) -> String {
    let stages: Vec<String> = stats
        .stages
        .iter()
        .map(|s| format!("\"{}\": {}", s.path, json_f64(s.nanos as f64 / 1e9)))
        .collect();
    let counters: Vec<String> = stats
        .counters
        .iter()
        .filter(|c| !c.name.starts_with("rule/"))
        .map(|c| format!("\"{}\": {}", c.name, c.value))
        .collect();
    let histograms: Vec<String> = stats
        .histograms
        .iter()
        .map(|h| {
            format!(
                "\"{}\": {{\"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                h.name,
                h.snapshot.count,
                h.snapshot.quantile(0.50),
                h.snapshot.quantile(0.95),
                h.snapshot.quantile(0.99)
            )
        })
        .collect();
    format!(
        "\"stages\": {{{}}}, \"counters\": {{{}}}, \"histograms\": {{{}}}",
        stages.join(", "),
        counters.join(", "),
        histograms.join(", ")
    )
}

/// Measures every engine at one size. Repetitions are interleaved
/// round-robin — engine A rep 1, engine B rep 1, …, engine A rep 2 —
/// so slow system bursts and frequency drift hit all engines alike
/// instead of biasing whichever ran last. Each engine's rep count
/// targets ~0.6s of measurement — ~1.2s for sub-150ms arms, whose
/// minima converge only with many samples on a noisy box (min 8,
/// max 100); the best rep is kept.
fn measure_all(
    engines: &[&Engine],
    config: &MatchConfig,
    r: &eid_relational::Relation,
    s: &eid_relational::Relation,
) -> Vec<(MatchOutcome, f64, (u64, u64), usize)> {
    let matchers: Vec<EntityMatcher> = engines
        .iter()
        .map(|engine| {
            let mut config = config.clone();
            config.join = engine.join;
            config.threads = engine.threads;
            EntityMatcher::new(r.clone(), s.clone(), config).unwrap()
        })
        .collect();
    let mut outcomes = Vec::with_capacity(matchers.len());
    let mut reps = Vec::with_capacity(matchers.len());
    for matcher in &matchers {
        let start = Instant::now();
        outcomes.push(matcher.run().unwrap());
        let warmup = start.elapsed().as_secs_f64();
        let target = if warmup < 0.15 { 1.2 } else { 0.6 };
        reps.push(((target / warmup.max(1e-9)).ceil() as usize).clamp(8, 100));
    }
    let mut best = vec![f64::INFINITY; matchers.len()];
    for round in 0..reps.iter().copied().max().unwrap_or(0) {
        for (k, matcher) in matchers.iter().enumerate() {
            if round >= reps[k] {
                continue;
            }
            let start = Instant::now();
            outcomes[k] = matcher.run().unwrap();
            best[k] = best[k].min(start.elapsed().as_secs_f64());
        }
    }
    let caches: Vec<(u64, u64)> = matchers.iter().map(|m| m.plan_cache_stats()).collect();
    let vector_nodes = matchers.iter().map(|m| {
        let plan = m.plan().unwrap();
        plan.nodes
            .iter()
            .filter(|n| matches!(n.kind, PlanNodeKind::VectorScan { .. }))
            .count()
    });
    outcomes
        .into_iter()
        .zip(best)
        .zip(caches)
        .zip(vector_nodes)
        .map(|(((outcome, seconds), cache), vector)| (outcome, seconds, cache, vector))
        .collect()
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

fn main() {
    // The repo root is two levels above this crate's manifest.
    let mut out_path: String =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_matching.json").to_string();
    let mut sizes: Vec<usize> = Vec::new();
    let mut engines: Vec<&Engine> = ENGINES.iter().collect();
    let mut kernels = eid_core::kernels::enabled_default();
    let mut emit = EmitHint::Auto;
    let mut trace_out: Option<String> = None;
    let mut export_dir: Option<String> = None;
    let mut store_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            out_path = args.next().expect("--out needs a path");
        } else if arg == "--trace-out" {
            trace_out = Some(args.next().expect("--trace-out needs a path"));
        } else if arg == "--emit" {
            let v = args.next().expect("--emit needs auto|spilled");
            emit = match v.as_str() {
                "auto" => EmitHint::Auto,
                "spilled" => EmitHint::Spilled,
                other => panic!("--emit must be auto or spilled, got {other:?}"),
            };
        } else if arg == "--engines" {
            let names = args.next().expect("--engines needs a comma-separated list");
            engines = names
                .split(',')
                .map(|name| {
                    ENGINES
                        .iter()
                        .find(|e| e.name == name)
                        .unwrap_or_else(|| panic!("unknown engine {name:?}"))
                })
                .collect();
        } else if arg == "--kernels" {
            let v = args.next().expect("--kernels needs on|off");
            kernels = match v.as_str() {
                "on" => true,
                "off" => false,
                other => panic!("--kernels must be on or off, got {other:?}"),
            };
        } else if arg == "--export" {
            export_dir = Some(args.next().expect("--export needs a directory"));
        } else if arg == "--store-dir" {
            store_dir = Some(args.next().expect("--store-dir needs a directory"));
        } else {
            sizes.push(arg.parse().expect("sizes must be integers"));
        }
    }
    let default_sizes = sizes.is_empty();
    if default_sizes {
        sizes = vec![200, 400, 800, 1600, 3200, 6400];
    }

    // `--export DIR` output is disposable until the whole benchmark
    // completes: a panic mid-run (cross-engine disagreement, write
    // failure) must not leave a half-written workload tree behind.
    // A pre-existing directory belongs to the user and is never
    // guarded; one we create is removed on unwind and kept on
    // success.
    let mut export_guard = export_dir.as_ref().and_then(|dir| {
        let path = std::path::PathBuf::from(dir);
        if path.exists() {
            None
        } else {
            std::fs::create_dir_all(&path)
                .unwrap_or_else(|e| panic!("--export {}: {e}", path.display()));
            Some(SpillDirGuard::adopt(path, false))
        }
    });

    let mut size_objects = Vec::new();
    for &n in &sizes {
        let w = scaling_workload(n, 42);
        // `--export DIR` writes each size's workload as CSV + rules
        // under DIR/n<size>/ so the `eid` CLI (e.g. a count-alloc
        // build) can replay the exact bench inputs.
        if let Some(dir) = &export_dir {
            let sub = std::path::Path::new(dir).join(format!("n{n}"));
            eid_datagen::io::export_workload(&w, &sub)
                .unwrap_or_else(|e| panic!("--export {}: {e:?}", sub.display()));
            eprintln!("exported n={n} workload to {}", sub.display());
        }
        let mut config = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
        config.kernels = kernels;
        config.emit = emit;
        let pairs = w.r.len() * w.s.len();
        let selected: Vec<&Engine> = engines.iter().copied().filter(|e| n <= e.max_n).collect();
        eprintln!(
            "n_entities={n}: |R|={}, |S|={}, {pairs} pairs",
            w.r.len(),
            w.s.len()
        );

        let mut measurements: Vec<Measurement> = Vec::new();
        for (engine, (outcome, seconds, plan_cache, vector_nodes)) in selected
            .iter()
            .zip(measure_all(&selected, &config, &w.r, &w.s))
        {
            eprintln!(
                "  {:<17} {seconds:>10.4}s  {:>12.0} pairs/s  |MT|={} |NMT|={}",
                engine.name,
                pairs as f64 / seconds,
                outcome.matching.len(),
                outcome.negative.len()
            );
            measurements.push(Measurement {
                name: engine.name,
                seconds,
                pairs_per_sec: pairs as f64 / seconds,
                matching: outcome.matching.len(),
                negative: outcome.negative.len(),
                undetermined: outcome.undetermined,
                stats: outcome.stats,
                plan_cache,
                vector_nodes,
            });
        }

        // All engines must agree — this is a benchmark, not a place
        // to quietly diverge from the oracle (the first selected arm
        // is the reference; with all arms on that is the nested-loop
        // oracle up to its size cap).
        let oracle = &measurements[0];
        for m in &measurements[1..] {
            assert_eq!(
                (m.matching, m.negative, m.undetermined),
                (oracle.matching, oracle.negative, oracle.undetermined),
                "{} disagrees with the {} reference at n={n}",
                m.name,
                oracle.name
            );
        }

        // Kernels A/B: one blocked run with the kernel dispatch
        // flipped must classify every pair identically — the planner
        // flag is a pure performance decision.
        let ab = {
            let mut ab_config = config.clone();
            ab_config.join = JoinAlgorithm::Blocked;
            ab_config.threads = 0;
            ab_config.kernels = !kernels;
            EntityMatcher::new(w.r.clone(), w.s.clone(), ab_config)
                .unwrap()
                .run()
                .unwrap()
        };
        assert_eq!(
            (ab.matching.len(), ab.negative.len(), ab.undetermined),
            (oracle.matching, oracle.negative, oracle.undetermined),
            "kernels={} disagrees with kernels={kernels} at n={n}",
            !kernels
        );
        let kernels_json = format!(
            "\"kernels\": {{\"enabled\": {kernels}, \"simd\": \"{}\", \
             \"ab_identical\": true}}",
            eid_core::kernels::simd_level()
        );

        let nested = measurements.iter().find(|m| m.name == "nested_loop");
        let speedup = |name: &str| -> f64 {
            match (nested, measurements.iter().find(|m| m.name == name)) {
                (Some(base), Some(m)) => base.seconds / m.seconds,
                _ => f64::NAN, // serialized as null when either arm is absent
            }
        };
        let engines_json: Vec<String> = measurements
            .iter()
            .map(|m| {
                format!(
                    concat!(
                        "{{\"name\": \"{}\", \"seconds\": {}, ",
                        "\"pairs_per_sec\": {}, \"matching\": {}, ",
                        "\"negative\": {}, \"undetermined\": {}, {}, {}}}"
                    ),
                    m.name,
                    json_f64(m.seconds),
                    json_f64(m.pairs_per_sec),
                    m.matching,
                    m.negative,
                    m.undetermined,
                    plan_json(m),
                    breakdown_json(&m.stats)
                )
            })
            .collect();
        size_objects.push(format!(
            concat!(
                "    {{\n",
                "      \"n_entities\": {},\n",
                "      \"r_rows\": {},\n",
                "      \"s_rows\": {},\n",
                "      \"pairs\": {},\n",
                "      {},\n",
                "      \"engines\": [\n        {}\n      ],\n",
                "      \"speedup_blocked_vs_nested_loop\": {},\n",
                "      \"speedup_blocked_parallel_vs_nested_loop\": {}\n",
                "    }}"
            ),
            n,
            w.r.len(),
            w.s.len(),
            pairs,
            kernels_json,
            engines_json.join(",\n        "),
            json_f64(speedup("blocked")),
            json_f64(speedup("blocked_parallel"))
        ));
    }

    // Core-count scaling at the largest size: the blocked arm's task
    // queue is worker-count-invariant in output, so throughput per
    // thread count is a clean strong-scaling curve.
    let scaling_json = {
        let avail = std::thread::available_parallelism().map_or(1, |p| p.get());
        let n = sizes.iter().copied().max().unwrap_or(0);
        let w = scaling_workload(n, 42);
        let pairs = (w.r.len() * w.s.len()) as f64;
        let mut threads: Vec<usize> = Vec::new();
        let mut t = 1;
        while t < avail {
            threads.push(t);
            t *= 2;
        }
        threads.push(avail);
        let mut rows = Vec::new();
        for &t in &threads {
            let mut config = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
            config.join = JoinAlgorithm::Blocked;
            config.threads = t;
            config.kernels = kernels;
            config.emit = emit;
            let matcher = EntityMatcher::new(w.r.clone(), w.s.clone(), config).unwrap();
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let start = Instant::now();
                matcher.run().unwrap();
                best = best.min(start.elapsed().as_secs_f64());
            }
            eprintln!(
                "scaling n={n} threads={t}: {best:.4}s  {:.0} pairs/s",
                pairs / best
            );
            rows.push(format!(
                "{{\"threads\": {t}, \"seconds\": {}, \"pairs_per_sec\": {}}}",
                json_f64(best),
                json_f64(pairs / best)
            ));
        }
        format!(
            "  \"scaling\": {{\"available_parallelism\": {avail}, \"n_entities\": {n}, \
             \"blocked_by_threads\": [\n    {}\n  ]}},\n",
            rows.join(",\n    ")
        )
    };

    // Spill A/B/C at the largest size. Three arms against one world:
    // streamed with no budget (baseline), auto emission under a
    // 32 MiB pair-byte budget (the planner must degrade to spilled
    // rather than abort — but at bench scale the resident bitmap fits
    // the budget-derived shard cap, so no segments are written), and
    // forced spilled with floor-sized caps (real segment I/O: the
    // spill traffic and retry counters come from this arm). All three
    // must classify identically — out-of-core emission changes
    // nothing but the memory profile.
    //
    // Below n=3200 the raw-pair estimate sits under the budget, so a
    // 32 MiB cap never flips the plan to spilled and the section would
    // be vacuous — skip it rather than assert on a plan the planner
    // has no reason to choose.
    const SPILL_MIN_N: usize = 3200;
    let spill_json = if sizes.iter().copied().max().unwrap_or(0) < SPILL_MIN_N {
        String::new()
    } else {
        let n = sizes.iter().copied().max().unwrap_or(0);
        let w = scaling_workload(n, 42);
        let budget_bytes: u64 = 32 * 1024 * 1024;
        let run_arm = |hint: EmitHint, budget: Option<u64>| {
            let mut config = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
            config.join = JoinAlgorithm::Blocked;
            config.threads = 0;
            config.kernels = kernels;
            config.emit = hint;
            config.budget.max_pair_bytes = budget;
            let matcher = EntityMatcher::new(w.r.clone(), w.s.clone(), config).unwrap();
            let mut best = f64::INFINITY;
            let mut outcome = None;
            for _ in 0..3 {
                let start = Instant::now();
                outcome = Some(matcher.run().unwrap());
                best = best.min(start.elapsed().as_secs_f64());
            }
            (outcome.unwrap(), best)
        };
        let (streamed, streamed_s) = run_arm(EmitHint::Auto, None);
        let (budgeted, budgeted_s) = run_arm(EmitHint::Auto, Some(budget_bytes));
        let (forced, forced_s) = run_arm(EmitHint::Spilled, None);
        let counts = |o: &MatchOutcome| (o.matching.len(), o.negative.len(), o.undetermined);
        assert_eq!(
            counts(&budgeted),
            counts(&streamed),
            "budgeted spilled emission disagrees with streamed at n={n}"
        );
        assert_eq!(
            counts(&forced),
            counts(&streamed),
            "forced spilled emission disagrees with streamed at n={n}"
        );
        assert!(
            budgeted
                .stats
                .label("plan/emit")
                .is_some_and(|e| e.starts_with("spilled")),
            "a {budget_bytes}-byte budget did not plan spilled emission at n={n}: {:?}",
            budgeted.stats.label("plan/emit")
        );
        let spill_bytes = forced.stats.counter("sink/spill_bytes");
        assert!(
            spill_bytes > 0,
            "forced spilled arm wrote no segments at n={n}"
        );
        eprintln!(
            "spill n={n}: streamed {streamed_s:.4}s, spilled {budgeted_s:.4}s under {} MiB, \
             forced-spill {forced_s:.4}s ({spill_bytes} spill bytes, {} segments, {} io retries)",
            budget_bytes / (1024 * 1024),
            forced.stats.counter("sink/spill_shards"),
            forced.stats.counter("runtime/io_retries"),
        );
        format!(
            "  \"spill\": {{\"n_entities\": {n}, \"budget_bytes\": {budget_bytes}, \
             \"streamed_seconds\": {}, \"spilled_seconds\": {}, \
             \"forced_spilled_seconds\": {}, \
             \"spill_bytes\": {spill_bytes}, \"spill_segments\": {}, \"io_retries\": {}, \
             \"ab_identical\": true}},\n",
            json_f64(streamed_s),
            json_f64(budgeted_s),
            json_f64(forced_s),
            forced.stats.counter("sink/spill_shards"),
            forced.stats.counter("runtime/io_retries"),
        )
    };

    // Persistent dataset-store rung: encode the workload once,
    // persist it, and run matching three ways — full re-encode (the
    // CSV path: derive + intern inside every run), warm RAM (the
    // pre-encoded dataset reused across runs), and cold open (read
    // the store back from disk, then run). The default rung is
    // n=25600 — a size the timed matrix never touches — and the
    // store-backed arms never re-encode: one `Dataset::encode` feeds
    // the write, every open, and both store-backed match arms.
    // `encode_ms` times the whole original ingest pipeline — CSV
    // parse (re-interning every value) plus `Dataset::encode` — since
    // that is what a store-less invocation pays before it can match.
    // Opening must be far cheaper than encoding (asserted < 5% of
    // encode time at n ≥ 6400).
    let store_json = {
        let n = if default_sizes {
            25_600
        } else {
            sizes.iter().copied().max().unwrap_or(0)
        };
        let w = scaling_workload(n, 42);
        let csv_dir =
            std::env::temp_dir().join(format!("eid-bench-store-csv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&csv_dir);
        eid_datagen::io::export_workload(&w, &csv_dir).expect("export workload csv");
        let r_text = std::fs::read_to_string(csv_dir.join("r.csv")).expect("read r.csv");
        let s_text = std::fs::read_to_string(csv_dir.join("s.csv")).expect("read s.csv");
        let t0 = Instant::now();
        let r = eid_relational::csv::from_csv_inferred("R", &r_text, &["name", "street"])
            .expect("parse r.csv");
        let s = eid_relational::csv::from_csv_inferred("S", &s_text, &["name", "speciality"])
            .expect("parse s.csv");
        let ds = Dataset::encode(
            "bench",
            r,
            s,
            w.extended_key.clone(),
            w.ilfds.clone(),
            eid_ilfd::Strategy::FirstMatch,
        )
        .expect("encode bench dataset");
        let encode_s = t0.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&csv_dir);

        let (parent, keep_store) = match &store_dir {
            Some(dir) => (std::path::PathBuf::from(dir), true),
            None => (
                std::env::temp_dir().join(format!("eid-bench-store-{}", std::process::id())),
                false,
            ),
        };
        std::fs::create_dir_all(&parent).expect("create store dir");
        let dir = parent.join(format!("bench-n{n}.eids"));
        let t0 = Instant::now();
        let store_bytes = ds.write(&dir).expect("write bench dataset");
        let write_s = t0.elapsed().as_secs_f64();

        let mut open_s = f64::INFINITY;
        let mut opened = None;
        for _ in 0..5 {
            let t0 = Instant::now();
            opened = Some(Dataset::open(&dir).expect("open bench dataset"));
            open_s = open_s.min(t0.elapsed().as_secs_f64());
        }
        let opened = Arc::new(opened.expect("at least one open"));
        let encoded = Arc::new(ds);

        let tune = |mut config: MatchConfig| {
            config.join = JoinAlgorithm::Blocked;
            config.threads = 0;
            config.kernels = kernels;
            config.emit = emit;
            config
        };
        let best_run = |matcher: &EntityMatcher| {
            let mut best = f64::INFINITY;
            let mut outcome = None;
            for _ in 0..2 {
                let t0 = Instant::now();
                outcome = Some(matcher.run().expect("bench store run"));
                best = best.min(t0.elapsed().as_secs_f64());
            }
            (outcome.expect("at least one run"), best)
        };
        let reencode_matcher = EntityMatcher::new(
            w.r.clone(),
            w.s.clone(),
            tune(MatchConfig::new(w.extended_key.clone(), w.ilfds.clone())),
        )
        .expect("re-encode matcher");
        let (reencode, reencode_s) = best_run(&reencode_matcher);
        let warm_matcher =
            EntityMatcher::from_dataset(Arc::clone(&encoded), tune(encoded.match_config()))
                .expect("warm matcher");
        let (warm, warm_s) = best_run(&warm_matcher);
        let cold_matcher =
            EntityMatcher::from_dataset(Arc::clone(&opened), tune(opened.match_config()))
                .expect("cold matcher");
        let (cold, cold_s) = best_run(&cold_matcher);

        let counts = |o: &MatchOutcome| (o.matching.len(), o.negative.len(), o.undetermined);
        assert_eq!(
            counts(&warm),
            counts(&reencode),
            "warm store-backed run disagrees with the re-encode path at n={n}"
        );
        assert_eq!(
            counts(&cold),
            counts(&reencode),
            "cold store-backed run disagrees with the re-encode path at n={n}"
        );
        assert_eq!(
            cold.stats.label("plan/stats"),
            Some("persisted"),
            "cold run did not plan from persisted statistics at n={n}"
        );
        if n >= 6400 {
            assert!(
                open_s < 0.05 * encode_s,
                "store open ({open_s:.4}s) is not < 5% of encode ({encode_s:.4}s) at n={n}"
            );
        }
        if !keep_store {
            let _ = std::fs::remove_dir_all(&parent);
        }
        eprintln!(
            "store n={n}: encode {encode_s:.4}s, write {write_s:.4}s ({store_bytes} bytes), \
             open {open_s:.4}s ({:.1}% of encode); match re-encode {reencode_s:.4}s, \
             warm {warm_s:.4}s, cold {cold_s:.4}s",
            100.0 * open_s / encode_s.max(1e-12)
        );
        format!(
            "  \"store\": {{\"n_entities\": {n}, \"encode_ms\": {}, \"write_ms\": {}, \
             \"open_ms\": {}, \"store_bytes\": {store_bytes}, \
             \"reencode_seconds\": {}, \"warm_seconds\": {}, \"cold_seconds\": {}, \
             \"open_pct_of_encode\": {}, \"stats_source_cold\": \"persisted\", \
             \"ab_identical\": true}},\n",
            json_f64(encode_s * 1e3),
            json_f64(write_s * 1e3),
            json_f64(open_s * 1e3),
            json_f64(reencode_s),
            json_f64(warm_s),
            json_f64(cold_s),
            json_f64(100.0 * open_s / encode_s.max(1e-12)),
        )
    };

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"matching\",\n",
            "  \"workload\": \"eid_bench::scaling_workload(n, 42), full refutation\",\n",
            "  \"metric\": \"pairs_per_sec = |R|*|S| / best-of-N wall seconds (N sized to ~0.6-1.2s)\",\n",
            "{}",
            "{}",
            "{}",
            "  \"sizes\": [\n{}\n  ]\n",
            "}}\n"
        ),
        scaling_json,
        spill_json,
        store_json,
        size_objects.join(",\n")
    );

    // One *extra* traced run at the largest size (outside the timed
    // reps, so tracing overhead never touches the numbers above),
    // exported as Chrome trace_event JSON for Perfetto.
    if let Some(path) = trace_out {
        let n = sizes.iter().copied().max().unwrap_or(0);
        let w = scaling_workload(n, 42);
        let mut config = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
        config.join = JoinAlgorithm::Blocked;
        config.threads = 0;
        config.kernels = kernels;
        config.emit = emit;
        config.trace = true;
        let outcome = EntityMatcher::new(w.r.clone(), w.s.clone(), config)
            .unwrap()
            .run()
            .unwrap();
        let trace = outcome.trace.expect("traced blocked run yields a timeline");
        std::fs::write(&path, trace.to_chrome_json()).expect("write trace JSON");
        eprintln!(
            "wrote {path} (n={n}, {} slices) — load in Perfetto or chrome://tracing",
            trace.slice_count()
        );
    }

    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    if let Some(g) = export_guard.as_mut() {
        g.set_keep(true);
    }
    eprintln!("wrote {out_path}");
    println!("{json}");
}
