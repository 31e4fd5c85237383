//! Invariant properties of the execution timeline attached to
//! [`MatchOutcome::trace`]: every worker's slice stream must be
//! balanced (begin/end nest like a stack) and chronological, the
//! slice population must reconcile with the engine's task and kernel
//! counters, and — above all — tracing must be a pure observer:
//! the traced run classifies every pair exactly as the untraced one.

use proptest::prelude::*;

use entity_id::core::stats::{counter, span};
use entity_id::datagen::{generate, GeneratorConfig};
use entity_id::obs::{Trace, TracePhase};
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

fn run_with_trace(w_r: &Relation, w_s: &Relation, config: &MatchConfig) -> MatchOutcome {
    let mut config = config.clone();
    config.trace = true;
    EntityMatcher::new(w_r.clone(), w_s.clone(), config)
        .unwrap()
        .run()
        .unwrap()
}

/// The task-level begin events — the outermost slice of each engine
/// task, excluding the nested kernel-tile slices and the sink slices
/// (spill flushes, and the post-scope shard merge of a streamed run).
fn task_begins(trace: &Trace) -> Vec<&entity_id::obs::TraceEvent> {
    trace
        .events
        .iter()
        .filter(|e| {
            e.phase == TracePhase::Begin
                && ![
                    "kernel/tile",
                    span::ENGINE_SINK_MERGE,
                    span::ENGINE_SINK_SPILL,
                ]
                .contains(&&*e.name)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On arbitrary worlds the captured timeline is well-formed and
    /// reconciles with the run's counters.
    #[test]
    fn traces_are_balanced_chronological_and_reconcile(config in arb_config()) {
        let w = generate(&config);
        let c = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
        let outcome = run_with_trace(&w.r, &w.s, &c);
        let trace = outcome.trace.as_ref().expect("traced blocked run yields a timeline");
        let s = &outcome.stats;

        // Begin/end events nest like a stack on every worker track,
        // and each worker's stream is chronological.
        prop_assert!(trace.balanced(), "unbalanced begin/end");
        prop_assert!(trace.timestamps_monotonic(), "worker stream not chronological");

        // One outermost slice per engine task, with distinct task ids.
        let begins = task_begins(trace);
        let tasks = s.counter(counter::ENGINE_TASKS);
        prop_assert_eq!(begins.len() as u64, tasks, "one slice per task");
        let mut ids: Vec<u32> = begins.iter().map(|e| e.task).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len() as u64, tasks, "task ids collide");

        // Every slice's worker track exists: ids below the recorded
        // worker count (serial runs put everything on track 0).
        let workers = s.counter(counter::ENGINE_WORKERS);
        prop_assert!(
            trace.events.iter().all(|e| u64::from(e.worker) < workers),
            "slice on an unknown worker track"
        );

        // Task-level batch annotations reconcile with the kernel
        // tally: tasks carry only the probe/scan batches, while the
        // kernel/batches counter also counts the build-phase kernels,
        // so the slice sum is a lower bound.
        let slice_batches: u64 = begins.iter().map(|e| e.batches).sum();
        prop_assert!(
            slice_batches <= s.counter(counter::KERNEL_BATCHES),
            "slices claim more batches ({slice_batches}) than the kernels ran"
        );

        // Boundedness is observable, not silent: the dropped count in
        // the trace is the dropped count in the report.
        prop_assert_eq!(trace.dropped, s.counter(counter::TRACE_DROPPED));

        // The serializer emits loadable Chrome trace_event JSON: the
        // envelope, one thread_name metadata record per worker track,
        // and every event as a B/E record.
        let json = trace.to_chrome_json();
        prop_assert!(json.starts_with("{\"traceEvents\":["));
        prop_assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        let tracks: std::collections::BTreeSet<u32> =
            trace.events.iter().map(|e| e.worker).collect();
        prop_assert_eq!(
            json.matches("\"thread_name\"").count(),
            tracks.len(),
            "one thread_name record per worker track"
        );
        prop_assert_eq!(
            json.matches("\"ph\":\"B\"").count() + json.matches("\"ph\":\"E\"").count(),
            trace.events.len(),
            "every event serialized"
        );
    }

    /// Tracing is an observer, never a participant: the traced run
    /// and the untraced run classify identically, and only the traced
    /// one carries a timeline.
    #[test]
    fn tracing_does_not_change_classification(mut config in arb_config()) {
        config.n_entities = config.n_entities.min(30);
        let w = generate(&config);
        let c = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
        let plain = EntityMatcher::new(w.r.clone(), w.s.clone(), c.clone())
            .unwrap()
            .run()
            .unwrap();
        prop_assert!(plain.trace.is_none(), "untraced run grew a timeline");
        let traced = run_with_trace(&w.r, &w.s, &c);
        for name in [
            counter::CLASSIFY_MT,
            counter::CLASSIFY_NMT,
            counter::CLASSIFY_OVERLAP,
            counter::CLASSIFY_UNDETERMINED,
            counter::BLOCK_CANDIDATES,
            counter::BLOCK_ACCEPTED,
        ] {
            prop_assert_eq!(
                traced.stats.counter(name),
                plain.stats.counter(name),
                "tracing changed {}",
                name
            );
        }
    }
}

/// Deterministic spot check: a parallel run spreads slices across
/// more than one worker track, and every executed plan node appears
/// as a slice name at least once.
#[test]
fn parallel_trace_covers_workers_and_plan_nodes() {
    let config = GeneratorConfig {
        n_entities: 400,
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
    c.threads = 2;
    c.trace = true;
    let matcher = EntityMatcher::new(w.r.clone(), w.s.clone(), c).unwrap();
    let outcome = matcher.run().unwrap();
    let trace = outcome.trace.as_ref().expect("trace captured");
    let plan = matcher.plan().unwrap();

    let tracks: std::collections::BTreeSet<u32> = trace.events.iter().map(|e| e.worker).collect();
    assert!(
        tracks.len() >= 2,
        "expected ≥ 2 worker tracks, got {tracks:?}"
    );

    // Node ids riding the events join back to the plan: every
    // executed node (tasks counter > 0) has at least one slice, and
    // the slice carries that node's span as its name.
    let node_events: std::collections::BTreeMap<u32, &str> = trace
        .events
        .iter()
        .filter(|e| e.phase == TracePhase::Begin && &*e.name != "kernel/tile")
        .map(|e| (e.node, &*e.name))
        .collect();
    for node in plan.nodes.iter() {
        let tasks = outcome
            .stats
            .counter(&entity_id::core::stats::node_counter(node.id, "tasks"));
        if tasks == 0 {
            continue;
        }
        let name = node_events
            .get(&(node.id as u32))
            .unwrap_or_else(|| panic!("executed node {} has no slice", node.id));
        assert_eq!(*name, node.span, "slice name is the node's span");
    }
}
