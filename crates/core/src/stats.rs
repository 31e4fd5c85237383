//! The engine's observability vocabulary — every span path and
//! counter name the matcher, blocked engine, and incremental matcher
//! record, as constants.
//!
//! Both the invariant tests and downstream consumers (the `eid` CLI,
//! the benchmark harness) key off these names; keeping them here
//! makes a typo a compile error instead of a silently absent counter.
//! The prose glossary lives in DESIGN.md §"Observability".

/// Span paths (`/`-separated; reports indent by hierarchy).
pub mod span {
    /// Whole [`EntityMatcher::run`](crate::EntityMatcher::run) call.
    pub const MATCH: &str = "match";
    /// Extension + ILFD derivation of both sides.
    pub const DERIVE: &str = "match/derive";
    /// Extension + ILFD derivation of `R`.
    pub const DERIVE_R: &str = "match/derive/r";
    /// Extension + ILFD derivation of `S`.
    pub const DERIVE_S: &str = "match/derive/s";
    /// Blocked-engine wall time (compile + index + task queue).
    pub const ENGINE: &str = "match/engine";
    /// Rule-base precompilation inside the engine.
    pub const ENGINE_COMPILE: &str = "match/engine/compile";
    /// Value interning + columnar encoding of both relations inside
    /// the engine.
    pub const ENGINE_ENCODE: &str = "match/engine/encode";
    /// Eager index construction + plan preparation inside the engine.
    pub const ENGINE_INDEX: &str = "match/engine/index";
    /// Identity block-plan tasks — *busy* time summed across
    /// workers, so it can exceed the parent's wall time.
    pub const ENGINE_IDENTITY: &str = "match/engine/identity";
    /// Distinctness block-plan tasks (busy time).
    pub const ENGINE_REFUTE: &str = "match/engine/refute";
    /// Residual pairwise-scan chunks (busy time).
    pub const ENGINE_RESIDUAL: &str = "match/engine/residual";
    /// Row-index pairs → keyed pair tables (dedup + projection).
    pub const CONVERT: &str = "match/convert";
    /// Post-scope merge of the streamed per-worker sink shards into
    /// one deduped pair set (streamed emission only).
    pub const ENGINE_SINK_MERGE: &str = "match/engine/sink_merge";
    /// Spill flushes: resident shards written to the per-worker spill
    /// file at a task boundary (spilled emission only).
    pub const ENGINE_SINK_SPILL: &str = "match/engine/sink_spill";
}

/// Counter names (`group/name`; per-rule counters are built with
/// [`rule_counter`]).
pub mod counter {
    /// Rules in the source [`RuleBase`](eid_rules::RuleBase).
    pub const COMPILE_SOURCE_RULES: &str = "compile/source_rules";
    /// Compiled orientations kept.
    pub const COMPILE_COMPILED: &str = "compile/compiled";
    /// Symmetric orientation pairs folded into one.
    pub const COMPILE_SYMMETRIC_FOLDED: &str = "compile/symmetric_folded";
    /// Orientations dropped as unsatisfiable against the schemas.
    pub const COMPILE_DEAD_ORIENTATIONS: &str = "compile/dead_orientations";

    /// Worker threads the engine actually ran with.
    pub const ENGINE_WORKERS: &str = "engine/workers";
    /// Tasks (block plans + residual chunks) executed.
    pub const ENGINE_TASKS: &str = "engine/tasks";
    /// 1 when the auto-parallel engine chose the serial path for a
    /// small input, 0 (absent) otherwise.
    pub const ENGINE_SERIAL_FALLBACK: &str = "engine/serial_fallback";
    /// Tasks lost to a worker panic before the degradation ladder
    /// recovered the run (0 on a clean run).
    pub const ENGINE_ABORTED_TASKS: &str = "engine/aborted_tasks";

    /// Runtime: 1 when the parallel arm degraded to the serial
    /// blocked rerun after a task poisoned.
    pub const RUNTIME_DEGRADED_TO_BLOCKED: &str = "runtime/degraded_to_blocked";
    /// Runtime: 1 when the serial blocked rerun also poisoned and the
    /// run fell back to the exhaustive nested-loop arm.
    pub const RUNTIME_DEGRADED_TO_NESTED_LOOP: &str = "runtime/degraded_to_nested_loop";
    /// Runtime: 1 when the memory budget ruled out building blocked
    /// indexes and the engine planned everything as residual scans.
    pub const RUNTIME_DEGRADED_INDEX_MEM: &str = "runtime/degraded_index_mem";
    /// Runtime: columnar encode attempts retried after interner
    /// poisoning.
    pub const RUNTIME_ENCODE_RETRIES: &str = "runtime/encode_retries";
    /// Runtime: 1 when the parallel convert worker was bypassed and
    /// dedup ran serially on the main thread.
    pub const RUNTIME_CONVERT_SERIAL_FALLBACK: &str = "runtime/convert_serial_fallback";

    /// Ingestion: CSV rows rejected and skipped in `--lenient` mode.
    pub const INGEST_ROWS_REJECTED: &str = "ingest/rows_rejected";

    /// Candidate pairs emitted by all block plans (pre-verification).
    pub const BLOCK_CANDIDATES: &str = "block/candidates";
    /// Candidates confirmed by the full compiled rule.
    pub const BLOCK_ACCEPTED: &str = "block/accepted";
    /// Candidates the verification check rejected
    /// (`candidates − accepted`; blocking imprecision).
    pub const BLOCK_REJECTED: &str = "block/rejected";

    /// Kernel invocations (one vectorized scan over a row range or
    /// gather batch).
    pub const KERNEL_BATCHES: &str = "kernel/batches";
    /// Rows the kernels evaluated in full lane-wide chunks.
    pub const KERNEL_LANES_USED: &str = "kernel/lanes_used";
    /// Rows the kernels fell back to scalar tails for (range length
    /// not a multiple of the lane width, or short gather batches).
    pub const KERNEL_SCALAR_FALLBACK: &str = "kernel/scalar_fallback";

    /// Residual-scan pairs visited (quadratic fallback volume).
    pub const RESIDUAL_PAIRS: &str = "residual/pairs";
    /// Residual pairs on which an identity rule fired.
    pub const RESIDUAL_MATCHED: &str = "residual/matched";
    /// Residual pairs on which a distinctness rule fired.
    pub const RESIDUAL_REFUTED: &str = "residual/refuted";

    /// `|MT_RS|` — matching-table size after dedup.
    pub const CLASSIFY_MT: &str = "classify/mt";
    /// `|NMT_RS|` — negative-table size after dedup.
    pub const CLASSIFY_NMT: &str = "classify/nmt";
    /// Pairs recorded in both tables (inconsistent knowledge).
    pub const CLASSIFY_OVERLAP: &str = "classify/overlap";
    /// Undetermined pairs (Figure 3's middle region).
    pub const CLASSIFY_UNDETERMINED: &str = "classify/undetermined";
    /// `|R|·|S|` — the full pair space.
    pub const CLASSIFY_PAIRS_TOTAL: &str = "classify/pairs_total";

    /// Tuples pushed through ILFD derivation (both sides).
    pub const DERIVE_TUPLES: &str = "derive/tuples";
    /// Tuples answered from the derivation memo.
    pub const DERIVE_MEMO_HITS: &str = "derive/memo_hits";
    /// Distinct projections actually derived.
    pub const DERIVE_MEMO_MISSES: &str = "derive/memo_misses";
    /// Attribute values filled in by ILFDs.
    pub const DERIVE_ASSIGNED: &str = "derive/assigned";

    /// Distinct values interned for the run (interner population,
    /// including rule constants and the NULL symbol).
    pub const ALLOC_VALUES_INTERNED: &str = "alloc/values_interned";
    /// Key tuples materialized while building pair tables — the
    /// allocation volume of the convert step: one per *row* (shared
    /// key pools), whichever arm ran.
    pub const ALLOC_TUPLES_MATERIALIZED: &str = "alloc/tuples_materialized";

    /// Plan cache: runs answered from the matcher's cached plan.
    pub const PLAN_CACHE_HITS: &str = "plan/cache_hits";
    /// Plan cache: runs that had to invoke the planner.
    pub const PLAN_CACHE_MISSES: &str = "plan/cache_misses";
    /// Probe/refute/vector nodes whose actual candidate volume
    /// drifted ≥ [`crate::explain::DRIFT_FACTOR`]× from the planner's
    /// estimate (either direction). 0 means the cost model held.
    pub const PLAN_DRIFT_NODES: &str = "plan/drift_nodes";

    /// Measured bytes allocated during the run (present only when the
    /// `count-alloc` feature's counting allocator is installed).
    pub const ALLOC_MEASURED_BYTES: &str = "alloc/measured_bytes";
    /// Measured bytes freed during the run (counting allocator only).
    pub const ALLOC_MEASURED_FREED: &str = "alloc/measured_freed";
    /// Process-wide peak live bytes (counting allocator only).
    pub const ALLOC_PEAK_BYTES: &str = "alloc/peak_bytes";
    /// Measured bytes attributed to the derive stage.
    pub const ALLOC_STAGE_DERIVE: &str = "alloc/stage/derive";
    /// Measured bytes attributed to the engine stage.
    pub const ALLOC_STAGE_ENGINE: &str = "alloc/stage/engine";
    /// Measured bytes attributed to the convert stage.
    pub const ALLOC_STAGE_CONVERT: &str = "alloc/stage/convert";

    /// Streamed emission: bitset shards allocated across all workers
    /// (absent on buffered runs).
    pub const SINK_SHARDS: &str = "sink/shards";
    /// Streamed emission: shard ranges more than one worker touched,
    /// merged by OR post-scope. 0 means perfect row-range locality.
    pub const SINK_SPILLED_MERGES: &str = "sink/spilled_merges";
    /// Streamed emission: total shard bytes the workers allocated —
    /// the streamed twin of the buffered path's 8·pairs volume.
    pub const SINK_BYTES: &str = "sink/bytes";
    /// Spilled emission: bytes written to spill files (segment
    /// headers included; absent when nothing spilled).
    pub const SINK_SPILL_BYTES: &str = "sink/spill_bytes";
    /// Spilled emission: shard segments written to spill files.
    pub const SINK_SPILL_SHARDS: &str = "sink/spill_shards";
    /// Spill I/O attempts that failed and were retried with backoff
    /// (write, read, or open) before succeeding or giving up.
    pub const RUNTIME_IO_RETRIES: &str = "runtime/io_retries";
    /// Runtime: 1 when the executor degraded the plan to spilled
    /// emission up front because the estimated pair bytes exceeded
    /// the memory budget.
    pub const RUNTIME_DEGRADED_TO_SPILL: &str = "runtime/degraded_to_spill";
    /// Runtime: 1 when spilled emission failed (spill I/O exhausted
    /// its retries) and the run fell back to the streamed rung.
    pub const RUNTIME_SPILL_FALLBACK: &str = "runtime/spill_fallback";

    /// Trace: slice groups dropped because a per-worker sink filled
    /// (0 on any reasonable run; boundedness made observable).
    pub const TRACE_DROPPED: &str = "trace/dropped";

    /// Incremental: tuple insertions processed.
    pub const INCR_INSERTS: &str = "incremental/inserts";
    /// Incremental: distinct ILFDs added.
    pub const INCR_ILFDS_ADDED: &str = "incremental/ilfds_added";
    /// Incremental: pairs newly proven matching across all events.
    pub const INCR_PROMOTED: &str = "incremental/promoted";
    /// Incremental: pairs newly proven distinct across all events.
    pub const INCR_REFUTED: &str = "incremental/refuted";
    /// Incremental: events after which a pair table *shrank*. §3.3
    /// monotonicity says this must stay 0; the counter exists so the
    /// invariant is observable, not assumed.
    pub const INCR_MONOTONICITY_VIOLATIONS: &str = "incremental/monotonicity_violations";
}

/// Label names (string-valued report annotations).
pub mod label {
    /// Which engine arm produced the published tables after any
    /// degradation: `"blocked_parallel"`, `"blocked"`, or
    /// `"nested_loop"`.
    pub const ENGINE_ARM: &str = "engine";
    /// The abort reason when a run tripped its guard (absent on
    /// successful runs).
    pub const ABORT: &str = "abort";
    /// The planner's execution-mode decision and its one-line
    /// rationale, e.g. `"parallel(8): est. 10240000 candidate pairs"`.
    pub const PLAN_MODE: &str = "plan/mode";
    /// The planner's emission decision (`"buffered"` /
    /// `"streamed(<shards>)"` / `"spilled(<shards>)"`) and its
    /// rationale.
    pub const PLAN_EMIT: &str = "plan/emit";
    /// Where the planner's column statistics came from:
    /// `"computed"` (freshly encoded this run) or `"persisted"`
    /// (read back from a dataset store).
    pub const PLAN_STATS: &str = "plan/stats";
}

/// Histogram names.
pub mod histogram {
    /// Per-task wall time inside the blocked engine's queue.
    pub const ENGINE_TASK_NANOS: &str = "engine/task_nanos";
}

/// The name of a per-rule blocking counter:
/// `rule/{identity|distinct}/<rule>/{candidates|accepted}`.
pub fn rule_counter(family: &str, rule: &str, what: &str) -> String {
    format!("rule/{family}/{rule}/{what}")
}

/// Stage slots for the counting allocator's thread-scoped
/// attribution ([`eid_obs::alloc::StageScope`]). Slot 0 is the
/// untagged default.
pub mod alloc_slot {
    /// Untagged allocations (setup, reporting, caller code).
    pub const OTHER: usize = 0;
    /// ILFD extension + derivation.
    pub const DERIVE: usize = 1;
    /// The plan executor (indexes, tasks, pair lists).
    pub const ENGINE: usize = 2;
    /// Pair-list dedup + table conversion.
    pub const CONVERT: usize = 3;
}

/// The name of a per-plan-node counter:
/// `plan/node/<id>/{candidates|accepted|pairs|matched|refuted|nanos|tasks|batches}`
/// — joinable back to the plan JSON by node id. `nanos` is busy time
/// summed across workers; `tasks` counts the engine tasks lowered
/// from the node; `batches` counts its kernel invocations.
pub fn node_counter(node: usize, what: &str) -> String {
    format!("plan/node/{node}/{what}")
}

/// The label under which the planner records its chosen blocking key
/// for one identity rule: `plan/key/<rule>`.
pub fn plan_key_label(rule: &str) -> String {
    format!("plan/key/{rule}")
}
