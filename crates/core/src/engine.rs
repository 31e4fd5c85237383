//! The match-plan executor — precompiled rules lowered into interned
//! symbol space, inverted-index blocking over columnar storage, and
//! candidate-pair-chunked data parallelism, all driven by the typed
//! [`MatchPlan`] IR.
//!
//! The seed refutation path evaluates every rule on all `|R|·|S|`
//! pairs, resolving attribute names against schemas per predicate.
//! This engine kills that hot path in four stacked steps:
//!
//! 1. **Precompilation** ([`eid_rules::compiled`]): the rule base is
//!    compiled once per run into positional evaluators — no name
//!    lookups inside the pair loop, dead orientations dropped,
//!    constants folded.
//! 2. **Interning** ([`eid_relational::Interner`]): the extended
//!    relations are encoded once into columnar `u32` symbol ids
//!    ([`Columns`]) and the compiled rules are lowered to
//!    [`InternedRule`]s over them — every hot `=`/`≠` predicate is a
//!    single integer compare against cache-resident columns, with no
//!    `Value` cloning or `Arc<str>` chasing anywhere in the pair
//!    loop.
//! 3. **Blocking**: the [`Planner`] chooses,
//!    per rule, a probe strategy from column statistics — an identity
//!    rule becomes a hash join on its most selective blocking-key
//!    columns, an ILFD-induced distinctness rule a disagreement
//!    probe, and non-indexable rules fuse into an interned pairwise
//!    scan (the *residual* path).
//! 4. **Parallelism**: each plan's driver rows are split into chunks
//!    of roughly equal *candidate-pair* weight, and the chunks form a
//!    task queue drained by `std::thread::scope` workers. The task
//!    list does not depend on the worker count and per-task results
//!    are merged in task order, so the output is identical for any
//!    thread count — and for any sound blocking-key choice.
//!
//! Every candidate pair a probe node emits is re-checked with the
//! full interned rule before it is reported, which keeps the executor
//! *sound* by construction (and makes the planner's key choice a pure
//! performance decision). Completeness of symbol equality is exact:
//! by the interner's contract, two non-NULL symbols are equal iff
//! [`Value::compare`](eid_relational::Value::compare) returns `Equal`.
//!
//! **Hardening** (DESIGN.md §9): runs are guarded by a [`RunGuard`] —
//! budgets and cancellation are checked at *task* boundaries, each
//! task executes under `catch_unwind`, and a poisoned task degrades
//! the run down the ladder, now expressed as plan rewrites:
//! [`MatchPlan::rewrite_serial`] (serial twin, byte-identical
//! output), then [`MatchPlan::rewrite_index_free`] +
//! `rewrite_serial` (the nested-loop arm, same output *set*). The
//! serial rerun discards all partial results, so its output is
//! byte-identical to a fault-free serial run. An aborted or poisoned
//! attempt never flushes its half-finished task accounting into the
//! recorder.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::borrow::Cow;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use eid_obs::trace::DEFAULT_SINK_CAPACITY;
use eid_obs::{Recorder, Trace, TraceEvent, TraceSink};
use eid_relational::{ColumnStat, Columns, FxHashMap, Interner, Relation, Sym, Tuple, NULL_SYM};
use eid_rules::{
    CompiledRuleBase, InternedDistinctShape, InternedIdentityShape, InternedRule, InternedRuleBase,
    KernelShape, NeqSide, RuleBase,
};

use crate::error::{CoreError, Result};
use crate::kernels::{self, KernelTally, Mask, Term, TermOp, FULL_MASK, LANES};
use crate::plan::{
    ArmHint, Emit, EmitHint, EmitMode, ExecMode, MatchPlan, PlanNodeKind, ProbeStrategy,
    RuleFamily, StatsSource,
};
use crate::planner::Planner;
use crate::runtime::{AbortReason, RunGuard};
use crate::sink::{
    self, PairSet, PairSink, ShardedSink, SinkGeometry, SinkMergeStats, SpillDirGuard, SpillSink,
    SpillStats,
};
use crate::stats::{counter, histogram, label, node_counter, rule_counter, span};

/// Target candidate-pair weight of one task. Small enough that every
/// worker stays busy even when one rule dominates the candidate
/// volume, large enough that per-task accounting is noise.
const CHUNK_TARGET_PAIRS: u64 = 32_768;

/// Upper bound on tasks per plan (a backstop for enormous inputs;
/// per-task overhead is ~1µs, so even this many is cheap).
const MAX_CHUNKS_PER_PLAN: u64 = 256;

/// Ceiling on the per-task output reservation derived from the
/// chunk's candidate weight (1M pairs = 8 MiB); a backstop so a
/// degenerate weight estimate cannot trigger a giant allocation.
const TASK_RESERVE_CAP: u64 = 1 << 20;

/// Pair lists produced by one executor run, as row indices into the
/// two (extended) relations. On the buffered path duplicates may
/// appear in `negative` when several rules fire on the same pair
/// (the matcher dedups on row-index pairs while converting); on the
/// streamed path the negative pairs arrive pre-deduped in
/// `negative_set` and `negative` stays empty.
#[derive(Debug, Clone, Default)]
pub struct EnginePairs {
    /// Pairs on which an identity rule definitely fired.
    pub matching: Vec<(u32, u32)>,
    /// Pairs on which a distinctness rule definitely fired (buffered
    /// emission; empty when the run streamed).
    pub negative: Vec<(u32, u32)>,
    /// The deduped negative pairs when the plan streamed emission
    /// into sharded bitsets; `None` on buffered runs.
    pub negative_set: Option<PairSet>,
}

impl EnginePairs {
    /// The negative pairs as an explicit list regardless of emit
    /// mode: the buffered raw list as-is (duplicates included, in
    /// historical emission order), or the streamed set decoded in
    /// ascending `(i, j)` order (already distinct).
    pub fn negative_pairs(&self) -> Vec<(u32, u32)> {
        match &self.negative_set {
            Some(set) => set.to_pairs(),
            None => self.negative.clone(),
        }
    }

    /// Negative pair count visible in this result: the raw list
    /// length when buffered, the distinct count when streamed.
    pub fn negative_len(&self) -> usize {
        match &self.negative_set {
            Some(set) => set.count(),
            None => self.negative.len(),
        }
    }
}

/// Which of the two encoded relations an operation addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelSide {
    /// The `R` (extended) relation.
    R,
    /// The `S` (extended) relation.
    S,
}

impl From<NeqSide> for RelSide {
    fn from(n: NeqSide) -> RelSide {
        match n {
            NeqSide::R => RelSide::R,
            NeqSide::S => RelSide::S,
        }
    }
}

impl RelSide {
    fn opposite(self) -> RelSide {
        match self {
            RelSide::R => RelSide::S,
            RelSide::S => RelSide::R,
        }
    }
}

/// How one lowered plan enumerates candidate pairs.
enum PlanKind<'e> {
    /// Hash-join / literal-probe plan for one identity rule; drivers
    /// are the `R`-side rows surviving the literal filter.
    /// `positions` is the planner-chosen blocking key (`None` for
    /// the literal-filtered cross product of join-free rules).
    Identity {
        rule: &'e InternedRule,
        shape: InternedIdentityShape,
        positions: Option<Vec<usize>>,
    },
    /// Literal-probe × disagreement-scan plan for one distinctness
    /// rule; drivers are the `≠`-side rows that disagree with the
    /// constant (or satisfy their own literals).
    Distinct {
        rule: &'e InternedRule,
        shape: InternedDistinctShape,
    },
    /// Kernel-dispatched identity plan: per driver, the `S` side is
    /// scanned in L2-sized tiles with the conjunctive equality kernel
    /// instead of probing an index — the planner emits this when the
    /// blocking key is non-selective enough that a probe would touch
    /// every row anyway. Byte-identical to the `Identity` probe twin.
    VectorEq {
        rule: &'e InternedRule,
        shape: InternedIdentityShape,
        tile: usize,
    },
    /// Kernel-dispatched distinctness plan: drivers are produced by
    /// the disagreement kernel over the `≠` column (every driver
    /// *definitely* fires against every literal-block row, so
    /// execution is pure bulk pair emission — no per-pair rule
    /// evaluation at all). Byte-identical to the `Distinct` twin.
    VectorDisagree {
        rule: &'e InternedRule,
        shape: InternedDistinctShape,
    },
    /// Interned pairwise scan of non-indexable rules (all `Scan`
    /// strategies fused); drivers are all `R` rows. Kernel-shaped
    /// rules are additionally precompiled into [`ResidualVec`] term
    /// lists so the tiled scan can evaluate them lane-wide, with the
    /// remaining rules falling back to scalar `fires` per pair.
    Residual {
        identity: Vec<&'e InternedRule>,
        distinct: Vec<&'e InternedRule>,
        vec_rules: Vec<ResidualVec>,
    },
}

/// One residual rule precompiled for tiled lane-wide evaluation:
/// driver-row checks resolved per `R` row, then a conjunction of
/// `S`-column terms the kernels evaluate 16 lanes at a time.
struct ResidualVec {
    /// Fires into the matching (identity) or negative (distinctness)
    /// list.
    is_identity: bool,
    /// (`R` column, symbol, op) checks on the driver row; all must
    /// pass (3-valued: NULL never passes) or the rule is inactive for
    /// that driver.
    r_checks: Vec<(usize, Sym, TermOp)>,
    /// (`R` position, `S` position) join pairs — the `S` term's
    /// symbol is gathered from the driver row (NULL deactivates).
    joins: Vec<(usize, usize)>,
    /// (`S` column, symbol, op) constant terms.
    s_consts: Vec<(usize, Sym, TermOp)>,
}

impl ResidualVec {
    /// Precompiles one kernel-shaped rule; `None` when the rule is
    /// not kernel-eligible (evaluated scalar instead).
    fn build(rule: &InternedRule, is_identity: bool) -> Option<ResidualVec> {
        rule.kernel_shape()?;
        let eq = |lits: &[(usize, Sym)]| -> Vec<(usize, Sym, TermOp)> {
            lits.iter().map(|&(p, s)| (p, s, TermOp::Eq)).collect()
        };
        if is_identity {
            let shape = rule.identity_shape()?;
            Some(ResidualVec {
                is_identity,
                r_checks: eq(&shape.r_lits),
                joins: shape.join.clone(),
                s_consts: eq(&shape.s_lits),
            })
        } else {
            let shape = rule.distinct_shape()?;
            let mut r_checks = eq(&shape.r_lits);
            let mut s_consts = eq(&shape.s_lits);
            match shape.neq.0 {
                NeqSide::R => r_checks.push((shape.neq.1, shape.neq.2, TermOp::Ne)),
                NeqSide::S => s_consts.push((shape.neq.1, shape.neq.2, TermOp::Ne)),
            }
            Some(ResidualVec {
                is_identity,
                r_checks,
                joins: Vec::new(),
                s_consts,
            })
        }
    }
}

/// Per-driver candidate-pair weights of a plan.
enum PlanWeights {
    /// Every driver contributes the same number of candidates.
    Uniform(u64),
    /// Per-driver candidate counts (identity hash joins: the probe
    /// result sizes).
    Per(Vec<u32>),
}

/// One lowered probe plan with its precomputed driver rows and
/// weights — the unit the chunker splits into tasks.
struct Plan<'e> {
    kind: PlanKind<'e>,
    /// The [`MatchPlan`] node this plan executes (per-node report).
    node: usize,
    drivers: Vec<u32>,
    weights: PlanWeights,
}

impl Plan<'_> {
    fn total_weight(&self) -> u64 {
        match &self.weights {
            PlanWeights::Uniform(w) => w * self.drivers.len() as u64,
            PlanWeights::Per(v) => v.iter().map(|&x| x as u64).sum(),
        }
    }

    fn weight(&self, i: usize) -> u64 {
        match &self.weights {
            PlanWeights::Uniform(w) => *w,
            PlanWeights::Per(v) => v[i] as u64,
        }
    }
}

/// One unit of work: a contiguous driver range of one plan.
struct Task {
    plan: usize,
    drivers: Range<usize>,
    /// Exact candidate-pair weight of this chunk — the capacity hint
    /// for refutation output (accept rate there is near 1).
    est_pairs: u64,
}

/// Per-task accounting carried back to the main thread. Workers never
/// touch the recorder (its maps are mutex-guarded; contended lock
/// hops on the hot path would serialize the scan) — the main thread
/// flushes every report after the scope ends. Timeline data rides
/// the same channel: when tracing is on, the task's epoch-relative
/// span and tile slices travel here and are replayed into per-worker
/// [`TraceSink`]s post-scope.
struct TaskReport {
    nanos: u64,
    tally: Tally,
    /// Kernel batch accounting for this task (zero on scalar paths).
    kernel: KernelTally,
    /// The worker that drained this task (the coordinating thread is
    /// worker 0); stamped at the drain loop, read at trace replay.
    worker: u32,
    /// Negative pairs this task pushed into its worker's streaming
    /// sink (0 on buffered runs) — the streamed twin of
    /// `negative.len()` for abort accounting; stamped at the drain
    /// loop.
    neg_pushed: u64,
    /// The task's timeline contribution (`None` when tracing is off).
    trace: Option<TaskTrace>,
    /// A spill flush that followed this task, as an epoch-relative
    /// `(start, duration, bytes freed)` trace slice (`None` when
    /// tracing is off or nothing spilled).
    spill_trace: Option<(u64, u64, u64)>,
}

/// The post-scope merge of a streamed attempt's per-worker sinks:
/// the deduped negative [`PairSet`] plus the accounting `finish`
/// publishes (sink counters, the merge span, the Sink node's
/// actuals).
struct MergedSink {
    set: PairSet,
    stats: SinkMergeStats,
    /// Summed spill counters of the attempt's [`SpillSink`]s (`None`
    /// on streamed runs) — `sink/spill_*` and `runtime/io_retries`.
    spill: Option<SpillStats>,
    /// Merge start on the run epoch's time axis (trace slice).
    start_nanos: u64,
    dur_nanos: u64,
}

/// One worker's negative-pair sink for a streamed or spilled attempt.
/// Push traffic delegates to the underlying [`ShardedSink`] either
/// way; the spilled variant additionally flushes resident shards to
/// its per-worker temp file at task boundaries.
enum WorkerSink {
    Mem(ShardedSink),
    Spill(SpillSink),
}

impl WorkerSink {
    fn pushes(&self) -> u64 {
        match self {
            WorkerSink::Mem(s) => s.pushes(),
            WorkerSink::Spill(s) => s.pushes(),
        }
    }

    fn take_new_bytes(&mut self) -> u64 {
        match self {
            WorkerSink::Mem(s) => s.take_new_bytes(),
            WorkerSink::Spill(s) => s.take_new_bytes(),
        }
    }
}

impl PairSink for WorkerSink {
    fn push(&mut self, i: u32, j: u32) {
        match self {
            WorkerSink::Mem(s) => s.push(i, j),
            WorkerSink::Spill(s) => s.push(i, j),
        }
    }

    fn push_row(&mut self, i: u32, js: &[u32]) {
        match self {
            WorkerSink::Mem(s) => s.push_row(i, js),
            WorkerSink::Spill(s) => s.push_row(i, js),
        }
    }

    fn push_rows(&mut self, is: &[u32], js: &[u32]) {
        match self {
            WorkerSink::Mem(s) => s.push_rows(is, js),
            WorkerSink::Spill(s) => s.push_rows(is, js),
        }
    }
}

/// A spilled attempt's resolved emission parameters: where the run
/// directory goes and how many resident bytes each worker may hold.
struct SpillConfig {
    /// Parent directory for the run's spill dir (the plan's `dir`, or
    /// the platform temp dir when empty).
    parent: PathBuf,
    /// Per-worker resident-shard cap (floored so a worker can always
    /// hold the shard it is writing).
    shard_bytes: u64,
    /// `--keep-spill`: leave the run directory behind on drop.
    keep: bool,
}

/// One task's timeline contribution: its span relative to the run
/// epoch plus any nested kernel-tile slices.
struct TaskTrace {
    /// Nanoseconds from the run epoch to task start.
    start_nanos: u64,
    /// Task wall time in nanoseconds.
    dur_nanos: u64,
    /// `(start, duration, batches)` per recorded kernel tile, epoch-
    /// relative and chronological.
    tiles: Vec<(u64, u64, u64)>,
}

/// Hard cap on recorded tile slices per task: a pathological residual
/// scan keeps its first tiles rather than growing without bound (the
/// task-level slice still covers the full duration).
const MAX_TILE_SLICES: usize = 1024;

/// Worker-side tile recorder, allocated per task only when tracing is
/// enabled. It never touches shared state — tiles accumulate locally
/// and ride back inside the [`TaskReport`].
struct TaskTracer {
    epoch: Instant,
    tiles: Vec<(u64, u64, u64)>,
}

impl TaskTracer {
    fn new(epoch: Instant) -> TaskTracer {
        TaskTracer {
            epoch,
            tiles: Vec::new(),
        }
    }

    /// Nanoseconds since the run epoch.
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Records one tile slice that started at epoch-relative `start`
    /// and ends now, attributing `batches` kernel invocations to it.
    fn record_tile(&mut self, start: u64, batches: u64) {
        if self.tiles.len() < MAX_TILE_SLICES {
            let dur = self.now().saturating_sub(start);
            self.tiles.push((start, dur, batches));
        }
    }
}

/// One task's local tallies, aggregated per plan before flushing.
enum Tally {
    Block {
        candidates: u64,
        accepted: u64,
    },
    Residual {
        pairs: u64,
        matched: u64,
        refuted: u64,
    },
}

/// A symbol-keyed inverted index: multi-column `u32` key → row ids.
/// Probing borrows the key as `&[Sym]`, so lookups never allocate.
#[derive(Default)]
struct SymIndex {
    map: FxHashMap<Vec<Sym>, Vec<u32>>,
}

impl SymIndex {
    fn build(cols: &Columns, positions: &[usize]) -> SymIndex {
        let mut map: FxHashMap<Vec<Sym>, Vec<u32>> =
            FxHashMap::with_capacity_and_hasher(cols.rows(), Default::default());
        for row in 0..cols.rows() {
            let key: Vec<Sym> = positions.iter().map(|&p| cols.get(row, p)).collect();
            map.entry(key).or_default().push(row as u32);
        }
        SymIndex { map }
    }

    fn probe(&self, key: &[Sym]) -> &[u32] {
        self.map.get(key).map_or(&[][..], |v| v.as_slice())
    }
}

/// Per-side index caches, built once before the task queue runs.
#[derive(Default)]
struct SideIndexes {
    /// Multi-column equality indexes, keyed by sorted positions.
    multi: FxHashMap<Vec<usize>, SymIndex>,
}

/// The one place match plans run. Construction compiles + encodes;
/// afterwards the executor owns its whole working set (columns,
/// interner, rules, attribute names for the planner) and borrows
/// nothing. [`Executor::plan`] builds a cost-based [`MatchPlan`];
/// [`Executor::execute`] runs any plan under a [`RunGuard`] with the
/// degradation ladder expressed as plan rewrites.
#[derive(Debug, Clone)]
pub struct Executor {
    interned: InternedRuleBase,
    interner: Interner,
    cols_r: Columns,
    cols_s: Columns,
    attrs_r: Vec<String>,
    attrs_s: Vec<String>,
    threads: usize,
    kernels: bool,
    /// Emission-path hint handed to the planner: force spilled
    /// shards, or let the planner stream (spilling only past the
    /// memory budget; the default).
    emit: EmitHint,
    /// Whether a memory-budget breach may degrade to out-of-core
    /// spilling (`--no-spill` turns this off, restoring abort).
    spill: bool,
    /// `--keep-spill`: leave spill run directories behind on drop.
    spill_keep: bool,
    /// Override of the spill parent directory (`None` = platform
    /// temp dir).
    spill_dir: Option<String>,
    /// The run's `max_pair_bytes` budget, mirrored here so the
    /// planner can choose spilled emission up front.
    budget_bytes: Option<u64>,
    /// Capture a per-worker timeline on the next [`Executor::execute`]
    /// (read back with [`Executor::take_trace`]).
    trace_enabled: bool,
    /// The most recent successful attempt's assembled timeline.
    /// Behind an `Arc` so the executor stays cloneable; clones share
    /// the slot.
    trace_out: Arc<Mutex<Option<Trace>>>,
    /// Column statistics handed in from a persistent dataset instead
    /// of recomputed per plan (`None` = scan the columns).
    stats_override: Option<StatsOverride>,
    recorder: Recorder,
}

/// Pre-computed column statistics (and their provenance) that
/// [`Executor::plan`] consumes instead of scanning the columns — the
/// dataset-store path, where the stats section was written at encode
/// time.
#[derive(Debug, Clone)]
struct StatsOverride {
    r: Vec<ColumnStat>,
    s: Vec<ColumnStat>,
    source: StatsSource,
}

/// The executor's historical name; kept so existing call sites and
/// docs keep compiling while the IR refactor lands.
pub type BlockedEngine = Executor;

impl Executor {
    /// Compiles `rb` against the two schemas and encodes both
    /// relations into interned columnar form. `threads` = `0` uses
    /// the machine's available parallelism, `1` runs serially.
    pub fn new(ext_r: &Relation, ext_s: &Relation, rb: &RuleBase, threads: usize) -> Self {
        Self::with_recorder(ext_r, ext_s, rb, threads, Recorder::new())
    }

    /// [`Executor::new`] recording into a caller-supplied
    /// [`Recorder`] (the matcher threads its run-level recorder
    /// through here). Compile/encode time and [`CompileStats`]
    /// counters are recorded immediately; `alloc/values_interned`
    /// reports the interner population.
    ///
    /// [`CompileStats`]: eid_rules::CompileStats
    pub fn with_recorder(
        ext_r: &Relation,
        ext_s: &Relation,
        rb: &RuleBase,
        threads: usize,
        recorder: Recorder,
    ) -> Self {
        let compiled = Self::compile_recorded(rb, ext_r, ext_s, &recorder);
        // Encoding builds a fresh interner from scratch, so a panic
        // mid-encode (e.g. the injected `interner/poison` fault)
        // leaves nothing poisoned worth keeping: discard and retry
        // once on a clean interner before letting the panic escape to
        // the matcher's isolation boundary.
        let encode = || {
            eid_fault::maybe_panic("interner/poison");
            let mut interner = Interner::new();
            let _span = recorder.span(span::ENGINE_ENCODE);
            let parts = (
                InternedRuleBase::from_compiled(&compiled, &mut interner),
                Columns::encode(ext_r, &mut interner),
                Columns::encode(ext_s, &mut interner),
            );
            (interner, parts)
        };
        let (interner, (interned, cols_r, cols_s)) = match catch_unwind(AssertUnwindSafe(encode)) {
            Ok(ok) => ok,
            Err(payload) => {
                recorder.add(counter::RUNTIME_ENCODE_RETRIES, 1);
                match catch_unwind(AssertUnwindSafe(encode)) {
                    Ok(ok) => ok,
                    Err(_second) => std::panic::resume_unwind(payload),
                }
            }
        };
        recorder.add(counter::ALLOC_VALUES_INTERNED, interner.len() as u64);
        let attr_names = |rel: &Relation| -> Vec<String> {
            rel.schema()
                .attribute_names()
                .map(|a| a.to_string())
                .collect()
        };
        Executor {
            interned,
            interner,
            attrs_r: attr_names(ext_r),
            attrs_s: attr_names(ext_s),
            cols_r,
            cols_s,
            threads,
            kernels: kernels::enabled_default(),
            emit: EmitHint::Auto,
            spill: true,
            spill_keep: false,
            spill_dir: None,
            budget_bytes: None,
            trace_enabled: false,
            trace_out: Arc::new(Mutex::new(None)),
            stats_override: None,
            recorder,
        }
    }

    /// Builds an executor over an *already encoded* dataset — the
    /// store-open path. The shared interner is cloned and only the
    /// rule constants are lowered into the clone (fresh ids for
    /// constants the data never mentions are fine: classification
    /// depends on symbol *equality*, never on id values), so nothing
    /// re-scans or re-interns the relations.
    #[allow(clippy::too_many_arguments)]
    pub fn from_encoded(
        ext_r: &Relation,
        ext_s: &Relation,
        rb: &RuleBase,
        interner: &Interner,
        cols_r: &Columns,
        cols_s: &Columns,
        threads: usize,
        recorder: Recorder,
    ) -> Self {
        let compiled = Self::compile_recorded(rb, ext_r, ext_s, &recorder);
        let mut interner = interner.clone();
        let interned = {
            let _span = recorder.span(span::ENGINE_ENCODE);
            InternedRuleBase::from_compiled(&compiled, &mut interner)
        };
        recorder.add(counter::ALLOC_VALUES_INTERNED, interner.len() as u64);
        let attr_names = |rel: &Relation| -> Vec<String> {
            rel.schema()
                .attribute_names()
                .map(|a| a.to_string())
                .collect()
        };
        Executor {
            interned,
            interner,
            attrs_r: attr_names(ext_r),
            attrs_s: attr_names(ext_s),
            cols_r: cols_r.clone(),
            cols_s: cols_s.clone(),
            threads,
            kernels: kernels::enabled_default(),
            emit: EmitHint::Auto,
            spill: true,
            spill_keep: false,
            spill_dir: None,
            budget_bytes: None,
            trace_enabled: false,
            trace_out: Arc::new(Mutex::new(None)),
            stats_override: None,
            recorder,
        }
    }

    /// Hands the planner pre-computed column statistics (with their
    /// provenance) so [`Executor::plan`] skips its per-plan column
    /// scan — the dataset store wrote these at encode time.
    pub fn set_stats_override(
        &mut self,
        stats_r: Vec<ColumnStat>,
        stats_s: Vec<ColumnStat>,
        source: StatsSource,
    ) {
        self.stats_override = Some(StatsOverride {
            r: stats_r,
            s: stats_s,
            source,
        });
    }

    fn compile_recorded(
        rb: &RuleBase,
        ext_r: &Relation,
        ext_s: &Relation,
        recorder: &Recorder,
    ) -> CompiledRuleBase {
        let compiled = {
            let _span = recorder.span(span::ENGINE_COMPILE);
            CompiledRuleBase::compile(rb, ext_r.schema(), ext_s.schema())
        };
        let cs = compiled.stats;
        recorder.add(counter::COMPILE_SOURCE_RULES, cs.source_rules as u64);
        recorder.add(counter::COMPILE_COMPILED, cs.compiled as u64);
        recorder.add(
            counter::COMPILE_SYMMETRIC_FOLDED,
            cs.symmetric_folded as u64,
        );
        recorder.add(
            counter::COMPILE_DEAD_ORIENTATIONS,
            cs.dead_orientations as u64,
        );
        compiled
    }

    /// Enables or disables vectorized-kernel dispatch for this
    /// executor's planner (the `EID_KERNELS` environment variable
    /// sets the default). With kernels off, plans never contain
    /// `VectorScan` nodes and residual scans evaluate scalar rules
    /// only — the classification outcome is identical either way.
    pub fn set_kernels(&mut self, on: bool) {
        self.kernels = on;
    }

    /// Whether vectorized-kernel dispatch is enabled.
    pub fn kernels_enabled(&self) -> bool {
        self.kernels
    }

    /// Sets the emission-path hint the planner sees:
    /// [`EmitHint::Auto`] (the default) streams wherever a sink
    /// geometry exists, [`EmitHint::Spilled`] forces out-of-core
    /// shards. The classification outcome is identical either way;
    /// only the intermediate representation (and its memory traffic)
    /// differs.
    pub fn set_emit(&mut self, emit: EmitHint) {
        self.emit = emit;
    }

    /// The current emission-path hint.
    pub fn emit_hint(&self) -> EmitHint {
        self.emit
    }

    /// Configures out-of-core spilling: `budget_bytes` mirrors the
    /// guard's `max_pair_bytes` so the planner can choose spilled
    /// emission up front; `enabled = false` (`--no-spill`) restores
    /// the pre-spill behaviour where a budget breach aborts; `dir`
    /// overrides the spill parent directory (`None` = the platform
    /// temp dir); `keep` (`--keep-spill`) leaves run directories
    /// behind for inspection.
    pub fn set_spill(
        &mut self,
        budget_bytes: Option<u64>,
        enabled: bool,
        dir: Option<String>,
        keep: bool,
    ) {
        self.budget_bytes = budget_bytes;
        self.spill = enabled;
        self.spill_dir = dir;
        self.spill_keep = keep;
    }

    /// Enables or disables execution-timeline capture. When on, each
    /// task records its span (plus nested kernel-tile slices) against
    /// a single run epoch; the assembled [`Trace`] of the most recent
    /// successful [`Executor::execute`] is read back with
    /// [`Executor::take_trace`]. Off (the default), the hot path pays
    /// one branch per task.
    pub fn set_trace(&mut self, on: bool) {
        self.trace_enabled = on;
    }

    /// Whether timeline capture is enabled.
    pub fn trace_enabled(&self) -> bool {
        self.trace_enabled
    }

    /// Takes the timeline assembled by the most recent successful
    /// [`Executor::execute`] with tracing enabled — `None` when
    /// tracing was off, the run aborted, or the trace was already
    /// taken.
    pub fn take_trace(&self) -> Option<Trace> {
        self.trace_out.lock().ok().and_then(|mut slot| slot.take())
    }

    /// The recorder this executor reports into.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Attribute names of one side's (extended) schema, in column
    /// order — what the planner names blocking keys with.
    pub fn attr_names(&self, side: RelSide) -> &[String] {
        match side {
            RelSide::R => &self.attrs_r,
            RelSide::S => &self.attrs_s,
        }
    }

    /// Encoded row count of one side.
    pub fn rows(&self, side: RelSide) -> usize {
        match side {
            RelSide::R => self.cols_r.rows(),
            RelSide::S => self.cols_s.rows(),
        }
    }

    /// Appends one (extended) tuple to a side's columnar view,
    /// interning its values — the incremental matcher keeps the
    /// executor in sync with its relations instead of re-encoding.
    pub fn push_row(&mut self, side: RelSide, tuple: &Tuple) {
        match side {
            RelSide::R => self.cols_r.push_row(tuple, &mut self.interner),
            RelSide::S => self.cols_s.push_row(tuple, &mut self.interner),
        }
    }

    /// Truncates a side back to `rows` rows — the rollback twin of
    /// [`Executor::push_row`].
    pub fn truncate(&mut self, side: RelSide, rows: usize) {
        match side {
            RelSide::R => self.cols_r.truncate(rows),
            RelSide::S => self.cols_s.truncate(rows),
        }
    }

    /// Whether any interned distinctness rule definitely fires on
    /// row pair (`i`, `j`) — the incremental matcher's per-pair
    /// delta check, in symbol space.
    pub fn fires_distinct(&self, i: usize, j: usize) -> bool {
        self.interned
            .distinctness
            .iter()
            .any(|r| r.fires(&self.cols_r, i, &self.cols_s, j, &self.interner))
    }

    /// Builds the cost-based [`MatchPlan`] for the selected rule
    /// families under `hint`, reading column statistics off the
    /// interned columns. Pure planning — nothing executes.
    pub fn plan(&self, record_identity: bool, record_distinct: bool, hint: ArmHint) -> MatchPlan {
        let (stats_r, stats_s, source) = match &self.stats_override {
            Some(o) => (o.r.clone(), o.s.clone(), o.source),
            None => (
                self.cols_r.column_stats(),
                self.cols_s.column_stats(),
                StatsSource::Computed,
            ),
        };
        Planner::new(
            &self.interned,
            &stats_r,
            &stats_s,
            &self.attrs_r,
            &self.attrs_s,
            self.cols_r.rows(),
            self.cols_s.rows(),
            self.threads,
            self.kernels,
            self.emit,
        )
        .with_spill(self.budget_bytes, self.spill, self.spill_dir.clone())
        .with_stats_source(source)
        .plan(record_identity, record_distinct, hint)
    }

    /// Plans with the [`ArmHint::Auto`] hint and executes, unguarded
    /// (no budgets, not cancellable). The result is deterministic for
    /// any thread count. Errors only via the degradation ladder's
    /// terminal rung (every arm poisoned).
    pub fn run(&self, record_identity: bool, record_distinct: bool) -> Result<EnginePairs> {
        self.run_guarded(record_identity, record_distinct, &RunGuard::unlimited())
    }

    /// [`Executor::run`] under a [`RunGuard`].
    pub fn run_guarded(
        &self,
        record_identity: bool,
        record_distinct: bool,
        guard: &RunGuard,
    ) -> Result<EnginePairs> {
        let plan = self.plan(record_identity, record_distinct, ArmHint::Auto);
        self.execute(&plan, guard)
    }

    /// Runs one [`MatchPlan`] under a [`RunGuard`]: budgets and
    /// cancellation are checked at task boundaries (each task is
    /// pre-charged its exact candidate weight before it runs), and a
    /// poisoned task walks the degradation ladder as plan rewrites —
    /// [`MatchPlan::rewrite_serial`] (rerun from scratch,
    /// byte-identical), then [`MatchPlan::rewrite_index_free`] (the
    /// nested-loop arm) — before giving up with
    /// [`CoreError::WorkerPanic`]. A memory budget that the blocked
    /// indexes alone would exceed rewrites the plan index-free up
    /// front (keeping its mode). On success the recorder's `engine`
    /// label names the arm that produced the published pairs.
    pub fn execute(&self, plan: &MatchPlan, guard: &RunGuard) -> Result<EnginePairs> {
        // One epoch per execute call: every traced slice — across
        // attempts and workers — shares this time axis.
        let epoch = Instant::now();
        if let Err(reason) = guard.checkpoint() {
            return Err(self.abort(guard, TaskAbort::early(reason)));
        }

        let mut lowered = self.lower(plan)?;
        let mut mem_degraded: Option<MatchPlan> = None;
        if let Some(limit) = guard.mem_limit() {
            let est = self.index_mem_estimate(&lowered.0);
            if est > limit {
                self.recorder.add(counter::RUNTIME_DEGRADED_INDEX_MEM, 1);
                let rewritten = plan.rewrite_index_free();
                lowered = self.lower(&rewritten)?;
                mem_degraded = Some(rewritten);
            }
        }
        let plan = mem_degraded.as_ref().unwrap_or(plan);
        // Pre-emptive spill upgrade: a streamed plan whose estimated
        // output bytes would trip the memory budget is rewritten to
        // spilled emission up front (mirroring the index-mem
        // degradation above), so `--max-mem-mb` means "go out-of-core"
        // rather than "abort mid-merge".
        let mut spill_upgraded: Option<MatchPlan> = None;
        if let Some(limit) = guard.mem_limit() {
            if let Some(up) = self.spill_upgrade(plan, limit) {
                self.recorder.add(counter::RUNTIME_DEGRADED_TO_SPILL, 1);
                spill_upgraded = Some(up);
            }
        }
        let plan = spill_upgraded.as_ref().unwrap_or(plan);
        if matches!(plan.mode, ExecMode::Serial { auto_small: true }) {
            self.recorder.add(counter::ENGINE_SERIAL_FALLBACK, 1);
        }

        let (kinds, node_of) = lowered;
        let (plans, indexes) = {
            let _span = self.recorder.span(span::ENGINE_INDEX);
            let indexes = self.build_indexes(&kinds);
            let plans = self.build_plans(kinds, &node_of, &indexes);
            (plans, indexes)
        };
        // Chunk every plan by candidate-pair weight. The task list is
        // independent of the worker count, so output order (= task
        // order = plan order, drivers in driver order) is identical
        // for any thread count.
        let tasks = build_tasks(&plans);

        let workers = plan.mode.workers().min(tasks.len()).max(1);
        self.recorder.add(counter::ENGINE_WORKERS, workers as u64);
        let sink_geom = self.sink_geometry(plan);

        // The in-engine ladder, one attempt per iteration. A spill
        // I/O failure (after retries) drops the *emission* rung —
        // spilled→streamed, same worker count, fresh sinks. A task
        // panic drops the *execution* rung — the serial-twin rerun
        // from scratch (partial results discarded, so the output is
        // byte-identical to a fault-free serial run; the task list is
        // mode-independent, so the lowered plans are reused as-is),
        // then the nested-loop fallback.
        let mut cur: Cow<'_, MatchPlan> = Cow::Borrowed(plan);
        let mut workers_now = workers;
        let mut site = "engine/worker";
        let mut serial_tried = false;
        loop {
            let spill_cfg = self.spill_config(&cur);
            let arm = cur.arm.arm_label(cur.index_free, workers_now);
            match self.try_run_tasks(
                &plans,
                &tasks,
                &indexes,
                workers_now,
                sink_geom,
                spill_cfg.as_ref(),
                guard,
                epoch,
                site,
            ) {
                Ok((outputs, merged)) => {
                    return self.finish(&cur, &plans, &tasks, outputs, merged, arm)
                }
                Err(TaskFailure::Aborted(a)) => return Err(self.abort(guard, a)),
                Err(TaskFailure::SpillFailed { completed }) => {
                    let lost = (tasks.len() as u64).saturating_sub(completed);
                    self.recorder.add(counter::ENGINE_ABORTED_TASKS, lost);
                    self.recorder.add(counter::RUNTIME_SPILL_FALLBACK, 1);
                    cur = Cow::Owned(cur.rewrite_streamed());
                }
                Err(TaskFailure::Poisoned { completed }) => {
                    if !serial_tried {
                        serial_tried = true;
                        let lost = (tasks.len() as u64).saturating_sub(completed).max(1);
                        self.recorder.add(counter::ENGINE_ABORTED_TASKS, lost);
                        self.recorder.add(counter::RUNTIME_DEGRADED_TO_BLOCKED, 1);
                        workers_now = 1;
                        site = "engine/serial";
                    } else {
                        return self.run_nested_fallback(&cur, guard, epoch);
                    }
                }
            }
        }
    }

    /// The sink geometry a plan's emission uses: `Some` exactly when
    /// the plan streams. Computed from the executor's *current* row
    /// counts at execute time (the planner's shard count in the plan
    /// node is display-only).
    fn sink_geometry(&self, plan: &MatchPlan) -> Option<SinkGeometry> {
        match plan.emit.mode {
            EmitMode::Streamed | EmitMode::Spilled => {
                SinkGeometry::new(self.cols_r.rows(), self.cols_s.rows())
            }
            EmitMode::Buffered => None,
        }
    }

    /// The resolved spill parameters for a spilled plan's attempt
    /// (`None` when the plan does not spill).
    fn spill_config(&self, plan: &MatchPlan) -> Option<SpillConfig> {
        if plan.emit.mode != EmitMode::Spilled {
            return None;
        }
        let parent = if plan.emit.dir.is_empty() {
            std::env::temp_dir()
        } else {
            PathBuf::from(&plan.emit.dir)
        };
        Some(SpillConfig {
            parent,
            shard_bytes: plan.emit.shard_bytes.max(4096),
            keep: self.spill_keep,
        })
    }

    /// The spilled twin of a streamed plan whose estimated output
    /// bytes exceed the memory budget — the out-of-core upgrade the
    /// executor applies up front (mirroring the index-mem
    /// degradation) when it is handed a streamed plan that would
    /// otherwise trip at merge time. `None` when spilling is off, the
    /// plan is not streamed, the estimate fits, or there is no sink
    /// geometry.
    fn spill_upgrade(&self, plan: &MatchPlan, limit: u64) -> Option<MatchPlan> {
        if !self.spill || plan.emit.mode != EmitMode::Streamed {
            return None;
        }
        let est_pairs: u64 = plan
            .nodes
            .iter()
            .filter_map(|n| match &n.kind {
                PlanNodeKind::Refute { .. } => n.est_pairs,
                PlanNodeKind::VectorScan { rule, .. }
                    if matches!(rule.family, RuleFamily::Distinct) =>
                {
                    n.est_pairs
                }
                _ => None,
            })
            .sum();
        let est_bytes = est_pairs.saturating_mul(8);
        if est_bytes <= limit {
            return None;
        }
        let geom = SinkGeometry::new(self.cols_r.rows(), self.cols_s.rows())?;
        let grid = geom.grid_bytes();
        let floor = (grid / geom.shard_count.max(1) as u64).max(4096);
        let workers = plan.mode.workers().max(1) as u64;
        let cap = (limit.saturating_sub(grid) / workers).max(floor);
        let mut p = plan.clone();
        p.emit = Emit {
            mode: EmitMode::Spilled,
            shards: p.emit.shards,
            dir: self.spill_dir.clone().unwrap_or_default(),
            shard_bytes: cap,
        };
        p.emit_why = format!(
            "spill upgrade: est {est_bytes} output pair bytes over the {limit}-byte budget; \
             was: {}",
            p.emit_why
        );
        Some(p)
    }

    /// Rung 3 of the degradation ladder:
    /// `plan.rewrite_index_free().rewrite_serial()` — every rule as
    /// an index-free residual scan, serially. Emits the same pair
    /// *set* as the probe plans (possibly in a different order —
    /// callers dedup).
    fn run_nested_fallback(
        &self,
        plan: &MatchPlan,
        guard: &RunGuard,
        epoch: Instant,
    ) -> Result<EnginePairs> {
        self.recorder
            .add(counter::RUNTIME_DEGRADED_TO_NESTED_LOOP, 1);
        let nested = plan.rewrite_index_free().rewrite_serial();
        let (kinds, node_of) = self.lower(&nested)?;
        let (plans, indexes) = {
            let _span = self.recorder.span(span::ENGINE_INDEX);
            let indexes = self.build_indexes(&kinds);
            let plans = self.build_plans(kinds, &node_of, &indexes);
            (plans, indexes)
        };
        let tasks = build_tasks(&plans);
        // The nested twin went through `rewrite_buffered`, so its
        // geometry is always `None`; computed anyway for uniformity.
        let sink_geom = self.sink_geometry(&nested);
        match self.try_run_tasks(
            &plans,
            &tasks,
            &indexes,
            1,
            sink_geom,
            None,
            guard,
            epoch,
            "engine/nested",
        ) {
            Ok((outputs, merged)) => {
                self.finish(&nested, &plans, &tasks, outputs, merged, "nested_loop")
            }
            Err(TaskFailure::Aborted(a)) => Err(self.abort(guard, a)),
            Err(TaskFailure::Poisoned { .. }) | Err(TaskFailure::SpillFailed { .. }) => {
                self.recorder.set_label(label::ABORT, "worker_panic");
                Err(CoreError::WorkerPanic {
                    site: "engine/nested".into(),
                })
            }
        }
    }

    /// Lowers a [`MatchPlan`]'s probe/refute nodes into executable
    /// [`PlanKind`]s (all `Scan` strategies fuse into one residual
    /// appended last), paired with the node id each kind reports
    /// under. Fails with [`CoreError::InvalidPlan`] when a node
    /// references a rule or key the rule base cannot satisfy.
    fn lower(&self, plan: &MatchPlan) -> Result<(Vec<PlanKind<'_>>, Vec<usize>)> {
        let invalid = |detail: String| CoreError::InvalidPlan { detail };
        let mut kinds: Vec<PlanKind<'_>> = Vec::new();
        let mut node_of: Vec<usize> = Vec::new();
        let mut residual_identity: Vec<&InternedRule> = Vec::new();
        let mut residual_distinct: Vec<&InternedRule> = Vec::new();
        let mut residual_node: Option<usize> = None;
        // Index-free plans are the degradation ladder's scalar rungs
        // (and the memory-degraded arm): keep them kernel-free so a
        // kernel fault can never survive its own fallback.
        let vectorize_residual = self.kernels && !plan.index_free;
        for node in &plan.nodes {
            match &node.kind {
                PlanNodeKind::IdentityProbe { rule, strategy } => {
                    let interned = self.interned.identity.get(rule.index).ok_or_else(|| {
                        invalid(format!("identity rule #{} out of range", rule.index))
                    })?;
                    match strategy {
                        ProbeStrategy::Probe { key_positions } => {
                            let shape = interned.identity_shape().ok_or_else(|| {
                                invalid(format!("rule {} has no identity shape", rule.name))
                            })?;
                            let allowed = shape.probe_positions();
                            if key_positions.is_empty()
                                || key_positions.iter().any(|p| !allowed.contains(p))
                            {
                                return Err(invalid(format!(
                                    "blocking key {key_positions:?} of rule {} is not a \
                                     non-empty subset of its probe positions {allowed:?}",
                                    rule.name
                                )));
                            }
                            kinds.push(PlanKind::Identity {
                                rule: interned,
                                shape,
                                positions: Some(key_positions.clone()),
                            });
                            node_of.push(node.id);
                        }
                        ProbeStrategy::Cross => {
                            let shape = interned.identity_shape().ok_or_else(|| {
                                invalid(format!("rule {} has no identity shape", rule.name))
                            })?;
                            if !shape.join.is_empty() {
                                return Err(invalid(format!(
                                    "cross strategy on rule {} which has join columns",
                                    rule.name
                                )));
                            }
                            kinds.push(PlanKind::Identity {
                                rule: interned,
                                shape,
                                positions: None,
                            });
                            node_of.push(node.id);
                        }
                        ProbeStrategy::Scan => {
                            residual_identity.push(interned);
                            residual_node.get_or_insert(node.id);
                        }
                    }
                }
                PlanNodeKind::Refute { rule, strategy } => {
                    let interned = self.interned.distinctness.get(rule.index).ok_or_else(|| {
                        invalid(format!("distinctness rule #{} out of range", rule.index))
                    })?;
                    match strategy {
                        ProbeStrategy::Probe { .. } => {
                            let shape = interned.distinct_shape().ok_or_else(|| {
                                invalid(format!("rule {} has no distinctness shape", rule.name))
                            })?;
                            kinds.push(PlanKind::Distinct {
                                rule: interned,
                                shape,
                            });
                            node_of.push(node.id);
                        }
                        ProbeStrategy::Cross => {
                            return Err(invalid(format!(
                                "cross strategy is not defined for distinctness rule {}",
                                rule.name
                            )));
                        }
                        ProbeStrategy::Scan => {
                            residual_distinct.push(interned);
                            residual_node.get_or_insert(node.id);
                        }
                    }
                }
                PlanNodeKind::VectorScan {
                    rule,
                    shape: kshape,
                    tile_rows,
                    ..
                } => {
                    let tile = (*tile_rows).max(LANES);
                    match rule.family {
                        RuleFamily::Identity => {
                            let interned =
                                self.interned.identity.get(rule.index).ok_or_else(|| {
                                    invalid(format!("identity rule #{} out of range", rule.index))
                                })?;
                            if !matches!(kshape, KernelShape::EqSingle | KernelShape::EqMulti)
                                || interned.kernel_shape() != Some(*kshape)
                            {
                                return Err(invalid(format!(
                                    "vector-scan shape {kshape:?} does not match identity \
                                     rule {}",
                                    rule.name
                                )));
                            }
                            let shape = interned.identity_shape().ok_or_else(|| {
                                invalid(format!("rule {} has no identity shape", rule.name))
                            })?;
                            kinds.push(PlanKind::VectorEq {
                                rule: interned,
                                shape,
                                tile,
                            });
                            node_of.push(node.id);
                        }
                        RuleFamily::Distinct => {
                            let interned =
                                self.interned.distinctness.get(rule.index).ok_or_else(|| {
                                    invalid(format!(
                                        "distinctness rule #{} out of range",
                                        rule.index
                                    ))
                                })?;
                            if *kshape != KernelShape::Disagree
                                || interned.kernel_shape() != Some(*kshape)
                            {
                                return Err(invalid(format!(
                                    "vector-scan shape {kshape:?} does not match distinctness \
                                     rule {}",
                                    rule.name
                                )));
                            }
                            let shape = interned.distinct_shape().ok_or_else(|| {
                                invalid(format!("rule {} has no distinctness shape", rule.name))
                            })?;
                            kinds.push(PlanKind::VectorDisagree {
                                rule: interned,
                                shape,
                            });
                            node_of.push(node.id);
                        }
                    }
                }
                // Derive/Encode/Block/Dedup/Classify are the
                // matcher's (and constructor's) stages; the executor
                // only runs the probe DAG.
                _ => {}
            }
        }
        if !residual_identity.is_empty() || !residual_distinct.is_empty() {
            let mut vec_rules: Vec<ResidualVec> = Vec::new();
            if vectorize_residual {
                let mut scalar_identity = Vec::new();
                for rule in residual_identity {
                    match ResidualVec::build(rule, true) {
                        Some(v) => vec_rules.push(v),
                        None => scalar_identity.push(rule),
                    }
                }
                residual_identity = scalar_identity;
                let mut scalar_distinct = Vec::new();
                for rule in residual_distinct {
                    match ResidualVec::build(rule, false) {
                        Some(v) => vec_rules.push(v),
                        None => scalar_distinct.push(rule),
                    }
                }
                residual_distinct = scalar_distinct;
            }
            kinds.push(PlanKind::Residual {
                identity: residual_identity,
                distinct: residual_distinct,
                vec_rules,
            });
            node_of.push(residual_node.unwrap_or(plan.nodes.len()));
        }
        Ok((kinds, node_of))
    }

    /// Crude upper bound on the blocked indexes' resident bytes: each
    /// block plan may index both sides, at roughly one boxed key +
    /// row id + map overhead per row. Deliberately pessimistic — the
    /// memory budget is a safety cap, not an allocator.
    fn index_mem_estimate(&self, kinds: &[PlanKind<'_>]) -> u64 {
        const BYTES_PER_ROW: u64 = 48;
        let rows = (self.cols_r.rows() + self.cols_s.rows()) as u64;
        let block_plans = kinds
            .iter()
            .filter(|k| !matches!(k, PlanKind::Residual { .. }))
            .count() as u64;
        block_plans * rows * BYTES_PER_ROW
    }

    /// Success epilogue for one attempt: record the task count, flush
    /// the per-task accounting, stamp the arm label, and assemble the
    /// pair lists in task order.
    fn finish(
        &self,
        mplan: &MatchPlan,
        plans: &[Plan<'_>],
        tasks: &[Task],
        outputs: Vec<(EnginePairs, TaskReport)>,
        merged: Option<MergedSink>,
        arm: &str,
    ) -> Result<EnginePairs> {
        self.recorder.add(counter::ENGINE_TASKS, tasks.len() as u64);
        self.flush_reports(mplan, plans, tasks, &outputs, merged.as_ref());
        self.recorder.set_label(label::ENGINE_ARM, arm);
        let mut result = EnginePairs::default();
        result
            .matching
            .reserve(outputs.iter().map(|(o, _)| o.matching.len()).sum());
        result
            .negative
            .reserve(outputs.iter().map(|(o, _)| o.negative.len()).sum());
        for (out, _) in outputs {
            result.matching.extend(out.matching);
            result.negative.extend(out.negative);
        }
        if let Some(ms) = merged {
            self.recorder.add(counter::SINK_SHARDS, ms.stats.shards);
            self.recorder
                .add(counter::SINK_SPILLED_MERGES, ms.stats.spilled_merges);
            self.recorder.add(counter::SINK_BYTES, ms.stats.bytes);
            if let Some(sp) = &ms.spill {
                self.recorder
                    .add(counter::SINK_SPILL_BYTES, sp.spilled_bytes);
                self.recorder
                    .add(counter::SINK_SPILL_SHARDS, sp.spilled_segments);
                self.recorder.add(counter::RUNTIME_IO_RETRIES, sp.retries);
            }
            self.recorder
                .record_span(span::ENGINE_SINK_MERGE, ms.dur_nanos);
            if let Some(node) = mplan
                .nodes
                .iter()
                .find(|n| matches!(n.kind, PlanNodeKind::Sink { .. }))
            {
                self.recorder
                    .add(&node_counter(node.id, "nanos"), ms.dur_nanos);
                self.recorder.add(&node_counter(node.id, "tasks"), 1);
                self.recorder
                    .add(&node_counter(node.id, "pairs"), ms.stats.distinct);
            }
            result.negative_set = Some(ms.set);
        }
        Ok(result)
    }

    /// Abort epilogue: stamp the abort label and build the typed
    /// error with partial stats. The attempt's task accounting is
    /// *not* flushed — an aborted run never reports half-tasks.
    fn abort(&self, guard: &RunGuard, a: TaskAbort) -> CoreError {
        self.recorder.set_label(label::ABORT, a.reason.code());
        let mut partial = guard.partial_stats();
        partial.tasks_completed = a.completed;
        partial.tasks_total = a.tasks_total;
        partial.matching = a.matching;
        partial.negative = a.negative;
        CoreError::Aborted {
            reason: a.reason,
            partial,
        }
    }

    /// Flushes every task's accounting from the main thread, after
    /// the worker scope has ended: wall time into the task histogram,
    /// the family busy-span, *and* the per-rule node span; tallies
    /// aggregated per plan into the blocking/residual counters plus
    /// each plan node's own counters. Totals are identical to
    /// flushing per task; only the contention moves off the hot path.
    fn flush_reports(
        &self,
        mplan: &MatchPlan,
        plans: &[Plan<'_>],
        tasks: &[Task],
        outputs: &[(EnginePairs, TaskReport)],
        merged: Option<&MergedSink>,
    ) {
        let task_nanos = self.recorder.histogram(histogram::ENGINE_TASK_NANOS);
        let mut block: Vec<(u64, u64)> = vec![(0, 0); plans.len()];
        // Per-plan (nanos, tasks, batches) actuals — what EXPLAIN
        // ANALYZE joins against the planner's estimates by node id.
        let mut node_acc: Vec<(u64, u64, u64)> = vec![(0, 0, 0); plans.len()];
        let mut residual = (0u64, 0u64, 0u64);
        let mut kernel = KernelTally::default();
        for (task, (_, report)) in tasks.iter().zip(outputs) {
            task_nanos.record(report.nanos);
            kernel.merge(&report.kernel);
            let acc = &mut node_acc[task.plan];
            acc.0 += report.nanos;
            acc.1 += 1;
            acc.2 += report.kernel.batches;
            let path = match &plans[task.plan].kind {
                PlanKind::Identity { rule, .. } | PlanKind::VectorEq { rule, .. } => {
                    self.recorder.record_span(
                        &format!("{}/{}", span::ENGINE_IDENTITY, rule.name),
                        report.nanos,
                    );
                    span::ENGINE_IDENTITY
                }
                PlanKind::Distinct { rule, .. } | PlanKind::VectorDisagree { rule, .. } => {
                    self.recorder.record_span(
                        &format!("{}/{}", span::ENGINE_REFUTE, rule.name),
                        report.nanos,
                    );
                    span::ENGINE_REFUTE
                }
                PlanKind::Residual { .. } => span::ENGINE_RESIDUAL,
            };
            self.recorder.record_span(path, report.nanos);
            match report.tally {
                Tally::Block {
                    candidates,
                    accepted,
                } => {
                    block[task.plan].0 += candidates;
                    block[task.plan].1 += accepted;
                }
                Tally::Residual {
                    pairs,
                    matched,
                    refuted,
                } => {
                    residual.0 += pairs;
                    residual.1 += matched;
                    residual.2 += refuted;
                }
            }
        }
        if !kernel.is_zero() {
            self.recorder.add(counter::KERNEL_BATCHES, kernel.batches);
            self.recorder
                .add(counter::KERNEL_LANES_USED, kernel.lane_rows);
            self.recorder
                .add(counter::KERNEL_SCALAR_FALLBACK, kernel.scalar_tail);
        }
        for (plan, &(candidates, accepted)) in plans.iter().zip(&block) {
            match &plan.kind {
                PlanKind::Identity { rule, .. } | PlanKind::VectorEq { rule, .. } => {
                    self.flush_block("identity", &rule.name, plan.node, candidates, accepted)
                }
                PlanKind::Distinct { rule, .. } | PlanKind::VectorDisagree { rule, .. } => {
                    self.flush_block("distinct", &rule.name, plan.node, candidates, accepted)
                }
                PlanKind::Residual { .. } => {
                    self.recorder.add(counter::RESIDUAL_PAIRS, residual.0);
                    self.recorder.add(counter::RESIDUAL_MATCHED, residual.1);
                    self.recorder.add(counter::RESIDUAL_REFUTED, residual.2);
                    self.recorder
                        .add(&node_counter(plan.node, "pairs"), residual.0);
                    self.recorder
                        .add(&node_counter(plan.node, "matched"), residual.1);
                    self.recorder
                        .add(&node_counter(plan.node, "refuted"), residual.2);
                }
            }
        }
        for (plan, &(nanos, tasks_run, batches)) in plans.iter().zip(&node_acc) {
            self.recorder.add(&node_counter(plan.node, "nanos"), nanos);
            self.recorder
                .add(&node_counter(plan.node, "tasks"), tasks_run);
            if batches > 0 {
                self.recorder
                    .add(&node_counter(plan.node, "batches"), batches);
            }
        }
        self.assemble_trace(mplan, plans, tasks, outputs, merged);
    }

    /// Replays every task's timeline contribution into per-worker
    /// [`TraceSink`]s — post-scope, on the coordinating thread — and
    /// publishes the merged [`Trace`] for [`Executor::take_trace`].
    /// A worker claims task ids in increasing order, so iterating the
    /// id-sorted outputs keeps each worker's stream chronological and
    /// properly nested. No-op when tracing is off.
    fn assemble_trace(
        &self,
        mplan: &MatchPlan,
        plans: &[Plan<'_>],
        tasks: &[Task],
        outputs: &[(EnginePairs, TaskReport)],
        merged: Option<&MergedSink>,
    ) {
        if !self.trace_enabled {
            return;
        }
        // Slice names are the plan-node span labels; the fused
        // residual may report under a synthetic node past the plan's
        // end.
        let labels: Vec<Arc<str>> = plans
            .iter()
            .map(|p| {
                Arc::from(
                    mplan
                        .nodes
                        .get(p.node)
                        .map(|n| n.span.as_str())
                        .unwrap_or(span::ENGINE_RESIDUAL),
                )
            })
            .collect();
        let tile_label: Arc<str> = Arc::from("kernel/tile");
        let spill_label: Arc<str> = Arc::from(span::ENGINE_SINK_SPILL);
        let mut sinks: std::collections::BTreeMap<u32, TraceSink> = Default::default();
        let mut group: Vec<TraceEvent> = Vec::new();
        for (id, (task, (_, report))) in tasks.iter().zip(outputs).enumerate() {
            let Some(tt) = &report.trace else { continue };
            let name = &labels[task.plan];
            let (w, tid, node) = (report.worker, id as u32, plans[task.plan].node as u32);
            group.clear();
            group.push(TraceEvent::begin(
                name,
                w,
                tid,
                node,
                tt.start_nanos,
                report.kernel.batches,
            ));
            for &(t0, dur, batches) in &tt.tiles {
                group.push(TraceEvent::begin(&tile_label, w, tid, node, t0, batches));
                group.push(TraceEvent::end(&tile_label, w, tid, node, t0 + dur));
            }
            group.push(TraceEvent::end(
                name,
                w,
                tid,
                node,
                tt.start_nanos + tt.dur_nanos,
            ));
            // A task-boundary spill flush runs strictly after the
            // task on the same worker thread; emit it as a sibling
            // slice (args = bytes freed) to keep the stream
            // chronological.
            if let Some((t0, dur, freed)) = report.spill_trace {
                group.push(TraceEvent::begin(&spill_label, w, tid, node, t0, freed));
                group.push(TraceEvent::end(&spill_label, w, tid, node, t0 + dur));
            }
            sinks
                .entry(w)
                .or_insert_with(|| TraceSink::new(w, DEFAULT_SINK_CAPACITY))
                .record_group(&group);
        }
        // The shard merge runs post-scope on the coordinating thread
        // (worker 0), strictly after its last task — appending keeps
        // that worker's stream chronological.
        if let (Some(ms), Some(node)) = (
            merged,
            mplan
                .nodes
                .iter()
                .find(|n| matches!(n.kind, PlanNodeKind::Sink { .. })),
        ) {
            let name: Arc<str> = Arc::from(node.span.as_str());
            let (w, tid, nid) = (0u32, tasks.len() as u32, node.id as u32);
            group.clear();
            group.push(TraceEvent::begin(
                &name,
                w,
                tid,
                nid,
                ms.start_nanos,
                ms.stats.distinct,
            ));
            group.push(TraceEvent::end(
                &name,
                w,
                tid,
                nid,
                ms.start_nanos + ms.dur_nanos,
            ));
            sinks
                .entry(w)
                .or_insert_with(|| TraceSink::new(w, DEFAULT_SINK_CAPACITY))
                .record_group(&group);
        }
        let mut trace = Trace::new();
        for (_, sink) in sinks {
            trace.absorb(sink);
        }
        if trace.dropped > 0 {
            self.recorder.add(counter::TRACE_DROPPED, trace.dropped);
        }
        if let Ok(mut slot) = self.trace_out.lock() {
            *slot = Some(trace);
        }
    }

    /// Runs the task queue under the guard; on success, outputs come
    /// back ordered by task id regardless of which worker ran what.
    ///
    /// Every task executes under `catch_unwind` (with `fault_site`
    /// armed as an injection point): a panic poisons the attempt, the
    /// remaining workers drain cleanly, and the caller decides which
    /// ladder rung to try next. Each task is pre-charged its exact
    /// candidate weight and the guard is checked *before* the task
    /// runs, so budget trips happen ahead of the work.
    #[allow(clippy::too_many_arguments)]
    fn try_run_tasks(
        &self,
        plans: &[Plan<'_>],
        tasks: &[Task],
        indexes: &Indexes,
        workers: usize,
        sink_geom: Option<SinkGeometry>,
        spill: Option<&SpillConfig>,
        guard: &RunGuard,
        epoch: Instant,
        fault_site: &str,
    ) -> std::result::Result<TaskRun, TaskFailure> {
        let workers = workers.min(tasks.len()).max(1);
        // Task `w` is worker `w`'s first task; the shared queue hands
        // out the rest. So every worker an attempt starts runs at
        // least one task, however fast worker 0 drains the queue.
        let next = AtomicUsize::new(workers);
        let poisoned = AtomicBool::new(false);
        // A spilled attempt gets one uniquely-named run directory;
        // the guard removes it (unless `--keep-spill`) when this
        // attempt ends — success, abort, poison, or panic alike.
        let dir_guard = match spill {
            Some(cfg) => match SpillDirGuard::create(&cfg.parent, cfg.keep) {
                Ok(g) => Some(g),
                // Can't even create the spill dir: terminal spill
                // failure, drop the emission rung before any work.
                Err(_) => return Err(TaskFailure::SpillFailed { completed: 0 }),
            },
            None => None,
        };
        // With the counting allocator installed, charge each task's
        // *measured* thread-local allocation delta instead of the
        // 8-bytes-per-pair output model.
        let measured = eid_obs::alloc::active();
        let drain = |worker: u32| {
            let mut local: Vec<(usize, (EnginePairs, TaskReport))> = Vec::new();
            // Streamed plans give each worker its own sink over the
            // full pair grid, sharded by driver-row range: workers
            // touch disjoint shard *rows* only by accident, so no
            // synchronization — overlap is resolved by the post-scope
            // merge OR. Spilled plans wrap the same sink in a
            // per-worker spill file under the shared run dir.
            let mut sink = sink_geom.map(|geom| match (spill, &dir_guard) {
                (Some(cfg), Some(g)) => WorkerSink::Spill(SpillSink::new(
                    geom,
                    worker as usize,
                    g.path(),
                    cfg.shard_bytes,
                )),
                _ => WorkerSink::Mem(ShardedSink::new(geom)),
            });
            let mut own = Some(worker as usize);
            loop {
                if poisoned.load(Ordering::Relaxed) || guard.is_tripped() {
                    break;
                }
                let id = own
                    .take()
                    .unwrap_or_else(|| next.fetch_add(1, Ordering::Relaxed));
                let Some(task) = tasks.get(id) else { break };
                guard.charge_pairs(task.est_pairs);
                if guard.checkpoint().is_err() {
                    break;
                }
                let before = if measured {
                    eid_obs::alloc::thread_allocated()
                } else {
                    0
                };
                let pushed_before = sink.as_ref().map_or(0, WorkerSink::pushes);
                let run = catch_unwind(AssertUnwindSafe(|| {
                    eid_fault::maybe_panic(fault_site);
                    self.run_timed(plans, task, indexes, epoch, sink.as_mut())
                }));
                match run {
                    Ok(mut out) => {
                        out.1.worker = worker;
                        out.1.neg_pushed =
                            sink.as_ref().map_or(0, WorkerSink::pushes) - pushed_before;
                        let pairs = out.0.matching.len() + out.0.negative.len();
                        let bytes = if measured {
                            eid_obs::alloc::thread_allocated().saturating_sub(before)
                        } else {
                            // Model mode: 8 bytes per buffered pair
                            // plus whatever shard words this task's
                            // pushes forced the sink to materialize.
                            8 * pairs as u64 + sink.as_mut().map_or(0, WorkerSink::take_new_bytes)
                        };
                        guard.charge_bytes(bytes);
                        // Task boundary: cooperatively spill resident
                        // shards once the worker's cap is breached,
                        // crediting the freed bytes back to the budget
                        // (both accounting modes charge shard
                        // allocation but never observe frees). A write
                        // failure is contained inside the sink — it
                        // latches write-failed and keeps shards
                        // resident, the streamed memory profile.
                        if let Some(WorkerSink::Spill(s)) = sink.as_mut() {
                            let spill_start =
                                epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                            match s.maybe_spill() {
                                Ok(0) | Err(_) => {}
                                Ok(freed) => {
                                    guard.uncharge_bytes(freed);
                                    if self.trace_enabled {
                                        let now =
                                            epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                                        out.1.spill_trace = Some((
                                            spill_start,
                                            now.saturating_sub(spill_start),
                                            freed,
                                        ));
                                    }
                                }
                            }
                        }
                        local.push((id, out));
                    }
                    Err(_) => {
                        poisoned.store(true, Ordering::Relaxed);
                        break;
                    }
                }
            }
            (local, sink)
        };
        let mut slots: Vec<(usize, (EnginePairs, TaskReport))> = Vec::with_capacity(tasks.len());
        let mut worker_sinks: Vec<WorkerSink> = Vec::new();
        if workers == 1 {
            let (local, sink) = drain(0);
            slots.extend(local);
            worker_sinks.extend(sink);
        } else {
            std::thread::scope(|scope| {
                // The calling thread is worker 0: spawning
                // `workers - 1` threads instead of `workers` keeps it
                // busy draining the queue rather than parked at the
                // join.
                let drain = &drain;
                let handles: Vec<_> = (1..workers)
                    .map(|w| scope.spawn(move || drain(w as u32)))
                    .collect();
                let (local, sink) = drain(0);
                slots.extend(local);
                worker_sinks.extend(sink);
                for h in handles {
                    match h.join() {
                        Ok((local, sink)) => {
                            slots.extend(local);
                            worker_sinks.extend(sink);
                        }
                        // A panic that escaped catch_unwind (e.g. out
                        // of a payload drop) — treat as poison.
                        Err(_) => poisoned.store(true, Ordering::Relaxed),
                    }
                }
            });
        }
        slots.sort_by_key(|(id, _)| *id);
        let completed = slots.len() as u64;
        // Streamed negative pairs live in the sinks, not the task
        // outputs: partial stats count each task's raw pushes.
        let partial_matching = || -> u64 {
            slots
                .iter()
                .map(|(_, (o, _))| o.matching.len() as u64)
                .sum()
        };
        let partial_negative = || -> u64 {
            slots
                .iter()
                .map(|(_, (o, r))| o.negative.len() as u64 + r.neg_pushed)
                .sum()
        };
        if let Some(reason) = guard.tripped_reason() {
            return Err(TaskFailure::Aborted(TaskAbort {
                reason,
                completed,
                tasks_total: tasks.len() as u64,
                matching: partial_matching(),
                negative: partial_negative(),
            }));
        }
        if poisoned.load(Ordering::Relaxed) {
            return Err(TaskFailure::Poisoned { completed });
        }
        let merged = match sink_geom {
            None => None,
            Some(geom) => {
                // The merged set is one more full grid; charge it
                // before merging so a memory budget trips here, not
                // after the allocation.
                guard.charge_bytes(geom.grid_bytes());
                if let Err(reason) = guard.checkpoint() {
                    return Err(TaskFailure::Aborted(TaskAbort {
                        reason,
                        completed,
                        tasks_total: tasks.len() as u64,
                        matching: partial_matching(),
                        negative: partial_negative(),
                    }));
                }
                let start_nanos = epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                let start = Instant::now();
                if spill.is_some() {
                    // Spilled merge: stream each worker's on-disk
                    // segments back in row-range order and OR them
                    // with whatever stayed resident.
                    let mut spill_sinks: Vec<SpillSink> = worker_sinks
                        .into_iter()
                        .filter_map(|ws| match ws {
                            WorkerSink::Spill(s) => Some(s),
                            WorkerSink::Mem(_) => None,
                        })
                        .collect();
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        eid_fault::maybe_panic("engine/sink_merge");
                        sink::merge_spilled(&geom, &mut spill_sinks)
                    }));
                    let mut spill_stats = SpillStats::default();
                    for s in &spill_sinks {
                        spill_stats.absorb(&s.stats());
                    }
                    match run {
                        Ok(Ok((set, stats))) => {
                            let dur_nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                            Some(MergedSink {
                                set,
                                stats,
                                spill: Some(spill_stats),
                                start_nanos,
                                dur_nanos,
                            })
                        }
                        // Segment read-back failed after retries:
                        // terminal spill failure, the ladder drops to
                        // streamed emission. Publish the retries spent
                        // here since this attempt's stats are
                        // otherwise discarded.
                        Ok(Err(_)) => {
                            self.recorder
                                .add(counter::RUNTIME_IO_RETRIES, spill_stats.retries);
                            return Err(TaskFailure::SpillFailed { completed });
                        }
                        // A merge panic poisons the attempt like a
                        // task panic: the ladder reruns the whole
                        // attempt (and the merge) on the next rung.
                        Err(_) => return Err(TaskFailure::Poisoned { completed }),
                    }
                } else {
                    let mem_sinks: Vec<ShardedSink> = worker_sinks
                        .into_iter()
                        .filter_map(|ws| match ws {
                            WorkerSink::Mem(s) => Some(s),
                            WorkerSink::Spill(_) => None,
                        })
                        .collect();
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        eid_fault::maybe_panic("engine/sink_merge");
                        sink::merge_shards(&geom, &mem_sinks)
                    }));
                    match run {
                        Ok((set, stats)) => {
                            let dur_nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                            Some(MergedSink {
                                set,
                                stats,
                                spill: None,
                                start_nanos,
                                dur_nanos,
                            })
                        }
                        // A merge panic poisons the attempt like a task
                        // panic: the ladder reruns the whole attempt (and
                        // the merge) on the next rung.
                        Err(_) => return Err(TaskFailure::Poisoned { completed }),
                    }
                }
            }
        };
        Ok((slots.into_iter().map(|(_, out)| out).collect(), merged))
    }

    /// [`Executor::run_task`] plus wall-time measurement. No
    /// recorder traffic here — this runs inside worker threads; the
    /// report is flushed by [`Executor::flush_reports`] on the
    /// main thread.
    fn run_timed(
        &self,
        plans: &[Plan<'_>],
        task: &Task,
        indexes: &Indexes,
        epoch: Instant,
        sink: Option<&mut WorkerSink>,
    ) -> (EnginePairs, TaskReport) {
        let mut tracer = self.trace_enabled.then(|| TaskTracer::new(epoch));
        let start_nanos = epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let start = Instant::now();
        let (out, tally, kernel) = self.run_task(plans, task, indexes, tracer.as_mut(), sink);
        let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let trace = tracer.map(|t| TaskTrace {
            start_nanos,
            dur_nanos: nanos,
            tiles: t.tiles,
        });
        (
            out,
            TaskReport {
                nanos,
                tally,
                kernel,
                worker: 0,
                neg_pushed: 0,
                trace,
                spill_trace: None,
            },
        )
    }

    /// Dispatches the task's negative emission: into the worker's
    /// streaming sink when the plan streamed, into the task-local
    /// `negative` buffer otherwise. Matching pairs always buffer —
    /// the matching table is tiny.
    fn run_task(
        &self,
        plans: &[Plan<'_>],
        task: &Task,
        indexes: &Indexes,
        tracer: Option<&mut TaskTracer>,
        sink: Option<&mut WorkerSink>,
    ) -> (EnginePairs, Tally, KernelTally) {
        let mut out = EnginePairs::default();
        let mut kernel = KernelTally::default();
        let tally = match sink {
            Some(s) => self.run_task_kind(
                plans,
                task,
                indexes,
                tracer,
                &mut out.matching,
                s,
                &mut kernel,
            ),
            None => {
                let EnginePairs {
                    matching, negative, ..
                } = &mut out;
                self.run_task_kind(
                    plans,
                    task,
                    indexes,
                    tracer,
                    matching,
                    negative,
                    &mut kernel,
                )
            }
        };
        (out, tally, kernel)
    }

    /// [`Executor::run_task`] generic over the negative-pair sink
    /// (monomorphized for `Vec<(u32, u32)>` and [`WorkerSink`]).
    #[allow(clippy::too_many_arguments)]
    fn run_task_kind<S: PairSink>(
        &self,
        plans: &[Plan<'_>],
        task: &Task,
        indexes: &Indexes,
        tracer: Option<&mut TaskTracer>,
        matching: &mut Vec<(u32, u32)>,
        negative: &mut S,
        kernel: &mut KernelTally,
    ) -> Tally {
        let plan = &plans[task.plan];
        let drivers = &plan.drivers[task.drivers.clone()];
        match &plan.kind {
            PlanKind::Identity {
                rule,
                shape,
                positions,
            } => self.run_identity(
                rule,
                shape,
                positions.as_deref(),
                drivers,
                indexes,
                matching,
            ),
            PlanKind::Distinct { rule, shape } => {
                negative.reserve(task.est_pairs.min(TASK_RESERVE_CAP) as usize);
                self.run_distinct(rule, shape, drivers, indexes, negative)
            }
            PlanKind::VectorEq { shape, tile, .. } => {
                self.run_vector_eq(shape, *tile, drivers, kernel, matching, tracer)
            }
            PlanKind::VectorDisagree { shape, .. } => {
                negative.reserve(task.est_pairs.min(TASK_RESERVE_CAP) as usize);
                self.run_vector_disagree(shape, drivers, indexes, negative)
            }
            PlanKind::Residual {
                identity,
                distinct,
                vec_rules,
            } => self.run_residual(
                identity, distinct, vec_rules, drivers, kernel, matching, negative, tracer,
            ),
        }
    }

    /// Tiled residual scan over one driver chunk. The `S` side is
    /// walked in L2-sized row tiles; inside a tile, kernel-shaped
    /// rules evaluate lane-wide through their precompiled term lists
    /// while the remaining rules fall back to scalar `fires` on lanes
    /// the kernels left unset. Per-driver row buffers are concatenated
    /// in driver order, so the emitted pair order is byte-identical to
    /// the untiled scalar loop.
    #[allow(clippy::too_many_arguments)]
    fn run_residual<S: PairSink>(
        &self,
        identity: &[&InternedRule],
        distinct: &[&InternedRule],
        vec_rules: &[ResidualVec],
        drivers: &[u32],
        kernel: &mut KernelTally,
        matching: &mut Vec<(u32, u32)>,
        negative: &mut S,
        mut tracer: Option<&mut TaskTracer>,
    ) -> Tally {
        /// One driver's resolved vector rules: the identity and
        /// distinctness term lists still in play for this row.
        type DriverTerms<'c> = (Vec<Vec<Term<'c>>>, Vec<Vec<Term<'c>>>);
        let s_rows = self.cols_s.rows();
        // Resolve each vector rule against each driver row once:
        // driver-side checks either deactivate the rule or pin its
        // `S`-column term list for the whole scan.
        let states: Vec<DriverTerms<'_>> = drivers
            .iter()
            .map(|&i| {
                let mut id_terms = Vec::new();
                let mut dist_terms = Vec::new();
                for vr in vec_rules {
                    if let Some(terms) = self.resolve_residual_terms(vr, i as usize) {
                        if vr.is_identity {
                            id_terms.push(terms);
                        } else {
                            dist_terms.push(terms);
                        }
                    }
                }
                (id_terms, dist_terms)
            })
            .collect();
        let tile = kernels::tile_rows(self.cols_s.arity().max(1));
        let mut match_bufs: Vec<Vec<u32>> = vec![Vec::new(); drivers.len()];
        let mut neg_bufs: Vec<Vec<u32>> = vec![Vec::new(); drivers.len()];
        let mut tile_start = 0usize;
        while tile_start < s_rows {
            let tile_end = (tile_start + tile).min(s_rows);
            let pre = tracer.as_deref().map(|t| (t.now(), kernel.batches));
            for (di, &i) in drivers.iter().enumerate() {
                let (id_terms, dist_terms) = &states[di];
                self.residual_driver_tile(
                    i as usize,
                    tile_start..tile_end,
                    id_terms,
                    identity,
                    dist_terms,
                    distinct,
                    kernel,
                    &mut match_bufs[di],
                    &mut neg_bufs[di],
                );
            }
            if let (Some(t), Some((t0, b0))) = (tracer.as_deref_mut(), pre) {
                t.record_tile(t0, kernel.batches - b0);
            }
            tile_start = tile_end;
        }
        let mut matched = 0u64;
        let mut refuted = 0u64;
        matching.reserve(match_bufs.iter().map(Vec::len).sum());
        negative.reserve(neg_bufs.iter().map(Vec::len).sum());
        for (di, &i) in drivers.iter().enumerate() {
            matched += match_bufs[di].len() as u64;
            refuted += neg_bufs[di].len() as u64;
            matching.extend(match_bufs[di].iter().map(|&j| (i, j)));
            negative.push_row(i, &neg_bufs[di]);
        }
        Tally::Residual {
            pairs: drivers.len() as u64 * s_rows as u64,
            matched,
            refuted,
        }
    }

    /// Resolves one precompiled residual rule against driver row `i`:
    /// `None` when a driver-side check fails or a join symbol is NULL
    /// (the rule cannot definitely fire for this driver), otherwise
    /// the `S`-column term list the kernels evaluate.
    fn resolve_residual_terms(&self, vr: &ResidualVec, i: usize) -> Option<Vec<Term<'_>>> {
        for &(pos, sym, op) in &vr.r_checks {
            let cell = self.cols_r.get(i, pos);
            let pass = match op {
                TermOp::Eq => cell == sym,
                TermOp::Ne => cell != sym && cell != NULL_SYM,
            };
            if !pass {
                return None;
            }
        }
        let mut terms = Vec::with_capacity(vr.joins.len() + vr.s_consts.len());
        for &(rp, sp) in &vr.joins {
            let sym = self.cols_r.get(i, rp);
            if sym == NULL_SYM {
                return None;
            }
            terms.push(Term {
                col: self.cols_s.col(sp),
                sym,
                op: TermOp::Eq,
            });
        }
        for &(sp, sym, op) in &vr.s_consts {
            terms.push(Term {
                col: self.cols_s.col(sp),
                sym,
                op,
            });
        }
        Some(terms)
    }

    /// One driver's pass over one `S` tile: lane-wide masks from the
    /// vector rules, scalar `fires` filling lanes they left unset,
    /// matching/refuted rows appended in ascending order.
    #[allow(clippy::too_many_arguments)]
    fn residual_driver_tile(
        &self,
        i: usize,
        range: Range<usize>,
        id_terms: &[Vec<Term<'_>>],
        id_scalar: &[&InternedRule],
        dist_terms: &[Vec<Term<'_>>],
        dist_scalar: &[&InternedRule],
        kernel: &mut KernelTally,
        match_buf: &mut Vec<u32>,
        neg_buf: &mut Vec<u32>,
    ) {
        let vectored = !id_terms.is_empty() || !dist_terms.is_empty();
        if vectored {
            kernel.batches += 1;
        }
        let scalar_any = |rules: &[&InternedRule], j: usize| {
            rules
                .iter()
                .any(|r| r.fires(&self.cols_r, i, &self.cols_s, j, &self.interner))
        };
        let mut j = range.start;
        while j + LANES <= range.end {
            let fill = |term_lists: &[Vec<Term<'_>>], scalar: &[&InternedRule]| -> Mask {
                let mut mask: Mask = 0;
                for terms in term_lists {
                    if mask == FULL_MASK {
                        break;
                    }
                    mask |= kernels::conj_chunk(terms, j);
                }
                if !scalar.is_empty() && mask != FULL_MASK {
                    for lane in 0..LANES {
                        if mask & (1 << lane) == 0 && scalar_any(scalar, j + lane) {
                            mask |= 1 << lane;
                        }
                    }
                }
                mask
            };
            let mut m = fill(id_terms, id_scalar);
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                match_buf.push((j + lane) as u32);
                m &= m - 1;
            }
            let mut d = fill(dist_terms, dist_scalar);
            while d != 0 {
                let lane = d.trailing_zeros() as usize;
                neg_buf.push((j + lane) as u32);
                d &= d - 1;
            }
            if vectored {
                kernel.lane_rows += LANES as u64;
            }
            j += LANES;
        }
        while j < range.end {
            let id_hit = id_terms.iter().any(|t| t.iter().all(|term| term.test(j)))
                || scalar_any(id_scalar, j);
            if id_hit {
                match_buf.push(j as u32);
            }
            let dist_hit = dist_terms.iter().any(|t| t.iter().all(|term| term.test(j)))
                || scalar_any(dist_scalar, j);
            if dist_hit {
                neg_buf.push(j as u32);
            }
            if vectored {
                kernel.scalar_tail += 1;
            }
            j += 1;
        }
    }

    /// Vectorized identity plan over one driver chunk: each driver's
    /// join symbols (plus the rule's `S` constants) become a term
    /// conjunction the equality kernel scans over `S` in L2-sized
    /// tiles. Every emitted row *definitely* fires the full rule (the
    /// terms cover all of its predicates), so there is no per-pair
    /// verification — and the emission order (drivers ascending, `S`
    /// rows ascending per driver) is byte-identical to the probe twin.
    fn run_vector_eq(
        &self,
        shape: &InternedIdentityShape,
        tile: usize,
        drivers: &[u32],
        kernel: &mut KernelTally,
        out: &mut Vec<(u32, u32)>,
        mut tracer: Option<&mut TaskTracer>,
    ) -> Tally {
        let s_rows = self.cols_s.rows();
        let terms_of: Vec<Option<Vec<Term<'_>>>> = drivers
            .iter()
            .map(|&i| {
                let mut terms = Vec::with_capacity(shape.join.len() + shape.s_lits.len());
                for &(rp, sp) in &shape.join {
                    let sym = self.cols_r.get(i as usize, rp);
                    if sym == NULL_SYM {
                        return None;
                    }
                    terms.push(Term {
                        col: self.cols_s.col(sp),
                        sym,
                        op: TermOp::Eq,
                    });
                }
                for &(sp, sym) in &shape.s_lits {
                    terms.push(Term {
                        col: self.cols_s.col(sp),
                        sym,
                        op: TermOp::Eq,
                    });
                }
                Some(terms)
            })
            .collect();
        let mut bufs: Vec<Vec<u32>> = vec![Vec::new(); drivers.len()];
        let mut tile_start = 0usize;
        while tile_start < s_rows {
            let tile_end = (tile_start + tile).min(s_rows);
            let pre = tracer.as_deref().map(|t| (t.now(), kernel.batches));
            for (di, terms) in terms_of.iter().enumerate() {
                if let Some(terms) = terms {
                    let buf = &mut bufs[di];
                    kernels::conj_scan(terms, tile_start..tile_end, kernel, |j| buf.push(j));
                }
            }
            if let (Some(t), Some((t0, b0))) = (tracer.as_deref_mut(), pre) {
                t.record_tile(t0, kernel.batches - b0);
            }
            tile_start = tile_end;
        }
        let mut candidates = 0u64;
        let mut accepted = 0u64;
        out.reserve(bufs.iter().map(Vec::len).sum());
        for (di, &i) in drivers.iter().enumerate() {
            if terms_of[di].is_some() {
                candidates += s_rows as u64;
            }
            accepted += bufs[di].len() as u64;
            out.extend(bufs[di].iter().map(|&j| (i, j)));
        }
        Tally::Block {
            candidates,
            accepted,
        }
    }

    /// Vectorized distinctness plan over one driver chunk: the
    /// build-phase disagreement kernel already proved every driver
    /// disagrees with the constant (and satisfies its side's
    /// literals), and every literal-block row satisfies the opposite
    /// side's literals — so every (driver, literal-row) pair
    /// definitely fires and execution is pure pair emission. The
    /// emission order matches the scalar twin's ascending driver
    /// enumeration exactly.
    fn run_vector_disagree<S: PairSink>(
        &self,
        shape: &InternedDistinctShape,
        drivers: &[u32],
        indexes: &Indexes,
        out: &mut S,
    ) -> Tally {
        let neq_side = RelSide::from(shape.neq.0);
        let lit_side = neq_side.opposite();
        let lit_lits = match neq_side {
            RelSide::R => &shape.s_lits,
            RelSide::S => &shape.r_lits,
        };
        let lit_vec = indexes
            .lit_rows(lit_side, lit_lits, self.side_rows(lit_side))
            .to_vec();
        match neq_side {
            RelSide::R => {
                // Bulk cross-product emission: the sharded sink ORs a
                // prebuilt row template per driver instead of setting
                // bits one by one.
                out.push_rows(drivers, &lit_vec);
            }
            RelSide::S => {
                for &j in drivers {
                    for &i in &lit_vec {
                        out.push(i, j);
                    }
                }
            }
        }
        let pairs = drivers.len() as u64 * lit_vec.len() as u64;
        Tally::Block {
            candidates: pairs,
            accepted: pairs,
        }
    }

    /// Flushes one block plan's aggregated tallies: global blocking
    /// precision, the per-rule breakdown, and the plan node's own
    /// counters (joinable back to the plan JSON by node id).
    fn flush_block(&self, family: &str, rule: &str, node: usize, candidates: u64, accepted: u64) {
        self.recorder.add(counter::BLOCK_CANDIDATES, candidates);
        self.recorder.add(counter::BLOCK_ACCEPTED, accepted);
        self.recorder
            .add(counter::BLOCK_REJECTED, candidates - accepted);
        self.recorder
            .add(&rule_counter(family, rule, "candidates"), candidates);
        self.recorder
            .add(&rule_counter(family, rule, "accepted"), accepted);
        self.recorder
            .add(&node_counter(node, "candidates"), candidates);
        self.recorder.add(&node_counter(node, "accepted"), accepted);
    }

    /// Identity probe plan over one driver chunk: the drivers are the
    /// literal-filtered `R` rows; with a blocking key each probes the
    /// symbol-keyed `S` index on the planner-chosen `positions`
    /// (literal constants folded into the probe key), without one
    /// (`positions = None`, join-free rules) the plan degrades to a
    /// literal-filtered cross product — the shape of constant-only
    /// rules like the paper's `r1`.
    fn run_identity(
        &self,
        rule: &InternedRule,
        shape: &InternedIdentityShape,
        positions: Option<&[usize]>,
        drivers: &[u32],
        indexes: &Indexes,
        out: &mut Vec<(u32, u32)>,
    ) -> Tally {
        let mut candidates = 0u64;
        let mut accepted = 0u64;
        let Some(positions) = positions else {
            let s_rows = indexes.lit_rows(RelSide::S, &shape.s_lits, self.cols_s.rows());
            for &i in drivers {
                for j in s_rows.iter() {
                    candidates += 1;
                    if rule.fires(
                        &self.cols_r,
                        i as usize,
                        &self.cols_s,
                        j as usize,
                        &self.interner,
                    ) {
                        accepted += 1;
                        out.push((i, j));
                    }
                }
            }
            return Tally::Block {
                candidates,
                accepted,
            };
        };
        let index = indexes.multi(RelSide::S, positions);
        let mut key = vec![NULL_SYM; positions.len()];
        for &i in drivers {
            if !identity_probe_key(shape, positions, &self.cols_r, i as usize, &mut key) {
                continue;
            }
            for &j in index.probe(&key) {
                candidates += 1;
                if rule.fires(
                    &self.cols_r,
                    i as usize,
                    &self.cols_s,
                    j as usize,
                    &self.interner,
                ) {
                    accepted += 1;
                    out.push((i, j));
                }
            }
        }
        Tally::Block {
            candidates,
            accepted,
        }
    }

    /// Distinctness probe plan over one driver chunk: the drivers are
    /// the `≠`-side rows (disagreement-group members, or that side's
    /// own literal probe); each pairs with every literal-probe row of
    /// the opposite side. Cost is proportional to the refuted pairs,
    /// not to `|R|·|S|`.
    fn run_distinct<S: PairSink>(
        &self,
        rule: &InternedRule,
        shape: &InternedDistinctShape,
        drivers: &[u32],
        indexes: &Indexes,
        out: &mut S,
    ) -> Tally {
        let neq_side = RelSide::from(shape.neq.0);
        let lit_side = neq_side.opposite();
        let lit_lits = match neq_side {
            RelSide::R => &shape.s_lits,
            RelSide::S => &shape.r_lits,
        };
        let lit_rows = indexes.lit_rows(lit_side, lit_lits, self.side_rows(lit_side));
        let mut candidates = 0u64;
        let mut accepted = 0u64;
        for &neq_row in drivers {
            for lit_row in lit_rows.iter() {
                let (i, j) = match neq_side {
                    RelSide::R => (neq_row, lit_row),
                    RelSide::S => (lit_row, neq_row),
                };
                candidates += 1;
                if rule.fires(
                    &self.cols_r,
                    i as usize,
                    &self.cols_s,
                    j as usize,
                    &self.interner,
                ) {
                    accepted += 1;
                    out.push(i, j);
                }
            }
        }
        Tally::Block {
            candidates,
            accepted,
        }
    }

    fn side_rows(&self, side: RelSide) -> usize {
        match side {
            RelSide::R => self.cols_r.rows(),
            RelSide::S => self.cols_s.rows(),
        }
    }

    fn side_cols(&self, side: RelSide) -> &Columns {
        match side {
            RelSide::R => &self.cols_r,
            RelSide::S => &self.cols_s,
        }
    }

    /// Walks the lowered plans once and eagerly builds every index
    /// they will probe, so the (read-only) cache can be shared across
    /// workers.
    fn build_indexes(&self, kinds: &[PlanKind<'_>]) -> Indexes {
        let mut indexes = Indexes::default();
        let mut want_multi: Vec<(RelSide, Vec<usize>)> = Vec::new();
        for kind in kinds {
            match kind {
                PlanKind::Identity {
                    shape, positions, ..
                } => {
                    if let Some(p) = lit_positions(&shape.r_lits) {
                        want_multi.push((RelSide::R, p));
                    }
                    match positions {
                        Some(positions) => want_multi.push((RelSide::S, positions.clone())),
                        None => {
                            if let Some(p) = lit_positions(&shape.s_lits) {
                                want_multi.push((RelSide::S, p));
                            }
                        }
                    }
                }
                PlanKind::VectorEq { shape, .. } => {
                    if let Some(p) = lit_positions(&shape.r_lits) {
                        want_multi.push((RelSide::R, p));
                    }
                }
                PlanKind::Distinct { shape, .. } | PlanKind::VectorDisagree { shape, .. } => {
                    let neq_side = RelSide::from(shape.neq.0);
                    let (lit_lits, neq_lits) = match neq_side {
                        RelSide::R => (&shape.s_lits, &shape.r_lits),
                        RelSide::S => (&shape.r_lits, &shape.s_lits),
                    };
                    if let Some(p) = lit_positions(lit_lits) {
                        want_multi.push((neq_side.opposite(), p));
                    }
                    // With no `≠`-side literals the drivers come from
                    // a direct ascending scan of the `≠` column — no
                    // index needed.
                    if let Some(p) = lit_positions(neq_lits) {
                        want_multi.push((neq_side, p));
                    }
                }
                PlanKind::Residual { .. } => {}
            }
        }
        for (side, positions) in want_multi {
            let cols = self.side_cols(side);
            indexes
                .side_mut(side)
                .multi
                .entry(positions.clone())
                .or_insert_with(|| SymIndex::build(cols, &positions));
        }
        indexes
    }

    /// Materializes each plan's driver rows and per-driver candidate
    /// weights (exact probe-result sizes for identity hash joins,
    /// uniform fan-out everywhere else) — what the chunker splits by.
    fn build_plans<'e>(
        &self,
        kinds: Vec<PlanKind<'e>>,
        node_of: &[usize],
        indexes: &Indexes,
    ) -> Vec<Plan<'e>> {
        let mut plans = Vec::with_capacity(kinds.len() + 1);
        // Driver enumeration for vector plans runs the disagreement
        // kernel here, on the main thread — its batches are flushed
        // directly (task-phase tallies travel via TaskReport).
        let mut build_tally = KernelTally::default();
        for (kind, &node) in kinds.into_iter().zip(node_of) {
            let (drivers, weights) = match &kind {
                PlanKind::Identity {
                    shape, positions, ..
                } => {
                    let drivers = indexes
                        .lit_rows(RelSide::R, &shape.r_lits, self.cols_r.rows())
                        .to_vec();
                    match positions {
                        None => {
                            let fan_out = indexes
                                .lit_rows(RelSide::S, &shape.s_lits, self.cols_s.rows())
                                .len() as u64;
                            (drivers, PlanWeights::Uniform(fan_out))
                        }
                        Some(positions) => {
                            let index = indexes.multi(RelSide::S, positions);
                            let mut key = vec![NULL_SYM; positions.len()];
                            let weights = drivers
                                .iter()
                                .map(|&i| {
                                    if identity_probe_key(
                                        shape,
                                        positions,
                                        &self.cols_r,
                                        i as usize,
                                        &mut key,
                                    ) {
                                        index.probe(&key).len() as u32
                                    } else {
                                        0
                                    }
                                })
                                .collect();
                            (drivers, PlanWeights::Per(weights))
                        }
                    }
                }
                PlanKind::Distinct { shape, .. } => {
                    let neq_side = RelSide::from(shape.neq.0);
                    let (lit_lits, neq_lits) = match neq_side {
                        RelSide::R => (&shape.s_lits, &shape.r_lits),
                        RelSide::S => (&shape.r_lits, &shape.s_lits),
                    };
                    let fan_out = indexes
                        .lit_rows(
                            neq_side.opposite(),
                            lit_lits,
                            self.side_rows(neq_side.opposite()),
                        )
                        .len() as u64;
                    let drivers = if fan_out == 0 {
                        Vec::new() // nothing to pair with
                    } else if neq_lits.is_empty() {
                        // The ILFD-induced shape: rows disagreeing
                        // with the constant, in ascending row order —
                        // the same enumeration the disagreement
                        // kernel produces, so the vectorized twin is
                        // byte-identical.
                        let col = self.side_cols(neq_side).col(shape.neq.1);
                        let mut drivers = Vec::new();
                        for (row, &sym) in col.iter().enumerate() {
                            if sym != shape.neq.2 && sym != NULL_SYM {
                                drivers.push(row as u32);
                            }
                        }
                        drivers
                    } else {
                        indexes
                            .lit_rows(neq_side, neq_lits, self.side_rows(neq_side))
                            .to_vec()
                    };
                    (drivers, PlanWeights::Uniform(fan_out))
                }
                PlanKind::VectorEq { shape, .. } => {
                    let drivers = indexes
                        .lit_rows(RelSide::R, &shape.r_lits, self.cols_r.rows())
                        .to_vec();
                    (drivers, PlanWeights::Uniform(self.cols_s.rows() as u64))
                }
                PlanKind::VectorDisagree { shape, .. } => {
                    let neq_side = RelSide::from(shape.neq.0);
                    let (lit_lits, neq_lits) = match neq_side {
                        RelSide::R => (&shape.s_lits, &shape.r_lits),
                        RelSide::S => (&shape.r_lits, &shape.s_lits),
                    };
                    let fan_out = indexes
                        .lit_rows(
                            neq_side.opposite(),
                            lit_lits,
                            self.side_rows(neq_side.opposite()),
                        )
                        .len() as u64;
                    let col = self.side_cols(neq_side).col(shape.neq.1);
                    let drivers = if fan_out == 0 {
                        Vec::new() // nothing to pair with
                    } else if neq_lits.is_empty() {
                        let mut drivers = Vec::with_capacity(col.len());
                        kernels::disagree_rows(col, shape.neq.2, &mut build_tally, &mut drivers);
                        drivers
                    } else {
                        let candidates = indexes
                            .lit_rows(neq_side, neq_lits, self.side_rows(neq_side))
                            .to_vec();
                        let mut drivers = Vec::with_capacity(candidates.len());
                        kernels::gather_disagree(
                            col,
                            shape.neq.2,
                            &candidates,
                            &mut build_tally,
                            &mut drivers,
                        );
                        drivers
                    };
                    (drivers, PlanWeights::Uniform(fan_out))
                }
                PlanKind::Residual { .. } => (
                    (0..self.cols_r.rows() as u32).collect(),
                    PlanWeights::Uniform(self.cols_s.rows() as u64),
                ),
            };
            plans.push(Plan {
                kind,
                node,
                drivers,
                weights,
            });
        }
        if !build_tally.is_zero() {
            self.recorder
                .add(counter::KERNEL_BATCHES, build_tally.batches);
            self.recorder
                .add(counter::KERNEL_LANES_USED, build_tally.lane_rows);
            self.recorder
                .add(counter::KERNEL_SCALAR_FALLBACK, build_tally.scalar_tail);
        }
        plans
    }
}

/// What an aborted attempt knows about its own progress.
struct TaskAbort {
    reason: AbortReason,
    completed: u64,
    tasks_total: u64,
    matching: u64,
    negative: u64,
}

impl TaskAbort {
    /// An abort before any task ran (entry checkpoint).
    fn early(reason: AbortReason) -> TaskAbort {
        TaskAbort {
            reason,
            completed: 0,
            tasks_total: 0,
            matching: 0,
            negative: 0,
        }
    }
}

/// One completed task-queue attempt: the per-task pair outputs plus
/// the merged streaming sinks, when the attempt ran streamed.
type TaskRun = (Vec<(EnginePairs, TaskReport)>, Option<MergedSink>);

/// Why one task-queue attempt did not complete.
enum TaskFailure {
    /// The guard tripped (budget, deadline, or cancellation).
    Aborted(TaskAbort),
    /// A task panicked; `completed` tasks finished before the drain
    /// stopped.
    Poisoned { completed: u64 },
    /// A spilled attempt's I/O failed terminally (spill-dir creation,
    /// or segment read-back at merge, each after retries): the
    /// emission ladder drops a rung (spilled → streamed) and the
    /// attempt reruns with resident shards.
    SpillFailed { completed: u64 },
}

/// Chunks every plan into the task list the workers drain.
fn build_tasks(plans: &[Plan<'_>]) -> Vec<Task> {
    let mut tasks: Vec<Task> = Vec::new();
    for (pid, plan) in plans.iter().enumerate() {
        for (drivers, est_pairs) in chunk_ranges(plan) {
            tasks.push(Task {
                plan: pid,
                drivers,
                est_pairs,
            });
        }
    }
    tasks
}

/// Splits one plan's drivers into contiguous ranges of roughly
/// [`CHUNK_TARGET_PAIRS`] candidate weight each, paired with each
/// range's exact weight. Always yields at least one range, so even
/// empty plans appear in the task list (and flush zero tallies).
fn chunk_ranges(plan: &Plan<'_>) -> Vec<(Range<usize>, u64)> {
    let len = plan.drivers.len();
    let total = plan.total_weight();
    let target = CHUNK_TARGET_PAIRS.max(total.div_ceil(MAX_CHUNKS_PER_PLAN));
    let mut ranges = Vec::new();
    let mut start = 0usize;
    let mut acc = 0u64;
    for i in 0..len {
        acc += plan.weight(i);
        if acc >= target {
            ranges.push((start..i + 1, acc));
            start = i + 1;
            acc = 0;
        }
    }
    if start < len || ranges.is_empty() {
        ranges.push((start..len, acc));
    }
    ranges
}

/// The shared, read-only index cache.
#[derive(Default)]
struct Indexes {
    r: SideIndexes,
    s: SideIndexes,
}

impl Indexes {
    fn side(&self, side: RelSide) -> &SideIndexes {
        match side {
            RelSide::R => &self.r,
            RelSide::S => &self.s,
        }
    }

    fn side_mut(&mut self, side: RelSide) -> &mut SideIndexes {
        match side {
            RelSide::R => &mut self.r,
            RelSide::S => &mut self.s,
        }
    }

    fn multi(&self, side: RelSide, positions: &[usize]) -> &SymIndex {
        &self.side(side).multi[positions]
    }

    /// The candidate rows satisfying equality literals: an index
    /// probe when there are literals, every row otherwise.
    fn lit_rows(&self, side: RelSide, lits: &[(usize, Sym)], len: usize) -> LitRows<'_> {
        match lit_positions(lits) {
            None => LitRows::All(len),
            Some(positions) => {
                let key = lit_probe_key(lits, &positions);
                LitRows::Probed(self.multi(side, &positions).probe(&key))
            }
        }
    }
}

/// Candidate row set for one side of a plan.
enum LitRows<'a> {
    /// Every row `0..len`.
    All(usize),
    /// The rows returned by an index probe.
    Probed(&'a [u32]),
}

impl LitRows<'_> {
    fn len(&self) -> usize {
        match self {
            LitRows::All(len) => *len,
            LitRows::Probed(rows) => rows.len(),
        }
    }

    fn iter(&self) -> Box<dyn Iterator<Item = u32> + '_> {
        match self {
            LitRows::All(len) => Box::new(0..*len as u32),
            LitRows::Probed(rows) => Box::new(rows.iter().copied()),
        }
    }

    fn to_vec(&self) -> Vec<u32> {
        match self {
            LitRows::All(len) => (0..*len as u32).collect(),
            LitRows::Probed(rows) => rows.to_vec(),
        }
    }
}

/// Sorted, deduplicated positions of a literal list; `None` when
/// there are no literals.
fn lit_positions(lits: &[(usize, Sym)]) -> Option<Vec<usize>> {
    if lits.is_empty() {
        return None;
    }
    let mut positions: Vec<usize> = lits.iter().map(|(p, _)| *p).collect();
    positions.sort_unstable();
    positions.dedup();
    Some(positions)
}

/// The probe key aligned with [`lit_positions`]: the first literal
/// symbol seen for each position. (A rule carrying two *different*
/// constants for one position can never fire; the final
/// verify-with-`fires` check rejects its candidates.) Positions all
/// come from `lits`, so the NULL_SYM arm is unreachable — and inert
/// if it ever were reached, since no row column holds NULL_SYM keys
/// in an index built over non-NULL groups.
fn lit_probe_key(lits: &[(usize, Sym)], positions: &[usize]) -> Vec<Sym> {
    positions
        .iter()
        .map(|p| {
            lits.iter()
                .find(|(lp, _)| lp == p)
                .map_or(NULL_SYM, |&(_, sym)| sym)
        })
        .collect()
}

/// Fills `key` (the caller's scratch buffer, one slot per chosen
/// blocking-key position): join columns take the `R` row's symbol,
/// literal columns their constant (literals win when a column is
/// both — the verify check covers the rest). `false` when a join
/// symbol is NULL (the rule cannot definitely fire). Works for any
/// subset of the shape's probe positions, which is what makes the
/// planner's key choice sound.
fn identity_probe_key(
    shape: &InternedIdentityShape,
    positions: &[usize],
    cols_r: &Columns,
    row: usize,
    key: &mut [Sym],
) -> bool {
    for (slot, sp) in positions.iter().enumerate() {
        if let Some((_, sym)) = shape.s_lits.iter().find(|(p, _)| p == sp) {
            key[slot] = *sym;
            continue;
        }
        // Every position comes from the join or the literals; a miss
        // here would mean a malformed plan — treat it as "cannot
        // definitely fire" rather than panicking in the hot loop.
        let Some((rp, _)) = shape.join.iter().find(|(_, p)| p == sp) else {
            return false;
        };
        let sym = cols_r.get(row, *rp);
        if sym == NULL_SYM {
            return false;
        }
        key[slot] = sym;
    }
    true
}
