//! The entity matcher — §4's proposed technique, end to end.
//!
//! Pipeline (§4.2):
//! 1. extend `R` and `S` with their missing extended-key attributes
//!    (NULL-filled) — [`crate::extend`];
//! 2. apply the ILFDs to derive the missing values;
//! 3. match: every pair of extended tuples with identical **non-NULL**
//!    extended-key values enters the matching table `MT_RS`;
//!    additional identity rules (if any) are evaluated pairwise;
//! 4. refute: distinctness rules — including those every ILFD induces
//!    via Proposition 1 — populate the negative matching table
//!    `NMT_RS`;
//! 5. verify: the uniqueness and consistency constraints of §3.2.
//!
//! Steps 3–4 run through one path: the matcher asks the
//! [`Executor`] for a cost-based
//! [`MatchPlan`] (cached across runs of the same matcher) and
//! executes it. [`JoinAlgorithm`] survives as the planner *hint*:
//! [`JoinAlgorithm::Blocked`] (the default) lets the planner choose
//! blocking keys and parallelism freely — identity rules become
//! inverted-index hash joins on their most selective columns,
//! ILFD-induced distinctness rules disagreement probes, the rest a
//! compiled pairwise scan. [`JoinAlgorithm::NestedLoop`] pins every
//! rule to the exhaustive scan — the correctness oracle the blocked
//! arm is equivalence-tested against, and the baseline for the
//! scaling benchmarks.
//!
//! Every arm runs under a [`RunGuard`] (see [`crate::runtime`]):
//! budgets and cancellation are honoured at chunk boundaries, and a
//! tripped run returns [`CoreError::Aborted`] with partial stats
//! instead of a half-built outcome.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use eid_ilfd::{IlfdSet, Strategy};
use eid_obs::alloc::{self, StageScope};
use eid_obs::{MatchReport, Recorder, Trace};
use eid_relational::{Relation, Tuple};
use eid_rules::{ExtendedKey, RuleBase};

use crate::engine::{EnginePairs, Executor};
use crate::error::{CoreError, Result};
use crate::extend::{extend_relation, Extended};
use crate::factorized::FactorizedPairs;
use crate::match_table::PairTable;
use crate::plan::{
    ArmHint, EmitHint, ExecMode, MatchPlan, PlanNodeKind, ProbeStrategy, StatsSource,
};
use crate::runtime::{AbortReason, RunBudget, RunGuard};
use crate::sink::PairSet;
use crate::stats::{alloc_slot, counter, label, plan_key_label, span};
use crate::store::Dataset;

/// Below this many raw engine pairs the convert step dedups the two
/// lists sequentially — same rationale as the engine's own serial
/// fallback. The spawn is also skipped outright on single-hardware-
/// thread hosts: a second dedup thread cannot overlap with the first
/// there, so it only adds spawn latency and cold-arena page faults.
const PARALLEL_CONVERT_MIN: usize = 50_000;

/// First-occurrence dedup of an engine pair list through `set`, in
/// id space. Takes the list by value and filters it in place: at
/// n=3200 the buffered negative list is ~40 MB, and a second
/// allocation of that size is re-faulted from fresh zero pages on
/// every run (it exceeds glibc's mmap threshold cap, so the pages are
/// returned to the kernel on free).
fn dedup_pairs(mut list: Vec<(u32, u32)>, mut set: PairSet) -> (Vec<(u32, u32)>, PairSet) {
    list.retain(|&(i, j)| set.insert(i, j));
    (list, set)
}

/// The matching list's dedup: a hash set of packed pairs, sized by
/// the (small) list rather than by the `|R|·|S|` grid.
fn dedup_matching(list: Vec<(u32, u32)>) -> (Vec<(u32, u32)>, PairSet) {
    let set = PairSet::hashed(list.len());
    dedup_pairs(list, set)
}

/// Dedups both raw engine pair lists of a buffered run — the one
/// convert code path for the parallel and serial cases alike. With
/// `parallel` set, the negative list dedups on a scoped worker while
/// the main thread handles the matching list; the two are independent
/// until the overlap count. A worker that dies takes the raw negative
/// list with it — there is nothing to degrade to, so that surfaces as
/// [`CoreError::WorkerPanic`].
type DedupedPairs = ((Vec<(u32, u32)>, PairSet), (Vec<(u32, u32)>, PairSet));

fn dedup_pair_lists(
    raw_matching: Vec<(u32, u32)>,
    raw_negative: Vec<(u32, u32)>,
    r_len: usize,
    s_len: usize,
    parallel: bool,
) -> Result<DedupedPairs> {
    let dedup_negative = |list: Vec<(u32, u32)>| {
        let set = PairSet::new(r_len, s_len, list.len());
        dedup_pairs(list, set)
    };
    if parallel {
        std::thread::scope(|scope| {
            let neg = scope.spawn(|| dedup_negative(raw_negative));
            let mat = dedup_matching(raw_matching);
            match neg.join() {
                Ok(n) => Ok((mat, n)),
                Err(_) => Err(CoreError::WorkerPanic {
                    site: "convert/worker".into(),
                }),
            }
        })
    } else {
        Ok((dedup_matching(raw_matching), dedup_negative(raw_negative)))
    }
}

/// How the matching and refutation phases are executed — since the
/// plan-IR refactor, a planner *hint* rather than a separate code
/// path (every arm lowers to a [`MatchPlan`] run by the executor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinAlgorithm {
    /// Let the planner choose: precompiled rules, cost-chosen
    /// per-rule inverted-index blocking, chunked data parallelism.
    /// Output-sensitive.
    #[default]
    Blocked,
    /// Pin every rule to the exhaustive serial scan of all
    /// `|R|·|S|` pairs — the oracle.
    NestedLoop,
}

/// Configuration of a matching run.
#[derive(Debug, Clone)]
pub struct MatchConfig {
    /// The extended key `K_Ext` asserted by the DBA.
    pub extended_key: ExtendedKey,
    /// The available ILFDs (used for derivation, and for distinctness
    /// via Proposition 1 when `use_ilfd_distinctness` is set).
    pub ilfds: IlfdSet,
    /// Derivation strategy for missing values.
    pub strategy: Strategy,
    /// Join algorithm for the identity phase.
    pub join: JoinAlgorithm,
    /// Extra identity/distinctness rules beyond extended-key
    /// equivalence (e.g. hand-asserted rules like the paper's r1/r3).
    pub extra_rules: RuleBase,
    /// Whether each ILFD also contributes its Proposition-1
    /// distinctness rule to the refutation phase.
    pub use_ilfd_distinctness: bool,
    /// Whether to run the refutation phase at all. Off for
    /// pure-matching scaling benchmarks.
    pub collect_negative: bool,
    /// Worker threads for [`JoinAlgorithm::Blocked`]: `0` uses the
    /// machine's available parallelism, `1` runs serially. The
    /// result is identical for any value.
    pub threads: usize,
    /// Resource budget for the run (deadline, max candidate pairs,
    /// max pair-list bytes). Unlimited by default.
    pub budget: RunBudget,
    /// Whether the planner may dispatch kernel-eligible rules to
    /// vectorized `VectorScan` nodes (defaults to the `EID_KERNELS`
    /// environment setting). Classification is identical either way.
    pub kernels: bool,
    /// Whether to capture an execution timeline
    /// ([`MatchOutcome::trace`], exportable as Chrome `trace_event`
    /// JSON). Off by default — tracing costs a few hundred bytes per
    /// engine task when on, nothing when off.
    pub trace: bool,
    /// Emission-path hint for the refutation phase:
    /// [`EmitHint::Auto`] (the default) folds dedup into emission via
    /// sharded bitset sinks wherever a sink geometry exists,
    /// [`EmitHint::Spilled`] forces those shards out-of-core.
    /// Classification is identical either way.
    pub emit: EmitHint,
    /// Whether sharded sinks may spill to disk when the pair volume
    /// exceeds [`RunBudget::max_pair_bytes`]. On (the default), a
    /// tight byte budget degrades to out-of-core emission instead of
    /// aborting; off (`--no-spill`) restores abort as the only
    /// response to a tripped byte budget.
    pub spill: bool,
    /// Parent directory for spill files. `None` (the default) uses
    /// the system temp dir; each run creates — and removes — its own
    /// uniquely-named subdirectory underneath.
    pub spill_dir: Option<std::path::PathBuf>,
    /// Keep the spill directory after the run instead of removing it
    /// (`--keep-spill`) — a debugging escape hatch.
    pub keep_spill: bool,
}

impl MatchConfig {
    /// The common configuration: an extended key plus ILFDs,
    /// first-match derivation, the blocked engine with automatic
    /// parallelism, ILFD distinctness on.
    pub fn new(extended_key: ExtendedKey, ilfds: IlfdSet) -> Self {
        MatchConfig {
            extended_key,
            ilfds,
            strategy: Strategy::FirstMatch,
            join: JoinAlgorithm::Blocked,
            extra_rules: RuleBase::new(),
            use_ilfd_distinctness: true,
            collect_negative: true,
            threads: 0,
            budget: RunBudget::default(),
            kernels: crate::kernels::enabled_default(),
            trace: false,
            emit: EmitHint::Auto,
            spill: true,
            spill_dir: None,
            keep_spill: false,
        }
    }
}

/// The complete result of a matching run.
#[derive(Debug, Clone)]
pub struct MatchOutcome {
    /// The matching table `MT_RS` (key-value pairs).
    pub matching: PairTable,
    /// The negative matching table `NMT_RS`.
    pub negative: PairTable,
    /// Extended relation `R′` with derivation reports.
    pub extended_r: Extended,
    /// Extended relation `S′` with derivation reports.
    pub extended_s: Extended,
    /// Number of pairs left undetermined
    /// (`|R|·|S| − |MT| − |NMT|`, Figure 3's middle region).
    pub undetermined: usize,
    /// What the run observed: per-stage timings, engine counters,
    /// task-time histogram. Names are the [`crate::stats`]
    /// constants; the schema is documented in DESIGN.md.
    pub stats: MatchReport,
    /// The execution timeline, when [`MatchConfig::trace`] was set:
    /// one slice per engine task attributed to its plan node and
    /// worker, with nested kernel-tile slices. Serialize with
    /// [`Trace::to_chrome_json`] for Perfetto / `chrome://tracing`.
    pub trace: Option<Trace>,
}

impl MatchOutcome {
    /// Runs the §3.2 verifications: uniqueness of the matching table
    /// and its consistency with the negative table.
    pub fn verify(&self) -> Result<()> {
        self.matching.verify_uniqueness()?;
        self.matching.verify_consistency(&self.negative)
    }

    /// Whether the outcome is *complete*: no undetermined pairs.
    pub fn is_complete(&self) -> bool {
        self.undetermined == 0
    }
}

/// The matcher's memoized plan plus cache hit/miss accounting. The
/// plan depends only on the matcher's relations and config, both
/// immutable, so the first run's plan is reused verbatim by every
/// later run (and shared by clones of the matcher).
#[derive(Debug, Default)]
struct PlanCache {
    slot: Mutex<Option<Arc<MatchPlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The entity matcher over a pair of relations.
#[derive(Debug, Clone)]
pub struct EntityMatcher {
    r: Relation,
    s: Relation,
    config: MatchConfig,
    /// When present, the matcher runs against this persistent (or
    /// pre-encoded) dataset: derivation, interning, and columnar
    /// encoding are *skipped* — the store's artifacts are adopted
    /// as-is, and the planner consumes the persisted column
    /// statistics instead of recomputing them.
    dataset: Option<Arc<Dataset>>,
    plan_cache: Arc<PlanCache>,
}

impl EntityMatcher {
    /// Builds a matcher; rejects empty extended keys.
    pub fn new(r: Relation, s: Relation, config: MatchConfig) -> Result<Self> {
        if config.extended_key.is_empty() {
            return Err(CoreError::EmptyExtendedKey);
        }
        Ok(EntityMatcher {
            r,
            s,
            config,
            dataset: None,
            plan_cache: Arc::new(PlanCache::default()),
        })
    }

    /// Builds a matcher over an encoded [`Dataset`] — the store-backed
    /// fast path. The dataset's extended relations, interner, symbol
    /// columns, and column statistics are reused verbatim, so a run
    /// does no derivation, no interning, and no stats recomputation.
    /// The config's extended key and strategy must agree with what the
    /// dataset was encoded under (the persisted extension is only
    /// valid for that pair); a mismatch is a typed
    /// [`CoreError::Store`], not silent re-derivation.
    pub fn from_dataset(dataset: Arc<Dataset>, config: MatchConfig) -> Result<Self> {
        if config.extended_key.is_empty() {
            return Err(CoreError::EmptyExtendedKey);
        }
        if config.extended_key != *dataset.extended_key() {
            return Err(CoreError::Store {
                path: dataset.name().to_string(),
                reason: format!(
                    "extended key mismatch: dataset encoded under {:?}, config asks {:?}",
                    dataset.extended_key().attrs(),
                    config.extended_key.attrs()
                ),
            });
        }
        if config.strategy != dataset.strategy() {
            return Err(CoreError::Store {
                path: dataset.name().to_string(),
                reason: format!(
                    "derivation strategy mismatch: dataset encoded under {:?}, config asks {:?}",
                    dataset.strategy(),
                    config.strategy
                ),
            });
        }
        Ok(EntityMatcher {
            r: dataset.r()?.clone(),
            s: dataset.s()?.clone(),
            config,
            dataset: Some(dataset),
            plan_cache: Arc::new(PlanCache::default()),
        })
    }

    /// The dataset this matcher runs against, when store-backed.
    pub fn dataset(&self) -> Option<&Arc<Dataset>> {
        self.dataset.as_ref()
    }

    /// The source relation `R`.
    pub fn r(&self) -> &Relation {
        &self.r
    }

    /// The source relation `S`.
    pub fn s(&self) -> &Relation {
        &self.s
    }

    /// The configuration.
    pub fn config(&self) -> &MatchConfig {
        &self.config
    }

    /// The full rule base in force: extended-key equivalence, extra
    /// rules, and (optionally) the ILFD-induced distinctness rules.
    pub fn rule_base(&self) -> Result<RuleBase> {
        let mut rb = self.config.extra_rules.clone();
        rb.add_identity(self.config.extended_key.identity_rule()?);
        if self.config.use_ilfd_distinctness {
            rb.add_ilfd_distinctness(&self.config.ilfds);
        }
        Ok(rb)
    }

    /// Runs the pipeline and returns the outcome. The §3.2
    /// constraints are **not** enforced here — call
    /// [`MatchOutcome::verify`] (the prototype's `setup_extkey` does,
    /// printing a warning instead of failing). The configured
    /// [`MatchConfig::budget`] is enforced: a tripped run returns
    /// [`CoreError::Aborted`] with partial stats.
    pub fn run(&self) -> Result<MatchOutcome> {
        self.run_guarded(&RunGuard::new(&self.config.budget))
    }

    /// [`EntityMatcher::run`] under a caller-held [`RunGuard`] — the
    /// caller keeps a clone to [`RunGuard::cancel`] from another
    /// thread. The guard's own budget wins over
    /// [`MatchConfig::budget`] (they are the same object when called
    /// via [`EntityMatcher::run`]).
    pub fn run_guarded(&self, guard: &RunGuard) -> Result<MatchOutcome> {
        let recorder = Recorder::new();
        let run_span = recorder.span(span::MATCH);
        // With the counting allocator installed, the run's measured
        // byte deltas (and per-stage attribution from the StageScope
        // tags below) land in the `alloc/*` counters at the end.
        let alloc_start = alloc::snapshot();
        guard.checkpoint().map_err(|r| abort_of(guard, r))?;
        let derive_span = recorder.span(span::DERIVE);
        let _derive_stage = StageScope::enter(alloc_slot::DERIVE);
        // A dataset-backed run skips derivation entirely: the
        // extended relations (and their derive stats, re-reported
        // below) were persisted at encode time. The spans still open
        // and close so the report schema is identical either way.
        let (ext_r, ext_s) = match &self.dataset {
            Some(ds) => {
                let _r = recorder.span(span::DERIVE_R);
                let ext_r = ds.ext_r()?.clone();
                drop(_r);
                let _s = recorder.span(span::DERIVE_S);
                (ext_r, ds.ext_s()?.clone())
            }
            None => {
                let ext_r = {
                    let _span = recorder.span(span::DERIVE_R);
                    extend_relation(
                        &self.r,
                        &self.config.extended_key,
                        &self.config.ilfds,
                        self.config.strategy,
                    )?
                };
                let ext_s = {
                    let _span = recorder.span(span::DERIVE_S);
                    extend_relation(
                        &self.s,
                        &self.config.extended_key,
                        &self.config.ilfds,
                        self.config.strategy,
                    )?
                };
                (ext_r, ext_s)
            }
        };
        drop(_derive_stage);
        derive_span.finish();
        for (name, r_n, s_n) in [
            (
                counter::DERIVE_TUPLES,
                ext_r.stats.tuples,
                ext_s.stats.tuples,
            ),
            (
                counter::DERIVE_MEMO_HITS,
                ext_r.stats.memo_hits,
                ext_s.stats.memo_hits,
            ),
            (
                counter::DERIVE_MEMO_MISSES,
                ext_r.stats.memo_misses,
                ext_s.stats.memo_misses,
            ),
            (
                counter::DERIVE_ASSIGNED,
                ext_r.stats.assigned,
                ext_s.stats.assigned,
            ),
        ] {
            recorder.add(name, (r_n + s_n) as u64);
        }

        let rb = self.rule_base()?;
        guard.checkpoint().map_err(|r| abort_of(guard, r))?;
        let engine_span = recorder.span(span::ENGINE);
        let engine_stage = StageScope::enter(alloc_slot::ENGINE);
        // Construction compiles + encodes; a panic there (e.g.
        // interner poisoning past the executor's own retry) has no
        // degraded arm to fall to — surface it as a typed error
        // instead of unwinding the caller.
        let executor = catch_unwind(AssertUnwindSafe(|| -> Result<Executor> {
            let mut executor = self.build_executor(&ext_r, &ext_s, &rb, recorder.clone())?;
            executor.set_kernels(self.config.kernels);
            executor.set_trace(self.config.trace);
            executor.set_emit(self.config.emit);
            executor.set_spill(
                self.config.budget.max_pair_bytes,
                self.config.spill,
                self.config
                    .spill_dir
                    .as_ref()
                    .map(|p| p.display().to_string()),
                self.config.keep_spill,
            );
            Ok(executor)
        }))
        .map_err(|_| CoreError::WorkerPanic {
            site: "engine/encode".into(),
        })??;
        let plan = self.cached_plan(&executor);
        let (cache_hits, cache_misses) = self.plan_cache_stats();
        recorder.add(counter::PLAN_CACHE_HITS, cache_hits);
        recorder.add(counter::PLAN_CACHE_MISSES, cache_misses);
        record_plan_labels(&recorder, &plan);
        let pairs = executor.execute(&plan, guard)?;
        let trace = executor.take_trace();
        drop(engine_stage);
        engine_span.finish();
        let convert_span = recorder.span(span::CONVERT);
        let convert_stage = StageScope::enter(alloc_slot::CONVERT);
        // Stay in id space: dedup the raw pair lists on row indices
        // (a hash set for MT; a dense bitset for a buffered NMT when
        // the pair grid is small enough), count the MT/NMT overlap by
        // NMT membership of each MT pair, and hand the tables
        // *compact* pair lists plus shared per-row key pools. Key
        // tuples are projected once per row — never per pair — and
        // entry rows only materialize if a consumer asks for
        // Value-land.
        let r_len = self.r.len();
        let s_len = self.s.len();
        let pk_r: Arc<[Tuple]> = self.r.iter().map(|t| self.r.primary_key_of(t)).collect();
        let pk_s: Arc<[Tuple]> = self.s.iter().map(|t| self.s.primary_key_of(t)).collect();
        recorder.add(counter::ALLOC_TUPLES_MATERIALIZED, (r_len + s_len) as u64);
        guard.checkpoint().map_err(|r| abort_of(guard, r))?;
        let EnginePairs {
            matching: raw_matching,
            negative: raw_negative,
            negative_set,
        } = pairs;
        let streamed = negative_set.is_some();
        let raw_pairs = raw_matching.len() + raw_negative.len();
        let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        // `threads: 0` (auto) only spawns when the host is actually
        // multicore; an explicit count is honoured even on one core
        // (like the engine arm, the scoped worker just timeslices).
        let want_parallel = !streamed
            && raw_pairs >= PARALLEL_CONVERT_MIN
            && match self.config.threads {
                1 => false,
                0 => hw_threads > 1,
                _ => true,
            };
        // Fault site checked *before* the spawn: a degraded convert
        // runs the identical dedup serially on this thread, so no
        // data is lost to the dying worker.
        let inject_serial = want_parallel && eid_fault::hit("convert/worker");
        if inject_serial {
            recorder.add(counter::RUNTIME_CONVERT_SERIAL_FALLBACK, 1);
        }
        // The negative side of a streamed run needs no convert work
        // at all: the factorized set IS the deduplicated table index,
        // handed to `PairTable` as-is (entries decode lazily). Only
        // buffered runs still dedup an explicit negative pair list.
        enum NegIndexes {
            Streamed(FactorizedPairs),
            Buffered(Vec<(u32, u32)>, PairSet),
        }
        let ((m_pairs, m_set), neg) = match negative_set {
            Some(n_set) => (dedup_matching(raw_matching), NegIndexes::Streamed(n_set)),
            None => {
                let (m, (n_pairs, n_set)) = dedup_pair_lists(
                    raw_matching,
                    raw_negative,
                    r_len,
                    s_len,
                    want_parallel && !inject_serial,
                )?;
                (m, NegIndexes::Buffered(n_pairs, n_set))
            }
        };
        // Without the counting allocator the byte budget only sees
        // the engine's 8-bytes-per-pair model: charge convert's own
        // allocations — the dedup sets' capacity — so `--max-mem-mb`
        // trips consistently in both accounting modes. A streamed
        // negative table was already charged by the engine (rectangle
        // bitmaps per task, the residual grid at merge), and nothing
        // new materializes for it here.
        if !alloc::active() {
            let convert_bytes = m_set.capacity_bytes()
                + match &neg {
                    NegIndexes::Streamed(_) => 0,
                    NegIndexes::Buffered(_, n_set) => n_set.capacity_bytes(),
                };
            guard.charge_bytes(convert_bytes);
            guard.checkpoint().map_err(|r| abort_of(guard, r))?;
        }
        let overlap = match &neg {
            NegIndexes::Streamed(n_set) => n_set.intersection_count(&m_pairs),
            NegIndexes::Buffered(_, n_set) => m_pairs
                .iter()
                .filter(|&&(i, j)| n_set.contains(i, j))
                .count(),
        };
        let matching = PairTable::from_compact(
            self.r.schema().primary_key(),
            self.s.schema().primary_key(),
            pk_r.clone(),
            pk_s.clone(),
            m_pairs,
        );
        let negative = match neg {
            NegIndexes::Streamed(n_set) => PairTable::from_compact_set(
                self.r.schema().primary_key(),
                self.s.schema().primary_key(),
                pk_r,
                pk_s,
                n_set,
            ),
            NegIndexes::Buffered(n_pairs, _) => PairTable::from_compact(
                self.r.schema().primary_key(),
                self.s.schema().primary_key(),
                pk_r,
                pk_s,
                n_pairs,
            ),
        };
        drop(convert_stage);
        convert_span.finish();

        let total = self.r.len() * self.s.len();
        // Pairs recorded in both tables (inconsistent knowledge,
        // caught by verify()) must not be subtracted twice.
        let undetermined = (total + overlap)
            .saturating_sub(matching.len())
            .saturating_sub(negative.len());
        recorder.add(counter::CLASSIFY_MT, matching.len() as u64);
        recorder.add(counter::CLASSIFY_NMT, negative.len() as u64);
        recorder.add(counter::CLASSIFY_OVERLAP, overlap as u64);
        recorder.add(counter::CLASSIFY_UNDETERMINED, undetermined as u64);
        recorder.add(counter::CLASSIFY_PAIRS_TOTAL, total as u64);
        // Measured allocation totals only exist when the caller
        // installed the counting allocator (the `count-alloc`
        // feature); absent counters mean "estimated", not "zero".
        if alloc::active() {
            let delta = alloc::snapshot().since(&alloc_start);
            recorder.add(counter::ALLOC_MEASURED_BYTES, delta.allocated);
            recorder.add(counter::ALLOC_MEASURED_FREED, delta.freed);
            recorder.add(counter::ALLOC_PEAK_BYTES, delta.peak);
            recorder.add(
                counter::ALLOC_STAGE_DERIVE,
                delta.stages[alloc_slot::DERIVE],
            );
            recorder.add(
                counter::ALLOC_STAGE_ENGINE,
                delta.stages[alloc_slot::ENGINE],
            );
            recorder.add(
                counter::ALLOC_STAGE_CONVERT,
                delta.stages[alloc_slot::CONVERT],
            );
        }
        run_span.finish();
        let mut stats = recorder.report();
        stats.set_counter(
            counter::PLAN_DRIFT_NODES,
            crate::explain::drift_nodes(&plan, &stats),
        );
        Ok(MatchOutcome {
            matching,
            negative,
            extended_r: ext_r,
            extended_s: ext_s,
            undetermined,
            trace,
            stats,
        })
    }

    /// The [`MatchPlan`] this matcher's runs execute, planning (and
    /// caching) it if no run has happened yet. Pure planning — the
    /// relations are extended and encoded to read column statistics,
    /// but nothing executes. This is what `eid plan` prints.
    pub fn plan(&self) -> Result<Arc<MatchPlan>> {
        let (ext_r, ext_s) = match &self.dataset {
            Some(ds) => (ds.ext_r()?.clone(), ds.ext_s()?.clone()),
            None => (
                extend_relation(
                    &self.r,
                    &self.config.extended_key,
                    &self.config.ilfds,
                    self.config.strategy,
                )?,
                extend_relation(
                    &self.s,
                    &self.config.extended_key,
                    &self.config.ilfds,
                    self.config.strategy,
                )?,
            ),
        };
        let rb = self.rule_base()?;
        let mut executor = self.build_executor(&ext_r, &ext_s, &rb, Recorder::new())?;
        executor.set_kernels(self.config.kernels);
        executor.set_emit(self.config.emit);
        executor.set_spill(
            self.config.budget.max_pair_bytes,
            self.config.spill,
            self.config
                .spill_dir
                .as_ref()
                .map(|p| p.display().to_string()),
            self.config.keep_spill,
        );
        Ok(self.cached_plan(&executor))
    }

    /// Plan-cache accounting: `(hits, misses)` across all runs of
    /// this matcher (and its clones, which share the cache).
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        (
            self.plan_cache.hits.load(Ordering::Relaxed),
            self.plan_cache.misses.load(Ordering::Relaxed),
        )
    }

    /// Builds the executor for one run. The in-memory path interns
    /// and encodes the freshly-extended relations; the dataset path
    /// adopts the store's interner, symbol columns, and column
    /// statistics (tagged [`StatsSource::Persisted`] when the dataset
    /// was opened from disk), so no value is re-interned and no stat
    /// recomputed.
    fn build_executor(
        &self,
        ext_r: &Extended,
        ext_s: &Extended,
        rb: &RuleBase,
        recorder: Recorder,
    ) -> Result<Executor> {
        Ok(match &self.dataset {
            Some(ds) => {
                let mut executor = Executor::from_encoded(
                    &ext_r.relation,
                    &ext_s.relation,
                    rb,
                    ds.interner()?,
                    ds.cols_r(),
                    ds.cols_s(),
                    self.config.threads,
                    recorder,
                );
                executor.set_stats_override(
                    ds.stats_r().to_vec(),
                    ds.stats_s().to_vec(),
                    if ds.persisted() {
                        StatsSource::Persisted
                    } else {
                        StatsSource::Computed
                    },
                );
                executor
            }
            None => Executor::with_recorder(
                &ext_r.relation,
                &ext_s.relation,
                rb,
                self.config.threads,
                recorder,
            ),
        })
    }

    /// The planner hint [`MatchConfig::join`] pins.
    fn arm_hint(&self) -> ArmHint {
        match self.config.join {
            JoinAlgorithm::Blocked => ArmHint::Auto,
            JoinAlgorithm::NestedLoop => ArmHint::NestedLoop,
        }
    }

    /// Returns the cached plan, planning through `executor` on first
    /// use. The plan is a pure function of the matcher's (immutable)
    /// relations and config, so reuse is sound.
    fn cached_plan(&self, executor: &Executor) -> Arc<MatchPlan> {
        let mut slot = match self.plan_cache.slot.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(plan) = slot.as_ref() {
            self.plan_cache.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(plan);
        }
        let plan = Arc::new(executor.plan(true, self.config.collect_negative, self.arm_hint()));
        self.plan_cache.misses.fetch_add(1, Ordering::Relaxed);
        *slot = Some(Arc::clone(&plan));
        plan
    }
}

/// Stamps the planner's decisions into the run report as labels:
/// the execution mode (with its rationale) and, per probed identity
/// rule, the chosen blocking key's explanation.
fn record_plan_labels(recorder: &Recorder, plan: &MatchPlan) {
    let mode = match plan.mode {
        ExecMode::Serial { .. } => "serial".to_string(),
        ExecMode::Parallel { workers } => format!("parallel({workers})"),
    };
    recorder.set_label(
        label::PLAN_MODE,
        &format!("{mode}: {why}", why = plan.mode_why),
    );
    recorder.set_label(
        label::PLAN_EMIT,
        &format!("{}: {}", plan.emit.display(), plan.emit_why),
    );
    recorder.set_label(label::PLAN_STATS, plan.stats_source.as_str());
    for node in &plan.nodes {
        if let PlanNodeKind::IdentityProbe {
            rule,
            strategy: ProbeStrategy::Probe { .. },
        } = &node.kind
        {
            recorder.set_label(&plan_key_label(&rule.name), &node.why);
        }
    }
}

/// Wrap a tripped [`AbortReason`] into the typed [`CoreError::Aborted`]
/// carrying the guard's partial-progress snapshot.
fn abort_of(guard: &RunGuard, reason: AbortReason) -> CoreError {
    CoreError::Aborted {
        reason,
        partial: guard.partial_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eid_ilfd::Ilfd;
    use eid_relational::{Schema, Tuple};

    /// Paper Example 2 (Tables 2–3): R(name,cuisine,street),
    /// S(name,speciality,city), K_Ext = {name, cuisine}, one ILFD.
    fn example2() -> (Relation, Relation, MatchConfig) {
        let r_schema =
            Schema::of_strs("R", &["name", "cuisine", "street"], &["name", "cuisine"]).unwrap();
        let mut r = Relation::new(r_schema);
        r.insert_strs(&["twincities", "chinese", "wash_ave"])
            .unwrap();
        r.insert_strs(&["twincities", "indian", "univ_ave"])
            .unwrap();

        let s_schema =
            Schema::of_strs("S", &["name", "speciality", "city"], &["name", "city"]).unwrap();
        let mut s = Relation::new(s_schema);
        s.insert_strs(&["twincities", "mughalai", "st_paul"])
            .unwrap();

        let ilfds: IlfdSet = vec![Ilfd::of_strs(
            &[("speciality", "mughalai")],
            &[("cuisine", "indian")],
        )]
        .into_iter()
        .collect();
        let config = MatchConfig::new(ExtendedKey::of_strs(&["name", "cuisine"]), ilfds);
        (r, s, config)
    }

    #[test]
    fn example2_matches_indian_twincities() {
        let (r, s, config) = example2();
        let outcome = EntityMatcher::new(r, s, config).unwrap().run().unwrap();
        // Table 3: exactly one match — (TwinCities, Indian) ↔ TwinCities.
        assert_eq!(outcome.matching.len(), 1);
        let e = &outcome.matching.entries()[0];
        assert_eq!(e.r_key, Tuple::of_strs(&["twincities", "indian"]));
        assert_eq!(e.s_key, Tuple::of_strs(&["twincities", "st_paul"]));
        outcome.verify().unwrap();
    }

    #[test]
    fn example2_negative_table_4() {
        let (r, s, config) = example2();
        let outcome = EntityMatcher::new(r, s, config).unwrap().run().unwrap();
        // Table 4: (TwinCities, Chinese) provably differs from the S
        // tuple (speciality mughalai ⇒ cuisine indian ≠ chinese).
        assert_eq!(outcome.negative.len(), 1);
        let e = &outcome.negative.entries()[0];
        assert_eq!(e.r_key, Tuple::of_strs(&["twincities", "chinese"]));
        // 2×1 pairs: 1 matching + 1 negative = complete.
        assert!(outcome.is_complete());
    }

    #[test]
    fn all_algorithms_agree() {
        let (r, s, config) = example2();
        let mut nl_config = config.clone();
        nl_config.join = JoinAlgorithm::NestedLoop;
        let oracle = EntityMatcher::new(r.clone(), s.clone(), nl_config)
            .unwrap()
            .run()
            .unwrap();
        let same = |a: &PairTable, b: &PairTable| a.includes(b) && b.includes(a);
        // The §4.2 relational-algebra construction is an independent
        // second reference for the matching table.
        let pipeline =
            crate::algebra_pipeline::run(&r, &s, &config.extended_key, &config.ilfds).unwrap();
        assert!(same(&pipeline.matching, &oracle.matching));
        for threads in [1, 2] {
            let mut c = config.clone();
            c.threads = threads;
            let got = EntityMatcher::new(r.clone(), s.clone(), c)
                .unwrap()
                .run()
                .unwrap();
            assert!(
                same(&got.matching, &oracle.matching),
                "t={threads} matching"
            );
            assert!(
                same(&got.negative, &oracle.negative),
                "t={threads} negative"
            );
            assert_eq!(
                got.undetermined, oracle.undetermined,
                "t={threads} undetermined"
            );
        }
    }

    #[test]
    fn blocked_is_deterministic_across_thread_counts() {
        let (r, s, config) = example2();
        let run_with = |threads: usize| {
            let mut c = config.clone();
            c.threads = threads;
            EntityMatcher::new(r.clone(), s.clone(), c)
                .unwrap()
                .run()
                .unwrap()
        };
        let serial = run_with(1);
        for threads in [0, 2, 8] {
            let parallel = run_with(threads);
            assert_eq!(
                serial.matching.entries(),
                parallel.matching.entries(),
                "threads={threads}"
            );
            assert_eq!(
                serial.negative.entries(),
                parallel.negative.entries(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn blocked_handles_extra_identity_rules() {
        use eid_rules::{IdentityRule, Predicate};
        let (r, s, mut config) = example2();
        // A (deliberately unsound) extra rule: same name ⇒ same
        // entity. It has no indexable shape restriction problems —
        // a pure cross-equality join — and matches both R tuples.
        config.extra_rules.add_identity(
            IdentityRule::new("same-name", vec![Predicate::cross_eq("name")]).unwrap(),
        );
        let blocked = EntityMatcher::new(r.clone(), s.clone(), config.clone())
            .unwrap()
            .run()
            .unwrap();
        config.join = JoinAlgorithm::NestedLoop;
        let oracle = EntityMatcher::new(r, s, config).unwrap().run().unwrap();
        assert_eq!(blocked.matching.len(), 2);
        assert!(blocked.matching.includes(&oracle.matching));
        assert!(oracle.matching.includes(&blocked.matching));
        assert!(blocked.negative.includes(&oracle.negative));
        assert!(oracle.negative.includes(&blocked.negative));
    }

    #[test]
    fn empty_extended_key_rejected() {
        let (r, s, mut config) = example2();
        config.extended_key = ExtendedKey::new([]);
        assert!(matches!(
            EntityMatcher::new(r, s, config),
            Err(CoreError::EmptyExtendedKey)
        ));
    }

    #[test]
    fn without_ilfds_everything_is_undetermined() {
        let (r, s, mut config) = example2();
        config.ilfds = IlfdSet::new();
        let outcome = EntityMatcher::new(r, s, config).unwrap().run().unwrap();
        // S has no cuisine and no ILFD can derive it: no pair can
        // satisfy extended-key equivalence, none can be refuted.
        assert_eq!(outcome.matching.len(), 0);
        assert_eq!(outcome.negative.len(), 0);
        assert_eq!(outcome.undetermined, 2);
    }

    #[test]
    fn unsound_extended_key_detected_by_verify() {
        // K_Ext = {name} is not a key of the integrated world here:
        // both R tuples share name=twincities, so the single S tuple
        // matches both — the prototype's warning scenario.
        let (r, s, mut config) = example2();
        config.extended_key = ExtendedKey::of_strs(&["name"]);
        let outcome = EntityMatcher::new(r, s, config).unwrap().run().unwrap();
        assert_eq!(outcome.matching.len(), 2);
        assert!(matches!(
            outcome.verify(),
            Err(CoreError::UniquenessViolation { side: "S", .. })
        ));
    }

    #[test]
    fn collect_negative_off_skips_refutation() {
        let (r, s, mut config) = example2();
        config.collect_negative = false;
        let outcome = EntityMatcher::new(r, s, config).unwrap().run().unwrap();
        assert_eq!(outcome.matching.len(), 1);
        assert!(outcome.negative.is_empty());
        assert_eq!(outcome.undetermined, 1);
    }

    #[test]
    fn rule_base_composition() {
        let (r, s, config) = example2();
        let m = EntityMatcher::new(r, s, config).unwrap();
        let rb = m.rule_base().unwrap();
        assert_eq!(rb.identity_rules().len(), 1);
        assert_eq!(rb.distinctness_rules().len(), 1); // one ILFD
    }
}
