//! The cost-based match planner.
//!
//! [`Planner::plan`] turns the interned rule base plus cheap column
//! statistics ([`ColumnStat`]: distinct-symbol counts and null
//! fractions per attribute, read straight off the interned columns)
//! into a [`MatchPlan`]:
//!
//! * **Blocking key per identity rule** — any non-empty subset of a
//!   rule's probe positions (join ∪ `S`-literal columns) is sound,
//!   because every candidate is re-verified with the full rule; the
//!   planner drops columns with ≤ 1 distinct non-NULL symbol (they
//!   cannot narrow a bucket) and keeps the rest, most selective
//!   first in the explanation.
//! * **Serial vs. parallel** — below [`PARALLEL_MIN_PAIRS`] estimated
//!   candidate pairs the auto mode runs serially (thread spawn +
//!   merge overhead exceeds the work); explicit thread counts are
//!   honoured verbatim.
//! * **Probe vs. scan** — rules without an indexable shape fuse into
//!   one residual pairwise scan; with kernels on, every kernel-shaped
//!   distinctness rule (and every identity rule whose blocking key
//!   cannot narrow a bucket) becomes a vectorized scan.
//! * **Emission** — every run with a refutation phase streams: the
//!   vectorized disagreement nodes keep their output as rectangles,
//!   the other refuted pairs go to row-range bitset shards wherever a
//!   sink geometry exists, and spill to disk when the memory budget
//!   says those pairs won't fit.
//!
//! [`JoinAlgorithm`](crate::JoinAlgorithm) survives only as the
//! [`ArmHint`] override: `NestedLoop` forces everything to scan,
//! serially, through the same [`Executor`](crate::engine::Executor).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use eid_relational::ColumnStat;
use eid_rules::{InternedRuleBase, KernelShape, NeqSide};

use crate::kernels;
use crate::plan::{
    ArmHint, Emit, EmitHint, EmitMode, ExecMode, MatchPlan, PlanNode, PlanNodeKind, ProbeStrategy,
    RuleFamily, RuleRef, StatsSource,
};
use crate::sink::SinkGeometry;
use crate::stats::span;

/// Below this many estimated pairs (`|R′|·|S′|`) the auto mode runs
/// serially: thread spawn + merge overhead exceeds the work itself on
/// small inputs. Explicit thread counts are always honoured.
pub const PARALLEL_MIN_PAIRS: usize = 50_000;

/// The cost-based planner over one encoded relation pair. Borrows
/// the interned rule base and per-column statistics from the
/// [`Executor`](crate::engine::Executor) that will run the plan.
pub struct Planner<'e> {
    interned: &'e InternedRuleBase,
    stats_r: &'e [ColumnStat],
    stats_s: &'e [ColumnStat],
    attrs_r: &'e [String],
    attrs_s: &'e [String],
    rows_r: usize,
    rows_s: usize,
    threads: usize,
    kernels: bool,
    emit: EmitHint,
    budget_bytes: Option<u64>,
    spill: bool,
    spill_dir: Option<String>,
    stats_source: StatsSource,
}

/// One rule's planned enumeration: a classic probe strategy or a
/// vectorized kernel scan (which remembers the scalar twin's key).
enum Choice {
    Strategy(ProbeStrategy),
    Vector {
        shape: KernelShape,
        tile_rows: usize,
        key_positions: Vec<usize>,
    },
}

impl<'e> Planner<'e> {
    /// A planner reading the executor's interned rules and column
    /// statistics. `threads` carries the caller's thread request
    /// (`0` = auto); `use_kernels` gates [`PlanNodeKind::VectorScan`]
    /// dispatch (off ⇒ the scalar twin plan, byte-identical output);
    /// `emit` forces spilled emission (`Auto` = the memory budget
    /// decides between streamed and spilled).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        interned: &'e InternedRuleBase,
        stats_r: &'e [ColumnStat],
        stats_s: &'e [ColumnStat],
        attrs_r: &'e [String],
        attrs_s: &'e [String],
        rows_r: usize,
        rows_s: usize,
        threads: usize,
        use_kernels: bool,
        emit: EmitHint,
    ) -> Planner<'e> {
        Planner {
            interned,
            stats_r,
            stats_s,
            attrs_r,
            attrs_s,
            rows_r,
            rows_s,
            threads,
            kernels: use_kernels,
            emit,
            budget_bytes: None,
            spill: true,
            spill_dir: None,
            stats_source: StatsSource::Computed,
        }
    }

    /// Configures spill-aware emission: `budget_bytes` is the run's
    /// `max_pair_bytes` budget (None = unlimited), `spill = false`
    /// (`--no-spill`) keeps the pre-spill behaviour where a budget
    /// breach aborts, and `dir` overrides the spill parent directory
    /// (None = the platform temp dir).
    pub fn with_spill(
        mut self,
        budget_bytes: Option<u64>,
        spill: bool,
        dir: Option<String>,
    ) -> Planner<'e> {
        self.budget_bytes = budget_bytes;
        self.spill = spill;
        self.spill_dir = dir;
        self
    }

    /// Records where the column statistics came from — a persistent
    /// dataset's stats section vs. a fresh per-plan column scan. Pure
    /// provenance: the cost model reads the numbers either way.
    pub fn with_stats_source(mut self, source: StatsSource) -> Planner<'e> {
        self.stats_source = source;
        self
    }

    fn attr_s(&self, p: usize) -> String {
        self.attrs_s
            .get(p)
            .cloned()
            .unwrap_or_else(|| format!("col{p}"))
    }

    fn attr_r(&self, p: usize) -> String {
        self.attrs_r
            .get(p)
            .cloned()
            .unwrap_or_else(|| format!("col{p}"))
    }

    fn stat_s(&self, p: usize) -> ColumnStat {
        self.stats_s.get(p).copied().unwrap_or(ColumnStat {
            distinct: 0,
            nulls: 0,
            rows: self.rows_s,
        })
    }

    fn stat_r(&self, p: usize) -> ColumnStat {
        self.stats_r.get(p).copied().unwrap_or(ColumnStat {
            distinct: 0,
            nulls: 0,
            rows: self.rows_r,
        })
    }

    /// Chooses the blocking-key positions for one identity shape and
    /// explains the choice. Positions stay sorted ascending (the
    /// probe-key layout); the ranking only decides what to drop.
    fn choose_identity_key(
        &self,
        shape: &eid_rules::InternedIdentityShape,
    ) -> (Vec<usize>, String) {
        let candidates = shape.probe_positions();
        let mut kept: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&p| self.stat_s(p).distinct > 1)
            .collect();
        let mut dropped: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|p| !kept.contains(p))
            .collect();
        if kept.is_empty() {
            // Nothing selective: keep the single best column rather
            // than degenerating to a one-bucket index.
            if let Some(&best) = candidates
                .iter()
                .max_by_key(|&&p| (self.stat_s(p).distinct, usize::MAX - p))
            {
                kept.push(best);
                dropped.retain(|&p| p != best);
            }
        }
        let describe = |p: usize| {
            let st = self.stat_s(p);
            format!(
                "{} ({} distinct, {:.0}% null)",
                self.attr_s(p),
                st.distinct,
                st.null_fraction() * 100.0
            )
        };
        let mut ranked = kept.clone();
        ranked.sort_by_key(|&p| usize::MAX - self.stat_s(p).distinct);
        let mut why = format!(
            "blocking key ⟨{}⟩ — most selective first: {}",
            kept.iter()
                .map(|&p| self.attr_s(p))
                .collect::<Vec<_>>()
                .join(", "),
            ranked
                .iter()
                .map(|&p| describe(p))
                .collect::<Vec<_>>()
                .join(", "),
        );
        if !dropped.is_empty() {
            why.push_str(&format!(
                "; dropped non-selective: {}",
                dropped
                    .iter()
                    .map(|&p| describe(p))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        (kept, why)
    }

    /// The cross-product candidate volume — the scan/cross estimate
    /// and the parallelism driver.
    fn cross_est(&self) -> u64 {
        self.rows_r.saturating_mul(self.rows_s) as u64
    }

    /// Estimated candidates a probe on `key_positions` enumerates:
    /// the cross product scaled by the key's most selective column
    /// (equality on a column with `d` distinct symbols keeps ~1/d of
    /// the pair space).
    fn probe_est(&self, key_positions: &[usize]) -> u64 {
        let sel = key_positions
            .iter()
            .map(|&p| self.stat_s(p).distinct)
            .max()
            .unwrap_or(1)
            .max(1) as u64;
        self.cross_est() / sel
    }

    /// The auto mode decision, mirroring the engine's historical
    /// `resolve_threads`.
    fn choose_mode(&self, hint: ArmHint) -> (ExecMode, String) {
        if !matches!(hint, ArmHint::Auto) {
            return (
                ExecMode::Serial { auto_small: false },
                format!("{hint:?} hint: the oracle arm runs serially"),
            );
        }
        match self.threads {
            1 => (
                ExecMode::Serial { auto_small: false },
                "threads=1 requested".into(),
            ),
            0 => {
                let est = self.rows_r.saturating_mul(self.rows_s);
                if est < PARALLEL_MIN_PAIRS {
                    (
                        ExecMode::Serial { auto_small: true },
                        format!("auto: {est} estimated pairs < {PARALLEL_MIN_PAIRS} — serial"),
                    )
                } else {
                    // Floor at 2: on single-core hosts the scoped
                    // workers just timeslice (the chunked queue makes
                    // oversubscription harmless), and the parallel
                    // path — and its observability — actually runs.
                    let workers = std::thread::available_parallelism()
                        .map_or(2, |n| n.get())
                        .max(2);
                    (
                        ExecMode::Parallel { workers },
                        format!(
                            "auto: {est} estimated pairs ≥ {PARALLEL_MIN_PAIRS} — {workers} workers"
                        ),
                    )
                }
            }
            n => (
                ExecMode::Parallel { workers: n },
                format!("threads={n} requested"),
            ),
        }
    }

    /// The emission decision: buffered for the nested-loop oracle or
    /// when there is no refutation phase — the structural fallbacks
    /// `emit_why` names. Otherwise streamed: `rects` disagreement
    /// nodes keep their output as rectangles, and the sink-bound pairs
    /// of the remaining rules (`est_raw_negative`) go to row-range
    /// bitset shards — or, past the dense-bitset range, to per-task
    /// buffers. Spilled instead when the caller forces it or those
    /// pairs' estimated bytes exceed the memory budget (and spilling
    /// is allowed), wherever shards exist.
    fn choose_emit(
        &self,
        hint: ArmHint,
        record_distinct: bool,
        est_raw_negative: u64,
        rects: usize,
        workers: usize,
    ) -> (Emit, String) {
        if !matches!(hint, ArmHint::Auto) {
            return (
                Emit::buffered(),
                format!("{hint:?} hint: the oracle arm converts through the buffered dedup"),
            );
        }
        if !record_distinct {
            return (
                Emit::buffered(),
                "no refutation phase: nothing worth streaming".into(),
            );
        }
        let factorized = if rects > 0 {
            format!("; {rects} disagreement node(s) kept as rectangles")
        } else {
            String::new()
        };
        let Some(geom) = SinkGeometry::new(self.rows_r, self.rows_s) else {
            return (
                Emit {
                    mode: EmitMode::Streamed,
                    shards: 0,
                    dir: String::new(),
                    shard_bytes: 0,
                },
                format!(
                    "est {est_raw_negative} raw negative pairs: {}×{} pair grid outside the \
                     dense-bitset range, residual pairs buffered per task{factorized}",
                    self.rows_r, self.rows_s
                ),
            );
        };
        // The per-worker resident cap for spilled emission: the
        // budget minus the merge grid, split across workers, floored
        // at one full shard so a worker can always hold the shard it
        // is writing.
        let grid = geom.grid_bytes();
        let shard_floor = (grid / geom.shard_count.max(1) as u64).max(4096);
        let cap_for =
            |budget: u64| (budget.saturating_sub(grid) / workers.max(1) as u64).max(shard_floor);
        let spill_emit = |shard_bytes: u64| Emit {
            mode: EmitMode::Spilled,
            shards: geom.shard_count,
            dir: self.spill_dir.clone().unwrap_or_default(),
            shard_bytes,
        };
        if self.emit == EmitHint::Spilled {
            let cap = self.budget_bytes.map_or(shard_floor, cap_for);
            return (spill_emit(cap), "emit=spilled requested".into());
        }
        let est_bytes = est_raw_negative.saturating_mul(8);
        if let Some(budget) = self.budget_bytes {
            if self.spill && est_bytes > budget {
                let cap = cap_for(budget);
                return (
                    spill_emit(cap),
                    format!(
                        "est {est_bytes} pair bytes over the {budget}-byte budget: \
                         shards spill past a {cap}-byte per-worker resident cap, \
                         merged out-of-core in row-range order"
                    ),
                );
            }
        }
        (
            Emit {
                mode: EmitMode::Streamed,
                shards: geom.shard_count,
                dir: String::new(),
                shard_bytes: 0,
            },
            format!(
                "est {est_raw_negative} raw negative pairs: workers emit into {} \
                 row-range bitset shards, dedup free at emission{factorized}",
                geom.shard_count
            ),
        )
    }

    /// Appends the shared vectorization rationale (shape, lane width,
    /// tile derivation) to a `why` string.
    fn vector_why(shape: KernelShape, est: usize, active_cols: usize, tile: usize) -> String {
        format!(
            "vector {} kernel ({}): est {est} candidate pairs; \
             lanes={}, tile={tile} rows ({active_cols} active column(s) × 4 B ≤ {} KiB L2 budget)",
            shape.as_str(),
            kernels::simd_level(),
            kernels::LANES,
            kernels::L2_TILE_BYTES / 1024,
        )
    }

    /// The choice (explanation + candidate-pair estimate) for one
    /// identity rule under a hint.
    fn identity_strategy(
        &self,
        rule: &eid_rules::InternedRule,
        hint: ArmHint,
    ) -> (Choice, String, u64) {
        let shape = rule.identity_shape();
        let (choice, why, est) = match hint {
            ArmHint::NestedLoop => (
                ProbeStrategy::Scan,
                "nested-loop hint: exhaustive pairwise scan".into(),
                self.cross_est(),
            ),
            ArmHint::Auto => match shape {
                Some(shape) if shape.join.is_empty() => (
                    ProbeStrategy::Cross,
                    "no join columns: literal-filtered cross product".into(),
                    self.cross_est(),
                ),
                Some(shape) => {
                    let (positions, why) = self.choose_identity_key(&shape);
                    if positions.is_empty() {
                        (
                            ProbeStrategy::Scan,
                            "empty blocking key".into(),
                            self.cross_est(),
                        )
                    } else {
                        // A key whose every column has ≤ 1 distinct
                        // symbol degenerates to one bucket — a full
                        // scan behind a hash lookup. Do the scan
                        // vectorized instead (the probe stays the
                        // byte-identical scalar twin).
                        let selective = positions.iter().any(|&p| self.stat_s(p).distinct > 1);
                        let est = self.rows_r.saturating_mul(self.rows_s);
                        if let (false, Some(kshape)) = (
                            selective,
                            self.kernels.then(|| rule.kernel_shape()).flatten(),
                        ) {
                            let active = shape.join.len() + shape.s_lits.len();
                            let tile = kernels::tile_rows(active);
                            let vwhy = format!(
                                "non-selective blocking key; {}",
                                Self::vector_why(kshape, est, active, tile)
                            );
                            return (
                                Choice::Vector {
                                    shape: kshape,
                                    tile_rows: tile,
                                    key_positions: positions,
                                },
                                vwhy,
                                est as u64,
                            );
                        }
                        let est = self.probe_est(&positions);
                        (
                            ProbeStrategy::Probe {
                                key_positions: positions,
                            },
                            why,
                            est,
                        )
                    }
                }
                None => (
                    ProbeStrategy::Scan,
                    "no indexable equi-join shape: fused residual scan".into(),
                    self.cross_est(),
                ),
            },
        };
        (Choice::Strategy(choice), why, est)
    }

    /// The choice (explanation + candidate-pair estimate) for one
    /// distinctness rule.
    fn distinct_strategy(
        &self,
        rule: &eid_rules::InternedRule,
        hint: ArmHint,
    ) -> (Choice, String, u64) {
        if !matches!(hint, ArmHint::Auto) {
            return (
                Choice::Strategy(ProbeStrategy::Scan),
                format!("{hint:?} hint: refutation runs in the serial residual scan"),
                self.cross_est(),
            );
        }
        match rule.distinct_shape() {
            Some(shape) => {
                let (neq_side, neq_pos, _) = shape.neq;
                let (neq_name, lit_positions, neq_rows, lit_rows) = match neq_side {
                    NeqSide::R => (
                        format!("R.{}", self.attr_r(neq_pos)),
                        shape.s_lits.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
                        self.rows_r,
                        self.rows_s,
                    ),
                    NeqSide::S => (
                        format!("S.{}", self.attr_s(neq_pos)),
                        shape.r_lits.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
                        self.rows_s,
                        self.rows_r,
                    ),
                };
                let mut key_positions = lit_positions;
                key_positions.sort_unstable();
                key_positions.dedup();
                // Estimated emitted pairs: every ≠-side row (almost
                // all disagree with one constant) times the opposite
                // side's literal block, sized by its most selective
                // literal column.
                let lit_selectivity = key_positions
                    .iter()
                    .map(|&p| match neq_side {
                        NeqSide::R => self.stat_s(p).distinct,
                        NeqSide::S => self.stat_r(p).distinct,
                    })
                    .max()
                    .unwrap_or(1)
                    .max(1);
                let est = neq_rows.saturating_mul(lit_rows / lit_selectivity);
                if let Some(kshape) = self.kernels.then(|| rule.kernel_shape()).flatten() {
                    let tile = kernels::tile_rows(1);
                    let vwhy = format!(
                        "disagreement drivers masked a column chunk at a time, \
                         then bulk-paired with the literal block; {}",
                        Self::vector_why(kshape, est, 1, tile)
                    );
                    return (
                        Choice::Vector {
                            shape: kshape,
                            tile_rows: tile,
                            key_positions,
                        },
                        vwhy,
                        est as u64,
                    );
                }
                (
                    Choice::Strategy(ProbeStrategy::Probe { key_positions }),
                    format!(
                        "disagreement probe: drivers where {neq_name} ≠ const, \
                         paired with the opposite side's literal block — \
                         output-sensitive, not quadratic"
                    ),
                    est as u64,
                )
            }
            None => (
                Choice::Strategy(ProbeStrategy::Scan),
                "no single-≠ shape: fused residual scan".into(),
                self.cross_est(),
            ),
        }
    }

    /// Builds the full-pipeline plan for the selected rule families
    /// under `hint`.
    pub fn plan(&self, record_identity: bool, record_distinct: bool, hint: ArmHint) -> MatchPlan {
        let (mode, mode_why) = self.choose_mode(hint);
        let mut nodes: Vec<PlanNode> = Vec::new();
        let push = |nodes: &mut Vec<PlanNode>,
                    kind: PlanNodeKind,
                    label: String,
                    why: String,
                    span: &str,
                    inputs: Vec<usize>| {
            let id = nodes.len();
            nodes.push(PlanNode {
                id,
                kind,
                label,
                why,
                span: span.to_string(),
                inputs,
                est_pairs: None,
            });
            id
        };
        let d_r = push(
            &mut nodes,
            PlanNodeKind::Derive { side: "R" },
            "derive(R)".into(),
            "extend R with missing extended-key attributes; ILFDs fill values (§5)".into(),
            span::DERIVE_R,
            vec![],
        );
        let d_s = push(
            &mut nodes,
            PlanNodeKind::Derive { side: "S" },
            "derive(S)".into(),
            "extend S with missing extended-key attributes; ILFDs fill values (§5)".into(),
            span::DERIVE_S,
            vec![],
        );
        let encode = push(
            &mut nodes,
            PlanNodeKind::Encode,
            "encode".into(),
            format!(
                "intern {}+{} rows into columnar u32 symbols; hot predicates become integer compares",
                self.rows_r, self.rows_s
            ),
            span::ENGINE_ENCODE,
            vec![d_r, d_s],
        );

        // Probe/refute strategies, in the order the executor lowers
        // them.
        let mut rule_plan: Vec<(RuleRef, Choice, String, u64)> = Vec::new();
        if record_identity {
            for (idx, rule) in self.interned.identity.iter().enumerate() {
                let (choice, why, est) = self.identity_strategy(rule, hint);
                rule_plan.push((
                    RuleRef {
                        family: RuleFamily::Identity,
                        index: idx,
                        name: rule.name.clone(),
                    },
                    choice,
                    why,
                    est,
                ));
            }
        }
        if record_distinct {
            for (idx, rule) in self.interned.distinctness.iter().enumerate() {
                let (choice, why, est) = self.distinct_strategy(rule, hint);
                rule_plan.push((
                    RuleRef {
                        family: RuleFamily::Distinct,
                        index: idx,
                        name: rule.name.clone(),
                    },
                    choice,
                    why,
                    est,
                ));
            }
        }

        // Only the pairs that reach the sinks count: a disagreement
        // vector node's output stays a rectangle.
        let is_rect = |r: &RuleRef, c: &Choice| {
            matches!(r.family, RuleFamily::Distinct) && matches!(c, Choice::Vector { .. })
        };
        let rects = rule_plan
            .iter()
            .filter(|(r, c, _, _)| is_rect(r, c))
            .count();
        let est_raw_negative: u64 = rule_plan
            .iter()
            .filter(|(r, c, _, _)| matches!(r.family, RuleFamily::Distinct) && !is_rect(r, c))
            .map(|(_, _, _, est)| *est)
            .sum();
        let (emit, emit_why) = self.choose_emit(
            hint,
            record_distinct,
            est_raw_negative,
            rects,
            mode.workers(),
        );

        let indexed = rule_plan
            .iter()
            .filter(|(_, c, _, _)| !matches!(c, Choice::Strategy(ProbeStrategy::Scan)))
            .count();
        let block = push(
            &mut nodes,
            PlanNodeKind::Block,
            "block-index".into(),
            format!("build symbol-keyed inverted indexes for {indexed} probe plan(s)"),
            span::ENGINE_INDEX,
            vec![encode],
        );

        let mut probe_ids = Vec::with_capacity(rule_plan.len());
        for (rule, choice, why, est) in rule_plan {
            let input = if matches!(choice, Choice::Strategy(ProbeStrategy::Scan)) {
                encode
            } else {
                block
            };
            let span_path = match rule.family {
                RuleFamily::Identity => format!("{}/{}", span::ENGINE_IDENTITY, rule.name),
                RuleFamily::Distinct => format!("{}/{}", span::ENGINE_REFUTE, rule.name),
            };
            let (label, kind) = match choice {
                Choice::Strategy(strategy) => (
                    format!("{}({})", strategy.as_str(), rule.name),
                    match rule.family {
                        RuleFamily::Identity => PlanNodeKind::IdentityProbe { rule, strategy },
                        RuleFamily::Distinct => PlanNodeKind::Refute { rule, strategy },
                    },
                ),
                Choice::Vector {
                    shape,
                    tile_rows,
                    key_positions,
                } => (
                    format!("vector-scan({})", rule.name),
                    PlanNodeKind::VectorScan {
                        rule,
                        shape,
                        lanes: kernels::LANES,
                        tile_rows,
                        key_positions,
                    },
                ),
            };
            let id = nodes.len();
            nodes.push(PlanNode {
                id,
                kind,
                label,
                why,
                span: span_path,
                inputs: vec![input],
                est_pairs: Some(est),
            });
            probe_ids.push(id);
        }
        // Scan nodes fuse into one residual pass; report under the
        // residual span rather than a per-rule one.
        for node in &mut nodes {
            let is_scan = matches!(
                &node.kind,
                PlanNodeKind::IdentityProbe {
                    strategy: ProbeStrategy::Scan,
                    ..
                } | PlanNodeKind::Refute {
                    strategy: ProbeStrategy::Scan,
                    ..
                }
            );
            if is_scan {
                node.span = span::ENGINE_RESIDUAL.to_string();
            }
        }

        let dedup = match emit.mode {
            EmitMode::Streamed => push(
                &mut nodes,
                PlanNodeKind::Sink {
                    shards: emit.shards,
                },
                format!("sink({} shards)", emit.shards),
                format!("streamed emission — {emit_why}; shards merged by row range post-scope"),
                span::ENGINE_SINK_MERGE,
                probe_ids,
            ),
            EmitMode::Spilled => push(
                &mut nodes,
                PlanNodeKind::Sink {
                    shards: emit.shards,
                },
                format!("sink({} shards, spilled)", emit.shards),
                format!(
                    "spilled emission — {emit_why}; spilled segments streamed back \
                     in row-range order at merge"
                ),
                span::ENGINE_SINK_MERGE,
                probe_ids,
            ),
            EmitMode::Buffered => push(
                &mut nodes,
                PlanNodeKind::Dedup,
                "dedup".into(),
                "first-occurrence dedup of raw pair lists in id space; \
                 runs on two threads when the lists are large"
                    .into(),
                span::CONVERT,
                probe_ids,
            ),
        };
        push(
            &mut nodes,
            PlanNodeKind::Classify,
            "classify".into(),
            "Figure-3 partition: MT / NMT / undetermined accounting".into(),
            span::MATCH,
            vec![dedup],
        );

        MatchPlan {
            nodes,
            mode,
            mode_why,
            arm: hint,
            index_free: false,
            record_identity,
            record_distinct,
            emit,
            emit_why,
            stats_source: self.stats_source,
        }
    }
}
