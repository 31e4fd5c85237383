//! The typed match-plan IR — §4.2's pipeline as an explicit,
//! inspectable object.
//!
//! A [`MatchPlan`] is a small DAG of [`PlanNode`]s covering the whole
//! run: `Derive` (ILFD extension, §5), `Encode` (interning), `Block`
//! (index construction), one `IdentityProbe` per identity rule (§4),
//! one `Refute` per distinctness rule (§3), `Dedup` (pair-list
//! conversion), and `Classify` (the Figure-3 partition). The
//! cost-based [`Planner`](crate::planner::Planner) builds plans from
//! cheap column statistics; the [`Executor`](crate::engine::Executor)
//! is the only place that runs them.
//!
//! Plans are pure data: they can be serialized to JSON (`eid plan
//! --explain`), rendered as a text tree
//! ([`crate::explain::render_plan`]), cached across runs, and —
//! centrally — **rewritten**. The PR 4 degradation ladder is now two
//! rewrite rules instead of hand-rolled control flow:
//!
//! * [`MatchPlan::rewrite_serial`] — swap a parallel plan for its
//!   serial twin (same nodes, same emission, same output bytes);
//! * [`MatchPlan::rewrite_index_free`] — demote every probe strategy
//!   to `Scan` (the index-free nested-loop arm; same output *set*).
//!
//! Emission has its own ladder, lowered one rung at a time:
//! [`MatchPlan::rewrite_streamed`] (spilled→streamed, shards stay
//! resident) and [`MatchPlan::rewrite_buffered`] (streamed→buffered,
//! the raw `Vec` path the index-free arm and the incremental matcher
//! run). Both are idempotent and compose:
//! `rewrite_streamed().rewrite_buffered() == rewrite_buffered()`.
//!
//! Every node carries an `eid-obs` span path and a stable id, so the
//! run report's per-node breakdown can be joined back to the plan.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::stats::span;
use eid_obs::json;
use eid_rules::KernelShape;

/// Which rule family a plan node executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleFamily {
    /// An identity rule (populates `MT_RS`).
    Identity,
    /// A distinctness rule (populates `NMT_RS`).
    Distinct,
}

impl RuleFamily {
    /// The family's report name (`"identity"` / `"distinct"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            RuleFamily::Identity => "identity",
            RuleFamily::Distinct => "distinct",
        }
    }
}

/// A stable reference to one interned rule: family plus index into
/// the interned rule base's family list (interned order equals
/// compiled order, so the reference survives re-encoding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleRef {
    /// The rule's family.
    pub family: RuleFamily,
    /// Index into the family's rule list.
    pub index: usize,
    /// The rule's source name (for display; resolution is by index).
    pub name: String,
}

/// How a probe node enumerates candidate pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeStrategy {
    /// Probe a symbol-keyed inverted index on the chosen `S`-side
    /// key positions (the blocked hash join). Any non-empty subset
    /// of the rule's probe positions is sound — candidates are
    /// re-verified with the full rule — so the planner picks the
    /// most selective subset.
    Probe {
        /// `S`-side column positions forming the blocking key.
        key_positions: Vec<usize>,
    },
    /// Literal-filtered cross product (constant-only rules with no
    /// join columns).
    Cross,
    /// Index-free pairwise scan (non-indexable shape, or the
    /// nested-loop rewrite). All `Scan` nodes fuse into one residual
    /// pass over the pair space.
    Scan,
}

impl ProbeStrategy {
    /// The strategy's report name.
    pub fn as_str(&self) -> &'static str {
        match self {
            ProbeStrategy::Probe { .. } => "probe",
            ProbeStrategy::Cross => "cross",
            ProbeStrategy::Scan => "scan",
        }
    }
}

/// The node vocabulary of the match-plan IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanNodeKind {
    /// ILFD extension + derivation of one side (`"R"` or `"S"`).
    Derive {
        /// Which relation (`"R"` / `"S"`).
        side: &'static str,
    },
    /// Value interning + columnar encoding of both relations.
    Encode,
    /// Eager inverted-index construction for every probe node.
    Block,
    /// Candidate generation + verification for one identity rule.
    IdentityProbe {
        /// The rule this node runs.
        rule: RuleRef,
        /// How candidates are enumerated.
        strategy: ProbeStrategy,
    },
    /// Candidate generation + verification for one distinctness rule.
    Refute {
        /// The rule this node runs.
        rule: RuleRef,
        /// How candidates are enumerated.
        strategy: ProbeStrategy,
    },
    /// Vectorized evaluation of one kernel-shaped rule: batch kernels
    /// compare `lanes` rows per step over cache-sized column tiles.
    /// Emitted by the planner whenever kernels are on and the rule's
    /// interned shape matches a kernel. Output is byte-identical to
    /// the scalar twin [`MatchPlan::rewrite_scalar`] produces.
    VectorScan {
        /// The rule this node runs.
        rule: RuleRef,
        /// Which specialized kernel evaluates the rule.
        shape: KernelShape,
        /// Rows compared per kernel step ([`crate::kernels::LANES`]).
        lanes: usize,
        /// Rows per cache tile of the scanned side's active columns.
        tile_rows: usize,
        /// The blocking-key positions the scalar twin probes on —
        /// kept so degradation rewrites need no re-planning.
        key_positions: Vec<usize>,
    },
    /// First-occurrence dedup of the raw pair lists (id space).
    Dedup,
    /// Post-scope merge of the streamed per-worker bitset shards
    /// into one deduped [`PairSet`](crate::sink::PairSet). Replaces
    /// `Dedup` when [`MatchPlan::emit`] is streamed: dedup already
    /// happened at emission time, so the convert stage collapses
    /// onto the merged shards.
    Sink {
        /// Row-range shard count of the sink geometry.
        shards: usize,
    },
    /// The Figure-3 partition: MT / NMT / undetermined accounting.
    Classify,
}

impl PlanNodeKind {
    /// The kind's report name.
    pub fn as_str(&self) -> &'static str {
        match self {
            PlanNodeKind::Derive { .. } => "derive",
            PlanNodeKind::Encode => "encode",
            PlanNodeKind::Block => "block",
            PlanNodeKind::IdentityProbe { .. } => "identity-probe",
            PlanNodeKind::Refute { .. } => "refute",
            PlanNodeKind::VectorScan { .. } => "vector-scan",
            PlanNodeKind::Dedup => "dedup",
            PlanNodeKind::Sink { .. } => "sink",
            PlanNodeKind::Classify => "classify",
        }
    }
}

/// One stage node of a [`MatchPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    /// Stable node id (== index in [`MatchPlan::nodes`]).
    pub id: usize,
    /// What the node does.
    pub kind: PlanNodeKind,
    /// Short display label, e.g. `identity-probe(key-eq)`.
    pub label: String,
    /// The cost model's explanation of why this node looks the way
    /// it does (chosen blocking key, selectivities, fallback reason).
    pub why: String,
    /// The `eid-obs` span path this node reports under.
    pub span: String,
    /// Ids of the nodes whose outputs this node consumes.
    pub inputs: Vec<usize>,
    /// The cost model's candidate-pair estimate for this node, when
    /// it made one (probe/refute/vector-scan nodes). EXPLAIN ANALYZE
    /// joins this against the executed `plan/node/<id>/*` counters to
    /// show estimated vs. actual.
    pub est_pairs: Option<u64>,
}

/// Serial vs. parallel execution of the probe/refute task queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One worker. `auto_small` marks the planner's own small-input
    /// fallback (reported as `engine/serial_fallback`), as opposed to
    /// an explicit `threads = 1` or a degradation rewrite.
    Serial {
        /// Whether the planner chose serial for a small input.
        auto_small: bool,
    },
    /// A scoped worker pool of `workers` threads (clamped to the
    /// task count at execution time).
    Parallel {
        /// Requested worker count.
        workers: usize,
    },
}

impl ExecMode {
    /// The worker count this mode requests.
    pub fn workers(&self) -> usize {
        match self {
            ExecMode::Serial { .. } => 1,
            ExecMode::Parallel { workers } => (*workers).max(1),
        }
    }
}

/// The surviving role of [`JoinAlgorithm`](crate::JoinAlgorithm): a
/// planner hint. `Auto` lets the cost model choose per rule;
/// `NestedLoop` forces the oracle's shape (and its report label).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArmHint {
    /// Cost-based: probe where a shape exists, scan the rest.
    Auto,
    /// The exhaustive oracle: everything scans, serially.
    NestedLoop,
}

impl ArmHint {
    /// The report's `engine` label for this hint under `index_free`
    /// and the actual worker count.
    pub fn arm_label(&self, index_free: bool, workers: usize) -> &'static str {
        match self {
            ArmHint::Auto => {
                if index_free {
                    "nested_loop"
                } else if workers > 1 {
                    "blocked_parallel"
                } else {
                    "blocked"
                }
            }
            ArmHint::NestedLoop => "nested_loop",
        }
    }
}

/// How the engine publishes the negative (refuted) pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmitMode {
    /// Per-task `Vec`s merged in task order, deduped by the convert
    /// stage. Never a planner choice for a streamable plan: only the
    /// nested-loop oracle, the index-free rewrite, the incremental
    /// matcher (whose rollback needs raw pair lists), and grids past
    /// the dense-bitset ceiling buffer.
    Buffered,
    /// Workers emit straight into row-range bitset shards; dedup is
    /// free at emission and the shards merge post-scope. The raw
    /// pair list never exists.
    Streamed,
    /// Streamed emission whose shards spill to temp files when the
    /// per-worker resident cap is breached; the merge streams spilled
    /// segments back in row-range order under bounded memory. The
    /// out-of-core rung: `--max-mem-mb` degrades here before it
    /// aborts.
    Spilled,
}

/// The planner's emission decision for a plan, carried on
/// [`MatchPlan::emit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Emit {
    /// Buffered vs. streamed vs. spilled emission.
    pub mode: EmitMode,
    /// Row-range shard count when streamed/spilled (0 when buffered).
    pub shards: usize,
    /// Parent directory for spill files when spilled (empty = the
    /// platform temp dir). The executor creates a uniquely-named run
    /// directory underneath and removes it on drop.
    pub dir: String,
    /// Per-worker resident-shard byte cap when spilled (0 when not
    /// spilled): shards flush to disk once resident bytes exceed it.
    pub shard_bytes: u64,
}

impl Emit {
    /// The buffered decision (the structural fallback and the
    /// [`MatchPlan::rewrite_buffered`] target).
    pub fn buffered() -> Emit {
        Emit {
            mode: EmitMode::Buffered,
            shards: 0,
            dir: String::new(),
            shard_bytes: 0,
        }
    }

    /// Short display string (`"buffered"` / `"streamed(11)"` /
    /// `"spilled(11)"`).
    pub fn display(&self) -> String {
        match self.mode {
            EmitMode::Buffered => "buffered".to_string(),
            EmitMode::Streamed => format!("streamed({})", self.shards),
            EmitMode::Spilled => format!("spilled({})", self.shards),
        }
    }
}

/// Caller-side override of the emission decision (`--emit` on the
/// CLI and bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmitHint {
    /// Streamed wherever a refutation phase and a sink geometry
    /// exist, spilled when the memory budget says the pairs won't
    /// fit.
    #[default]
    Auto,
    /// Force spilled emission (where structurally possible — the
    /// grid must fit the dense-bitset ceiling and a refutation phase
    /// must exist).
    Spilled,
}

/// Where the column statistics that costed a plan came from — shown
/// by `eid plan --explain` so planner decisions on a persistent
/// dataset stay auditable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsSource {
    /// Recomputed from the in-memory symbol columns (the CSV path).
    #[default]
    Computed,
    /// Read back from a dataset store's stats section — no per-plan
    /// column scan happened.
    Persisted,
}

impl StatsSource {
    /// Display string (`"computed"` / `"persisted"`).
    pub fn as_str(self) -> &'static str {
        match self {
            StatsSource::Computed => "computed",
            StatsSource::Persisted => "persisted",
        }
    }
}

/// A complete, executable match plan.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchPlan {
    /// The stage DAG, in execution order (probe nodes execute in
    /// node order; `Scan` strategies fuse into one final residual
    /// pass).
    pub nodes: Vec<PlanNode>,
    /// Serial vs. parallel task execution.
    pub mode: ExecMode,
    /// The cost model's explanation of the mode choice.
    pub mode_why: String,
    /// The planner hint the plan was built under (names the report's
    /// `engine` arm label).
    pub arm: ArmHint,
    /// Whether every probe strategy has been demoted to `Scan` (the
    /// nested-loop rewrite / memory-budget degradation).
    pub index_free: bool,
    /// Whether identity rules execute (populate `MT`).
    pub record_identity: bool,
    /// Whether distinctness rules execute (populate `NMT`).
    pub record_distinct: bool,
    /// How negative pairs are emitted (buffered vs. streamed sink).
    pub emit: Emit,
    /// The cost model's explanation of the emit choice.
    pub emit_why: String,
    /// Whether the column statistics behind the cost model were
    /// recomputed or read from a persistent store.
    pub stats_source: StatsSource,
}

impl MatchPlan {
    /// The serial twin of this plan: same nodes, same emission, one
    /// worker. Output is byte-identical — the task list never depends
    /// on the worker count. This is rung 2 of the degradation ladder,
    /// which the engine runs by rerunning the plan with one worker
    /// and fresh sinks.
    pub fn rewrite_serial(&self) -> MatchPlan {
        let mut plan = self.clone();
        plan.mode = ExecMode::Serial { auto_small: false };
        plan
    }

    /// The buffered-emission twin: a streamed or spilled plan's
    /// [`Sink`] node becomes the `Dedup` node the planner would have
    /// emitted for a buffered plan, and [`MatchPlan::emit`] drops to
    /// buffered. Same output *set* (the buffered path preserves
    /// first-occurrence order, the sink paths decode ascending). A
    /// buffered plan is returned unchanged. Used by the index-free
    /// rewrite and by the incremental matcher, whose staged-commit
    /// rollback needs the raw pair lists.
    ///
    /// [`Sink`]: PlanNodeKind::Sink
    pub fn rewrite_buffered(&self) -> MatchPlan {
        let mut plan = self.clone();
        if plan.emit.mode == EmitMode::Buffered {
            return plan;
        }
        plan.emit = Emit::buffered();
        plan.emit_why = format!("buffered rewrite; was: {}", plan.emit_why);
        for node in &mut plan.nodes {
            if matches!(node.kind, PlanNodeKind::Sink { .. }) {
                node.kind = PlanNodeKind::Dedup;
                node.label = "dedup".into();
                node.span = span::CONVERT.into();
                node.why = format!("buffered rewrite; was: {}", node.why);
            }
        }
        plan
    }

    /// The streamed-emission twin of a spilled plan: same [`Sink`]
    /// node and shard geometry, but shards stay resident and nothing
    /// touches disk. One rung up the emission ladder —
    /// spilled→streamed→buffered, each step idempotent, so
    /// `p.rewrite_streamed().rewrite_buffered() == p.rewrite_buffered()`.
    /// Streamed and buffered plans are returned unchanged. Used when
    /// spill I/O fails terminally (retries exhausted) and the run
    /// falls back to in-memory shards.
    ///
    /// [`Sink`]: PlanNodeKind::Sink
    pub fn rewrite_streamed(&self) -> MatchPlan {
        let mut plan = self.clone();
        if plan.emit.mode != EmitMode::Spilled {
            return plan;
        }
        plan.emit = Emit {
            mode: EmitMode::Streamed,
            shards: plan.emit.shards,
            dir: String::new(),
            shard_bytes: 0,
        };
        plan.emit_why = format!("streamed rewrite; was: {}", plan.emit_why);
        for node in &mut plan.nodes {
            if matches!(node.kind, PlanNodeKind::Sink { .. }) {
                node.why = format!("streamed rewrite; was: {}", node.why);
            }
        }
        plan
    }

    /// The scalar rewrite: every [`PlanNodeKind::VectorScan`] node
    /// becomes the probe node the planner would have emitted with
    /// kernels off — an `IdentityProbe` or `Refute` on the stored
    /// blocking-key positions. Output is **byte-identical**: the
    /// vector and scalar paths enumerate drivers and emit pairs in
    /// the same ascending order. Used when a kernel-bearing plan must
    /// fall back without re-planning (and as the equivalence twin in
    /// tests).
    pub fn rewrite_scalar(&self) -> MatchPlan {
        let mut plan = self.clone();
        for node in &mut plan.nodes {
            if let PlanNodeKind::VectorScan {
                rule,
                key_positions,
                ..
            } = &node.kind
            {
                let rule = rule.clone();
                let strategy = ProbeStrategy::Probe {
                    key_positions: key_positions.clone(),
                };
                let why = format!("scalar rewrite; was: {}", node.why);
                node.label = format!(
                    "{}({})",
                    match rule.family {
                        RuleFamily::Identity => "identity-probe",
                        RuleFamily::Distinct => "refute",
                    },
                    rule.name
                );
                node.kind = match rule.family {
                    RuleFamily::Identity => PlanNodeKind::IdentityProbe { rule, strategy },
                    RuleFamily::Distinct => PlanNodeKind::Refute { rule, strategy },
                };
                node.why = why;
            }
        }
        plan
    }

    /// The index-free rewrite: every probe/cross strategy becomes
    /// `Scan`, fusing into one residual pass — the nested-loop arm.
    /// Same output *set* (emission order differs; the dedup node
    /// absorbs it). `VectorScan` nodes are lowered all the way down
    /// to the scalar scan as well — the degradation ladder must land
    /// on a path with no indexes *and* no kernels. Used by rung 3 of
    /// the ladder and by the memory-budget degradation (which keeps
    /// the current mode). Emission is lowered to buffered as well —
    /// the index-free arm runs the nested-loop oracle's path.
    pub fn rewrite_index_free(&self) -> MatchPlan {
        let mut plan = self.rewrite_buffered();
        plan.index_free = true;
        for node in &mut plan.nodes {
            if let PlanNodeKind::VectorScan { rule, .. } = &node.kind {
                let rule = rule.clone();
                node.label = format!(
                    "{}({})",
                    match rule.family {
                        RuleFamily::Identity => "identity-probe",
                        RuleFamily::Distinct => "refute",
                    },
                    rule.name
                );
                node.kind = match rule.family {
                    RuleFamily::Identity => PlanNodeKind::IdentityProbe {
                        rule,
                        strategy: ProbeStrategy::Scan,
                    },
                    RuleFamily::Distinct => PlanNodeKind::Refute {
                        rule,
                        strategy: ProbeStrategy::Scan,
                    },
                };
                node.why = format!("index-free rewrite; was: {}", node.why);
                continue;
            }
            match &mut node.kind {
                PlanNodeKind::IdentityProbe { strategy, .. }
                | PlanNodeKind::Refute { strategy, .. }
                    if !matches!(strategy, ProbeStrategy::Scan) =>
                {
                    *strategy = ProbeStrategy::Scan;
                    node.why = format!("index-free rewrite; was: {}", node.why);
                }
                _ => {}
            }
        }
        plan
    }

    /// The probe/refute/vector-scan nodes, in execution order.
    pub fn probe_nodes(&self) -> impl Iterator<Item = &PlanNode> {
        self.nodes.iter().filter(|n| {
            matches!(
                n.kind,
                PlanNodeKind::IdentityProbe { .. }
                    | PlanNodeKind::Refute { .. }
                    | PlanNodeKind::VectorScan { .. }
            )
        })
    }

    /// A short human-readable mode string (`"serial"`,
    /// `"serial(auto-small)"`, `"parallel(8)"`).
    pub fn mode_display(&self) -> String {
        match self.mode {
            ExecMode::Serial { auto_small: true } => "serial(auto-small)".to_string(),
            ExecMode::Serial { auto_small: false } => "serial".to_string(),
            ExecMode::Parallel { workers } => format!("parallel({workers})"),
        }
    }

    /// Serializes the plan to JSON (the `eid plan --json` payload).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024 + self.nodes.len() * 256);
        out.push_str("{\n  \"arm\": ");
        json::push_str_literal(
            &mut out,
            self.arm.arm_label(self.index_free, self.mode.workers()),
        );
        out.push_str(",\n  \"mode\": ");
        json::push_str_literal(&mut out, &self.mode_display());
        out.push_str(",\n  \"mode_why\": ");
        json::push_str_literal(&mut out, &self.mode_why);
        out.push_str(",\n  \"workers\": ");
        out.push_str(&self.mode.workers().to_string());
        out.push_str(",\n  \"index_free\": ");
        out.push_str(if self.index_free { "true" } else { "false" });
        out.push_str(",\n  \"emit\": ");
        json::push_str_literal(&mut out, &self.emit.display());
        out.push_str(",\n  \"emit_why\": ");
        json::push_str_literal(&mut out, &self.emit_why);
        out.push_str(",\n  \"stats\": ");
        json::push_str_literal(&mut out, self.stats_source.as_str());
        out.push_str(",\n  \"sink_shards\": ");
        out.push_str(&self.emit.shards.to_string());
        if self.emit.mode == EmitMode::Spilled {
            out.push_str(",\n  \"spill_dir\": ");
            json::push_str_literal(
                &mut out,
                if self.emit.dir.is_empty() {
                    "<temp>"
                } else {
                    &self.emit.dir
                },
            );
            out.push_str(",\n  \"spill_shard_bytes\": ");
            out.push_str(&self.emit.shard_bytes.to_string());
        }
        out.push_str(",\n  \"nodes\": [\n");
        for (i, node) in self.nodes.iter().enumerate() {
            out.push_str("    {\"id\": ");
            out.push_str(&node.id.to_string());
            out.push_str(", \"kind\": ");
            json::push_str_literal(&mut out, node.kind.as_str());
            match &node.kind {
                PlanNodeKind::IdentityProbe { rule, strategy }
                | PlanNodeKind::Refute { rule, strategy } => {
                    out.push_str(", \"rule\": ");
                    json::push_str_literal(&mut out, &rule.name);
                    out.push_str(", \"family\": ");
                    json::push_str_literal(&mut out, rule.family.as_str());
                    out.push_str(", \"strategy\": ");
                    json::push_str_literal(&mut out, strategy.as_str());
                    if let ProbeStrategy::Probe { key_positions } = strategy {
                        out.push_str(", \"key_positions\": [");
                        for (k, p) in key_positions.iter().enumerate() {
                            if k > 0 {
                                out.push_str(", ");
                            }
                            out.push_str(&p.to_string());
                        }
                        out.push(']');
                    }
                }
                PlanNodeKind::VectorScan {
                    rule,
                    shape,
                    lanes,
                    tile_rows,
                    key_positions,
                } => {
                    out.push_str(", \"rule\": ");
                    json::push_str_literal(&mut out, &rule.name);
                    out.push_str(", \"family\": ");
                    json::push_str_literal(&mut out, rule.family.as_str());
                    out.push_str(", \"shape\": ");
                    json::push_str_literal(&mut out, shape.as_str());
                    out.push_str(", \"lanes\": ");
                    out.push_str(&lanes.to_string());
                    out.push_str(", \"tile_rows\": ");
                    out.push_str(&tile_rows.to_string());
                    out.push_str(", \"key_positions\": [");
                    for (k, p) in key_positions.iter().enumerate() {
                        if k > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&p.to_string());
                    }
                    out.push(']');
                }
                PlanNodeKind::Derive { side } => {
                    out.push_str(", \"side\": ");
                    json::push_str_literal(&mut out, side);
                }
                PlanNodeKind::Sink { shards } => {
                    out.push_str(", \"shards\": ");
                    out.push_str(&shards.to_string());
                }
                _ => {}
            }
            if let Some(est) = node.est_pairs {
                out.push_str(", \"est_pairs\": ");
                out.push_str(&est.to_string());
            }
            out.push_str(", \"label\": ");
            json::push_str_literal(&mut out, &node.label);
            out.push_str(", \"why\": ");
            json::push_str_literal(&mut out, &node.why);
            out.push_str(", \"span\": ");
            json::push_str_literal(&mut out, &node.span);
            out.push_str(", \"inputs\": [");
            for (k, inp) in node.inputs.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                out.push_str(&inp.to_string());
            }
            out.push_str("]}");
            out.push_str(if i + 1 < self.nodes.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MatchPlan {
        MatchPlan {
            nodes: vec![
                PlanNode {
                    id: 0,
                    kind: PlanNodeKind::Derive { side: "R" },
                    label: "derive(R)".into(),
                    why: "extend R with the extended key".into(),
                    span: "match/derive/r".into(),
                    inputs: vec![],
                    est_pairs: None,
                },
                PlanNode {
                    id: 1,
                    kind: PlanNodeKind::IdentityProbe {
                        rule: RuleRef {
                            family: RuleFamily::Identity,
                            index: 0,
                            name: "key-eq".into(),
                        },
                        strategy: ProbeStrategy::Probe {
                            key_positions: vec![0, 1],
                        },
                    },
                    label: "identity-probe(key-eq)".into(),
                    why: "key (name, cuisine)".into(),
                    span: "match/engine/identity/key-eq".into(),
                    inputs: vec![0],
                    est_pairs: Some(9_000_000),
                },
            ],
            mode: ExecMode::Parallel { workers: 4 },
            mode_why: "est 9000000 pairs ≥ 50000 threshold".into(),
            arm: ArmHint::Auto,
            index_free: false,
            record_identity: true,
            record_distinct: true,
            emit: Emit::buffered(),
            emit_why: "no refutation phase: nothing worth streaming".into(),
            stats_source: StatsSource::default(),
        }
    }

    #[test]
    fn rewrites_are_pure_and_compose() {
        let plan = sample();
        let serial = plan.rewrite_serial();
        assert_eq!(serial.mode, ExecMode::Serial { auto_small: false });
        assert_eq!(serial.nodes, plan.nodes); // nodes untouched
        assert_eq!(serial.emit, plan.emit); // emission untouched
        let nested = plan.rewrite_index_free().rewrite_serial();
        assert!(nested.index_free);
        assert!(nested.probe_nodes().all(|n| matches!(
            n.kind,
            PlanNodeKind::IdentityProbe {
                strategy: ProbeStrategy::Scan,
                ..
            }
        )));
        assert_eq!(nested.arm.arm_label(nested.index_free, 1), "nested_loop");
        // The original is untouched.
        assert!(!plan.index_free);
    }

    fn streamed_sample() -> MatchPlan {
        let mut plan = sample();
        plan.emit = Emit {
            mode: EmitMode::Streamed,
            shards: 5,
            dir: String::new(),
            shard_bytes: 0,
        };
        plan.emit_why = "workers emit into 5 row-range bitset shards".into();
        plan.nodes.push(PlanNode {
            id: 2,
            kind: PlanNodeKind::Sink { shards: 5 },
            label: "sink(5 shards)".into(),
            why: "workers emit into 5 row-range bitset shards".into(),
            span: "match/engine/sink_merge".into(),
            inputs: vec![1],
            est_pairs: None,
        });
        plan
    }

    #[test]
    fn buffered_rewrite_lowers_the_sink_node_and_the_ladder_uses_it() {
        let plan = streamed_sample();
        let buffered = plan.rewrite_buffered();
        assert_eq!(buffered.emit, Emit::buffered());
        assert!(matches!(buffered.nodes[2].kind, PlanNodeKind::Dedup));
        assert_eq!(buffered.nodes[2].label, "dedup");
        assert!(buffered.nodes[2].why.starts_with("buffered rewrite; was: "));
        // The serial twin keeps streaming; the index-free twin lands
        // on buffered emission.
        let serial = plan.rewrite_serial();
        assert_eq!(serial.emit, plan.emit);
        assert_eq!(serial.nodes, plan.nodes);
        let nested = plan.rewrite_index_free();
        assert_eq!(nested.emit, Emit::buffered());
        assert!(!nested
            .nodes
            .iter()
            .any(|n| matches!(n.kind, PlanNodeKind::Sink { .. })));
        // A buffered plan passes through unchanged, and the original
        // streamed plan is untouched.
        assert_eq!(buffered.rewrite_buffered().nodes, buffered.nodes);
        assert!(matches!(plan.nodes[2].kind, PlanNodeKind::Sink { .. }));
        // JSON carries the emit decision and the shard count.
        let json = plan.to_json();
        for needle in [
            "\"emit\": \"streamed(5)\"",
            "\"sink_shards\": 5",
            "\"kind\": \"sink\"",
            "\"shards\": 5",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    fn spilled_sample() -> MatchPlan {
        let mut plan = streamed_sample();
        plan.emit = Emit {
            mode: EmitMode::Spilled,
            shards: 5,
            dir: "/tmp/eid-test".into(),
            shard_bytes: 1 << 20,
        };
        plan.emit_why = "est 84000000 pair bytes over the 33554432-byte budget".into();
        plan
    }

    #[test]
    fn streamed_rewrite_lowers_spilled_one_rung_and_composes() {
        let plan = spilled_sample();
        let streamed = plan.rewrite_streamed();
        assert_eq!(streamed.emit.mode, EmitMode::Streamed);
        assert_eq!(streamed.emit.shards, 5); // geometry survives
        assert_eq!(streamed.emit.dir, "");
        assert_eq!(streamed.emit.shard_bytes, 0);
        assert!(streamed.emit_why.starts_with("streamed rewrite; was: "));
        // The Sink node stays a Sink node — only its why is annotated.
        assert!(matches!(
            streamed.nodes[2].kind,
            PlanNodeKind::Sink { shards: 5 }
        ));
        assert!(streamed.nodes[2].why.starts_with("streamed rewrite; was: "));
        // Idempotent on streamed, no-op on buffered.
        assert_eq!(streamed.rewrite_streamed(), streamed);
        let buffered = plan.rewrite_buffered();
        assert_eq!(buffered.rewrite_streamed(), buffered);
        // Composition law: streamed then buffered == buffered, up to
        // the why trail.
        let composed = plan.rewrite_streamed().rewrite_buffered();
        assert_eq!(composed.emit, Emit::buffered());
        assert!(matches!(composed.nodes[2].kind, PlanNodeKind::Dedup));
        // The serial twin keeps spilling; the index-free twin lowers
        // spilled all the way to buffered.
        assert_eq!(plan.rewrite_serial().emit, plan.emit);
        assert_eq!(plan.rewrite_index_free().emit, Emit::buffered());
        // The original plan is untouched.
        assert_eq!(plan.emit.mode, EmitMode::Spilled);
    }

    #[test]
    fn spilled_json_carries_the_spill_decision() {
        let json = spilled_sample().to_json();
        for needle in [
            "\"emit\": \"spilled(5)\"",
            "\"sink_shards\": 5",
            "\"spill_dir\": \"/tmp/eid-test\"",
            "\"spill_shard_bytes\": 1048576",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Non-spilled plans don't grow the spill keys.
        assert!(!streamed_sample().to_json().contains("spill_dir"));
    }

    #[test]
    fn arm_labels_follow_workers_and_hint() {
        assert_eq!(ArmHint::Auto.arm_label(false, 4), "blocked_parallel");
        assert_eq!(ArmHint::Auto.arm_label(false, 1), "blocked");
        assert_eq!(ArmHint::Auto.arm_label(true, 4), "nested_loop");
        assert_eq!(ArmHint::NestedLoop.arm_label(false, 1), "nested_loop");
    }

    fn vector_sample() -> MatchPlan {
        let mut plan = sample();
        plan.nodes.push(PlanNode {
            id: 2,
            kind: PlanNodeKind::VectorScan {
                rule: RuleRef {
                    family: RuleFamily::Distinct,
                    index: 3,
                    name: "r3".into(),
                },
                shape: KernelShape::Disagree,
                lanes: 16,
                tile_rows: 65536,
                key_positions: vec![1],
            },
            label: "vector-scan(r3)".into(),
            why: "vector disagree kernel: est 161000 pairs; lanes=16, tile=65536 rows".into(),
            span: "match/engine/refute/r3".into(),
            inputs: vec![0],
            est_pairs: Some(161_000),
        });
        plan
    }

    #[test]
    fn scalar_rewrite_lowers_vector_scans_to_their_probe_twin() {
        let plan = vector_sample();
        let scalar = plan.rewrite_scalar();
        let node = &scalar.nodes[2];
        match &node.kind {
            PlanNodeKind::Refute {
                rule,
                strategy: ProbeStrategy::Probe { key_positions },
            } => {
                assert_eq!(rule.name, "r3");
                assert_eq!(key_positions, &vec![1]);
            }
            other => panic!("expected scalar refute probe, got {other:?}"),
        }
        assert!(
            node.why.starts_with("scalar rewrite; was: "),
            "{}",
            node.why
        );
        assert_eq!(node.label, "refute(r3)");
        // Non-vector nodes are untouched; the original plan is pure.
        assert_eq!(scalar.nodes[..2], plan.nodes[..2]);
        assert!(matches!(
            plan.nodes[2].kind,
            PlanNodeKind::VectorScan { .. }
        ));
    }

    #[test]
    fn index_free_rewrite_lowers_vector_scans_to_scan() {
        let nested = vector_sample().rewrite_index_free();
        assert!(nested.index_free);
        assert!(matches!(
            nested.nodes[2].kind,
            PlanNodeKind::Refute {
                strategy: ProbeStrategy::Scan,
                ..
            }
        ));
        assert!(nested.nodes[2].why.starts_with("index-free rewrite; was: "));
    }

    #[test]
    fn vector_scan_json_round_trips_the_node_kind() {
        let json = vector_sample().to_json();
        for needle in [
            "\"kind\": \"vector-scan\"",
            "\"rule\": \"r3\"",
            "\"family\": \"distinct\"",
            "\"shape\": \"disagree\"",
            "\"lanes\": 16",
            "\"tile_rows\": 65536",
            "\"key_positions\": [1]",
            "\"est_pairs\": 161000",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn json_has_the_expected_shape() {
        let json = sample().to_json();
        for needle in [
            "\"arm\": \"blocked_parallel\"",
            "\"mode\": \"parallel(4)\"",
            "\"nodes\": [",
            "\"kind\": \"identity-probe\"",
            "\"rule\": \"key-eq\"",
            "\"strategy\": \"probe\"",
            "\"key_positions\": [0, 1]",
            "\"why\": ",
            "\"inputs\": [0]",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }
}
