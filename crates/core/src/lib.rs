//! # `eid-core` — the entity-identification engine
//!
//! The primary contribution of Lim, Srivastava, Prabhakar &
//! Richardson, *Entity Identification in Database Integration* (ICDE
//! 1993), as a native Rust engine:
//!
//! * [`extend`] — widen relations with missing extended-key
//!   attributes and derive their values from ILFDs (§4.2 steps 1–2);
//! * [`matcher`] — the [`matcher::EntityMatcher`]: extended-key
//!   equivalence via hash join or nested loop, distinctness via
//!   Proposition-1 rules, producing matching and negative matching
//!   tables (§4.2 step 3);
//! * [`plan`] — the typed match-plan IR: a DAG of stage nodes with
//!   per-node labels, rationales, and span names, serializable to
//!   JSON and rewritable (serial twin, index-free twin);
//! * [`planner`] — the cost-based planner: chooses blocking keys,
//!   probe strategies, and serial-vs-parallel execution from cheap
//!   column statistics;
//! * [`engine`] — the [`engine::Executor`], the one place match
//!   plans run: precompiled rules, per-rule inverted-index blocking,
//!   chunked data parallelism, and the degradation ladder as plan
//!   rewrites;
//! * [`kernels`] — vectorized predicate kernels over interned symbol
//!   columns: portable autovectorizing chunked-scalar paths with an
//!   AVX2 twin behind runtime feature detection, plus the L2 tile
//!   sizing the residual scan uses;
//! * [`match_table`] — pair tables with the §3.2 uniqueness and
//!   consistency constraints;
//! * [`algebra_pipeline`] — an independent implementation of the same
//!   construction as the §4.2 relational expressions over ILFD
//!   tables (cross-validated against the matcher);
//! * [`integrate`] — the integrated table `T_RS = MT ⋈ R ⟗ S` with
//!   NULL semantics (§4.1, §6.3);
//! * [`partition`] — the Figure-3 three-way partition;
//! * [`monotonic`] — the §3.3 monotonicity harness (knowledge sweeps);
//! * [`sink`] — streaming pair sinks: the [`sink::PairSink`] trait,
//!   the row-range-sharded bitset sink workers emit into, and the
//!   post-scope shard merge (dedup folded into emission);
//! * [`stats`] — the observability vocabulary: every span path and
//!   counter name the engine records into its
//!   [`MatchReport`](eid_obs::MatchReport);
//! * [`metrics`] — soundness/completeness measurement against ground
//!   truth;
//! * [`session`] — a facade reproducing the Prolog prototype's
//!   `setup_extkey` / `print_matchtable` / `print_integ_table`
//!   workflow, including its verification messages;
//! * [`validate`] — the §3.2 *necessary* pre-match checks on
//!   DBA-supplied knowledge;
//! * [`conflict`] — attribute-value conflict detection/resolution
//!   after identification (§2) and the unified relation;
//! * [`incremental`] — matching tables maintained under federated
//!   tuple inserts and growing ILFD knowledge (§2, §3.3);
//! * [`runtime`] — the hardened run layer: [`RunGuard`] cooperative
//!   cancellation, deadlines, and resource budgets, with the
//!   degradation ladder documented in DESIGN.md §9;
//! * [`virtual_view`] — query-time virtual integration with
//!   selection pushdown (§1);
//! * [`explain`] — per-match provenance: the ILFD chains behind each
//!   derived extended-key value;
//! * [`job`] — one-call orchestration of the whole pipeline.
//!
//! ## Quickstart
//!
//! ```
//! use eid_core::prelude::*;
//! use eid_relational::{Relation, Schema};
//! use eid_ilfd::{Ilfd, IlfdSet};
//!
//! // R(name, cuisine) and S(name, speciality) share no candidate key.
//! let r_schema = Schema::of_strs("R", &["name", "cuisine"], &["name", "cuisine"]).unwrap();
//! let mut r = Relation::new(r_schema);
//! r.insert_strs(&["twincities", "indian"]).unwrap();
//!
//! let s_schema = Schema::of_strs("S", &["name", "speciality"], &["name", "speciality"]).unwrap();
//! let mut s = Relation::new(s_schema);
//! s.insert_strs(&["twincities", "mughalai"]).unwrap();
//!
//! // One ILFD bridges them: Mughalai speciality ⇒ Indian cuisine.
//! let ilfds: IlfdSet = vec![
//!     Ilfd::of_strs(&[("speciality", "mughalai")], &[("cuisine", "indian")]),
//! ].into_iter().collect();
//!
//! let config = MatchConfig::new(ExtendedKey::of_strs(&["name", "cuisine"]), ilfds);
//! let outcome = EntityMatcher::new(r, s, config).unwrap().run().unwrap();
//! assert_eq!(outcome.matching.len(), 1);
//! outcome.verify().unwrap(); // sound: uniqueness + consistency hold
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algebra_pipeline;
pub mod conflict;
pub mod engine;
pub mod error;
pub mod explain;
pub mod extend;
pub mod factorized;
pub mod incremental;
pub mod integrate;
pub mod job;
pub mod kernels;
pub mod match_table;
pub mod matcher;
pub mod metrics;
pub mod monotonic;
pub mod partition;
pub mod plan;
pub mod planner;
pub mod runtime;
pub mod session;
pub mod sink;
pub mod stats;
pub mod store;
pub mod validate;
pub mod virtual_view;

pub use conflict::{AttributeConflict, ConflictPolicy, Unified};
pub use engine::{BlockedEngine, EnginePairs, Executor, RelSide};
pub use error::{CoreError, Result};
pub use explain::{explain_match, render_plan, MatchExplanation, Support};
pub use factorized::{FactorizedPairs, Rect};
pub use incremental::{Delta, IncrementalMatcher, SideSel};
pub use integrate::IntegratedTable;
pub use job::{IntegrationJob, IntegrationReport};
pub use match_table::{PairEntry, PairTable};
pub use matcher::{EntityMatcher, JoinAlgorithm, MatchConfig, MatchOutcome};
pub use metrics::{Evaluation, GroundTruth};
pub use monotonic::KnowledgeSweep;
pub use partition::Partition;
pub use plan::{
    ArmHint, Emit, EmitHint, EmitMode, ExecMode, MatchPlan, PlanNode, PlanNodeKind, ProbeStrategy,
    RuleFamily, RuleRef,
};
pub use planner::Planner;
pub use runtime::{AbortReason, PartialStats, RunBudget, RunGuard};
pub use session::Session;
pub use sink::{PairSet, PairSink, SpillDirGuard};
pub use store::Dataset;
pub use validate::{validate_knowledge, KnowledgeReport};
pub use virtual_view::{Selection, ViewAnswer, VirtualView};

/// Commonly used types, one `use` away.
pub mod prelude {
    pub use crate::conflict::{AttributeConflict, ConflictPolicy, Unified};
    pub use crate::engine::{BlockedEngine, EnginePairs, Executor};
    pub use crate::incremental::{Delta, IncrementalMatcher, SideSel};
    pub use crate::integrate::IntegratedTable;
    pub use crate::job::{IntegrationJob, IntegrationReport};
    pub use crate::match_table::PairTable;
    pub use crate::matcher::{EntityMatcher, JoinAlgorithm, MatchConfig, MatchOutcome};
    pub use crate::metrics::{Evaluation, GroundTruth};
    pub use crate::monotonic::KnowledgeSweep;
    pub use crate::partition::Partition;
    pub use crate::plan::{ArmHint, EmitHint, MatchPlan};
    pub use crate::runtime::{AbortReason, PartialStats, RunBudget, RunGuard};
    pub use crate::session::Session;
    pub use crate::virtual_view::{Selection, VirtualView};
    pub use eid_ilfd::Strategy as DerivationStrategy;
    pub use eid_rules::{ExtendedKey, MatchDecision, RuleBase};
}
