//! # `eid-rules` — identity and distinctness rules, extended keys
//!
//! The rule language of §3.2–§4.1 of Lim et al. (ICDE 1993):
//!
//! * [`pred`] — pair predicates `eᵢ.A op eⱼ.B` / `eᵢ.A op const`
//!   with three-valued (NULL-aware) evaluation;
//! * [`identity`] — identity rules `P → (e₁ ≡ e₂)`, including the
//!   paper's well-formedness side condition, decided by an equality
//!   graph over `P`;
//! * [`distinctness`] — distinctness rules `P → (e₁ ≢ e₂)` and the
//!   Proposition 1 duality with ILFDs (both directions);
//! * [`extended_key`] — extended keys `K_Ext`, their identity rule
//!   (*extended key equivalence*), uniqueness and minimality checks;
//! * [`compiled`] — rule precompilation: attribute names resolved to
//!   column positions once per run, one rule per live orientation;
//! * [`interned`] — compiled rules lowered into symbol space: the
//!   evaluators, indexable shapes, and kernel shapes the `eid-core`
//!   blocked matching engine runs;
//! * [`rulebase`] — a [`RuleBase`] with the three-valued
//!   [`RuleBase::decide`] function over tuple pairs, plus detection
//!   of mutually inconsistent rule firings.
//!
//! ## Example
//!
//! ```
//! use eid_rules::{ExtendedKey, MatchDecision, RuleBase};
//! use eid_relational::{Schema, Tuple};
//!
//! let k = ExtendedKey::of_strs(&["name", "cuisine"]);
//! let mut rb = RuleBase::new();
//! rb.add_identity(k.identity_rule().unwrap());
//!
//! let r = Schema::of_strs("R", &["name", "cuisine"], &["name"]).unwrap();
//! let s = Schema::of_strs("S", &["name", "cuisine"], &["name"]).unwrap();
//! let d = rb.decide(&r, &Tuple::of_strs(&["tc", "chinese"]),
//!                   &s, &Tuple::of_strs(&["tc", "chinese"])).unwrap();
//! assert_eq!(d, MatchDecision::Matching);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compiled;
pub mod distinctness;
pub mod extended_key;
pub mod identity;
pub mod interned;
pub mod parser;
pub mod pred;
pub mod rulebase;

pub use compiled::{
    CompileStats, CompiledOperand, CompiledPredicate, CompiledRule, CompiledRuleBase,
};
pub use distinctness::{DistinctnessRule, DistinctnessRuleError};
pub use extended_key::ExtendedKey;
pub use identity::{IdentityRule, IdentityRuleError};
pub use interned::{
    InternedDistinctShape, InternedIdentityShape, InternedOperand, InternedPredicate, InternedRule,
    InternedRuleBase, KernelShape, NeqSide,
};
pub use parser::{parse_rules, ParseError, RuleFile, Statement};
pub use pred::{CmpOp, Operand, Predicate, Side};
pub use rulebase::{InconsistentRules, MatchDecision, RuleBase};
