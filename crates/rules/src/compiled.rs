//! Rule precompilation: positional rules, one per live orientation.
//!
//! [`crate::rulebase::RuleBase::decide`] resolves attribute names
//! against schemas on **every** predicate evaluation — fine for one
//! pair, ruinous inside an `|R|·|S|` loop. A [`CompiledRuleBase`]
//! does that work once per run:
//!
//! * attribute names become column positions in the two concrete
//!   schemas ([`CompiledOperand::R`]/[`CompiledOperand::S`]);
//! * the two orientations a symmetric rule must be checked in
//!   (`(e₁,e₂)` and `(e₂,e₁)`) become two compiled rules, deduplicated
//!   when the rule is syntactically symmetric;
//! * predicates over attributes missing from a schema make the whole
//!   (three-valued) conjunction unknowable — such compiled rules are
//!   **dead** and dropped;
//! * constant-only predicates are folded at compile time.
//!
//! Compiled rules are not evaluated directly: they are the input of
//! [`crate::interned`], which lowers them into symbol space, where
//! the engine evaluates them and reads off their indexable shapes.

use eid_relational::{Schema, Value};

use crate::pred::{CmpOp, Operand, Predicate, Side};
use crate::rulebase::RuleBase;

/// A predicate operand resolved against the two concrete schemas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompiledOperand {
    /// Column `pos` of the `R`-side tuple.
    R(usize),
    /// Column `pos` of the `S`-side tuple.
    S(usize),
    /// A constant.
    Const(Value),
}

impl CompiledOperand {
    /// A stable sort key for canonicalization.
    fn rank(&self) -> (u8, usize, Option<&Value>) {
        match self {
            CompiledOperand::R(p) => (0, *p, None),
            CompiledOperand::S(p) => (1, *p, None),
            CompiledOperand::Const(v) => (2, 0, Some(v)),
        }
    }
}

/// One predicate with both operands resolved to column positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPredicate {
    /// Left operand.
    pub lhs: CompiledOperand,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: CompiledOperand,
}

impl CompiledPredicate {
    /// Rewrites `>`/`≥` to `<`/`≤` (operand swap) and orders the
    /// operands of symmetric operators canonically, so syntactically
    /// mirrored predicates compare equal.
    fn canonical(&self) -> CompiledPredicate {
        let (mut lhs, mut op, mut rhs) = (self.lhs.clone(), self.op, self.rhs.clone());
        match op {
            CmpOp::Gt => {
                std::mem::swap(&mut lhs, &mut rhs);
                op = CmpOp::Lt;
            }
            CmpOp::Ge => {
                std::mem::swap(&mut lhs, &mut rhs);
                op = CmpOp::Le;
            }
            CmpOp::Eq | CmpOp::Ne => {
                if lhs.rank() > rhs.rank() {
                    std::mem::swap(&mut lhs, &mut rhs);
                }
            }
            CmpOp::Lt | CmpOp::Le => {}
        }
        CompiledPredicate { lhs, op, rhs }
    }
}

/// A rule compiled for one orientation over `(R-tuple, S-tuple)`
/// pairs: a conjunction of positional predicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledRule {
    /// The source rule's name (both orientations share it).
    pub name: String,
    predicates: Vec<CompiledPredicate>,
}

impl CompiledRule {
    /// The compiled predicate conjunction.
    pub fn predicates(&self) -> &[CompiledPredicate] {
        &self.predicates
    }

    fn canonical(&self) -> Vec<CompiledPredicate> {
        let mut c: Vec<CompiledPredicate> = self
            .predicates
            .iter()
            .map(CompiledPredicate::canonical)
            .collect();
        c.sort_by(|a, b| {
            (a.lhs.rank(), a.op as u8, a.rhs.rank()).cmp(&(b.lhs.rank(), b.op as u8, b.rhs.rank()))
        });
        c
    }
}

/// What one [`CompiledRuleBase::compile`] pass did — the compile-time
/// half of the engine's observability report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Source rules handed to the compiler (identity + distinctness).
    pub source_rules: usize,
    /// Compiled orientations that survived (length of the output
    /// rule lists).
    pub compiled: usize,
    /// Reversed orientations dropped because the rule is
    /// syntactically symmetric.
    pub symmetric_folded: usize,
    /// Orientations dropped as dead (a predicate references an
    /// attribute missing from its schema, or a constant fold failed).
    pub dead_orientations: usize,
}

/// A rule base compiled against one concrete schema pair.
#[derive(Debug, Clone, Default)]
pub struct CompiledRuleBase {
    /// Compiled identity rules (both orientations, deduplicated,
    /// dead rules dropped).
    pub identity: Vec<CompiledRule>,
    /// Compiled distinctness rules, likewise.
    pub distinctness: Vec<CompiledRule>,
    /// What compilation did (folds, drops) — for the match report.
    pub stats: CompileStats,
}

impl CompiledRuleBase {
    /// Compiles `rb` against the schema pair. For each source rule
    /// both orientations are compiled — `fires(s1,t1,s2,t2) ||
    /// fires(s2,t2,s1,t1)` becomes two positional rules — and the
    /// reversed one is dropped when it canonicalizes identically
    /// (symmetric rules like extended-key equivalence).
    pub fn compile(rb: &RuleBase, schema_r: &Schema, schema_s: &Schema) -> CompiledRuleBase {
        let mut out = CompiledRuleBase::default();
        for rule in rb.identity_rules() {
            compile_orientations(
                &rule.name,
                rule.predicates(),
                schema_r,
                schema_s,
                &mut out.identity,
                &mut out.stats,
            );
        }
        for rule in rb.distinctness_rules() {
            compile_orientations(
                &rule.name,
                rule.predicates(),
                schema_r,
                schema_s,
                &mut out.distinctness,
                &mut out.stats,
            );
        }
        out.stats.compiled = out.identity.len() + out.distinctness.len();
        out
    }
}

/// Compiles one predicate for one orientation; `None` when an operand
/// references an attribute absent from its schema (the predicate — and
/// with it the whole rule — can then never be definitely true).
fn compile_predicate(
    p: &Predicate,
    schema_r: &Schema,
    schema_s: &Schema,
    swapped: bool,
) -> Option<CompiledPredicate> {
    let compile_operand = |o: &Operand| -> Option<CompiledOperand> {
        match o {
            Operand::Const(v) => Some(CompiledOperand::Const(v.clone())),
            Operand::Attr { side, attr } => {
                let on_r = (*side == Side::E1) != swapped;
                if on_r {
                    schema_r.try_position(attr).map(CompiledOperand::R)
                } else {
                    schema_s.try_position(attr).map(CompiledOperand::S)
                }
            }
        }
    };
    Some(CompiledPredicate {
        lhs: compile_operand(&p.lhs)?,
        op: p.op,
        rhs: compile_operand(&p.rhs)?,
    })
}

/// Compiles one source rule for one orientation; `None` when the rule
/// is dead (a predicate is unknowable or a constant fold fails).
fn compile_rule(
    name: &str,
    predicates: &[Predicate],
    schema_r: &Schema,
    schema_s: &Schema,
    swapped: bool,
) -> Option<CompiledRule> {
    let mut compiled = Vec::with_capacity(predicates.len());
    for p in predicates {
        let cp = compile_predicate(p, schema_r, schema_s, swapped)?;
        if let (CompiledOperand::Const(l), CompiledOperand::Const(r)) = (&cp.lhs, &cp.rhs) {
            // Constant fold: definitely-true predicates vanish,
            // anything else kills the conjunction.
            match l.compare(r) {
                Some(ord) if cp.op.test(ord) => continue,
                _ => return None,
            }
        }
        compiled.push(cp);
    }
    Some(CompiledRule {
        name: name.to_string(),
        predicates: compiled,
    })
}

fn compile_orientations(
    name: &str,
    predicates: &[Predicate],
    schema_r: &Schema,
    schema_s: &Schema,
    out: &mut Vec<CompiledRule>,
    stats: &mut CompileStats,
) {
    stats.source_rules += 1;
    let forward = compile_rule(name, predicates, schema_r, schema_s, false);
    let reversed = compile_rule(name, predicates, schema_r, schema_s, true);
    match (forward, reversed) {
        (Some(f), Some(r)) => {
            let symmetric = f.canonical() == r.canonical();
            out.push(f);
            if symmetric {
                stats.symmetric_folded += 1;
            } else {
                out.push(r);
            }
        }
        (Some(f), None) => {
            stats.dead_orientations += 1;
            out.push(f);
        }
        (None, Some(r)) => {
            stats.dead_orientations += 1;
            out.push(r);
        }
        (None, None) => stats.dead_orientations += 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distinctness::DistinctnessRule;
    use crate::identity::IdentityRule;
    use eid_relational::Schema;

    fn schemas() -> (std::sync::Arc<Schema>, std::sync::Arc<Schema>) {
        (
            Schema::of_strs("R", &["name", "cuisine", "street"], &["name"]).unwrap(),
            Schema::of_strs("S", &["name", "cuisine", "city"], &["name"]).unwrap(),
        )
    }

    fn rb() -> RuleBase {
        let mut rb = RuleBase::new();
        rb.add_identity(
            IdentityRule::new(
                "key-eq",
                vec![Predicate::cross_eq("name"), Predicate::cross_eq("cuisine")],
            )
            .unwrap(),
        );
        rb.add_distinctness(
            DistinctnessRule::new(
                "r3",
                vec![
                    Predicate::attr_const(Side::E1, "cuisine", CmpOp::Eq, "indian"),
                    Predicate::attr_const(Side::E2, "cuisine", CmpOp::Ne, "indian"),
                ],
            )
            .unwrap(),
        );
        rb
    }

    #[test]
    fn symmetric_rule_compiles_once() {
        let (s1, s2) = schemas();
        let c = CompiledRuleBase::compile(&rb(), &s1, &s2);
        // Extended-key equivalence is symmetric: one orientation.
        assert_eq!(c.identity.len(), 1);
        // The r3 rule is directional: both orientations survive.
        assert_eq!(c.distinctness.len(), 2);
    }

    #[test]
    fn missing_attribute_kills_the_orientation() {
        let (s1, s2) = schemas();
        let mut base = RuleBase::new();
        // street exists only in R: E1-orientation compiles, the
        // swapped one (street on S) is dead.
        base.add_distinctness(
            DistinctnessRule::new(
                "street-rule",
                vec![
                    Predicate::attr_const(Side::E1, "street", CmpOp::Eq, "x"),
                    Predicate::attr_const(Side::E2, "cuisine", CmpOp::Ne, "greek"),
                ],
            )
            .unwrap(),
        );
        let c = CompiledRuleBase::compile(&base, &s1, &s2);
        assert_eq!(c.distinctness.len(), 1);
    }

    #[test]
    fn compile_stats_account_for_folds_and_drops() {
        let (s1, s2) = schemas();
        // rb(): key-eq is symmetric (folded), r3 keeps both
        // orientations — 2 source rules, 3 compiled, 1 folded, 0 dead.
        let c = CompiledRuleBase::compile(&rb(), &s1, &s2);
        assert_eq!(c.stats.source_rules, 2);
        assert_eq!(c.stats.compiled, 3);
        assert_eq!(c.stats.symmetric_folded, 1);
        assert_eq!(c.stats.dead_orientations, 0);

        // A street rule (street only in R) loses its swapped
        // orientation as dead.
        let mut base = RuleBase::new();
        base.add_distinctness(
            DistinctnessRule::new(
                "street-rule",
                vec![
                    Predicate::attr_const(Side::E1, "street", CmpOp::Eq, "x"),
                    Predicate::attr_const(Side::E2, "cuisine", CmpOp::Ne, "greek"),
                ],
            )
            .unwrap(),
        );
        let c = CompiledRuleBase::compile(&base, &s1, &s2);
        assert_eq!(c.stats.source_rules, 1);
        assert_eq!(c.stats.compiled, 1);
        assert_eq!(c.stats.dead_orientations, 1);
        assert_eq!(c.stats.symmetric_folded, 0);
    }
}
