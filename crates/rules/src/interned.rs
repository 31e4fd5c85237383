//! Interned rule evaluation: compiled rules lowered into symbol-id
//! space.
//!
//! A [`CompiledRule`] holds [`eid_relational::Value`] constants. An
//! [`InternedRule`] is the same positional conjunction with every
//! constant interned and every attribute read answered from a
//! columnar [`Columns`] view, so the hot predicates (`=`, `≠`) become
//! single `u32` compares. Ordering predicates (`<`, `≤`) resolve their
//! symbols back through the [`Interner`] — they are rare and
//! non-indexable, so they only run on the residual path.
//!
//! The three-valued semantics are preserved exactly: [`NULL_SYM`]
//! makes a predicate *unknown* (never true), and for non-NULL symbols
//! id equality coincides with [`eid_relational::Value::compare`]
//! returning `Equal` by the interner's equality contract — so the
//! union of [`InternedRule::fires`] over a source rule's orientations
//! agrees with the source-level
//! [`RuleBase::fires_identity`](crate::RuleBase::fires_identity) /
//! [`RuleBase::fires_distinctness`](crate::RuleBase::fires_distinctness)
//! on the encoded relations.

use eid_relational::{Columns, Interner, Sym, NULL_SYM};

use crate::compiled::{CompiledOperand, CompiledRule, CompiledRuleBase};
use crate::pred::CmpOp;

/// A predicate operand in symbol space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InternedOperand {
    /// Column `pos` of the `R`-side row.
    R(usize),
    /// Column `pos` of the `S`-side row.
    S(usize),
    /// An interned constant.
    Const(Sym),
}

impl InternedOperand {
    /// The operand's symbol for row pair (`i`, `j`); `None` when it
    /// reads NULL (the comparison is unknown).
    #[inline]
    fn resolve(&self, r: &Columns, i: usize, s: &Columns, j: usize) -> Option<Sym> {
        let sym = match self {
            InternedOperand::R(p) => r.get(i, *p),
            InternedOperand::S(p) => s.get(j, *p),
            InternedOperand::Const(sym) => *sym,
        };
        (sym != NULL_SYM).then_some(sym)
    }
}

/// One compiled predicate lowered into symbol space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedPredicate {
    /// Left operand.
    pub lhs: InternedOperand,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: InternedOperand,
}

impl InternedPredicate {
    /// Three-valued evaluation over columnar row pair (`i`, `j`).
    /// `=`/`≠` are answered by id (in)equality; ordering operators
    /// resolve the symbols back to values.
    #[inline]
    pub fn eval(
        &self,
        r: &Columns,
        i: usize,
        s: &Columns,
        j: usize,
        interner: &Interner,
    ) -> Option<bool> {
        let l = self.lhs.resolve(r, i, s, j)?;
        let rr = self.rhs.resolve(r, i, s, j)?;
        match self.op {
            CmpOp::Eq => Some(l == rr),
            CmpOp::Ne => Some(l != rr),
            _ => {
                let ord = interner.resolve(l).compare(interner.resolve(rr))?;
                Some(self.op.test(ord))
            }
        }
    }
}

/// A compiled rule in symbol space: a conjunction of interned
/// positional predicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedRule {
    /// The source rule's name.
    pub name: String,
    predicates: Vec<InternedPredicate>,
}

impl InternedRule {
    /// Lowers one compiled rule, interning its constants.
    pub fn from_compiled(rule: &CompiledRule, interner: &mut Interner) -> InternedRule {
        let mut lower = |o: &CompiledOperand| match o {
            CompiledOperand::R(p) => InternedOperand::R(*p),
            CompiledOperand::S(p) => InternedOperand::S(*p),
            CompiledOperand::Const(v) => InternedOperand::Const(interner.intern(v)),
        };
        InternedRule {
            name: rule.name.clone(),
            predicates: rule
                .predicates()
                .iter()
                .map(|p| InternedPredicate {
                    lhs: lower(&p.lhs),
                    op: p.op,
                    rhs: lower(&p.rhs),
                })
                .collect(),
        }
    }

    /// The interned predicate conjunction.
    pub fn predicates(&self) -> &[InternedPredicate] {
        &self.predicates
    }

    /// Three-valued conjunction: `Some(false)` short-circuits, any
    /// unknown predicate makes the conjunction unknown.
    pub fn eval(
        &self,
        r: &Columns,
        i: usize,
        s: &Columns,
        j: usize,
        interner: &Interner,
    ) -> Option<bool> {
        let mut all_true = true;
        for p in &self.predicates {
            match p.eval(r, i, s, j, interner) {
                Some(true) => {}
                Some(false) => return Some(false),
                None => all_true = false,
            }
        }
        all_true.then_some(true)
    }

    /// Whether the rule definitely fires on row pair (`i`, `j`).
    #[inline]
    pub fn fires(&self, r: &Columns, i: usize, s: &Columns, j: usize, interner: &Interner) -> bool {
        self.eval(r, i, s, j, interner) == Some(true)
    }

    /// The equi-join shape, when every predicate is an equality
    /// literal or a cross-relation attribute equality. Candidates the
    /// shape's index probes generate still get a final
    /// [`InternedRule::fires`] check, so index equality and
    /// three-valued semantics never have to coincide exactly.
    pub fn identity_shape(&self) -> Option<InternedIdentityShape> {
        let mut shape = InternedIdentityShape::default();
        for p in &self.predicates {
            match (&p.lhs, p.op, &p.rhs) {
                (InternedOperand::R(pos), CmpOp::Eq, InternedOperand::Const(v))
                | (InternedOperand::Const(v), CmpOp::Eq, InternedOperand::R(pos)) => {
                    shape.r_lits.push((*pos, *v));
                }
                (InternedOperand::S(pos), CmpOp::Eq, InternedOperand::Const(v))
                | (InternedOperand::Const(v), CmpOp::Eq, InternedOperand::S(pos)) => {
                    shape.s_lits.push((*pos, *v));
                }
                (InternedOperand::R(rp), CmpOp::Eq, InternedOperand::S(sp))
                | (InternedOperand::S(sp), CmpOp::Eq, InternedOperand::R(rp)) => {
                    shape.join.push((*rp, *sp));
                }
                _ => return None,
            }
        }
        Some(shape)
    }

    /// The ILFD-induced refutation shape: equality literals on both
    /// relations plus exactly one `≠`-constant literal, with at least
    /// one literal on the opposite relation to probe. The engine
    /// enumerates only rows that disagree on the `≠` column.
    pub fn distinct_shape(&self) -> Option<InternedDistinctShape> {
        let mut r_lits = Vec::new();
        let mut s_lits = Vec::new();
        let mut neq: Option<(NeqSide, usize, Sym)> = None;
        for p in &self.predicates {
            match (&p.lhs, p.op, &p.rhs) {
                (InternedOperand::R(pos), CmpOp::Eq, InternedOperand::Const(v))
                | (InternedOperand::Const(v), CmpOp::Eq, InternedOperand::R(pos)) => {
                    r_lits.push((*pos, *v));
                }
                (InternedOperand::S(pos), CmpOp::Eq, InternedOperand::Const(v))
                | (InternedOperand::Const(v), CmpOp::Eq, InternedOperand::S(pos)) => {
                    s_lits.push((*pos, *v));
                }
                (InternedOperand::R(pos), CmpOp::Ne, InternedOperand::Const(v))
                | (InternedOperand::Const(v), CmpOp::Ne, InternedOperand::R(pos)) => {
                    if neq.is_some() {
                        return None;
                    }
                    neq = Some((NeqSide::R, *pos, *v));
                }
                (InternedOperand::S(pos), CmpOp::Ne, InternedOperand::Const(v))
                | (InternedOperand::Const(v), CmpOp::Ne, InternedOperand::S(pos)) => {
                    if neq.is_some() {
                        return None;
                    }
                    neq = Some((NeqSide::S, *pos, *v));
                }
                _ => return None,
            }
        }
        let neq = neq?;
        let opposite_lits = match neq.0 {
            NeqSide::R => &s_lits,
            NeqSide::S => &r_lits,
        };
        if opposite_lits.is_empty() {
            return None;
        }
        Some(InternedDistinctShape {
            r_lits,
            s_lits,
            neq,
        })
    }
}

/// Which specialized batch kernel can evaluate a rule, if any.
///
/// A kernel evaluates one rule against a contiguous run of `S`-side
/// rows for a fixed `R`-side driver row, comparing whole column
/// chunks at a time. Eligibility is decided from the interned shape:
///
/// * identity rules with a non-empty join lower to an equality kernel
///   ([`KernelShape::EqSingle`] when exactly one `S`-side term is
///   compared, [`KernelShape::EqMulti`] for a conjunction);
/// * distinctness rules in [`InternedDistinctShape`] form lower to
///   the disagreement kernel ([`KernelShape::Disagree`]).
///
/// Shapes with a NULL-interned constant are rejected (a constant
/// NULL predicate is three-valued *unknown* on every row, so the rule
/// can never fire — the scalar path proves this per pair; the kernels
/// refuse the shape instead). So are shapes with two literals on the
/// same column and different symbols (unsatisfiable, but the lit
/// index probes only the first literal per column, so a kernel that
/// trusted the probe would over-fire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelShape {
    /// Single-attribute equality: one `S`-side term per driver row.
    EqSingle,
    /// Conjunctive multi-attribute equality.
    EqMulti,
    /// Disagreement with a constant (`≠ c`), driven by the `≠` side.
    Disagree,
}

impl KernelShape {
    /// Stable lowercase label for plans and JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            KernelShape::EqSingle => "eq-single",
            KernelShape::EqMulti => "eq-multi",
            KernelShape::Disagree => "disagree",
        }
    }
}

/// `(column, symbol)` literal lists are kernel-safe when no symbol is
/// NULL and no column is pinned to two different symbols.
fn lits_kernel_safe(lits: &[(usize, Sym)]) -> bool {
    lits.iter().all(|&(pos, sym)| {
        sym != NULL_SYM && lits.iter().all(|&(pos2, sym2)| pos != pos2 || sym == sym2)
    })
}

impl InternedRule {
    /// The batch kernel this rule's shape lowers to, if any. See
    /// [`KernelShape`] for the eligibility rules.
    pub fn kernel_shape(&self) -> Option<KernelShape> {
        if let Some(shape) = self.identity_shape() {
            if shape.join.is_empty()
                || !lits_kernel_safe(&shape.r_lits)
                || !lits_kernel_safe(&shape.s_lits)
            {
                return None;
            }
            // S-side terms the kernel conjoins per driver row: every
            // join column (symbol gathered from R) plus every S
            // literal column.
            return Some(if shape.join.len() + shape.s_lits.len() == 1 {
                KernelShape::EqSingle
            } else {
                KernelShape::EqMulti
            });
        }
        let shape = self.distinct_shape()?;
        let (_, _, neq_sym) = shape.neq;
        if neq_sym == NULL_SYM
            || !lits_kernel_safe(&shape.r_lits)
            || !lits_kernel_safe(&shape.s_lits)
        {
            return None;
        }
        Some(KernelShape::Disagree)
    }
}

/// An indexable identity-rule shape: constant filters on each side
/// plus cross-relation join columns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InternedIdentityShape {
    /// `(column, symbol)` equality literals on `R`-side rows.
    pub r_lits: Vec<(usize, Sym)>,
    /// `(column, symbol)` equality literals on `S`-side rows.
    pub s_lits: Vec<(usize, Sym)>,
    /// `(r_column, s_column)` cross-relation equality pairs.
    pub join: Vec<(usize, usize)>,
}

impl InternedIdentityShape {
    /// The full set of `S`-side index positions this shape can be
    /// probed on: join columns plus `S` literal columns, sorted and
    /// deduplicated. The planner chooses a (non-empty) subset of
    /// these as the blocking key; any subset is sound because every
    /// candidate is re-verified with the full rule.
    pub fn probe_positions(&self) -> Vec<usize> {
        let mut positions: Vec<usize> = self.join.iter().map(|(_, sp)| *sp).collect();
        positions.extend(self.s_lits.iter().map(|(p, _)| *p));
        positions.sort_unstable();
        positions.dedup();
        positions
    }

    /// The `R`-side column feeding one probe position: the join
    /// partner when `sp` is a join column, `None` when it is pinned
    /// by an `S` literal.
    pub fn r_source_of(&self, sp: usize) -> Option<usize> {
        if self.s_lits.iter().any(|(p, _)| *p == sp) {
            return None;
        }
        self.join.iter().find(|(_, p)| *p == sp).map(|(rp, _)| *rp)
    }
}

/// Which relation carries the `≠`-constant literal of an
/// [`InternedDistinctShape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeqSide {
    /// The `≠` literal reads the `R`-side row.
    R,
    /// The `≠` literal reads the `S`-side row.
    S,
}

/// An indexable distinctness-rule shape (the Proposition-1 ILFD dual).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedDistinctShape {
    /// `(column, symbol)` equality literals on `R`-side rows.
    pub r_lits: Vec<(usize, Sym)>,
    /// `(column, symbol)` equality literals on `S`-side rows.
    pub s_lits: Vec<(usize, Sym)>,
    /// The single `≠`-constant literal: which relation, column, symbol.
    pub neq: (NeqSide, usize, Sym),
}

/// A whole [`CompiledRuleBase`] lowered into symbol space.
#[derive(Debug, Clone, Default)]
pub struct InternedRuleBase {
    /// Interned identity rules, in compiled order.
    pub identity: Vec<InternedRule>,
    /// Interned distinctness rules, in compiled order.
    pub distinctness: Vec<InternedRule>,
}

impl InternedRuleBase {
    /// Lowers every compiled rule, interning all rule constants into
    /// `interner` (which must be the same interner the relations are
    /// encoded through, or symbol equality is meaningless).
    pub fn from_compiled(base: &CompiledRuleBase, interner: &mut Interner) -> InternedRuleBase {
        InternedRuleBase {
            identity: base
                .identity
                .iter()
                .map(|r| InternedRule::from_compiled(r, interner))
                .collect(),
            distinctness: base
                .distinctness
                .iter()
                .map(|r| InternedRule::from_compiled(r, interner))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distinctness::DistinctnessRule;
    use crate::identity::IdentityRule;
    use crate::pred::{Operand, Predicate, Side};
    use crate::rulebase::RuleBase;
    use eid_relational::{Relation, Schema, Tuple, Value};

    fn world() -> (Relation, Relation) {
        let rs = Schema::of_strs("R", &["name", "cuisine", "street"], &["name"]).unwrap();
        let ss = Schema::of_strs("S", &["name", "cuisine", "city"], &["name"]).unwrap();
        let mut r = Relation::new(rs);
        r.insert_strs(&["a", "indian", "x"]).unwrap();
        r.insert_strs(&["b", "greek", "y"]).unwrap();
        r.insert(Tuple::new(vec![
            Value::str("c"),
            Value::Null,
            Value::str("z"),
        ]))
        .unwrap();
        let mut s = Relation::new(ss);
        s.insert_strs(&["a", "indian", "p"]).unwrap();
        s.insert_strs(&["b", "indian", "q"]).unwrap();
        (r, s)
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
        rb.add_distinctness(
            DistinctnessRule::new(
                "ordered",
                vec![Predicate::new(
                    Operand::attr(Side::E1, "name"),
                    CmpOp::Lt,
                    Operand::attr(Side::E2, "name"),
                )],
            )
            .unwrap(),
        );
        rb
    }

    /// The load-bearing equivalence: on every row pair, some interned
    /// orientation of a family fires exactly when the source-level
    /// rule base says a rule of that family fires in either
    /// orientation — for `=`, `≠`, `<`, and NULL operands alike.
    #[test]
    fn interned_fires_agrees_with_source_rules() {
        let (r, s) = world();
        let rb = rb();
        let compiled = CompiledRuleBase::compile(&rb, r.schema(), s.schema());
        let mut interner = Interner::new();
        let interned = InternedRuleBase::from_compiled(&compiled, &mut interner);
        let cr = Columns::encode(&r, &mut interner);
        let cs = Columns::encode(&s, &mut interner);
        let any_fires = |rules: &[InternedRule], i: usize, j: usize| {
            rules.iter().any(|ri| ri.fires(&cr, i, &cs, j, &interner))
        };
        let (mut identity, mut distinct) = (0, 0);
        for i in 0..r.len() {
            for j in 0..s.len() {
                let (tr, ts) = (&r.tuples()[i], &s.tuples()[j]);
                let want = rb.fires_identity(r.schema(), tr, s.schema(), ts);
                assert_eq!(
                    any_fires(&interned.identity, i, j),
                    want,
                    "identity on pair ({i},{j})"
                );
                identity += usize::from(want);
                let want = rb.fires_distinctness(r.schema(), tr, s.schema(), ts);
                assert_eq!(
                    any_fires(&interned.distinctness, i, j),
                    want,
                    "distinctness on pair ({i},{j})"
                );
                distinct += usize::from(want);
            }
        }
        // The world exercises both outcomes of both families: (a,a)
        // matches, and r3's swapped orientation refutes (b, *) where
        // the S row is the Indian one. The NULL-cuisine row decides
        // nothing under key-eq or r3.
        assert_eq!(identity, 1);
        assert!(distinct > 0 && distinct < r.len() * s.len());
    }

    #[test]
    fn interned_shapes_are_the_expected_literal_shapes() {
        let (r, s) = world();
        let compiled = CompiledRuleBase::compile(&rb(), r.schema(), s.schema());
        let mut interner = Interner::new();
        let interned = InternedRuleBase::from_compiled(&compiled, &mut interner);
        let indian = interner.intern(&Value::str("indian"));

        // key-eq is symmetric: one orientation, a join on
        // (name, cuisine) and no literals.
        assert_eq!(interned.identity.len(), 1);
        let shape = interned.identity[0].identity_shape().unwrap();
        assert_eq!(
            shape,
            InternedIdentityShape {
                r_lits: vec![],
                s_lits: vec![],
                join: vec![(0, 0), (1, 1)],
            }
        );
        assert!(interned.identity[0].distinct_shape().is_none());
        // Probe positions are the S-side join columns, sorted; each
        // traces back to its R-side source.
        assert_eq!(shape.probe_positions(), vec![0, 1]);
        assert_eq!(shape.r_source_of(0), Some(0));
        assert_eq!(shape.r_source_of(1), Some(1));

        // r3 keeps both orientations: R.cuisine = indian ∧ S.cuisine ≠
        // indian, and its mirror. `ordered` (a `<` between attributes)
        // has no indexable shape in either orientation.
        let names: Vec<&str> = interned
            .distinctness
            .iter()
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(names, ["r3", "r3", "ordered", "ordered"]);
        assert_eq!(
            interned.distinctness[0].distinct_shape(),
            Some(InternedDistinctShape {
                r_lits: vec![(1, indian)],
                s_lits: vec![],
                neq: (NeqSide::S, 1, indian),
            })
        );
        assert_eq!(
            interned.distinctness[1].distinct_shape(),
            Some(InternedDistinctShape {
                r_lits: vec![],
                s_lits: vec![(1, indian)],
                neq: (NeqSide::R, 1, indian),
            })
        );
        for ordered in &interned.distinctness[2..] {
            assert!(ordered.identity_shape().is_none());
            assert!(ordered.distinct_shape().is_none());
        }
    }
}
