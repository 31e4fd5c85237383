//! Matching and negative matching tables (§3.2, §4.2).
//!
//! "Those pairs evaluating to *true* or *false* can be represented in
//! a matching table and a negative matching table, respectively.
//! Because each tuple has a unique identifier in its relation, a
//! matching (negative matching) table entry consists of the key
//! values of the pair of tuples." Entries must satisfy:
//!
//! * **Uniqueness constraint** — no tuple in either relation can be
//!   matched to more than one tuple in the other relation;
//! * **Consistency constraint** — no tuple pair can appear in both
//!   the matching and negative matching tables.

use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use eid_relational::{AttrName, FxHashSet, Relation, Schema, Tuple};

use crate::error::{CoreError, Result};
use crate::factorized::FactorizedPairs;

/// One entry: the key projections of a matched (or provably
/// unmatched) tuple pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PairEntry {
    /// Primary-key value of the `R` tuple.
    pub r_key: Tuple,
    /// Primary-key value of the `S` tuple.
    pub s_key: Tuple,
}

/// Row-index storage inside a compact table: an explicit pair list,
/// or the streamed run's factorized set. The set form is what lets
/// the streamed convert step finish without ever materializing the
/// (potentially hundreds-of-millions-long) index list — it decodes
/// straight to entries if and when a consumer crosses into
/// `Value`-land.
#[derive(Debug, Clone)]
enum PairIndexes {
    List(Vec<(u32, u32)>),
    Set(FactorizedPairs),
}

impl PairIndexes {
    fn len(&self) -> usize {
        match self {
            PairIndexes::List(pairs) => pairs.len(),
            PairIndexes::Set(set) => set.len(),
        }
    }
}

/// The blocked arm's zero-copy table backing: deduplicated row-index
/// pairs into two shared key pools (one projected key tuple per
/// *row*, not per pair). `MT_RS` and `NMT_RS` share the same pools.
#[derive(Debug, Clone)]
struct CompactPairs {
    pk_r: Arc<[Tuple]>,
    pk_s: Arc<[Tuple]>,
    pairs: PairIndexes,
}

impl CompactPairs {
    fn decode(&self) -> Vec<PairEntry> {
        let entry = |(i, j): (u32, u32)| PairEntry {
            r_key: self.pk_r[i as usize].clone(),
            s_key: self.pk_s[j as usize].clone(),
        };
        match &self.pairs {
            PairIndexes::List(pairs) => pairs.iter().copied().map(entry).collect(),
            PairIndexes::Set(set) => set.to_pairs().into_iter().map(entry).collect(),
        }
    }
}

/// Entry storage: explicit entries, or the compact id-pair form that
/// decodes to entries only when somebody asks for `Value`-land.
#[derive(Debug, Clone)]
enum Backing {
    Rows(Vec<PairEntry>),
    Compact {
        pairs: CompactPairs,
        decoded: OnceCell<Vec<PairEntry>>,
    },
}

/// A table of tuple pairs keyed by their relations' primary keys —
/// used for both `MT_RS` and `NMT_RS`.
///
/// Two laziness layers keep the bulk path allocation-free:
///
/// * tables built by the blocked engine ([`PairTable::from_compact`])
///   store deduplicated *row-index pairs* plus shared per-row key
///   pools, and only decode to [`PairEntry`] rows on first access to
///   [`PairTable::entries`] (mutation also materializes first, so
///   the incremental matcher's [`PairTable::insert`] keeps working);
/// * the membership set backing [`PairTable::contains`] and the
///   per-insert dedup materializes from the entries on first use —
///   bulk producers never pay for tuple hashing.
#[derive(Debug, Clone)]
pub struct PairTable {
    r_key_attrs: Vec<AttrName>,
    s_key_attrs: Vec<AttrName>,
    backing: Backing,
    seen: OnceCell<FxHashSet<PairEntry>>,
}

impl PairTable {
    /// Creates an empty table over the given key attribute names.
    pub fn new(r_key_attrs: Vec<AttrName>, s_key_attrs: Vec<AttrName>) -> Self {
        PairTable {
            r_key_attrs,
            s_key_attrs,
            backing: Backing::Rows(Vec::new()),
            seen: OnceCell::new(),
        }
    }

    /// Creates a table in compact form: `pairs` are row indices into
    /// the shared key pools (`pk_r[i]` is row `i`'s primary-key
    /// projection). The caller guarantees `pairs` is duplicate-free —
    /// the blocked engine dedups on row-index pairs, which is exactly
    /// entry identity because a row has one key projection.
    pub fn from_compact(
        r_key_attrs: Vec<AttrName>,
        s_key_attrs: Vec<AttrName>,
        pk_r: Arc<[Tuple]>,
        pk_s: Arc<[Tuple]>,
        pairs: Vec<(u32, u32)>,
    ) -> Self {
        PairTable {
            r_key_attrs,
            s_key_attrs,
            backing: Backing::Compact {
                pairs: CompactPairs {
                    pk_r,
                    pk_s,
                    pairs: PairIndexes::List(pairs),
                },
                decoded: OnceCell::new(),
            },
            seen: OnceCell::new(),
        }
    }

    /// Creates a table whose row-index pairs are a streamed run's
    /// [`FactorizedPairs`]. Nothing is decoded up front: the set
    /// decodes to ascending-order entries on first
    /// [`PairTable::entries`] access, so the bulk pipeline never pays
    /// for an explicit index list it may never read.
    pub fn from_compact_set(
        r_key_attrs: Vec<AttrName>,
        s_key_attrs: Vec<AttrName>,
        pk_r: Arc<[Tuple]>,
        pk_s: Arc<[Tuple]>,
        set: FactorizedPairs,
    ) -> Self {
        PairTable {
            r_key_attrs,
            s_key_attrs,
            backing: Backing::Compact {
                pairs: CompactPairs {
                    pk_r,
                    pk_s,
                    pairs: PairIndexes::Set(set),
                },
                decoded: OnceCell::new(),
            },
            seen: OnceCell::new(),
        }
    }

    /// The membership set, materialized from the entries on first
    /// use.
    fn seen(&self) -> &FxHashSet<PairEntry> {
        self.seen.get_or_init(|| {
            let entries = self.entries();
            let mut set = FxHashSet::with_capacity_and_hasher(entries.len(), Default::default());
            set.extend(entries.iter().cloned());
            set
        })
    }

    /// Converts a compact backing into explicit rows before a
    /// mutation; no-op for row-backed tables.
    fn materialize(&mut self) {
        if let Backing::Compact { pairs, decoded } = &mut self.backing {
            let rows = decoded.take().unwrap_or_else(|| pairs.decode());
            self.backing = Backing::Rows(rows);
        }
    }

    /// `R`'s key attribute names.
    pub fn r_key_attrs(&self) -> &[AttrName] {
        &self.r_key_attrs
    }

    /// `S`'s key attribute names.
    pub fn s_key_attrs(&self) -> &[AttrName] {
        &self.s_key_attrs
    }

    /// Adds a pair (idempotent).
    pub fn insert(&mut self, r_key: Tuple, s_key: Tuple) -> bool {
        self.materialize();
        self.seen();
        let e = PairEntry { r_key, s_key };
        if self
            .seen
            .get_mut()
            .expect("just initialized")
            .insert(e.clone())
        {
            let Backing::Rows(entries) = &mut self.backing else {
                unreachable!("materialized above");
            };
            entries.push(e);
            true
        } else {
            false
        }
    }

    /// Appends entries the caller guarantees are pairwise distinct
    /// and absent from the table — the bulk path, which dedups
    /// upstream and so never needs per-entry tuple hashing here. If
    /// the membership set has already materialized it is kept in sync
    /// (and then still protects against duplicate inserts).
    pub fn extend_unique(&mut self, new: impl IntoIterator<Item = PairEntry>) {
        self.materialize();
        let Backing::Rows(entries) = &mut self.backing else {
            unreachable!("materialized above");
        };
        match self.seen.get_mut() {
            Some(seen) => {
                for e in new {
                    if seen.insert(e.clone()) {
                        entries.push(e);
                    }
                }
            }
            None => entries.extend(new),
        }
    }

    /// The entries in insertion order. On a compact table this
    /// decodes the row-index pairs (once) — the only place the
    /// blocked pipeline crosses back into `Value`-land.
    pub fn entries(&self) -> &[PairEntry] {
        match &self.backing {
            Backing::Rows(entries) => entries,
            Backing::Compact { pairs, decoded } => decoded.get_or_init(|| pairs.decode()),
        }
    }

    /// Number of pairs (compact tables answer without decoding).
    pub fn len(&self) -> usize {
        match &self.backing {
            Backing::Rows(entries) => entries.len(),
            Backing::Compact { pairs, .. } => pairs.pairs.len(),
        }
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test.
    pub fn contains(&self, r_key: &Tuple, s_key: &Tuple) -> bool {
        self.seen().contains(&PairEntry {
            r_key: r_key.clone(),
            s_key: s_key.clone(),
        })
    }

    /// Whether this table's pair set includes all of `other`'s —
    /// the monotonicity check's workhorse.
    pub fn includes(&self, other: &PairTable) -> bool {
        let seen = self.seen();
        other.entries().iter().all(|e| seen.contains(e))
    }

    /// Checks the **uniqueness constraint**: every `R` key maps to at
    /// most one `S` key and vice versa. The prototype performs this
    /// check after `setup_extkey` and prints "The extended key causes
    /// unsound matching result" on failure.
    pub fn verify_uniqueness(&self) -> Result<()> {
        let mut r_seen: HashMap<&Tuple, &Tuple> = HashMap::new();
        let mut s_seen: HashMap<&Tuple, &Tuple> = HashMap::new();
        for e in self.entries() {
            if let Some(prev) = r_seen.insert(&e.r_key, &e.s_key) {
                if prev != &e.s_key {
                    return Err(CoreError::UniquenessViolation {
                        side: "R",
                        key: e.r_key.to_string(),
                    });
                }
            }
            if let Some(prev) = s_seen.insert(&e.s_key, &e.r_key) {
                if prev != &e.r_key {
                    return Err(CoreError::UniquenessViolation {
                        side: "S",
                        key: e.s_key.to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Checks the **consistency constraint** against a negative
    /// table: no pair may appear in both. When both tables are
    /// compact over the same key pools the check stays in row-index
    /// space — relations are key-enforced, so row identity is key
    /// identity — and the negative table is never decoded.
    pub fn verify_consistency(&self, negative: &PairTable) -> Result<()> {
        let violation = |e: &PairEntry| CoreError::ConsistencyViolation {
            pair: format!("({}, {})", e.r_key, e.s_key),
        };
        if let (Backing::Compact { pairs: mine, .. }, Backing::Compact { pairs: theirs, .. }) =
            (&self.backing, &negative.backing)
        {
            if let (PairIndexes::List(mt), true) = (
                &mine.pairs,
                Arc::ptr_eq(&mine.pk_r, &theirs.pk_r) && Arc::ptr_eq(&mine.pk_s, &theirs.pk_s),
            ) {
                let first = match &theirs.pairs {
                    PairIndexes::Set(nmt) => mt.iter().find(|&&(i, j)| nmt.contains(i, j)),
                    PairIndexes::List(nmt) => {
                        // Hash the (small) matching side and sweep the
                        // negative list once.
                        let packed = |(i, j): (u32, u32)| ((i as u64) << 32) | j as u64;
                        let mt_set: FxHashSet<u64> = mt.iter().map(|&p| packed(p)).collect();
                        let hits: FxHashSet<u64> = nmt
                            .iter()
                            .map(|&p| packed(p))
                            .filter(|p| mt_set.contains(p))
                            .collect();
                        mt.iter().find(|&&p| hits.contains(&packed(p)))
                    }
                };
                return match first {
                    Some(&(i, j)) => Err(violation(&PairEntry {
                        r_key: mine.pk_r[i as usize].clone(),
                        s_key: mine.pk_s[j as usize].clone(),
                    })),
                    None => Ok(()),
                };
            }
        }
        let negative_seen = negative.seen();
        match self.entries().iter().find(|e| negative_seen.contains(e)) {
            Some(e) => Err(violation(e)),
            None => Ok(()),
        }
    }

    /// Renders the table as a relation whose attributes are the `R`
    /// key attributes (prefixed `r_`) followed by the `S` key
    /// attributes (prefixed `s_`), for printing in the prototype's
    /// format.
    pub fn to_relation(&self, name: &str) -> Result<Relation> {
        let mut names: Vec<String> = Vec::new();
        for a in &self.r_key_attrs {
            names.push(format!("r_{a}"));
        }
        for a in &self.s_key_attrs {
            names.push(format!("s_{a}"));
        }
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let schema: Arc<Schema> = Schema::of_strs(name, &name_refs, &name_refs)?;
        let mut rel = Relation::new_unchecked(schema);
        for e in self.entries() {
            rel.insert(e.r_key.concat(&e.s_key))?;
        }
        Ok(rel)
    }

    /// The set of `R` keys appearing in the table.
    pub fn r_keys(&self) -> HashSet<&Tuple> {
        self.entries().iter().map(|e| &e.r_key).collect()
    }

    /// The set of `S` keys appearing in the table.
    pub fn s_keys(&self) -> HashSet<&Tuple> {
        self.entries().iter().map(|e| &e.s_key).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PairTable {
        PairTable::new(
            vec![AttrName::new("name"), AttrName::new("cuisine")],
            vec![AttrName::new("name"), AttrName::new("speciality")],
        )
    }

    fn compact_table() -> PairTable {
        let pk_r: Arc<[Tuple]> = vec![
            Tuple::of_strs(&["a", "x"]),
            Tuple::of_strs(&["b", "y"]),
            Tuple::of_strs(&["c", "z"]),
        ]
        .into();
        let pk_s: Arc<[Tuple]> =
            vec![Tuple::of_strs(&["a", "p"]), Tuple::of_strs(&["b", "q"])].into();
        PairTable::from_compact(
            vec![AttrName::new("name"), AttrName::new("cuisine")],
            vec![AttrName::new("name"), AttrName::new("speciality")],
            pk_r,
            pk_s,
            vec![(0, 0), (1, 1)],
        )
    }

    #[test]
    fn insert_dedups() {
        let mut t = table();
        assert!(t.insert(
            Tuple::of_strs(&["tc", "chinese"]),
            Tuple::of_strs(&["tc", "hunan"])
        ));
        assert!(!t.insert(
            Tuple::of_strs(&["tc", "chinese"]),
            Tuple::of_strs(&["tc", "hunan"])
        ));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn extend_unique_bulk_path_agrees_with_insert() {
        let a = PairEntry {
            r_key: Tuple::of_strs(&["a", "x"]),
            s_key: Tuple::of_strs(&["a", "p"]),
        };
        let b = PairEntry {
            r_key: Tuple::of_strs(&["b", "y"]),
            s_key: Tuple::of_strs(&["b", "q"]),
        };
        // Bulk append before the membership set materializes…
        let mut t = table();
        t.extend_unique([a.clone(), b.clone()]);
        assert_eq!(t.len(), 2);
        // …then membership and per-insert dedup still work.
        assert!(t.contains(&a.r_key, &a.s_key));
        assert!(!t.insert(b.r_key.clone(), b.s_key.clone()));
        // Bulk append after materialization keeps the set in sync
        // (and dedups defensively).
        t.extend_unique([a.clone()]);
        assert_eq!(t.len(), 2);
        let c = PairEntry {
            r_key: Tuple::of_strs(&["c", "z"]),
            s_key: Tuple::of_strs(&["c", "r"]),
        };
        t.extend_unique([c.clone()]);
        assert!(t.contains(&c.r_key, &c.s_key));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn compact_table_decodes_lazily_and_answers_len_without_decoding() {
        let t = compact_table();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let entries = t.entries();
        assert_eq!(entries[0].r_key, Tuple::of_strs(&["a", "x"]));
        assert_eq!(entries[1].s_key, Tuple::of_strs(&["b", "q"]));
        assert!(t.contains(&Tuple::of_strs(&["a", "x"]), &Tuple::of_strs(&["a", "p"])));
        assert!(!t.contains(&Tuple::of_strs(&["c", "z"]), &Tuple::of_strs(&["a", "p"])));
    }

    #[test]
    fn compact_table_materializes_on_mutation() {
        let mut t = compact_table();
        // A duplicate of an existing compact pair is rejected…
        assert!(!t.insert(Tuple::of_strs(&["a", "x"]), Tuple::of_strs(&["a", "p"])));
        // …a fresh pair lands, and the table behaves like a row table.
        assert!(t.insert(Tuple::of_strs(&["c", "z"]), Tuple::of_strs(&["a", "p"])));
        assert_eq!(t.len(), 3);
        assert_eq!(t.entries().len(), 3);
        assert!(t.verify_uniqueness().is_err()); // s key "a,p" used twice
    }

    #[test]
    fn uniqueness_ok_for_one_to_one() {
        let mut t = table();
        t.insert(Tuple::of_strs(&["a", "x"]), Tuple::of_strs(&["a", "p"]));
        t.insert(Tuple::of_strs(&["b", "y"]), Tuple::of_strs(&["b", "q"]));
        assert!(t.verify_uniqueness().is_ok());
    }

    #[test]
    fn uniqueness_violation_on_r_side() {
        let mut t = table();
        t.insert(Tuple::of_strs(&["a", "x"]), Tuple::of_strs(&["a", "p"]));
        t.insert(Tuple::of_strs(&["a", "x"]), Tuple::of_strs(&["b", "q"]));
        let err = t.verify_uniqueness().unwrap_err();
        assert!(matches!(
            err,
            CoreError::UniquenessViolation { side: "R", .. }
        ));
    }

    #[test]
    fn uniqueness_violation_on_s_side() {
        let mut t = table();
        t.insert(Tuple::of_strs(&["a", "x"]), Tuple::of_strs(&["c", "p"]));
        t.insert(Tuple::of_strs(&["b", "y"]), Tuple::of_strs(&["c", "p"]));
        let err = t.verify_uniqueness().unwrap_err();
        assert!(matches!(
            err,
            CoreError::UniquenessViolation { side: "S", .. }
        ));
    }

    #[test]
    fn consistency_detects_overlap() {
        let mut mt = table();
        mt.insert(Tuple::of_strs(&["a", "x"]), Tuple::of_strs(&["a", "p"]));
        let mut nmt = table();
        nmt.insert(Tuple::of_strs(&["a", "x"]), Tuple::of_strs(&["a", "p"]));
        assert!(mt.verify_consistency(&nmt).is_err());
        let empty = table();
        assert!(mt.verify_consistency(&empty).is_ok());
    }

    /// The compact consistency check (row-index membership, no NMT
    /// decode) must agree with the decoded row-backed check — on a
    /// clean pair and with an injected overlap, for both compact NMT
    /// forms — and name the same first violating pair.
    #[test]
    fn compact_consistency_check_agrees_with_the_row_backed_path() {
        use crate::factorized::{FactorizedPairs, Rect};
        use crate::sink::PairSet;

        let keys = |prefix: &str, n: usize| -> Arc<[Tuple]> {
            (0..n)
                .map(|i| Tuple::of_strs(&[&format!("{prefix}{i}"), "k"]))
                .collect()
        };
        let (pk_r, pk_s) = (keys("r", 6), keys("s", 5));
        let attrs = || {
            (
                vec![AttrName::new("name"), AttrName::new("cuisine")],
                vec![AttrName::new("name"), AttrName::new("speciality")],
            )
        };
        let rows = |t: &PairTable| {
            let (ra, sa) = attrs();
            let mut out = PairTable::new(ra, sa);
            out.extend_unique(t.entries().iter().cloned());
            out
        };
        let nmt_pairs = [(0u32, 1u32), (4, 4), (5, 0)];
        for mt_pairs in [
            vec![(0u32, 0u32), (1, 1), (2, 2)],
            vec![(0, 0), (4, 4), (5, 0)],
        ] {
            let (ra, sa) = attrs();
            let mt = PairTable::from_compact(ra, sa, pk_r.clone(), pk_s.clone(), mt_pairs);
            let (ra, sa) = attrs();
            let listed =
                PairTable::from_compact(ra, sa, pk_r.clone(), pk_s.clone(), nmt_pairs.to_vec());
            let mut residual = PairSet::new(6, 5, 0);
            residual.insert(0, 1);
            let set = FactorizedPairs::new(
                6,
                5,
                vec![Rect::new(6, 5, [4, 5], [0]), Rect::new(6, 5, [4], [4])],
                Some(residual),
            );
            let (ra, sa) = attrs();
            let factorized = PairTable::from_compact_set(ra, sa, pk_r.clone(), pk_s.clone(), set);
            let want = rows(&mt)
                .verify_consistency(&rows(&listed))
                .map_err(|e| e.to_string());
            for nmt in [&listed, &factorized] {
                let got = mt.verify_consistency(nmt).map_err(|e| e.to_string());
                assert_eq!(got, want);
            }
        }
        let (ra, sa) = attrs();
        let overlapping = PairTable::from_compact(ra, sa, pk_r, pk_s, vec![(4, 4)]);
        let err = overlapping
            .verify_consistency(&rows(&overlapping))
            .unwrap_err()
            .to_string();
        assert!(err.contains("r4") && err.contains("s4"), "{err}");
    }

    #[test]
    fn includes_for_monotonicity() {
        let mut small = table();
        small.insert(Tuple::of_strs(&["a", "x"]), Tuple::of_strs(&["a", "p"]));
        let mut big = small.clone();
        big.insert(Tuple::of_strs(&["b", "y"]), Tuple::of_strs(&["b", "q"]));
        assert!(big.includes(&small));
        assert!(!small.includes(&big));
    }

    #[test]
    fn to_relation_prefixes_columns() {
        let mut t = table();
        t.insert(
            Tuple::of_strs(&["tc", "chinese"]),
            Tuple::of_strs(&["tc", "hunan"]),
        );
        let rel = t.to_relation("MT").unwrap();
        assert!(rel.schema().has_attribute(&AttrName::new("r_name")));
        assert!(rel.schema().has_attribute(&AttrName::new("s_speciality")));
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn key_sets() {
        let mut t = table();
        t.insert(Tuple::of_strs(&["a", "x"]), Tuple::of_strs(&["a", "p"]));
        t.insert(Tuple::of_strs(&["b", "y"]), Tuple::of_strs(&["b", "q"]));
        assert_eq!(t.r_keys().len(), 2);
        assert_eq!(t.s_keys().len(), 2);
    }
}
