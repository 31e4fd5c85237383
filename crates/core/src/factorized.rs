//! The factorized negative matching table — refutations kept as
//! rectangles instead of pairs.
//!
//! By Proposition 1 of the paper (Lim et al., ICDE 1993), the
//! distinctness rule every ILFD induces, ¬[(S.A = a) → (R.B = b)],
//! fires on exactly one Cartesian rectangle of row sets:
//! `{R rows where B is non-NULL and B ≠ b} × {S rows where A = a}`.
//! The vectorized disagreement plans already compute both sides, so
//! writing their product into a `|R|·|S|` bitset (330 M pairs at
//! n=25600) is pure waste. [`FactorizedPairs`] stores the union of
//! those rectangles plus a *residual* [`PairSet`] for the rules that
//! do not factorize (the fused residual scan, and the scalar
//! disagreement twin under `--kernels off`) — the factorized
//! representation of Olteanu & Schleich, "Factorized Databases"
//! (SIGMOD Record 2016), applied to the paper's own rule shape.
//!
//! Every operation works per `R` row through its *signature*: the
//! set of rectangles whose row side contains it. Rows sharing a
//! signature share one `S`-side union (the OR of the member
//! rectangles' column sides), built once at assembly. ILFD rules give
//! few distinct signatures — a row misses exactly the rectangles whose
//! constant equals its own value — so the unions cost a few words per
//! distinct value, never a grid. The full product is never built:
//!
//! * `len` sums per-signature popcounts and adds each residual pair
//!   the row's union does not already cover;
//! * `contains(i, j)` tests bit `j` of row `i`'s union, then the
//!   residual;
//! * decoding walks rows ascending and emits the union ∪ residual row
//!   bits ascending — byte-identical to [`PairSet::to_pairs`] of the
//!   equivalent dense grid.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;

use eid_relational::FxHashMap;

use crate::sink::PairSet;

/// One refutation rectangle: every `R` row in `rows` paired with every
/// `S` row in `cols`, both as bitmaps over their relation's rows.
#[derive(Clone, PartialEq, Eq)]
pub struct Rect {
    rows: Vec<u64>,
    cols: Vec<u64>,
}

fn bitmap(len: usize, members: impl IntoIterator<Item = u32>) -> Vec<u64> {
    let mut words = vec![0u64; len.div_ceil(64)];
    for m in members {
        words[m as usize / 64] |= 1u64 << (m % 64);
    }
    words
}

fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| w.count_ones() as u64).sum()
}

impl Rect {
    /// The rectangle `r_rows × s_rows` over an `r_len × s_len` grid.
    /// Row ids must be in range; duplicates are harmless.
    pub fn new(
        r_len: usize,
        s_len: usize,
        r_rows: impl IntoIterator<Item = u32>,
        s_rows: impl IntoIterator<Item = u32>,
    ) -> Rect {
        Rect {
            rows: bitmap(r_len, r_rows),
            cols: bitmap(s_len, s_rows),
        }
    }

    /// Pairs the rectangle covers (`|rows| · |cols|`).
    pub fn pairs(&self) -> u64 {
        popcount(&self.rows) * popcount(&self.cols)
    }

    /// Bytes of the two bitmaps — what the byte budget is charged.
    pub fn bytes(&self) -> u64 {
        ((self.rows.len() + self.cols.len()) * 8) as u64
    }
}

impl fmt::Debug for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rect")
            .field("rows", &popcount(&self.rows))
            .field("cols", &popcount(&self.cols))
            .finish()
    }
}

/// A set of row-index pairs stored as a union of [`Rect`]s plus an
/// explicit residual [`PairSet`]. Immutable once assembled; see the
/// module docs for how each operation avoids the full product.
#[derive(Clone)]
pub struct FactorizedPairs {
    r_len: usize,
    s_len: usize,
    /// Words per `S`-side bitmap.
    s_words: usize,
    rects: usize,
    /// Distinct rectangle-membership signatures.
    sigs: usize,
    /// Per `R` row: the id of its rectangle-membership signature.
    row_sig: Vec<u32>,
    /// Per signature, `s_words` words: the OR of its member
    /// rectangles' column sides.
    unions: Vec<u64>,
    /// Pairs of rules that do not factorize (`None` when no such pair
    /// was emitted).
    residual: Option<PairSet>,
    len: usize,
}

impl FactorizedPairs {
    /// Assembles the set over an `r_len × s_len` grid from its
    /// rectangles and residual pairs. Rectangle order does not affect
    /// the set; bitmap lengths must match the grid.
    pub fn new(
        r_len: usize,
        s_len: usize,
        rects: Vec<Rect>,
        residual: Option<PairSet>,
    ) -> FactorizedPairs {
        let s_words = s_len.div_ceil(64);
        let sig_words = rects.len().div_ceil(64).max(1);
        let mut keys = vec![0u64; r_len * sig_words];
        for (k, rect) in rects.iter().enumerate() {
            for_each_bit(&rect.rows, |i| {
                keys[i * sig_words + k / 64] |= 1u64 << (k % 64);
            });
        }
        let mut ids: FxHashMap<&[u64], u32> = FxHashMap::default();
        let mut unions: Vec<u64> = Vec::new();
        let mut row_sig = Vec::with_capacity(r_len);
        for key in keys.chunks_exact(sig_words) {
            let next = ids.len() as u32;
            let id = *ids.entry(key).or_insert_with(|| {
                let start = unions.len();
                unions.resize(start + s_words, 0);
                for (w, &kw) in key.iter().enumerate() {
                    let mut kw = kw;
                    while kw != 0 {
                        let k = w * 64 + kw.trailing_zeros() as usize;
                        for (u, &c) in unions[start..].iter_mut().zip(&rects[k].cols) {
                            *u |= c;
                        }
                        kw &= kw - 1;
                    }
                }
                next
            });
            row_sig.push(id);
        }
        let mut set = FactorizedPairs {
            r_len,
            s_len,
            s_words,
            rects: rects.len(),
            sigs: ids.len(),
            row_sig,
            unions,
            residual,
            len: 0,
        };
        set.len = set.count();
        set
    }

    /// The `S`-side union of row `i`'s rectangles.
    fn union(&self, i: usize) -> &[u64] {
        let sig = self.row_sig[i] as usize;
        &self.unions[sig * self.s_words..(sig + 1) * self.s_words]
    }

    fn count(&self) -> usize {
        if self.rects == 0 {
            return self.residual.as_ref().map_or(0, PairSet::count);
        }
        let mut rows_per_sig = vec![0u64; self.sigs];
        for &sig in &self.row_sig {
            rows_per_sig[sig as usize] += 1;
        }
        let mut total: u64 = rows_per_sig
            .iter()
            .enumerate()
            .map(|(sig, &rows)| {
                rows * popcount(&self.unions[sig * self.s_words..(sig + 1) * self.s_words])
            })
            .sum();
        match &self.residual {
            None => {}
            Some(PairSet::Hash(set)) => {
                total += set
                    .iter()
                    .filter(|&&p| !self.union_contains((p >> 32) as usize, p as u32 as usize))
                    .count() as u64;
            }
            Some(grid @ PairSet::Bits { .. }) => {
                let mut row = vec![0u64; self.s_words];
                for i in 0..self.r_len {
                    row.fill(0);
                    or_grid_row(grid, i, &mut row);
                    total += row
                        .iter()
                        .zip(self.union(i))
                        .map(|(r, u)| (r & !u).count_ones() as u64)
                        .sum::<u64>();
                }
            }
        }
        total as usize
    }

    fn union_contains(&self, i: usize, j: usize) -> bool {
        self.union(i)[j / 64] & (1u64 << (j % 64)) != 0
    }

    /// Number of distinct pairs in the set (cached at assembly).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no pair.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rectangles the set was assembled from.
    pub fn rects(&self) -> usize {
        self.rects
    }

    /// Membership test: row `i`'s rectangle union, then the residual.
    pub fn contains(&self, i: u32, j: u32) -> bool {
        self.union_contains(i as usize, j as usize)
            || self.residual.as_ref().is_some_and(|r| r.contains(i, j))
    }

    /// How many of `pairs` are members — the MT ∩ NMT overlap, one
    /// membership test per pair.
    pub fn intersection_count(&self, pairs: &[(u32, u32)]) -> usize {
        pairs.iter().filter(|&&(i, j)| self.contains(i, j)).count()
    }

    /// Decodes the set into an ascending `(i, j)` pair list, identical
    /// to [`PairSet::to_pairs`] of the same set held as a dense grid.
    pub fn to_pairs(&self) -> Vec<(u32, u32)> {
        if self.rects == 0 {
            return self
                .residual
                .as_ref()
                .map_or_else(Vec::new, PairSet::to_pairs);
        }
        let mut out: Vec<(u32, u32)> = Vec::with_capacity(self.len);
        let sorted = match &self.residual {
            Some(set @ PairSet::Hash(_)) => set.to_pairs(),
            _ => Vec::new(),
        };
        let mut cursor = 0usize;
        let mut row = vec![0u64; self.s_words];
        for i in 0..self.r_len {
            row.copy_from_slice(self.union(i));
            if let Some(grid @ PairSet::Bits { .. }) = &self.residual {
                or_grid_row(grid, i, &mut row);
            }
            while cursor < sorted.len() && sorted[cursor].0 as usize == i {
                let j = sorted[cursor].1 as usize;
                row[j / 64] |= 1u64 << (j % 64);
                cursor += 1;
            }
            let i = i as u32;
            for (w, &word) in row.iter().enumerate() {
                let base = (w * 64) as u32;
                if word == u64::MAX {
                    out.extend((base..base + 64).map(|j| (i, j)));
                    continue;
                }
                let mut word = word;
                while word != 0 {
                    out.push((i, base + word.trailing_zeros()));
                    word &= word - 1;
                }
            }
        }
        debug_assert_eq!(out.len(), self.len);
        out
    }
}

/// Calls `f` with the index of every set bit, ascending.
fn for_each_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in words.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            f(w * 64 + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
}

/// ORs row `i` of a dense grid (bits `i·s_len .. (i+1)·s_len`) into
/// `row`, re-aligned to bit 0. No-op for a hash-backed set.
fn or_grid_row(grid: &PairSet, i: usize, row: &mut [u64]) {
    let PairSet::Bits { words, s_len } = grid else {
        return;
    };
    let base = i * s_len;
    let tail = s_len % 64;
    let last = row.len().saturating_sub(1);
    for (k, dst) in row.iter_mut().enumerate() {
        let bit = base + k * 64;
        let (w, shift) = (bit / 64, bit % 64);
        let mut v = words[w] >> shift;
        if shift != 0 {
            if let Some(&next) = words.get(w + 1) {
                v |= next << (64 - shift);
            }
        }
        if k == last && tail != 0 {
            v &= (1u64 << tail) - 1;
        }
        *dst |= v;
    }
}

impl fmt::Debug for FactorizedPairs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FactorizedPairs")
            .field("grid", &(self.r_len, self.s_len))
            .field("rects", &self.rects)
            .field("signatures", &self.sigs)
            .field("residual", &self.residual)
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_rects_and_residual_agree_with_a_dense_grid() {
        let (r_len, s_len) = (37, 70);
        let rects = vec![
            Rect::new(r_len, s_len, (0..30).step_by(2), 3..40),
            Rect::new(r_len, s_len, 10..37, (0..70).step_by(3)),
            Rect::new(r_len, s_len, [], 0..70),
        ];
        let mut residual = PairSet::new(r_len, s_len, 0);
        let mut dense = PairSet::new(r_len, s_len, 0);
        for (i, j) in [(0, 0), (0, 5), (36, 69), (11, 2), (20, 66)] {
            residual.insert(i, j);
        }
        for i in 0..r_len as u32 {
            for j in 0..s_len as u32 {
                let in_a = i < 30 && i % 2 == 0 && (3..40).contains(&j);
                let in_b = i >= 10 && j % 3 == 0;
                if in_a || in_b || residual.contains(i, j) {
                    dense.insert(i, j);
                }
            }
        }
        let set = FactorizedPairs::new(r_len, s_len, rects, Some(residual));
        assert_eq!(set.len(), dense.count());
        assert_eq!(set.to_pairs(), dense.to_pairs());
        for i in 0..r_len as u32 {
            for j in 0..s_len as u32 {
                assert_eq!(set.contains(i, j), dense.contains(i, j), "({i}, {j})");
            }
        }
        assert_eq!(set.rects(), 3);
    }
}
