//! Streaming pair sinks — emission, dedup, and conversion folded
//! into one pass.
//!
//! The buffered pipeline materializes every raw negative pair into
//! per-task `Vec`s (~41 MB at n=3200), merges them in task order,
//! and only then dedups into a [`PairSet`]. The paper's refutation
//! semantics (Lim et al., ICDE 1993 §3) are order-insensitive, so
//! nothing forces that intermediate to exist: a worker can set the
//! pair's bit the moment a rule fires, and dedup is free at emission
//! time.
//!
//! Two [`PairSink`] implementations realize that choice:
//!
//! * `Vec<(u32, u32)>` — the buffered twin. Emission order is the
//!   task/driver order the engine has always produced, byte-identical
//!   to every pre-sink release; the degradation ladder and the
//!   incremental matcher's staged-commit rollback run on this path.
//! * [`ShardedSink`] — the streaming sink. The `|R|·|S|` bit grid is
//!   cut into *row-range shards* ([`SinkGeometry`]); each worker
//!   lazily allocates only the shards its tasks touch, so workers
//!   never share a cache line, and [`merge_shards`] ORs the per-worker
//!   shards into one dense [`PairSet`] after the task scope ends.
//!   Shard boundaries are row-aligned **and** word-aligned
//!   (`rows_per_shard · s_len ≡ 0 mod 64`), which keeps every row's
//!   bit span inside a single shard — the row emission path below
//!   never splits a row across shards.
//!
//! On a streamed run only the rules that do not factorize reach the
//! sinks: the vectorized disagreement plans keep their `drivers ×
//! literal-block` product as a rectangle instead
//! ([`crate::factorized`]), and the merged residual grid joins those
//! rectangles in one [`FactorizedPairs`](crate::factorized::FactorizedPairs).
//!
//! Out-of-core emission: [`SpillSink`] wraps a [`ShardedSink`] with a
//! resident-byte cap. When the cap is breached (checked cooperatively
//! at task boundaries), every resident shard is appended to a
//! per-worker temp file as a `[shard index][word count][words…]`
//! segment and freed; [`merge_spilled`] then streams the segments
//! back *in shard (row-range) order*, so peak memory is one full grid
//! plus one read buffer instead of `workers × grid`. Transient spill
//! I/O is retried with capped exponential backoff behind the
//! `sink/spill_open`, `sink/spill_write`, and `sink/spill_read` fault
//! sites before the degradation ladder drops a rung.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use eid_relational::FxHashSet;

/// Pair-space ceiling (in bits) for the dense bitset pair structures;
/// a `|R|·|S|` grid up to this size costs at most 64 MiB per set.
/// Larger inputs fall back to a hash set of packed pairs, and a
/// streamed run's residual pairs buffer per task instead of sinking
/// into shards.
pub const MAX_BITSET_BITS: u128 = 1 << 29;

/// Target shard size in grid bits (128 KiB of words): small enough
/// that a worker's active shard stays cache-resident, large enough
/// that shard bookkeeping is noise.
pub const SHARD_TARGET_BITS: usize = 1 << 20;

/// A set of row-index pairs: a dense bitset when the pair space is
/// small enough, a hash set of packed `u64`s otherwise. Either way
/// membership never touches a key tuple.
#[derive(Clone)]
pub enum PairSet {
    /// Dense bit grid, bit `i·s_len + j` ⇔ pair `(i, j)`.
    Bits {
        /// The grid words, row-major.
        words: Vec<u64>,
        /// Row width of the grid (`|S|`).
        s_len: usize,
    },
    /// Hash set of `(i << 32) | j` packed pairs.
    Hash(FxHashSet<u64>),
}

impl PairSet {
    /// An empty set over an `r_len × s_len` grid; `expected` sizes
    /// the hash fallback.
    pub fn new(r_len: usize, s_len: usize, expected: usize) -> PairSet {
        let bits = (r_len as u128) * (s_len as u128);
        if bits > 0 && bits <= MAX_BITSET_BITS {
            PairSet::Bits {
                words: vec![0u64; (bits as usize).div_ceil(64)],
                s_len,
            }
        } else {
            PairSet::hashed(expected)
        }
    }

    /// An empty hash set of packed pairs sized for `expected` — the
    /// dedup set for pair lists too small to justify a grid.
    pub fn hashed(expected: usize) -> PairSet {
        PairSet::Hash(FxHashSet::with_capacity_and_hasher(
            expected,
            Default::default(),
        ))
    }

    /// Wraps merged sink words as a dense set (the shard-merge
    /// output; the words already cover the full grid).
    pub fn from_words(words: Vec<u64>, s_len: usize) -> PairSet {
        PairSet::Bits { words, s_len }
    }

    /// Inserts a pair; `true` if it was new.
    pub fn insert(&mut self, i: u32, j: u32) -> bool {
        match self {
            PairSet::Bits { words, s_len } => {
                let bit = i as usize * *s_len + j as usize;
                let (word, mask) = (bit / 64, 1u64 << (bit % 64));
                if words[word] & mask != 0 {
                    false
                } else {
                    words[word] |= mask;
                    true
                }
            }
            PairSet::Hash(set) => set.insert(((i as u64) << 32) | j as u64),
        }
    }

    /// Membership test.
    pub fn contains(&self, i: u32, j: u32) -> bool {
        match self {
            PairSet::Bits { words, s_len } => {
                let bit = i as usize * *s_len + j as usize;
                words[bit / 64] & (1u64 << (bit % 64)) != 0
            }
            PairSet::Hash(set) => set.contains(&(((i as u64) << 32) | j as u64)),
        }
    }

    /// Number of pairs in the set (a popcount sweep for bitsets).
    pub fn count(&self) -> usize {
        match self {
            PairSet::Bits { words, .. } => words.iter().map(|w| w.count_ones() as usize).sum(),
            PairSet::Hash(set) => set.len(),
        }
    }

    /// Resident bytes of the structure itself — what [`RunGuard`]
    /// charges when the counting allocator is not installed, so the
    /// `--max-mem-mb` budget trips consistently in both builds.
    ///
    /// [`RunGuard`]: crate::runtime::RunGuard
    pub fn capacity_bytes(&self) -> u64 {
        match self {
            PairSet::Bits { words, .. } => (words.len() * 8) as u64,
            // hashbrown: 8-byte key + 1 control byte per slot.
            PairSet::Hash(set) => set.capacity() as u64 * 9,
        }
    }

    /// Decodes the set into an ascending `(i, j)` pair list — the
    /// streamed path's convert step. The bitset walk keeps a running
    /// row cursor instead of dividing per bit and writes through
    /// spare capacity (the exact length is known up front from
    /// `count`). Words that sit entirely inside one row — all but
    /// ~one word per row — unpack branchlessly: 64 unconditional
    /// sequential stores with the cursor advanced per set bit, so at
    /// refutation densities (~90% of the grid) there is no
    /// data-dependent `trailing_zeros` chain on the hot path.
    pub fn to_pairs(&self) -> Vec<(u32, u32)> {
        match self {
            PairSet::Bits { words, s_len } => {
                let total = self.count();
                // 64 slots of slack absorb the unconditional trailing
                // writes of the branchless unpack below.
                let mut out: Vec<(u32, u32)> = Vec::with_capacity(total + 64);
                let s_len = *s_len;
                if s_len == 0 {
                    return out;
                }
                let (mut row, mut row_start, mut row_end) = (0u32, 0usize, s_len);
                let p = out.as_mut_ptr();
                let mut written = 0usize;
                for (wi, &word) in words.iter().enumerate() {
                    if word == 0 {
                        continue;
                    }
                    let word_base = wi << 6;
                    while word_base >= row_end {
                        row += 1;
                        row_start = row_end;
                        row_end += s_len;
                    }
                    if word_base + 64 <= row_end {
                        // Whole word inside the current row: write every
                        // candidate slot, advance only on set bits.
                        let col = (word_base - row_start) as u32;
                        debug_assert!(written + 64 <= total + 64);
                        let mut w = word;
                        for k in 0..64u32 {
                            // SAFETY: `written` never exceeds `total` (one
                            // advance per set bit) and the vec reserves
                            // `total + 64`, covering the trailing
                            // unconditional stores.
                            unsafe { p.add(written).write((row, col + k)) };
                            written += (w & 1) as usize;
                            w >>= 1;
                        }
                        continue;
                    }
                    // Row boundary crosses this word: fall back to the
                    // per-bit scan that tracks the cursor exactly.
                    let mut w = word;
                    while w != 0 {
                        let bit = word_base + w.trailing_zeros() as usize;
                        while bit >= row_end {
                            row += 1;
                            row_start = row_end;
                            row_end += s_len;
                        }
                        debug_assert!(written < total);
                        // SAFETY: one slot per set bit, within capacity.
                        unsafe { p.add(written).write((row, (bit - row_start) as u32)) };
                        written += 1;
                        w &= w - 1;
                    }
                }
                debug_assert_eq!(written, total);
                // SAFETY: slots `0..written` were all initialised above
                // (one per set bit, verified in debug builds).
                unsafe { out.set_len(written) };
                out
            }
            PairSet::Hash(set) => {
                let mut out: Vec<(u32, u32)> =
                    set.iter().map(|&p| ((p >> 32) as u32, p as u32)).collect();
                out.sort_unstable();
                out
            }
        }
    }
}

impl fmt::Debug for PairSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PairSet::Bits { s_len, .. } => f
                .debug_struct("PairSet::Bits")
                .field("s_len", s_len)
                .field("count", &self.count())
                .finish(),
            PairSet::Hash(set) => f
                .debug_struct("PairSet::Hash")
                .field("count", &set.len())
                .finish(),
        }
    }
}

/// Where a probe/refute plan sends the pairs it proves. The engine's
/// emission loops are generic over this trait; the buffered `Vec`
/// impl preserves the historical emission order byte-for-byte, the
/// [`ShardedSink`] impl dedups at emission time.
pub trait PairSink {
    /// Emits one pair.
    fn push(&mut self, i: u32, j: u32);

    /// Capacity hint for `additional` upcoming pairs (no-op for
    /// sinks with fixed-size storage).
    fn reserve(&mut self, additional: usize) {
        let _ = additional;
    }

    /// Emits `(i, j)` for every `j` in `js` (ascending within the
    /// row — the residual scan's per-driver row buffer).
    fn push_row(&mut self, i: u32, js: &[u32]) {
        for &j in js {
            self.push(i, j);
        }
    }
}

impl PairSink for Vec<(u32, u32)> {
    fn push(&mut self, i: u32, j: u32) {
        Vec::push(self, (i, j));
    }

    fn reserve(&mut self, additional: usize) {
        Vec::reserve(self, additional);
    }

    fn push_row(&mut self, i: u32, js: &[u32]) {
        self.extend(js.iter().map(|&j| (i, j)));
    }
}

/// The shard layout of one `r_len × s_len` bit grid. Shards are
/// contiguous word ranges covering whole row groups; `rows_per_shard`
/// is the smallest multiple of the 64-bit alignment period at least
/// [`SHARD_TARGET_BITS`] wide, so every shard starts on a fresh word
/// *and* a fresh row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkGeometry {
    /// Row width of the grid (`|S|`).
    pub s_len: usize,
    /// Rows covered by each shard (last shard may cover fewer).
    pub rows_per_shard: usize,
    /// Words per full shard (`rows_per_shard · s_len / 64`, exact).
    pub shard_words: usize,
    /// Words of the whole grid.
    pub grid_words: usize,
    /// Number of shards.
    pub shard_count: usize,
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}

impl SinkGeometry {
    /// The shard layout for an `r_len × s_len` grid; `None` when the
    /// grid is empty or exceeds [`MAX_BITSET_BITS`] (emission must
    /// stay buffered there).
    pub fn new(r_len: usize, s_len: usize) -> Option<SinkGeometry> {
        let bits = (r_len as u128) * (s_len as u128);
        if bits == 0 || bits > MAX_BITSET_BITS {
            return None;
        }
        // rows_per_shard · s_len must be a word multiple so shard
        // boundaries never split a word (or a row) between workers.
        let step = 64 / gcd(s_len, 64);
        let base = (SHARD_TARGET_BITS / s_len).max(1);
        let rows_per_shard = base.div_ceil(step) * step;
        Some(SinkGeometry {
            s_len,
            rows_per_shard,
            shard_words: rows_per_shard * s_len / 64,
            grid_words: (bits as usize).div_ceil(64),
            shard_count: r_len.div_ceil(rows_per_shard),
        })
    }

    /// Word length of shard `k` (the last shard covers the grid
    /// remainder).
    pub fn shard_len(&self, k: usize) -> usize {
        (self.grid_words - k * self.shard_words).min(self.shard_words)
    }

    /// Bytes of the merged full-grid word vector.
    pub fn grid_bytes(&self) -> u64 {
        self.grid_words as u64 * 8
    }
}

/// One worker's streaming sink: lazily allocated row-range bitset
/// shards. No shared state — each worker owns its sink for the whole
/// task scope, and [`merge_shards`] combines them afterwards.
pub struct ShardedSink {
    geom: SinkGeometry,
    shards: Vec<Option<Box<[u64]>>>,
    pushes: u64,
    new_bytes: u64,
}

impl ShardedSink {
    /// An empty sink over `geom` (no shards allocated yet).
    pub fn new(geom: SinkGeometry) -> ShardedSink {
        ShardedSink {
            geom,
            shards: vec![None; geom.shard_count],
            pushes: 0,
            new_bytes: 0,
        }
    }

    /// Total pairs pushed into this sink (pre-dedup — the streamed
    /// twin of the buffered path's raw list length, used for abort
    /// accounting).
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Bytes of shards allocated since the last call — what the task
    /// drain charges against the memory budget in place of the
    /// 8·pairs output model.
    pub fn take_new_bytes(&mut self) -> u64 {
        std::mem::take(&mut self.new_bytes)
    }

    fn shard_mut(&mut self, k: usize) -> &mut [u64] {
        if self.shards[k].is_none() {
            let len = self.geom.shard_len(k);
            self.new_bytes += (len * 8) as u64;
            self.shards[k] = Some(vec![0u64; len].into_boxed_slice());
        }
        match &mut self.shards[k] {
            Some(shard) => shard,
            None => &mut [],
        }
    }
}

impl PairSink for ShardedSink {
    fn push(&mut self, i: u32, j: u32) {
        self.pushes += 1;
        let bit = i as usize * self.geom.s_len + j as usize;
        let word = bit >> 6;
        let k = word / self.geom.shard_words;
        let off = word - k * self.geom.shard_words;
        self.shard_mut(k)[off] |= 1u64 << (bit & 63);
    }

    fn push_row(&mut self, i: u32, js: &[u32]) {
        if js.is_empty() {
            return;
        }
        self.pushes += js.len() as u64;
        let base = i as usize * self.geom.s_len;
        let k = i as usize / self.geom.rows_per_shard;
        let off0 = k * self.geom.shard_words;
        let shard = self.shard_mut(k);
        for &j in js {
            let bit = base + j as usize;
            shard[(bit >> 6) - off0] |= 1u64 << (bit & 63);
        }
    }
}

/// Counters of one shard merge, reported as `sink/*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkMergeStats {
    /// Shards allocated across all workers (`sink/shards`).
    pub shards: u64,
    /// Shard ranges more than one worker touched, merged by OR
    /// (`sink/spilled_merges`); 0 means perfect row-range locality.
    pub spilled_merges: u64,
    /// Total shard bytes the workers allocated (`sink/bytes`).
    pub bytes: u64,
}

/// ORs every worker's shards into one dense full-grid [`PairSet`],
/// by shard index (single-owner shards are straight copies). Runs
/// post-scope on the coordinating thread.
pub fn merge_shards(geom: &SinkGeometry, sinks: &[ShardedSink]) -> (PairSet, SinkMergeStats) {
    let mut words = vec![0u64; geom.grid_words];
    let mut stats = SinkMergeStats::default();
    for sink in sinks {
        stats.bytes += sink
            .shards
            .iter()
            .flatten()
            .map(|s| (s.len() * 8) as u64)
            .sum::<u64>();
    }
    for k in 0..geom.shard_count {
        let off = k * geom.shard_words;
        let mut owners = 0u64;
        for sink in sinks {
            let Some(shard) = sink.shards.get(k).and_then(|s| s.as_ref()) else {
                continue;
            };
            owners += 1;
            let dst = &mut words[off..off + shard.len()];
            if owners == 1 {
                dst.copy_from_slice(shard);
            } else {
                for (d, &s) in dst.iter_mut().zip(shard.iter()) {
                    *d |= s;
                }
            }
        }
        stats.shards += owners;
        if owners > 1 {
            stats.spilled_merges += owners - 1;
        }
    }
    (PairSet::from_words(words, geom.s_len), stats)
}

/// Attempts before giving up on one spill I/O operation (the first
/// try plus [`IO_RETRIES`] retries).
pub const IO_RETRIES: u32 = 3;

/// First retry backoff; doubles per retry, capped at [`IO_BACKOFF_CAP`].
const IO_BACKOFF_BASE: Duration = Duration::from_millis(1);

/// Ceiling of the exponential backoff between retries.
const IO_BACKOFF_CAP: Duration = Duration::from_millis(8);

/// Runs one spill I/O operation with capped exponential backoff
/// (1 → 2 → 4 ms, [`IO_RETRIES`] retries). The `site` fault hook can
/// inject a synthetic transient error *instead of* the real
/// operation — one armed clause fails exactly one attempt, so the
/// retry exercises recovery; arming more clauses than retries at the
/// same site forces exhaustion and a real error return. `retries`
/// accumulates into `runtime/io_retries`.
fn with_retries<T>(
    site: &'static str,
    retries: &mut u64,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let mut backoff = IO_BACKOFF_BASE;
    let mut attempt = 0u32;
    loop {
        let result = if eid_fault::hit(site) {
            Err(io::Error::other(format!(
                "injected transient fault at {site}"
            )))
        } else {
            op()
        };
        match result {
            Ok(v) => return Ok(v),
            Err(_) if attempt < IO_RETRIES => {
                attempt += 1;
                *retries += 1;
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(IO_BACKOFF_CAP);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Spill-side counters of one [`SpillSink`] (or summed over a run's
/// sinks), reported as `sink/spill_*` and `runtime/io_retries`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Bytes written to spill files (`sink/spill_bytes`).
    pub spilled_bytes: u64,
    /// Shard segments written to spill files (`sink/spill_shards`).
    pub spilled_segments: u64,
    /// Spill-flush events (each flushes every resident shard).
    pub flushes: u64,
    /// I/O attempts that failed and were retried
    /// (`runtime/io_retries`).
    pub retries: u64,
}

impl SpillStats {
    /// Component-wise sum (for run-level reporting).
    pub fn absorb(&mut self, other: &SpillStats) {
        self.spilled_bytes += other.spilled_bytes;
        self.spilled_segments += other.spilled_segments;
        self.flushes += other.flushes;
        self.retries += other.retries;
    }
}

/// One spilled shard segment: where in the worker's spill file shard
/// `k`'s words were appended. The file itself is self-describing
/// (`[k: u64 LE][words: u64 LE][words × u64 LE]` per segment), but
/// reads go through this in-memory index — the file is never scanned.
#[derive(Debug, Clone, Copy)]
struct SpillSegment {
    k: usize,
    offset: u64,
    words: usize,
}

/// One worker's out-of-core streaming sink: a [`ShardedSink`] whose
/// resident shards spill to a per-worker temp file whenever they
/// outgrow `cap_bytes`. Spilling is cooperative — the engine calls
/// [`SpillSink::maybe_spill`] at task boundaries, never mid-scan —
/// and a shard may be spilled multiple times (segments are OR-merged
/// on read-back, so re-dirtied shards stay correct).
///
/// A spill *write* failure (after retries) is contained, not fatal:
/// the sink marks itself [`SpillSink::write_failed`] and keeps shards
/// resident from then on — degraded to the streamed path's memory
/// profile but still exact. A *read* failure at merge time is
/// surfaced to the caller, which drops the degradation ladder a rung.
pub struct SpillSink {
    mem: ShardedSink,
    /// `<dir>/worker-<w>.spill`, created lazily on first flush.
    path: PathBuf,
    file: Option<File>,
    cap_bytes: u64,
    segments: Vec<SpillSegment>,
    stats: SpillStats,
    write_failed: bool,
}

impl SpillSink {
    /// An empty spill sink for `worker`, spilling into
    /// `dir/worker-<worker>.spill` once resident shard bytes exceed
    /// `cap_bytes`.
    pub fn new(geom: SinkGeometry, worker: usize, dir: &Path, cap_bytes: u64) -> SpillSink {
        SpillSink {
            mem: ShardedSink::new(geom),
            path: dir.join(format!("worker-{worker}.spill")),
            file: None,
            cap_bytes,
            segments: Vec::new(),
            stats: SpillStats::default(),
            write_failed: false,
        }
    }

    /// Total pairs pushed (pre-dedup), mirroring
    /// [`ShardedSink::pushes`].
    pub fn pushes(&self) -> u64 {
        self.mem.pushes()
    }

    /// Bytes of shards allocated since the last call (see
    /// [`ShardedSink::take_new_bytes`]).
    pub fn take_new_bytes(&mut self) -> u64 {
        self.mem.take_new_bytes()
    }

    /// This sink's spill counters so far.
    pub fn stats(&self) -> SpillStats {
        self.stats
    }

    /// Whether a spill write failed after retries — the sink has
    /// degraded to keeping shards resident (the streamed profile).
    pub fn write_failed(&self) -> bool {
        self.write_failed
    }

    /// Bytes of currently resident (unspilled) shards.
    pub fn resident_bytes(&self) -> u64 {
        self.mem
            .shards
            .iter()
            .flatten()
            .map(|s| (s.len() * 8) as u64)
            .sum()
    }

    fn open_file(&mut self) -> io::Result<&mut File> {
        if self.file.is_none() {
            let path = self.path.clone();
            let file = with_retries("sink/spill_open", &mut self.stats.retries, || {
                OpenOptions::new()
                    .read(true)
                    .append(true)
                    .create(true)
                    .open(&path)
            })?;
            self.file = Some(file);
        }
        match &mut self.file {
            Some(f) => Ok(f),
            None => Err(io::Error::other("spill file vanished after open")),
        }
    }

    /// Spills every resident shard to the temp file and frees it, if
    /// resident bytes exceed the cap. Returns the bytes freed (0 when
    /// under the cap, already failed, or nothing resident). A write
    /// failure after retries returns the error once, marks the sink
    /// write-failed, and keeps every shard resident — the caller
    /// records the rung drop and the run continues exact.
    pub fn maybe_spill(&mut self) -> io::Result<u64> {
        if self.write_failed || self.resident_bytes() <= self.cap_bytes {
            return Ok(0);
        }
        match self.flush_all() {
            Ok(freed) => Ok(freed),
            Err(e) => {
                self.write_failed = true;
                Err(e)
            }
        }
    }

    /// Appends every resident shard as a segment and frees it.
    fn flush_all(&mut self) -> io::Result<u64> {
        self.open_file()?;
        let mut freed = 0u64;
        let shard_count = self.mem.shards.len();
        for k in 0..shard_count {
            let Some(shard) = self.mem.shards[k].take() else {
                continue;
            };
            match self.append_segment(k, &shard) {
                Ok(bytes) => freed += bytes,
                Err(e) => {
                    // Failed mid-flush: put the shard back so no bits
                    // are lost; earlier shards in this flush are
                    // already safely in the file and indexed.
                    self.mem.shards[k] = Some(shard);
                    return Err(e);
                }
            }
        }
        if freed > 0 {
            self.stats.flushes += 1;
        }
        Ok(freed)
    }

    /// Writes one `[k][words][words…]` segment, records its index
    /// entry, and returns the resident bytes it freed.
    fn append_segment(&mut self, k: usize, shard: &[u64]) -> io::Result<u64> {
        let offset = {
            let file = match &mut self.file {
                Some(f) => f,
                None => return Err(io::Error::other("spill file not open")),
            };
            // Append mode: the write position is always the end.
            file.seek(SeekFrom::End(0))?
        };
        let mut buf: Vec<u8> = Vec::with_capacity(16 + shard.len() * 8);
        buf.extend_from_slice(&(k as u64).to_le_bytes());
        buf.extend_from_slice(&(shard.len() as u64).to_le_bytes());
        for &w in shard {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        let retries = &mut self.stats.retries;
        let file = match &mut self.file {
            Some(f) => f,
            None => return Err(io::Error::other("spill file not open")),
        };
        with_retries("sink/spill_write", retries, || {
            // Rewind to the segment start: a partially written
            // previous attempt is simply overwritten.
            file.seek(SeekFrom::Start(offset))?;
            file.set_len(offset)?;
            file.write_all(&buf)
        })?;
        self.segments.push(SpillSegment {
            k,
            offset: offset + 16,
            words: shard.len(),
        });
        self.stats.spilled_bytes += buf.len() as u64;
        self.stats.spilled_segments += 1;
        Ok((shard.len() * 8) as u64)
    }

    /// Reads segment `seg` back and ORs it into `dst` (which must be
    /// at least `seg.words` long), reusing `buf` as the read buffer.
    fn read_segment_into(
        &mut self,
        seg: SpillSegment,
        dst: &mut [u64],
        buf: &mut Vec<u8>,
    ) -> io::Result<()> {
        let retries = &mut self.stats.retries;
        let file = match &mut self.file {
            Some(f) => f,
            None => return Err(io::Error::other("spill file not open for read-back")),
        };
        buf.clear();
        buf.resize(seg.words * 8, 0);
        with_retries("sink/spill_read", retries, || {
            file.seek(SeekFrom::Start(seg.offset))?;
            file.read_exact(buf)
        })?;
        for (w, chunk) in dst[..seg.words].iter_mut().zip(buf.chunks_exact(8)) {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(chunk);
            *w |= u64::from_le_bytes(bytes);
        }
        Ok(())
    }
}

impl PairSink for SpillSink {
    fn push(&mut self, i: u32, j: u32) {
        self.mem.push(i, j);
    }

    fn push_row(&mut self, i: u32, js: &[u32]) {
        self.mem.push_row(i, js);
    }
}

/// Streams every worker's resident *and* spilled shards into one
/// dense full-grid [`PairSet`], walking shards in index order — which
/// is row-range order, so the merge is one ascending pass over the
/// output grid. Bounded memory: the final grid (≤ 32 MiB whenever a
/// [`SinkGeometry`] exists) plus one reusable read buffer, instead of
/// the all-resident merge's `workers × grid` worst case. Spilled
/// segments are OR-merged exactly like resident shards, so a shard
/// spilled twice (or spilled and then re-dirtied) still lands every
/// bit. A read failure after retries aborts the merge with the error;
/// the caller drops the ladder a rung (spilled → streamed).
pub fn merge_spilled(
    geom: &SinkGeometry,
    sinks: &mut [SpillSink],
) -> io::Result<(PairSet, SinkMergeStats)> {
    let mut words = vec![0u64; geom.grid_words];
    let mut stats = SinkMergeStats::default();
    for sink in sinks.iter() {
        stats.bytes += sink.resident_bytes() + sink.stats.spilled_bytes;
    }
    let mut buf: Vec<u8> = Vec::new();
    for k in 0..geom.shard_count {
        let off = k * geom.shard_words;
        let len = geom.shard_len(k);
        let mut owners = 0u64;
        for sink in sinks.iter_mut() {
            let mut touched = false;
            if let Some(shard) = sink.mem.shards.get(k).and_then(|s| s.as_ref()) {
                for (d, &s) in words[off..off + shard.len()].iter_mut().zip(shard.iter()) {
                    *d |= s;
                }
                touched = true;
            }
            let segs: Vec<SpillSegment> =
                sink.segments.iter().filter(|s| s.k == k).copied().collect();
            for seg in segs {
                sink.read_segment_into(seg, &mut words[off..off + len], &mut buf)?;
                touched = true;
            }
            if touched {
                owners += 1;
            }
        }
        stats.shards += owners;
        if owners > 1 {
            stats.spilled_merges += owners - 1;
        }
    }
    Ok((PairSet::from_words(words, geom.s_len), stats))
}

/// RAII cleanup for a run's spill directory (or any scratch dir, e.g.
/// a bench export tree): removes the directory and everything in it
/// on drop unless kept. Guards the whole emission + merge window, so
/// aborts, poisons, and panics all clean up — "never a leaked temp
/// file".
#[derive(Debug)]
pub struct SpillDirGuard {
    path: PathBuf,
    keep: bool,
}

impl SpillDirGuard {
    /// Creates `<parent>/eid-spill-<pid>-<seq>` and guards it.
    /// `keep = true` (the CLI's `--keep-spill`) leaves the directory
    /// behind on drop for post-mortem inspection.
    pub fn create(parent: &Path, keep: bool) -> io::Result<SpillDirGuard> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = parent.join(format!("eid-spill-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(SpillDirGuard { path, keep })
    }

    /// Guards an already-created directory.
    pub fn adopt(path: PathBuf, keep: bool) -> SpillDirGuard {
        SpillDirGuard { path, keep }
    }

    /// The guarded directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether the directory will survive drop.
    pub fn keeps(&self) -> bool {
        self.keep
    }

    /// Flips survival: an adopted scratch/export directory starts
    /// disposable (removed on abort or panic) and is kept only once
    /// the producing run completes.
    pub fn set_keep(&mut self, keep: bool) {
        self.keep = keep;
    }
}

impl Drop for SpillDirGuard {
    fn drop(&mut self) {
        if !self.keep {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn geometry_is_row_and_word_aligned() {
        for (r, s) in [(1, 1), (7, 3), (800, 800), (3200, 3200), (1 << 14, 5)] {
            let g = SinkGeometry::new(r, s).unwrap_or_else(|| panic!("no geometry for {r}x{s}"));
            assert_eq!(g.rows_per_shard * g.s_len % 64, 0, "{r}x{s}");
            assert_eq!(g.shard_words, g.rows_per_shard * s / 64, "{r}x{s}");
            assert_eq!(g.shard_count, r.div_ceil(g.rows_per_shard), "{r}x{s}");
            let total: usize = (0..g.shard_count).map(|k| g.shard_len(k)).sum();
            assert_eq!(total, g.grid_words, "{r}x{s}");
        }
        assert!(SinkGeometry::new(0, 10).is_none());
        assert!(SinkGeometry::new(1 << 20, 1 << 20).is_none());
    }

    #[test]
    fn sharded_sink_matches_buffered_dedup() {
        // Odd row width so rows straddle words and shifts exercise
        // the carry path.
        let (r_len, s_len) = (301, 67);
        let geom = SinkGeometry::new(r_len, s_len).unwrap();
        let mut sink = ShardedSink::new(geom);
        let mut buffered: Vec<(u32, u32)> = Vec::new();
        let mut x = 0x243F_6A88_85A3_08D3u64; // deterministic LCG
        let mut pairs = Vec::new();
        for _ in 0..5_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = ((x >> 33) % r_len as u64) as u32;
            let j = ((x >> 11) % s_len as u64) as u32;
            pairs.push((i, j));
        }
        for &(i, j) in &pairs {
            PairSink::push(&mut sink, i, j);
            PairSink::push(&mut buffered, i, j);
        }
        // Row paths on top of the scalar ones.
        let is: Vec<u32> = (0..r_len as u32).step_by(7).collect();
        let js: Vec<u32> = (0..s_len as u32).step_by(5).collect();
        for &i in &is {
            sink.push_row(i, &js);
            buffered.push_row(i, &js);
        }
        sink.push_row(300, &js);
        buffered.push_row(300, &js);
        assert_eq!(sink.pushes(), buffered.len() as u64);

        let (set, stats) = merge_shards(&geom, &[sink]);
        let mut expect = buffered;
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(set.to_pairs(), expect);
        assert_eq!(set.count(), expect.len());
        assert_eq!(stats.spilled_merges, 0);
    }

    #[test]
    fn merge_ors_across_workers_and_counts_spills() {
        let geom = SinkGeometry::new(64, 64).unwrap();
        let mut a = ShardedSink::new(geom);
        let mut b = ShardedSink::new(geom);
        PairSink::push(&mut a, 0, 0);
        PairSink::push(&mut b, 0, 0); // duplicate across workers
        PairSink::push(&mut b, 63, 63);
        let (set, stats) = merge_shards(&geom, &[a, b]);
        assert!(set.contains(0, 0) && set.contains(63, 63));
        assert_eq!(set.count(), 2);
        // 64×64 fits one shard: both workers own it → one spill.
        assert_eq!(stats.spilled_merges, 1);
        assert_eq!(stats.shards, 2);
    }

    #[test]
    fn spill_sink_round_trips_through_disk_and_matches_in_memory_merge() {
        let (r_len, s_len) = (301, 67);
        let geom = SinkGeometry::new(r_len, s_len).unwrap();
        let dir = SpillDirGuard::create(&std::env::temp_dir(), false).unwrap();
        // Zero cap: every maybe_spill flushes everything resident.
        let mut spill = SpillSink::new(geom, 0, dir.path(), 0);
        let mut mem = ShardedSink::new(geom);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for round in 0..4 {
            for _ in 0..2_000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let i = ((x >> 33) % r_len as u64) as u32;
                let j = ((x >> 11) % s_len as u64) as u32;
                PairSink::push(&mut spill, i, j);
                PairSink::push(&mut mem, i, j);
            }
            let freed = spill.maybe_spill().unwrap();
            assert!(freed > 0, "round {round} spilled nothing");
        }
        // Leave some resident too: re-dirty shards after the last
        // flush so the merge must OR disk segments with memory.
        let is: Vec<u32> = (0..r_len as u32).step_by(11).collect();
        let js: Vec<u32> = (0..s_len as u32).step_by(3).collect();
        for &i in &is {
            spill.push_row(i, &js);
            mem.push_row(i, &js);
        }
        assert_eq!(spill.pushes(), mem.pushes());
        let stats = spill.stats();
        assert!(stats.spilled_segments >= 4, "{stats:?}");
        assert!(stats.spilled_bytes > 0);
        assert!(!spill.write_failed());

        let (oracle, _) = merge_shards(&geom, &[mem]);
        let mut sinks = [spill];
        let (set, merge_stats) = merge_spilled(&geom, &mut sinks).unwrap();
        assert_eq!(set.to_pairs(), oracle.to_pairs());
        assert_eq!(set.count(), oracle.count());
        assert!(merge_stats.bytes > 0);
        let spill_path = sinks[0].path.clone();
        assert!(spill_path.exists(), "spill file should exist before drop");
        drop(sinks);
        drop(dir);
        assert!(!spill_path.exists(), "guard should remove the spill dir");
    }

    #[test]
    fn spill_dir_guard_keep_leaves_the_directory() {
        let guard = SpillDirGuard::create(&std::env::temp_dir(), true).unwrap();
        let path = guard.path().to_path_buf();
        drop(guard);
        assert!(path.exists(), "--keep-spill dir must survive drop");
        std::fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    fn pair_set_decodes_ascending_for_both_representations() {
        let pairs = [(3u32, 1u32), (0, 5), (3, 0), (0, 5), (2, 7)];
        let mut dense = PairSet::new(10, 10, 8);
        let mut hash = PairSet::Hash(FxHashSet::default());
        for &(i, j) in &pairs {
            dense.insert(i, j);
            hash.insert(i, j);
        }
        let expect = vec![(0, 5), (2, 7), (3, 0), (3, 1)];
        assert_eq!(dense.to_pairs(), expect);
        assert_eq!(hash.to_pairs(), expect);
        assert_eq!(dense.count(), 4);
        assert!(dense.capacity_bytes() > 0);
    }
}
