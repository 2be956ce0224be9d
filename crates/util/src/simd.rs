//! Struct-of-arrays batch kernels with a scalar/vector dual implementation.
//!
//! The hot loops of the simulator are all masked-u64 bit kernels: XOR +
//! popcount (differential writes), windowed popcounts (compression-window
//! accounting), per-chunk popcounts (Flip-N-Write), and "add the bits of a
//! mask to an array of counters" (per-cell wear and flip statistics). One
//! `Line512` at a time these run at a few bits per cycle; transposed into
//! struct-of-arrays batches they vectorize.
//!
//! Two layouts cooperate here:
//!
//! * [`LineBatch64`] — **cross-line SoA**: up to 64 lines transposed into
//!   8 × 64 u64 *lane planes* (`planes[w][lane]` holds word `w` of lane
//!   `lane`). Stateless kernels (diff-write masks, window popcounts, batch
//!   compression screens) walk one plane at a time, so every iteration of
//!   the inner loop touches independent lanes and the compiler can keep
//!   whole cache lines of lanes in flight. Partial batches (1..=64 live
//!   lanes) are handled by *lane masking*: lanes fill a prefix, dead lanes
//!   are zeroed, and `live_mask()` reports the prefix as a bitmask.
//! * **Bit-plane SoA inside one line** — the per-cell wear/count state of
//!   the line-sim is already an array of 512 lanes (`[u32; 512]`); the
//!   kernels [`mask_accumulate`] and [`wear_step`] treat a `Line512` mask
//!   as 512 predicate lanes over those arrays.
//!
//! Every kernel has exactly one semantic, expressed by the reference
//! implementation in [`scalar`]. The `simd` cargo feature adds
//! `#[target_feature]` variants (AVX2 + POPCNT, hand-written lane ops for
//! the counter kernels) that are **byte-identical** in output: popcounts
//! and integer adds are exact, so the dispatch below may pick either path
//! freely. With the feature off, this module compiles to the scalar code
//! with zero dispatch overhead. All `unsafe`, intrinsics, and
//! `cfg(feature = "simd")` logic in the workspace lives in this file — the
//! `simd-confine` audit rule enforces that.

use crate::line::Line512;
use crate::DATA_BITS;

/// Lanes per batch: 64 lines of 64 bytes — one 4 KiB page of data.
pub const BATCH_LANES: usize = 64;

/// u64 words per line.
const WORDS: usize = DATA_BITS / 64;

/// Up to 64 `Line512`s transposed into struct-of-arrays lane planes.
///
/// `planes[w][lane]` is word `w` of the line in `lane`. Lanes fill a
/// prefix (`push` appends); dead lanes stay zero so whole-plane kernels
/// can ignore liveness and still report zero for dead lanes.
///
/// # Examples
///
/// ```
/// use pcm_util::simd::LineBatch64;
/// use pcm_util::Line512;
///
/// let lines = vec![Line512::ones(), Line512::zero()];
/// let batch = LineBatch64::from_lines(&lines);
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch.live_mask(), 0b11);
/// assert_eq!(batch.lane(0), Line512::ones());
/// assert_eq!(batch.to_lines(), lines);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineBatch64 {
    planes: [[u64; BATCH_LANES]; WORDS],
    live: u64,
}

impl Default for LineBatch64 {
    fn default() -> Self {
        Self::new()
    }
}

impl LineBatch64 {
    /// An empty batch (no live lanes).
    pub fn new() -> Self {
        LineBatch64 {
            planes: [[0u64; BATCH_LANES]; WORDS],
            live: 0,
        }
    }

    /// Transposes a slice of at most [`BATCH_LANES`] lines into a batch.
    ///
    /// # Panics
    ///
    /// Panics if `lines.len() > 64`.
    pub fn from_lines(lines: &[Line512]) -> Self {
        assert!(
            lines.len() <= BATCH_LANES,
            "batch holds at most {BATCH_LANES} lines, got {}",
            lines.len()
        );
        let mut batch = Self::new();
        for line in lines {
            batch.push(line);
        }
        batch
    }

    /// Appends a line into the next free lane and returns its lane index.
    ///
    /// # Panics
    ///
    /// Panics if the batch is full.
    pub fn push(&mut self, line: &Line512) -> usize {
        let lane = self.len();
        assert!(lane < BATCH_LANES, "batch is full");
        let words = line.words();
        for (w, plane) in self.planes.iter_mut().enumerate() {
            plane[lane] = words[w];
        }
        self.live |= 1u64 << lane;
        lane
    }

    /// Number of live lanes.
    #[inline]
    pub fn len(&self) -> usize {
        self.live.count_ones() as usize
    }

    /// Returns `true` if no lane is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Bitmask of live lanes (always a prefix: `(1 << len) - 1`).
    #[inline]
    pub fn live_mask(&self) -> u64 {
        self.live
    }

    /// One lane plane: word `w` of every lane.
    #[inline]
    pub fn plane(&self, w: usize) -> &[u64; BATCH_LANES] {
        &self.planes[w]
    }

    /// Transposes one lane back out into a `Line512`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not live.
    pub fn lane(&self, lane: usize) -> Line512 {
        assert!(
            lane < BATCH_LANES && self.live >> lane & 1 == 1,
            "lane {lane} is not live"
        );
        let mut words = [0u64; WORDS];
        for (w, plane) in self.planes.iter().enumerate() {
            words[w] = plane[lane];
        }
        Line512::from_words(words)
    }

    /// Transposes every live lane back out, in lane order.
    pub fn to_lines(&self) -> Vec<Line512> {
        (0..self.len()).map(|lane| self.lane(lane)).collect()
    }
}

/// Whether the vector kernel paths are compiled in *and* supported by the
/// CPU at runtime. Always `false` without the `simd` cargo feature.
#[inline]
pub fn accel_active() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        accel_detected()
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline]
fn accel_detected() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    // 0 = unprobed, 1 = unsupported, 2 = supported. Probing twice is
    // harmless (same answer), so Relaxed is enough.
    static STATE: AtomicU8 = AtomicU8::new(0);
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let ok = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("popcnt");
            STATE.store(if ok { 2 } else { 1 }, Ordering::Relaxed);
            ok
        }
    }
}

/// Popcount of eight u64 words (one `Line512`).
///
/// Never runtime-dispatched: a 64-byte popcount is smaller than the cost
/// of a call into a `#[target_feature]` function (which the compiler may
/// not inline into plain callers), so the SWAR scalar body — which the
/// compiler inlines everywhere — is the fast path in both builds. The
/// dispatched kernels below all amortize the call over ≥ 512 lanes.
#[inline]
pub fn popcount512(words: &[u64; 8]) -> u32 {
    scalar::popcount512(words)
}

/// Adds each set bit of `mask` to the matching counter: for every bit
/// position `p` set in `mask`, `counts[p] += 1`.
///
/// # Panics
///
/// Panics if `counts.len() < 512`.
#[inline]
pub fn mask_accumulate(counts: &mut [u32], mask: &[u64; 8]) {
    assert!(counts.len() >= DATA_BITS, "counter array shorter than line");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if accel_detected() {
        // SAFETY: `accel_detected` verified AVX2+POPCNT support at runtime.
        unsafe { x86::mask_accumulate(counts, mask) };
        return;
    }
    scalar::mask_accumulate(counts, mask);
}

/// One wear step over 512 cell lanes: for every bit `p` set in `program`,
/// `wear[p] += 1`, and `p` is reported in the returned mask if its new
/// wear exceeds `endurance[p]` (the cell dies on this pulse).
///
/// # Panics
///
/// Panics if either slice is shorter than 512.
#[inline]
pub fn wear_step(wear: &mut [u32], endurance: &[u32], program: &[u64; 8]) -> [u64; 8] {
    assert!(wear.len() >= DATA_BITS, "wear array shorter than line");
    assert!(
        endurance.len() >= DATA_BITS,
        "endurance array shorter than line"
    );
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if accel_detected() {
        // SAFETY: `accel_detected` verified AVX2+POPCNT support at runtime.
        return unsafe { x86::wear_step(wear, endurance, program) };
    }
    scalar::wear_step(wear, endurance, program)
}

/// Per-chunk popcounts of a line: `out[c]` = set bits in chunk `c`, where
/// chunks are `chunk_bits` wide. Used by Flip-N-Write.
///
/// # Panics
///
/// Panics unless `chunk_bits` divides 512, is at least 2, and
/// `out.len() >= 512 / chunk_bits`.
#[inline]
pub fn chunk_popcounts(words: &[u64; 8], chunk_bits: usize, out: &mut [u32]) {
    assert!(
        chunk_bits >= 2 && DATA_BITS % chunk_bits == 0,
        "chunk width must divide 512, got {chunk_bits}"
    );
    assert!(
        out.len() >= DATA_BITS / chunk_bits,
        "chunk counter array too short"
    );
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if accel_detected() {
        // SAFETY: `accel_detected` verified AVX2+POPCNT support at runtime.
        unsafe { x86::chunk_popcounts(words, chunk_bits, out) };
        return;
    }
    scalar::chunk_popcounts(words, chunk_bits, out);
}

/// Per-lane popcount of a batch. Dead lanes report 0.
#[inline]
pub fn batch_popcount(batch: &LineBatch64) -> [u32; BATCH_LANES] {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if accel_detected() {
        // SAFETY: `accel_detected` verified AVX2+POPCNT support at runtime.
        return unsafe { x86::batch_popcount(batch) };
    }
    scalar::batch_popcount(batch)
}

/// Per-lane Hamming distance between two batches (the flip count of a
/// differential write of `b` over `a` in every lane).
///
/// # Panics
///
/// Panics if the live-lane masks differ.
#[inline]
pub fn batch_hamming(a: &LineBatch64, b: &LineBatch64) -> [u32; BATCH_LANES] {
    assert_eq!(a.live, b.live, "batches have different live lanes");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if accel_detected() {
        // SAFETY: `accel_detected` verified AVX2+POPCNT support at runtime.
        return unsafe { x86::batch_hamming(a, b) };
    }
    scalar::batch_hamming(a, b)
}

/// Per-lane popcount within the byte window `[offset, offset + len)`.
///
/// # Panics
///
/// Panics if `offset + len > 64`.
#[inline]
pub fn batch_window_popcount(batch: &LineBatch64, offset: usize, len: usize) -> [u32; BATCH_LANES] {
    let mask = Line512::byte_window_mask(offset, len);
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if accel_detected() {
        // SAFETY: `accel_detected` verified AVX2+POPCNT support at runtime.
        return unsafe { x86::batch_masked_popcount(batch, &mask.words()) };
    }
    scalar::batch_masked_popcount(batch, &mask.words())
}

/// Lane-wise XOR of two batches.
///
/// # Panics
///
/// Panics if the live-lane masks differ.
pub fn batch_xor(a: &LineBatch64, b: &LineBatch64) -> LineBatch64 {
    assert_eq!(a.live, b.live, "batches have different live lanes");
    let mut out = LineBatch64::new();
    out.live = a.live;
    for w in 0..WORDS {
        for lane in 0..BATCH_LANES {
            out.planes[w][lane] = a.planes[w][lane] ^ b.planes[w][lane];
        }
    }
    out
}

/// Lane-wise AND of two batches.
///
/// # Panics
///
/// Panics if the live-lane masks differ.
pub fn batch_and(a: &LineBatch64, b: &LineBatch64) -> LineBatch64 {
    assert_eq!(a.live, b.live, "batches have different live lanes");
    let mut out = LineBatch64::new();
    out.live = a.live;
    for w in 0..WORDS {
        for lane in 0..BATCH_LANES {
            out.planes[w][lane] = a.planes[w][lane] & b.planes[w][lane];
        }
    }
    out
}

/// Minimum of `endurance[p] - wear[p]` over the cells whose bit is set in
/// `healthy`, or `u32::MAX` when `healthy` is empty.
///
/// Callers must guarantee `wear[p] <= endurance[p]` for every healthy cell
/// (true by construction in the wear model: a cell whose wear exceeds its
/// endurance is a fault and leaves the healthy set); the subtraction still
/// saturates so a violated precondition yields 0, never garbage.
///
/// # Panics
///
/// Panics if either slice is shorter than 512.
#[inline]
pub fn min_remaining(wear: &[u32], endurance: &[u32], healthy: &[u64; 8]) -> u32 {
    assert!(wear.len() >= DATA_BITS, "wear array shorter than line");
    assert!(
        endurance.len() >= DATA_BITS,
        "endurance array shorter than line"
    );
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if accel_detected() {
        // SAFETY: `accel_detected` verified AVX2+POPCNT support at runtime.
        return unsafe { x86::min_remaining(wear, endurance, healthy) };
    }
    scalar::min_remaining(wear, endurance, healthy)
}

/// Reference implementations: the single source of truth for kernel
/// semantics. The dispatch wrappers above and the vector variants must be
/// byte-identical to these — `crates/util/tests/simd_equiv.rs` holds the
/// differential rig.
pub mod scalar {
    use super::{LineBatch64, BATCH_LANES, WORDS};

    /// See [`super::popcount512`].
    #[inline]
    pub fn popcount512(words: &[u64; 8]) -> u32 {
        words.iter().map(|w| w.count_ones()).sum()
    }

    /// See [`super::mask_accumulate`].
    #[inline]
    pub fn mask_accumulate(counts: &mut [u32], mask: &[u64; 8]) {
        for (w, &m) in mask.iter().enumerate() {
            let mut bits = m;
            while bits != 0 {
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                counts[w * 64 + tz] += 1;
            }
        }
    }

    /// See [`super::wear_step`].
    #[inline]
    pub fn wear_step(wear: &mut [u32], endurance: &[u32], program: &[u64; 8]) -> [u64; 8] {
        let mut died = [0u64; 8];
        for (w, &m) in program.iter().enumerate() {
            let mut bits = m;
            while bits != 0 {
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let pos = w * 64 + tz;
                wear[pos] += 1;
                if wear[pos] > endurance[pos] {
                    died[w] |= 1u64 << tz;
                }
            }
        }
        died
    }

    /// See [`super::chunk_popcounts`].
    #[inline]
    pub fn chunk_popcounts(words: &[u64; 8], chunk_bits: usize, out: &mut [u32]) {
        if chunk_bits >= 64 {
            let words_per_chunk = chunk_bits / 64;
            for (c, group) in words.chunks_exact(words_per_chunk).enumerate() {
                out[c] = group.iter().map(|w| w.count_ones()).sum();
            }
        } else {
            let chunks_per_word = 64 / chunk_bits;
            let seg = u64::MAX >> (64 - chunk_bits);
            for (w, &word) in words.iter().enumerate() {
                for c in 0..chunks_per_word {
                    out[w * chunks_per_word + c] = (word >> (c * chunk_bits) & seg).count_ones();
                }
            }
        }
    }

    /// See [`super::batch_popcount`].
    #[inline]
    pub fn batch_popcount(batch: &LineBatch64) -> [u32; BATCH_LANES] {
        let mut out = [0u32; BATCH_LANES];
        for w in 0..WORDS {
            let plane = batch.plane(w);
            for (lane, acc) in out.iter_mut().enumerate() {
                *acc += plane[lane].count_ones();
            }
        }
        out
    }

    /// See [`super::batch_hamming`].
    #[inline]
    pub fn batch_hamming(a: &LineBatch64, b: &LineBatch64) -> [u32; BATCH_LANES] {
        let mut out = [0u32; BATCH_LANES];
        for w in 0..WORDS {
            let (pa, pb) = (a.plane(w), b.plane(w));
            for (lane, acc) in out.iter_mut().enumerate() {
                *acc += (pa[lane] ^ pb[lane]).count_ones();
            }
        }
        out
    }

    /// See [`super::min_remaining`].
    #[inline]
    pub fn min_remaining(wear: &[u32], endurance: &[u32], healthy: &[u64; 8]) -> u32 {
        // Branch-free over all 512 lanes, 32 at a time: an unhealthy lane
        // is forced to `u32::MAX` so it never wins. A healthy set is
        // usually nearly full, so this beats walking its set bits.
        let mut lanes = [u32::MAX; 32];
        for (h, half) in healthy
            .iter()
            .flat_map(|&m| [m as u32, (m >> 32) as u32])
            .enumerate()
        {
            let base = h * 32;
            let (e, w) = (&endurance[base..base + 32], &wear[base..base + 32]);
            for lane in 0..32 {
                let r = e[lane].saturating_sub(w[lane]);
                let r = if half & (1 << lane) != 0 { r } else { u32::MAX };
                lanes[lane] = lanes[lane].min(r);
            }
        }
        lanes.into_iter().min().unwrap_or(u32::MAX)
    }

    /// See [`super::batch_window_popcount`] (mask already expanded).
    #[inline]
    pub fn batch_masked_popcount(batch: &LineBatch64, mask: &[u64; 8]) -> [u32; BATCH_LANES] {
        let mut out = [0u32; BATCH_LANES];
        for (w, &mw) in mask.iter().enumerate() {
            if mw == 0 {
                continue;
            }
            let plane = batch.plane(w);
            for (lane, acc) in out.iter_mut().enumerate() {
                *acc += (plane[lane] & mw).count_ones();
            }
        }
        out
    }
}

/// Vector variants. The popcount-shaped kernels reuse the scalar bodies —
/// compiling them with AVX2+POPCNT enabled is what unlocks the hardware
/// popcount and plane-at-a-time vectorization; the counter kernels
/// (`mask_accumulate`, `wear_step`) use hand-written lane ops because
/// their access pattern (expand a predicate bit per u32 lane) defeats the
/// autovectorizer.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    use super::{scalar, LineBatch64, BATCH_LANES};

    #[target_feature(enable = "avx2,popcnt")]
    pub(super) fn chunk_popcounts(words: &[u64; 8], chunk_bits: usize, out: &mut [u32]) {
        scalar::chunk_popcounts(words, chunk_bits, out);
    }

    #[target_feature(enable = "avx2,popcnt")]
    pub(super) fn batch_popcount(batch: &LineBatch64) -> [u32; BATCH_LANES] {
        scalar::batch_popcount(batch)
    }

    #[target_feature(enable = "avx2,popcnt")]
    pub(super) fn batch_hamming(a: &LineBatch64, b: &LineBatch64) -> [u32; BATCH_LANES] {
        scalar::batch_hamming(a, b)
    }

    #[target_feature(enable = "avx2,popcnt")]
    pub(super) fn batch_masked_popcount(
        batch: &LineBatch64,
        mask: &[u64; 8],
    ) -> [u32; BATCH_LANES] {
        scalar::batch_masked_popcount(batch, mask)
    }

    /// `counts[p] += bit(mask, p)` over 512 u32 lanes, eight lanes per
    /// step: broadcast the next 8 predicate bits, variable-shift them into
    /// lane position, mask to 0/1 and add.
    #[target_feature(enable = "avx2")]
    pub(super) fn mask_accumulate(counts: &mut [u32], mask: &[u64; 8]) {
        use std::arch::x86_64::*;
        let shifts = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let ones = _mm256_set1_epi32(1);
        for (w, &m) in mask.iter().enumerate() {
            if m == 0 {
                continue;
            }
            for g in 0..8 {
                let byte = (m >> (g * 8) & 0xFF) as i32;
                if byte == 0 {
                    continue;
                }
                let base = w * 64 + g * 8;
                let inc =
                    _mm256_and_si256(_mm256_srlv_epi32(_mm256_set1_epi32(byte), shifts), ones);
                // SAFETY: caller asserted `counts.len() >= 512`; `base` is at
                // most 504, so the unaligned 8-lane load/store stays in
                // bounds. AVX2 is enabled on this function.
                unsafe {
                    let p = counts.as_mut_ptr().add(base) as *mut __m256i;
                    _mm256_storeu_si256(
                        p,
                        _mm256_add_epi32(_mm256_loadu_si256(p as *const _), inc),
                    );
                }
            }
        }
    }

    /// Masked unsigned min-reduction: saturating `endurance - wear` per
    /// u32 lane, lanes outside the healthy predicate forced to `u32::MAX`
    /// (so they never win), eight lanes per step.
    #[target_feature(enable = "avx2")]
    pub(super) fn min_remaining(wear: &[u32], endurance: &[u32], healthy: &[u64; 8]) -> u32 {
        use std::arch::x86_64::*;
        let shifts = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let ones = _mm256_set1_epi32(1);
        let zero = _mm256_setzero_si256();
        let mut min8 = _mm256_set1_epi32(-1);
        for (w, &m) in healthy.iter().enumerate() {
            if m == 0 {
                continue;
            }
            for g in 0..8 {
                let byte = (m >> (g * 8) & 0xFF) as i32;
                if byte == 0 {
                    continue;
                }
                let base = w * 64 + g * 8;
                let lane_on =
                    _mm256_and_si256(_mm256_srlv_epi32(_mm256_set1_epi32(byte), shifts), ones);
                let dead_mask = _mm256_cmpeq_epi32(lane_on, zero);
                // SAFETY: caller asserted both slices are at least 512 long;
                // `base` is at most 504, so the unaligned 8-lane loads stay
                // in bounds. AVX2 is enabled on this function.
                let (e, wv) = unsafe {
                    (
                        _mm256_loadu_si256(endurance.as_ptr().add(base) as *const __m256i),
                        _mm256_loadu_si256(wear.as_ptr().add(base) as *const __m256i),
                    )
                };
                // Saturating unsigned subtract: max(e, w) - w.
                let rem = _mm256_sub_epi32(_mm256_max_epu32(e, wv), wv);
                min8 = _mm256_min_epu32(min8, _mm256_or_si256(rem, dead_mask));
            }
        }
        let mut lanes = [0u32; 8];
        // SAFETY: `lanes` is exactly 32 bytes; unaligned store is allowed.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, min8) };
        lanes.into_iter().min().unwrap_or(u32::MAX)
    }

    /// Lane-sliced wear step: add the predicate bit per u32 lane, then an
    /// unsigned compare (sign-bias trick) against endurance; died lanes
    /// are gathered with movemask and re-masked by the predicate byte so
    /// only freshly programmed cells can report death.
    #[target_feature(enable = "avx2")]
    pub(super) fn wear_step(wear: &mut [u32], endurance: &[u32], program: &[u64; 8]) -> [u64; 8] {
        use std::arch::x86_64::*;
        let shifts = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let ones = _mm256_set1_epi32(1);
        let sign = _mm256_set1_epi32(i32::MIN);
        let mut died = [0u64; 8];
        for (w, &m) in program.iter().enumerate() {
            if m == 0 {
                continue;
            }
            let mut died_w = 0u64;
            for g in 0..8 {
                let byte = (m >> (g * 8) & 0xFF) as i32;
                if byte == 0 {
                    continue;
                }
                let base = w * 64 + g * 8;
                let inc =
                    _mm256_and_si256(_mm256_srlv_epi32(_mm256_set1_epi32(byte), shifts), ones);
                // SAFETY: caller asserted both slices are at least 512 long;
                // `base` is at most 504, so the unaligned 8-lane accesses
                // stay in bounds. AVX2 is enabled on this function.
                let over = unsafe {
                    let wp = wear.as_mut_ptr().add(base) as *mut __m256i;
                    let ep = endurance.as_ptr().add(base) as *const __m256i;
                    let new_wear = _mm256_add_epi32(_mm256_loadu_si256(wp as *const _), inc);
                    _mm256_storeu_si256(wp, new_wear);
                    _mm256_cmpgt_epi32(
                        _mm256_xor_si256(new_wear, sign),
                        _mm256_xor_si256(_mm256_loadu_si256(ep), sign),
                    )
                };
                let lanes = _mm256_movemask_ps(_mm256_castsi256_ps(over)) as u32 as u64;
                died_w |= (lanes & byte as u64) << (g * 8);
            }
            died[w] = died_w;
        }
        died
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use rand::Rng;

    fn random_line(rng: &mut impl Rng) -> Line512 {
        Line512::random(rng)
    }

    #[test]
    fn batch_round_trips_lines() {
        let mut rng = seeded_rng(70);
        for n in [0usize, 1, 2, 31, 64] {
            let lines: Vec<Line512> = (0..n).map(|_| random_line(&mut rng)).collect();
            let batch = LineBatch64::from_lines(&lines);
            assert_eq!(batch.len(), n);
            assert_eq!(batch.to_lines(), lines);
            if n > 0 {
                assert_eq!(batch.live_mask(), u64::MAX >> (64 - n));
            }
        }
    }

    #[test]
    fn dispatch_matches_scalar_reference() {
        let mut rng = seeded_rng(71);
        let lines: Vec<Line512> = (0..64).map(|_| random_line(&mut rng)).collect();
        let batch = LineBatch64::from_lines(&lines);
        assert_eq!(batch_popcount(&batch), scalar::batch_popcount(&batch));
        let words = lines[0].words();
        assert_eq!(popcount512(&words), scalar::popcount512(&words));
        let mut a = [0u32; DATA_BITS];
        let mut b = [0u32; DATA_BITS];
        mask_accumulate(&mut a, &words);
        scalar::mask_accumulate(&mut b, &words);
        assert_eq!(a, b);
    }

    #[test]
    fn wear_step_reports_deaths_only_for_programmed_cells() {
        let mut wear = vec![0u32; DATA_BITS];
        let mut endurance = vec![5u32; DATA_BITS];
        endurance[3] = 0;
        endurance[100] = 0; // over-limit but never programmed
        wear[100] = 7;
        let mut program = [0u64; 8];
        program[0] = 1 << 3 | 1 << 5;
        let died = wear_step(&mut wear, &endurance, &program);
        assert_eq!(died[0], 1 << 3);
        assert_eq!(wear[3], 1);
        assert_eq!(wear[5], 1);
        assert_eq!(wear[100], 7);
    }

    #[test]
    #[should_panic(expected = "batch is full")]
    fn push_rejects_overfull_batch() {
        let mut batch = LineBatch64::from_lines(&[Line512::zero(); 64]);
        batch.push(&Line512::zero());
    }

    #[test]
    fn min_remaining_honors_healthy_mask() {
        let mut wear = vec![0u32; DATA_BITS];
        let mut endurance = vec![100u32; DATA_BITS];
        wear[7] = 95; // remaining 5
        endurance[200] = 2; // remaining 2, but masked out below
        let mut healthy = [u64::MAX; 8];
        healthy[3] &= !(1 << 8); // cell 200 unhealthy
        assert_eq!(min_remaining(&wear, &endurance, &healthy), 5);
        assert_eq!(
            min_remaining(&wear, &endurance, &[0u64; 8]),
            u32::MAX,
            "empty healthy set has no constraint"
        );
        assert_eq!(
            scalar::min_remaining(&wear, &endurance, &healthy),
            min_remaining(&wear, &endurance, &healthy)
        );
    }
}
