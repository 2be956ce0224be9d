//! Differential rig for the struct-of-arrays batch kernels.
//!
//! Every kernel in `pcm_util::simd` exists in (up to) three forms: the
//! public dispatch wrapper (scalar by default, vector under the `simd`
//! cargo feature when the CPU supports it), the scalar reference in
//! `simd::scalar`, and — here — a deliberately naive per-bit / per-lane
//! re-derivation built only on `Line512::bit` accessors. Each property
//! asserts all three agree bit-for-bit on arbitrary lines, partial
//! batches (1..=64 live lanes), and adversarial patterns. Running the
//! suite twice (default build and `--features simd`) is what turns the
//! dispatch-vs-scalar assertions into a real vector-vs-scalar diff.

use pcm_util::simd::{self, LineBatch64, BATCH_LANES};
use pcm_util::{Line512, DATA_BITS, DATA_BYTES};
use proptest::prelude::*;

fn arb_line() -> impl Strategy<Value = Line512> {
    prop::array::uniform8(any::<u64>()).prop_map(Line512::from_words)
}

/// A partial batch worth of lines: 1..=64 of them.
fn arb_lines() -> impl Strategy<Value = Vec<Line512>> {
    prop::collection::vec(arb_line(), 1..=BATCH_LANES)
}

/// Two equally long line vectors (lane-paired batches).
fn arb_line_pairs() -> impl Strategy<Value = (Vec<Line512>, Vec<Line512>)> {
    (1..=BATCH_LANES).prop_flat_map(|n| {
        (
            prop::collection::vec(arb_line(), n),
            prop::collection::vec(arb_line(), n),
        )
    })
}

/// A byte window `[offset, offset + len)` that stays inside the line.
fn arb_byte_window() -> impl Strategy<Value = (usize, usize)> {
    (0..=DATA_BYTES).prop_flat_map(|off| (Just(off), 0..=DATA_BYTES - off))
}

fn ref_popcount(line: &Line512) -> u32 {
    (0..DATA_BITS).filter(|&i| line.bit(i)).count() as u32
}

fn ref_window_popcount(line: &Line512, offset: usize, len: usize) -> u32 {
    (offset * 8..(offset + len) * 8)
        .filter(|&i| line.bit(i))
        .count() as u32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Batch transpose round-trips: every live lane reads back exactly,
    /// the live mask is the expected prefix, dead lanes stay zero planes.
    #[test]
    fn batch_transpose_round_trips(lines in arb_lines()) {
        let batch = LineBatch64::from_lines(&lines);
        prop_assert_eq!(batch.len(), lines.len());
        let want_live = if lines.len() == BATCH_LANES {
            u64::MAX
        } else {
            (1u64 << lines.len()) - 1
        };
        prop_assert_eq!(batch.live_mask(), want_live);
        for (lane, line) in lines.iter().enumerate() {
            prop_assert_eq!(batch.lane(lane), *line);
        }
        prop_assert_eq!(batch.to_lines(), lines.clone());
        for w in 0..8 {
            for lane in lines.len()..BATCH_LANES {
                prop_assert_eq!(batch.plane(w)[lane], 0, "dead lane {} not zeroed", lane);
            }
        }
    }

    /// Dispatch, scalar fallback, and the per-bit reference agree on
    /// per-lane popcounts; dead lanes report zero.
    #[test]
    fn batch_popcount_equiv(lines in arb_lines()) {
        let batch = LineBatch64::from_lines(&lines);
        let got = simd::batch_popcount(&batch);
        prop_assert_eq!(got, simd::scalar::batch_popcount(&batch));
        for (lane, line) in lines.iter().enumerate() {
            prop_assert_eq!(got[lane], ref_popcount(line), "lane {}", lane);
            prop_assert_eq!(got[lane], line.count_ones());
        }
        for lane in lines.len()..BATCH_LANES {
            prop_assert_eq!(got[lane], 0);
        }
    }

    /// Per-lane Hamming distance equals a per-bit XOR count in every lane.
    #[test]
    fn batch_hamming_equiv(pair in arb_line_pairs()) {
        let (xs, ys) = pair;
        let a = LineBatch64::from_lines(&xs);
        let b = LineBatch64::from_lines(&ys);
        let got = simd::batch_hamming(&a, &b);
        prop_assert_eq!(got, simd::scalar::batch_hamming(&a, &b));
        for lane in 0..xs.len() {
            let want = ref_popcount(&(xs[lane] ^ ys[lane]));
            prop_assert_eq!(got[lane], want, "lane {}", lane);
        }
        for lane in xs.len()..BATCH_LANES {
            prop_assert_eq!(got[lane], 0);
        }
    }

    /// Byte-window popcounts equal the per-bit scan of the window in
    /// every lane, for every legal `(offset, len)` including empty.
    #[test]
    fn batch_window_popcount_equiv(lines in arb_lines(), window in arb_byte_window()) {
        let (off, len) = window;
        let batch = LineBatch64::from_lines(&lines);
        let got = simd::batch_window_popcount(&batch, off, len);
        let mask = Line512::byte_window_mask(off, len);
        prop_assert_eq!(got, simd::scalar::batch_masked_popcount(&batch, &mask.words()));
        for (lane, line) in lines.iter().enumerate() {
            prop_assert_eq!(got[lane], ref_window_popcount(line, off, len), "lane {}", lane);
        }
    }

    /// Lane-wise XOR/AND match the per-line operators lane by lane and
    /// preserve the live mask.
    #[test]
    fn batch_xor_and_equiv(pair in arb_line_pairs()) {
        let (xs, ys) = pair;
        let a = LineBatch64::from_lines(&xs);
        let b = LineBatch64::from_lines(&ys);
        let x = simd::batch_xor(&a, &b);
        let n = simd::batch_and(&a, &b);
        prop_assert_eq!(x.live_mask(), a.live_mask());
        prop_assert_eq!(n.live_mask(), a.live_mask());
        for lane in 0..xs.len() {
            prop_assert_eq!(x.lane(lane), xs[lane] ^ ys[lane]);
            prop_assert_eq!(n.lane(lane), xs[lane] & ys[lane]);
        }
    }

    /// `popcount512` (never dispatched) equals the per-bit count and the
    /// scalar body.
    #[test]
    fn popcount512_equiv(line in arb_line()) {
        let got = simd::popcount512(&line.words());
        prop_assert_eq!(got, simd::scalar::popcount512(&line.words()));
        prop_assert_eq!(got, ref_popcount(&line));
    }

    /// `mask_accumulate` bumps exactly the counters under the mask's set
    /// bits, by exactly one.
    #[test]
    fn mask_accumulate_equiv(
        mask in arb_line(),
        base in prop::collection::vec(0u32..1000, DATA_BITS),
    ) {
        let mut got = base.clone();
        simd::mask_accumulate(&mut got, &mask.words());
        let mut scalar = base.clone();
        simd::scalar::mask_accumulate(&mut scalar, &mask.words());
        prop_assert_eq!(&got, &scalar);
        for pos in 0..DATA_BITS {
            let want = base[pos] + u32::from(mask.bit(pos));
            prop_assert_eq!(got[pos], want, "pos {}", pos);
        }
    }

    /// `wear_step` increments exactly the programmed lanes and reports
    /// exactly the lanes whose new wear exceeds endurance.
    #[test]
    fn wear_step_equiv(
        program in arb_line(),
        endurance in prop::collection::vec(0u32..4, DATA_BITS),
        wear0 in prop::collection::vec(0u32..4, DATA_BITS),
    ) {
        // Keep the precondition of the wear model: live cells never start
        // past their endurance.
        let base: Vec<u32> = wear0
            .iter()
            .zip(&endurance)
            .map(|(&w, &e)| w.min(e))
            .collect();
        let mut got_wear = base.clone();
        let got_died = simd::wear_step(&mut got_wear, &endurance, &program.words());
        let mut scalar_wear = base.clone();
        let scalar_died =
            simd::scalar::wear_step(&mut scalar_wear, &endurance, &program.words());
        prop_assert_eq!(&got_wear, &scalar_wear);
        prop_assert_eq!(got_died, scalar_died);
        let died = Line512::from_words(got_died);
        for pos in 0..DATA_BITS {
            let want_wear = base[pos] + u32::from(program.bit(pos));
            prop_assert_eq!(got_wear[pos], want_wear, "wear at {}", pos);
            let want_dead = program.bit(pos) && want_wear > endurance[pos];
            prop_assert_eq!(died.bit(pos), want_dead, "death at {}", pos);
        }
    }

    /// Per-chunk popcounts agree with a per-bit scan of each chunk for
    /// every legal chunk width.
    #[test]
    fn chunk_popcounts_equiv(
        line in arb_line(),
        chunk_bits in prop::sample::select(vec![2usize, 4, 8, 16, 32, 64, 128, 256, 512]),
    ) {
        let chunks = DATA_BITS / chunk_bits;
        let mut got = vec![0u32; chunks];
        simd::chunk_popcounts(&line.words(), chunk_bits, &mut got);
        let mut scalar = vec![0u32; chunks];
        simd::scalar::chunk_popcounts(&line.words(), chunk_bits, &mut scalar);
        prop_assert_eq!(&got, &scalar);
        for c in 0..chunks {
            let want = (c * chunk_bits..(c + 1) * chunk_bits)
                .filter(|&i| line.bit(i))
                .count() as u32;
            prop_assert_eq!(got[c], want, "chunk {}", c);
        }
    }

    /// `min_remaining` equals a per-bit scan of `endurance - wear` over
    /// the healthy mask.
    #[test]
    fn min_remaining_equiv(
        healthy in arb_line(),
        endurance in prop::collection::vec(0u32..50, DATA_BITS),
        wear0 in prop::collection::vec(0u32..50, DATA_BITS),
    ) {
        let wear: Vec<u32> = wear0
            .iter()
            .zip(&endurance)
            .map(|(&w, &e)| w.min(e))
            .collect();
        let got = simd::min_remaining(&wear, &endurance, &healthy.words());
        prop_assert_eq!(
            got,
            simd::scalar::min_remaining(&wear, &endurance, &healthy.words())
        );
        let want = (0..DATA_BITS)
            .filter(|&p| healthy.bit(p))
            .map(|p| endurance[p] - wear[p])
            .min()
            .unwrap_or(u32::MAX);
        prop_assert_eq!(got, want);
    }
}

/// Batches of single-bit lines covering all 512 positions: each lane must
/// report exactly one set bit, in the right window.
#[test]
fn single_bit_lines_adversarial() {
    for chunk in (0..DATA_BITS).collect::<Vec<_>>().chunks(BATCH_LANES) {
        let lines: Vec<Line512> = chunk
            .iter()
            .map(|&pos| Line512::from_fn(|i| i == pos))
            .collect();
        let batch = LineBatch64::from_lines(&lines);
        let counts = simd::batch_popcount(&batch);
        let zero = LineBatch64::from_lines(&vec![Line512::zero(); lines.len()]);
        let dists = simd::batch_hamming(&batch, &zero);
        for (lane, &pos) in chunk.iter().enumerate() {
            assert_eq!(counts[lane], 1, "pos {pos}");
            assert_eq!(dists[lane], 1, "pos {pos}");
            // The window holding the bit sees it; the complement window
            // does not.
            let byte = pos / 8;
            assert_eq!(simd::batch_window_popcount(&batch, byte, 1)[lane], 1);
            assert_eq!(
                simd::batch_window_popcount(&batch, 0, byte)[lane]
                    + simd::batch_window_popcount(&batch, byte + 1, DATA_BYTES - byte - 1)[lane],
                0,
                "bit {pos} leaked outside byte {byte}"
            );
        }
    }
}

/// All-ones and alternating patterns through every batch kernel.
#[test]
fn saturated_patterns_adversarial() {
    let ones = vec![Line512::ones(); BATCH_LANES];
    let alt = vec![Line512::from_words([0xAAAA_AAAA_AAAA_AAAA; 8]); BATCH_LANES];
    let b_ones = LineBatch64::from_lines(&ones);
    let b_alt = LineBatch64::from_lines(&alt);
    assert_eq!(b_ones.live_mask(), u64::MAX);
    assert_eq!(simd::batch_popcount(&b_ones), [512u32; BATCH_LANES]);
    assert_eq!(simd::batch_popcount(&b_alt), [256u32; BATCH_LANES]);
    assert_eq!(simd::batch_hamming(&b_ones, &b_alt), [256u32; BATCH_LANES]);
    assert_eq!(
        simd::batch_window_popcount(&b_ones, 9, 48),
        [48 * 8u32; BATCH_LANES]
    );
    assert_eq!(
        simd::batch_xor(&b_ones, &b_alt).lane(7),
        Line512::from_words([0x5555_5555_5555_5555; 8])
    );
    assert_eq!(simd::batch_and(&b_ones, &b_alt).lane(7), alt[7]);
}

/// Kernels on an empty batch report all-zero without touching dead lanes.
#[test]
fn empty_batch_reports_zero() {
    let empty = LineBatch64::new();
    assert!(empty.is_empty());
    assert_eq!(empty.live_mask(), 0);
    assert_eq!(simd::batch_popcount(&empty), [0u32; BATCH_LANES]);
    assert_eq!(
        simd::batch_window_popcount(&empty, 0, DATA_BYTES),
        [0u32; BATCH_LANES]
    );
    assert_eq!(empty.to_lines(), Vec::<Line512>::new());
}

/// An empty healthy mask yields `u32::MAX` (no cell constrains the bound).
#[test]
fn min_remaining_empty_healthy() {
    let wear = vec![7u32; DATA_BITS];
    let endurance = vec![9u32; DATA_BITS];
    assert_eq!(
        simd::min_remaining(&wear, &endurance, &Line512::zero().words()),
        u32::MAX
    );
    assert_eq!(
        simd::min_remaining(&wear, &endurance, &Line512::ones().words()),
        2
    );
}

/// The dispatch layer reports whether the vector path is live; either
/// way, dispatch output already matched `scalar` in every property above.
/// This pins the *claim*: without the cargo feature the accelerated path
/// must be reported off.
#[test]
fn accel_claim_is_consistent() {
    if cfg!(not(feature = "simd")) {
        assert!(!simd::accel_active());
    }
}
