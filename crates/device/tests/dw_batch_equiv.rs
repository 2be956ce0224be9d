//! Differential rig for the batch differential-write path and the SLC
//! lane-kernel wear model.
//!
//! Two layers are pinned here. The batch entry points
//! (`diff_write_batch`, `flip_n_write_batch`) must match their per-line
//! twins lane for lane on partial batches. Below them, `LineWear`'s SLC
//! write path — whole-line lane kernels plus the death-free slack fast
//! path — must match an *independent* per-bit model reimplemented from
//! the documented semantics, over long write/fast-forward sequences that
//! drive cells through death (the only events where the fast path, the
//! stale-bound recomputation, and the fault materialization interact).
//! The lifetime engine's segment fast-forward (`LineWear::fast_forward`)
//! must match the projection → grants → per-bit `add_wear` sequence it
//! fuses, for SLC and MLC lines alike.

use pcm_device::{
    diff_write, diff_write_batch, flip_n_write_batch, CellTech, EnduranceModel, FlipNWrite,
    LineWear,
};
use pcm_util::simd::{LineBatch64, BATCH_LANES};
use pcm_util::{seeded_rng, Line512, DATA_BITS};
use proptest::prelude::*;
use rand::RngExt;

fn arb_line() -> impl Strategy<Value = Line512> {
    prop::array::uniform8(any::<u64>()).prop_map(Line512::from_words)
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

/// One step of a wear-model interaction: a differential write or an
/// accelerated fast-forward of one cell.
#[derive(Debug, Clone)]
enum Op {
    Write(Line512),
    AddWear(usize, u32),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        arb_line().prop_map(Op::Write),
        (0..DATA_BITS, 0u32..4).prop_map(|(pos, events)| Op::AddWear(pos, events)),
    ];
    prop::collection::vec(op, 1..=60)
}

/// Independent per-bit SLC wear model, written from the documented
/// semantics only: each differing cell takes one programming pulse; a
/// stuck cell absorbs the pulse with no effect; a healthy cell wears by
/// one and either flips or — when its budget is exhausted — sticks at
/// the value it still holds.
struct RefSlc {
    endurance: Vec<u32>,
    wear: Vec<u32>,
    stored: Line512,
    stuck: Vec<Option<bool>>,
}

impl RefSlc {
    fn new(endurance: Vec<u32>) -> Self {
        RefSlc {
            endurance,
            wear: vec![0; DATA_BITS],
            stored: Line512::zero(),
            stuck: vec![None; DATA_BITS],
        }
    }

    /// Returns (flips, flip mask, new faults as (pos, stuck value)).
    fn write(&mut self, target: &Line512) -> (u32, Line512, Vec<(u16, bool)>) {
        let diff = self.stored ^ *target;
        let mut flips = 0u32;
        let mut new_faults = Vec::new();
        for pos in 0..DATA_BITS {
            if !diff.bit(pos) {
                continue;
            }
            flips += 1;
            if self.stuck[pos].is_some() {
                continue;
            }
            self.wear[pos] += 1;
            if self.wear[pos] > self.endurance[pos] {
                let value = self.stored.bit(pos);
                self.stuck[pos] = Some(value);
                new_faults.push((pos as u16, value));
            } else {
                self.stored.flip_bit(pos);
            }
        }
        (flips, diff, new_faults)
    }

    fn add_wear(&mut self, pos: usize, events: u32) {
        if self.stuck[pos].is_some() || events == 0 {
            return;
        }
        self.wear[pos] = self.wear[pos].saturating_add(events);
        if self.wear[pos] > self.endurance[pos] {
            self.stuck[pos] = Some(self.stored.bit(pos));
        }
    }
}

/// Asserts every observable of `line` matches the reference model.
fn assert_state_matches(line: &LineWear, model: &RefSlc) -> Result<(), String> {
    prop_assert_eq!(line.stored(), model.stored);
    for pos in 0..DATA_BITS {
        prop_assert_eq!(line.wear_of(pos), model.wear[pos], "wear at {}", pos);
        let impl_stuck = line.faults().is_faulty(pos);
        prop_assert_eq!(impl_stuck, model.stuck[pos].is_some(), "fault at {}", pos);
        if let Some(value) = model.stuck[pos] {
            // A stuck cell reads back its frozen value through the line.
            prop_assert_eq!(line.stored().bit(pos), value, "stuck value at {}", pos);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every lane of a batch differential write matches the per-line
    /// `diff_write`, including the derived per-lane statistics.
    #[test]
    fn diff_write_batch_matches_per_lane(pair in arb_line_pairs()) {
        let (olds, news) = pair;
        let old = LineBatch64::from_lines(&olds);
        let new = LineBatch64::from_lines(&news);
        let batch = diff_write_batch(&old, &new);
        prop_assert_eq!(batch.len(), olds.len());
        let flips = batch.flips();
        let sets = batch.sets();
        let window = batch.flips_in_window(9, 48);
        for lane in 0..olds.len() {
            let dw = diff_write(&olds[lane], &news[lane]);
            prop_assert_eq!(batch.lane(lane), dw, "lane {}", lane);
            prop_assert_eq!(flips[lane], dw.flips());
            prop_assert_eq!(sets[lane], dw.sets());
            prop_assert_eq!(window[lane], dw.flips_in_window(9, 48));
            prop_assert_eq!(batch.flip_batch().lane(lane), dw.flip_mask());
        }
        for lane in olds.len()..BATCH_LANES {
            prop_assert_eq!(flips[lane], 0);
            prop_assert_eq!(sets[lane], 0);
            prop_assert_eq!(window[lane], 0);
        }
    }

    /// Every lane of a batch Flip-N-Write matches the per-line encoder
    /// run on an identical cloned state, and decodes back to the data.
    #[test]
    fn flip_n_write_batch_matches_per_lane(
        pair in arb_line_pairs(),
        chunk_bits in prop::sample::select(vec![4usize, 8, 16, 32, 64, 128]),
    ) {
        let (stored_lines, data_lines) = pair;
        let stored = LineBatch64::from_lines(&stored_lines);
        let data = LineBatch64::from_lines(&data_lines);
        let mut fnws = vec![FlipNWrite::new(chunk_bits); stored_lines.len()];
        let mut refs = fnws.clone();
        let (out, flips) = flip_n_write_batch(&mut fnws, &stored, &data);
        prop_assert_eq!(out.len(), stored_lines.len());
        for lane in 0..stored_lines.len() {
            let (want_stored, want_flips) =
                refs[lane].write(&stored_lines[lane], &data_lines[lane]);
            prop_assert_eq!(out.lane(lane), want_stored, "lane {}", lane);
            prop_assert_eq!(flips[lane], want_flips, "lane {}", lane);
            prop_assert_eq!(fnws[lane].decode(&out.lane(lane)), data_lines[lane]);
        }
        for lane in stored_lines.len()..BATCH_LANES {
            prop_assert_eq!(flips[lane], 0);
        }
    }

    /// The SLC lane-kernel write path (slack fast path, `wear_step`,
    /// fault materialization, stale-bound recomputation) matches the
    /// independent per-bit model over arbitrary write / fast-forward
    /// sequences on tight-endurance lines, where most sequences kill
    /// cells mid-stream.
    #[test]
    fn slc_write_sequence_matches_per_bit_model(
        endurance in prop::collection::vec(0u32..5, DATA_BITS),
        ops in arb_ops(),
    ) {
        let mut line = LineWear::with_endurance(endurance.clone());
        let mut model = RefSlc::new(endurance);
        for op in &ops {
            match op {
                Op::Write(target) => {
                    let outcome = line.write(target);
                    let (flips, flip_mask, new_faults) = model.write(target);
                    prop_assert_eq!(outcome.flips, flips);
                    prop_assert_eq!(outcome.flip_mask, flip_mask);
                    let got_faults: Vec<(u16, bool)> = outcome
                        .new_faults
                        .iter()
                        .map(|f| (f.pos, f.value))
                        .collect();
                    prop_assert_eq!(got_faults, new_faults);
                }
                Op::AddWear(pos, events) => {
                    let fault = line.add_wear(*pos, *events);
                    let was_stuck = model.stuck[*pos].is_some();
                    model.add_wear(*pos, *events);
                    prop_assert_eq!(
                        fault.is_some(),
                        !was_stuck && model.stuck[*pos].is_some()
                    );
                }
            }
        }
        assert_state_matches(&line, &model)?;
    }

    /// `fast_forward` equals the sequence it fuses: the closed-form first
    /// projected failure over the touched, healthy cells, then grants of
    /// `round(c * extra / done)` applied by ascending per-bit `add_wear`.
    /// It covers both cell technologies on lines whose cells sit 0–2
    /// events from death, with stuck cells inside `touched`, and `done`
    /// both inside the grant memo table (1..=64) and past it. Follow-up
    /// writes check the recomputed slack bound: a bound set too high
    /// would let a write skip a death that the reference reports.
    #[test]
    fn fast_forward_matches_projection_then_add_wear(
        mlc in any::<bool>(),
        seed in any::<u64>(),
        prior_writes in prop::collection::vec(arb_line(), 0..4),
        prior_wear in prop::collection::vec((0..DATA_BITS, 0u32..4), 0..64),
        touched in arb_line(),
        done in prop_oneof![1u64..=64, Just(100u64)],
        extra in 1u64..300,
    ) {
        let tech = if mlc { CellTech::Mlc2 } else { CellTech::Slc };
        let mut rng = seeded_rng(seed);
        let mut line = LineWear::sample_with_tech(&EnduranceModel::new(5.0, 0.4), tech, &mut rng);
        for target in &prior_writes {
            line.write(target);
        }
        for &(pos, events) in &prior_wear {
            let _ = line.add_wear(pos, events);
        }
        let mut counts = [0u32; DATA_BITS];
        for pos in touched.iter_ones() {
            counts[pos] = rng.random_range(1..=done as u32);
        }

        // Reference: cell `pos` survives `remaining` more events and dies
        // on the next, so at `c` events per `done` writes its first fatal
        // write is ceil((remaining + 1) * done / c); the span is capped at
        // the minimum over touched, healthy bits.
        let cap = touched
            .iter_ones()
            .filter(|&pos| !line.faults().is_faulty(pos))
            .map(|pos| {
                (line.remaining(pos) as u64 + 1)
                    .saturating_mul(done)
                    .div_ceil(counts[pos] as u64)
            })
            .min()
            .map_or(extra, |first_fatal| extra.min(first_fatal));
        let mut want = line.clone();
        for pos in touched.iter_ones() {
            let grant = ((counts[pos] as u64 * cap) as f64 / done as f64).round() as u32;
            if grant > 0 {
                let _ = want.add_wear(pos, grant);
            }
        }

        prop_assert_eq!(line.fast_forward(&counts, &touched, done, extra), cap);
        // `PartialEq` covers tech, endurance, wear, stored, and faults
        // (the slack cache is deliberately excluded).
        prop_assert_eq!(&line, &want);
        for target in [Line512::ones(), Line512::zero(), Line512::ones()] {
            prop_assert_eq!(line.write(&target), want.write(&target));
        }
        prop_assert_eq!(&line, &want);
    }
}

/// Zero-endurance adversarial case: the very first all-ones write kills
/// every cell, each stuck at the reset value it never left.
#[test]
fn zero_endurance_line_dies_whole() {
    let mut line = LineWear::with_endurance(vec![0; DATA_BITS]);
    let outcome = line.write(&Line512::ones());
    assert_eq!(outcome.flips, 512);
    assert_eq!(outcome.new_faults.len(), DATA_BITS);
    assert!(outcome.new_faults.iter().all(|f| !f.value));
    assert_eq!(line.stored(), Line512::zero());
    // A dead line absorbs further writes without effect or new faults.
    let again = line.write(&Line512::ones());
    assert_eq!(again.flips, 512);
    assert!(again.new_faults.is_empty());
    assert_eq!(line.stored(), Line512::zero());
}

/// The slack fast path never defers a death: with uniform endurance E,
/// alternating all-ones/all-zeros writes must kill every cell on exactly
/// write E + 1, not a write later.
#[test]
fn death_lands_on_exact_write() {
    const E: u32 = 9;
    let mut line = LineWear::with_endurance(vec![E; DATA_BITS]);
    let targets = [Line512::ones(), Line512::zero()];
    for w in 0..E {
        let outcome = line.write(&targets[(w % 2) as usize]);
        assert!(outcome.new_faults.is_empty(), "early death at write {w}");
    }
    let outcome = line.write(&targets[(E % 2) as usize]);
    assert_eq!(
        outcome.new_faults.len(),
        DATA_BITS,
        "death must land on write E + 1"
    );
}
