//! Equivalence suite for the table-driven Aegis partition search, the
//! bit-plane SAFER set-up and the Monte-Carlo injection loop.
//!
//! * `Aegis::find_partition` looks every fault's group up in a per-partition
//!   table; the reference is the division-based pairwise first-match scan
//!   over partitions `0..=t`. The two must pick the same partition.
//! * Group masks are read back through the public decoders: reading an
//!   all-zero line under a code that inverts only group `g` yields exactly
//!   group `g`'s mask, which must match the definitional grouping
//!   (`(x + k·y) mod u` for Aegis, software PEXT for SAFER).
//! * `failure_probability` must equal a plain loop that samples positions
//!   with a Fisher–Yates shuffle, sorts them and calls `find_window` once
//!   per injection, on one and on two workers.

use pcm_ecc::aegis::AegisCode;
use pcm_ecc::safer::SaferCode;
use pcm_ecc::{failure_probability, find_window, Aegis, Ecp, HardErrorScheme, MonteCarlo, Safer};
use pcm_util::{child_seed, seeded_rng, Line512, DATA_BITS};
use rand::seq::SliceRandom;
use rand::RngExt;

/// Grids under test: the paper's 17×31, a grid whose slope groups exceed
/// one 64-bit word (2×257), and a square grid (`t = u`).
const GRIDS: [(u32, u32); 3] = [(17, 31), (2, 257), (23, 23)];

fn ref_group(t: u32, u: u32, pos: u16, k: u32) -> u32 {
    let (x, y) = (pos as u32 % u, pos as u32 / u);
    if k < t {
        (x + k * y) % u
    } else {
        y
    }
}

/// The definitional search: partitions in order, pairwise group
/// comparison by division, first partition with no collision.
fn ref_find_partition(t: u32, u: u32, fault_positions: &[u16]) -> Option<u32> {
    if fault_positions.len() as u32 > u {
        return None;
    }
    'part: for k in 0..=t {
        for (i, &pos) in fault_positions.iter().enumerate() {
            let g = ref_group(t, u, pos, k);
            for &prior in &fault_positions[..i] {
                if ref_group(t, u, prior, k) == g {
                    continue 'part;
                }
            }
        }
        return Some(k);
    }
    None
}

/// `n` distinct positions: uniform over the line, or packed into a
/// 128-cell stretch (clustered faults collide in many partitions).
fn fault_set(rng: &mut impl rand::Rng, n: usize, clustered: bool) -> Vec<u16> {
    let span = if clustered && n <= 128 {
        128
    } else {
        DATA_BITS
    };
    let base = rng.random_range(0..=DATA_BITS - span);
    let mut cells: Vec<u16> = (base..base + span).map(|p| p as u16).collect();
    cells.shuffle(rng);
    cells.truncate(n);
    cells
}

#[test]
fn aegis_table_search_matches_division_scan() {
    let mut rng = seeded_rng(0xAE615);
    for (t, u) in GRIDS {
        let aegis = Aegis::new(t, u);
        for n in 0..=(u as usize + 1).min(DATA_BITS) {
            for trial in 0..24 {
                let faults = fault_set(&mut rng, n, trial % 2 == 1);
                assert_eq!(
                    aegis.find_partition(&faults),
                    ref_find_partition(t, u, &faults),
                    "grid {t}x{u}, faults {faults:?}"
                );
            }
        }
        // Duplicated positions collide under every partition.
        assert_eq!(aegis.find_partition(&[5, 9, 5]), None);
        assert_eq!(aegis.find_partition(&[]), Some(0));
    }
}

#[test]
fn aegis_group_masks_match_division_grouping() {
    for (t, u) in GRIDS {
        let aegis = Aegis::new(t, u);
        for k in 0..=t {
            for g in 0..u {
                let mut inversions = vec![false; u as usize];
                inversions[g as usize] = true;
                let code = AegisCode {
                    partition: k,
                    inversions,
                };
                let got = aegis.read(&Line512::zero(), &code);
                let want = Line512::from_fn(|pos| ref_group(t, u, pos as u16, k) == g);
                assert_eq!(got, want, "grid {t}x{u}, partition {k}, group {g}");
            }
        }
    }
}

fn extract_group(pos: u16, mask: u16) -> usize {
    let mut out = 0usize;
    let mut out_bit = 0;
    for b in 0..9 {
        if mask >> b & 1 == 1 {
            out |= (((pos >> b) & 1) as usize) << out_bit;
            out_bit += 1;
        }
    }
    out
}

#[test]
fn safer_group_masks_match_extract_group() {
    for k in 1..=8u32 {
        let groups = 1u32 << k;
        let safer = Safer::new(groups);
        for mask in (0u16..512).filter(|m| m.count_ones() == k) {
            for g in 0..groups as usize {
                let mut inversions = vec![false; groups as usize];
                inversions[g] = true;
                let code = SaferCode {
                    subset_mask: mask,
                    inversions,
                };
                let got = safer.read(&Line512::zero(), &code);
                let want = Line512::from_fn(|pos| extract_group(pos as u16, mask) == g);
                assert_eq!(got, want, "SAFER-{groups}, subset {mask:#011b}, group {g}");
            }
        }
    }
}

/// Monte-Carlo reference: injections run in batches of 1 024, batch `c`
/// drawing from `seeded_rng(child_seed(seed, c))`; each injection shuffles
/// a fresh identity permutation, sorts the first `errors` cells and asks
/// `find_window` for a feasible window.
fn ref_failure_probability(
    scheme: &dyn HardErrorScheme,
    window_bytes: usize,
    errors: usize,
    mc: &MonteCarlo,
) -> f64 {
    const BATCH: usize = 1_024;
    let mut fail = 0u64;
    for c in 0..mc.injections.div_ceil(BATCH) {
        let mut rng = seeded_rng(child_seed(mc.seed, c as u64));
        for _ in c * BATCH..((c + 1) * BATCH).min(mc.injections) {
            let mut cells: Vec<u16> = (0..DATA_BITS as u16).collect();
            for i in 0..errors {
                let j = rng.random_range(i..DATA_BITS);
                cells.swap(i, j);
            }
            let mut faults = cells[..errors].to_vec();
            faults.sort_unstable();
            if find_window(scheme, &faults, window_bytes).is_none() {
                fail += 1;
            }
        }
    }
    fail as f64 / mc.injections as f64
}

#[test]
fn failure_probability_matches_reference_loop() {
    let schemes: [&dyn HardErrorScheme; 3] = [&Ecp::new(6), &Safer::new(32), &Aegis::new(17, 31)];
    // Points on both sides of each scheme's transition, and a partial
    // last batch (2 500 = 2 × 1 024 + 452).
    let points = [(8usize, 32usize), (32, 48), (64, 16), (32, 0)];
    for scheme in schemes {
        for &(w, e) in &points {
            for threads in [1, 2] {
                let mc = MonteCarlo {
                    injections: 2_500,
                    seed: 0xF169,
                    threads,
                };
                assert_eq!(
                    failure_probability(scheme, w, e, &mc),
                    ref_failure_probability(scheme, w, e, &mc),
                    "{} w{w} e{e} on {threads} workers",
                    scheme.name()
                );
            }
        }
    }
}
