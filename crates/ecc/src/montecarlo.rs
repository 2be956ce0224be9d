//! Monte-Carlo fault injection (paper Fig. 9).
//!
//! The experiment: inject `k` stuck-at faults uniformly over a 512-bit
//! block (modelling perfect intra-line wear-leveling), then ask whether a
//! compressed payload of `W` bytes can still be stored somewhere in the
//! block — i.e. whether any byte-aligned window of `W` bytes contains a
//! fault subset the hard-error scheme can mask. Repeating 100 000 times per
//! `(scheme, W, k)` point yields the failure probability
//! (`1 − reliability`) curves of Fig. 9.

use crate::scheme::{find_window, HardErrorScheme};
use pcm_util::{child_seed, seeded_rng, Line512, Pool, DATA_BITS};
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Configuration of a Monte-Carlo campaign.
///
/// # Examples
///
/// ```
/// use pcm_ecc::{failure_probability, Ecp, MonteCarlo};
///
/// let mc = MonteCarlo { injections: 2_000, seed: 7, threads: 1 };
/// // Six faults never defeat ECP-6, whatever the window.
/// assert_eq!(failure_probability(&Ecp::new(6), 64, 6, &mc), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonteCarlo {
    /// Number of fault injections per data point (paper: 100 000).
    pub injections: usize,
    /// Seed for reproducible campaigns.
    pub seed: u64,
    /// Worker threads; 0 selects the available parallelism.
    pub threads: usize,
}

impl Default for MonteCarlo {
    fn default() -> Self {
        MonteCarlo {
            injections: 100_000,
            seed: 0x5EED_CA51,
            threads: 0,
        }
    }
}

/// Samples `k` distinct fault positions in `0..512` (partial Fisher–Yates)
/// into the caller-owned `out` buffer, ascending. The positions are set in
/// a line mask and read back in bit order, which sorts them without a
/// comparison sort.
fn sample_positions<R: rand::Rng>(
    rng: &mut R,
    k: usize,
    scratch: &mut [u16; DATA_BITS],
    out: &mut Vec<u16>,
) {
    debug_assert!(k <= DATA_BITS);
    for (i, s) in scratch.iter_mut().enumerate() {
        *s = i as u16;
    }
    for i in 0..k {
        let j = rng.random_range(i..DATA_BITS);
        scratch.swap(i, j);
    }
    let mut mask = Line512::zero();
    for &p in &scratch[..k] {
        mask.set_bit(p as usize, true);
    }
    out.clear();
    out.extend(mask.iter_ones().map(|p| p as u16));
}

/// Estimates the probability that a block with `errors` uniformly-placed
/// faults **cannot** store a `window_bytes`-byte payload under `scheme`.
///
/// This regenerates one point of the paper's Fig. 9.
///
/// # Panics
///
/// Panics if `window_bytes` is outside `1..=64`, `errors > 512`, or
/// `injections == 0`.
pub fn failure_probability(
    scheme: &dyn HardErrorScheme,
    window_bytes: usize,
    errors: usize,
    mc: &MonteCarlo,
) -> f64 {
    failure_probability_on(&Pool::new(mc.threads), scheme, window_bytes, errors, mc)
}

/// [`failure_probability`] on a caller-provided pool; sweeps such as
/// [`failure_surface`] reuse one pool across every `(window, errors)` point
/// so the parallelism is resolved exactly once.
pub(crate) fn failure_probability_on(
    pool: &Pool,
    scheme: &dyn HardErrorScheme,
    window_bytes: usize,
    errors: usize,
    mc: &MonteCarlo,
) -> f64 {
    assert!(errors <= DATA_BITS, "at most 512 faults fit a line");
    assert!(mc.injections > 0, "need at least one injection");

    // Work is split into fixed-size batches of injections seeded by batch
    // index, not by worker id, so the estimate is bit-identical for every
    // thread count (each injection sees the same RNG stream no matter which
    // worker claims its batch, and u64 summation commutes). The shuffle
    // scratch and the position buffer live in per-worker scratch, reused
    // across every batch a worker claims.
    const BATCH: usize = 1_024;
    let batches = mc.injections.div_ceil(BATCH);

    let per_batch: Vec<u64> = pool.map_indexed_with(
        batches,
        1,
        || ([0u16; DATA_BITS], Vec::with_capacity(errors)),
        |(scratch, positions), c| {
            let lo = c * BATCH;
            let hi = (lo + BATCH).min(mc.injections);
            let mut rng = seeded_rng(child_seed(mc.seed, c as u64));
            (lo..hi)
                .filter(|_| {
                    sample_positions(&mut rng, errors, scratch, positions);
                    find_window(scheme, positions, window_bytes).is_none()
                })
                .count() as u64
        },
    );

    per_batch.into_iter().sum::<u64>() as f64 / mc.injections as f64
}

/// A full Fig. 9 sweep for one scheme: failure probability for every
/// `(window, errors)` combination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureSurface {
    /// Scheme name.
    pub scheme: String,
    /// Window sizes swept (bytes).
    pub windows: Vec<usize>,
    /// Error counts swept.
    pub errors: Vec<usize>,
    /// `probabilities[w][e]` for window `windows[w]`, errors `errors[e]`.
    pub probabilities: Vec<Vec<f64>>,
}

/// Sweeps failure probability over windows × error counts (Fig. 9 panel).
pub fn failure_surface(
    scheme: &dyn HardErrorScheme,
    windows: &[usize],
    errors: &[usize],
    mc: &MonteCarlo,
) -> FailureSurface {
    let pool = Pool::new(mc.threads);
    let probabilities = windows
        .iter()
        .map(|&w| {
            errors
                .iter()
                .map(|&e| failure_probability_on(&pool, scheme, w, e, mc))
                .collect()
        })
        .collect();
    FailureSurface {
        scheme: scheme.name().to_string(),
        windows: windows.to_vec(),
        errors: errors.to_vec(),
        probabilities,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aegis, Ecp, Safer};

    fn quick_mc() -> MonteCarlo {
        MonteCarlo {
            injections: 3_000,
            seed: 99,
            threads: 2,
        }
    }

    #[test]
    fn ecp6_full_window_steps_at_seven() {
        let ecp = Ecp::new(6);
        let mc = quick_mc();
        assert_eq!(failure_probability(&ecp, 64, 6, &mc), 0.0);
        assert_eq!(failure_probability(&ecp, 64, 7, &mc), 1.0);
    }

    #[test]
    fn smaller_windows_tolerate_more_errors() {
        let ecp = Ecp::new(6);
        let mc = quick_mc();
        // 12 faults kill a full-line write outright but a sliding 16-byte
        // window almost always dodges them.
        assert_eq!(failure_probability(&ecp, 64, 12, &mc), 1.0);
        assert!(failure_probability(&ecp, 16, 12, &mc) < 0.05);
        // At 100 faults the 16-byte window saturates (≈25 faults per
        // window) while a 1-byte window still finds healthy cells.
        let p16 = failure_probability(&ecp, 16, 100, &mc);
        let p1 = failure_probability(&ecp, 1, 100, &mc);
        assert!(p16 > 0.9, "16B window at 100 faults should fail, got {p16}");
        assert!(
            p1 < 0.05,
            "1B window at 100 faults should survive, got {p1}"
        );
    }

    #[test]
    fn safer_and_aegis_beat_ecp_at_full_window() {
        let mc = quick_mc();
        let at = |s: &dyn HardErrorScheme, e| failure_probability(s, 64, e, &mc);
        let (ecp, safer, aegis) = (Ecp::new(6), Safer::new(32), Aegis::new(17, 31));
        // At 10 errors ECP-6 always fails, partition schemes usually don't.
        assert_eq!(at(&ecp, 10), 1.0);
        assert!(
            at(&safer, 10) < 0.8,
            "SAFER should often separate 10 faults"
        );
        assert!(
            at(&aegis, 10) < 0.6,
            "Aegis should usually separate 10 faults"
        );
    }

    #[test]
    fn monotone_in_errors() {
        let safer = Safer::new(32);
        let mc = MonteCarlo {
            injections: 1_500,
            seed: 5,
            threads: 2,
        };
        let mut last = 0.0;
        for errors in [4usize, 12, 20, 28, 36] {
            let p = failure_probability(&safer, 32, errors, &mc);
            assert!(
                p + 0.05 >= last,
                "failure probability should not drop: {p} after {last}"
            );
            last = p;
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let ecp = Ecp::new(6);
        let mc = MonteCarlo {
            injections: 2_000,
            seed: 123,
            threads: 2,
        };
        let a = failure_probability(&ecp, 24, 10, &mc);
        let b = failure_probability(&ecp, 24, 10, &mc);
        assert_eq!(a, b);
    }

    #[test]
    fn surface_shape() {
        let ecp = Ecp::new(6);
        let mc = MonteCarlo {
            injections: 500,
            seed: 1,
            threads: 1,
        };
        let surf = failure_surface(&ecp, &[16, 64], &[2, 8, 16], &mc);
        assert_eq!(surf.probabilities.len(), 2);
        assert_eq!(surf.probabilities[0].len(), 3);
        assert_eq!(surf.scheme, "ECP-6");
    }

    #[test]
    fn sample_positions_match_sorted_shuffle() {
        // Same RNG stream into the sampler and into a plain Fisher–Yates
        // shuffle + sort: identical ascending positions, call after call.
        let (mut rng, mut twin) = (seeded_rng(8), seeded_rng(8));
        let mut scratch = [0u16; DATA_BITS];
        let mut pos = Vec::new();
        for k in [0usize, 1, 6, 64, 200, 511, 512, 17] {
            sample_positions(&mut rng, k, &mut scratch, &mut pos);
            let mut cells: Vec<u16> = (0..DATA_BITS as u16).collect();
            for i in 0..k {
                let j = twin.random_range(i..DATA_BITS);
                cells.swap(i, j);
            }
            let mut want = cells[..k].to_vec();
            want.sort_unstable();
            assert_eq!(pos, want, "k = {k}");
        }
    }
}
