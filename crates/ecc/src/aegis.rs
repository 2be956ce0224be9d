//! Aegis: grid-based partitioning for stuck-at fault recovery
//! (Fan et al., MICRO 2013).
//!
//! Aegis maps the 512 cell positions onto a `t × u` grid (17×31 for 64-byte
//! lines: position `p` sits at column `x = p mod u`, row `y = p div u`) and
//! partitions the cells along *lines* of the grid: for slope
//! `s ∈ {0, …, t-1}` the group of `p` is `(x + s·y) mod u`, and one extra
//! "horizontal" partition groups by row. Because `u` is prime, any two
//! distinct cells collide in **at most one** slope partition — so `t + 1`
//! partitions separate many more faults than SAFER manages with far more
//! stored subsets, using only a `⌈log2(t+1)⌉`-bit partition id plus `u`
//! inversion bits.
//!
//! Like SAFER, each group carries an inversion bit that makes its (single)
//! stuck cell agree with the data.
//!
//! The constructor tabulates the group of every position under every
//! partition, so the partition search and the write path look groups up
//! instead of dividing by `u` per fault.

use crate::scheme::{EccError, HardErrorScheme};
use pcm_util::fault::FaultMap;
use pcm_util::{Line512, DATA_BITS};
use serde::{Deserialize, Serialize};

/// The Aegis scheme over a `t × u` grid (`u` prime, `t * u >= 512`).
///
/// # Examples
///
/// ```
/// use pcm_ecc::{Aegis, HardErrorScheme};
///
/// let aegis = Aegis::new(17, 31);
/// assert_eq!(aegis.name(), "Aegis 17x31");
/// assert!(aegis.can_store(&[0, 1, 2, 3, 4, 5]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Aegis {
    t: u32,
    u: u32,
    /// Per partition: the group of every line position. Group indices stay
    /// below 512 for every legal grid (a slope group is below `u`, or equals
    /// the position when `u > 512`; a row is below `512 / u`).
    groups: Vec<[u16; DATA_BITS]>,
    /// Per partition, per group: mask of line positions in that group.
    group_masks: Vec<Vec<Line512>>,
}

/// The per-line Aegis state: the chosen partition and per-group inversions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AegisCode {
    /// Partition id: `0..t` are slopes, `t` is the horizontal partition.
    pub partition: u32,
    /// Inversion flag per group (length `u` for slopes, `t` for horizontal;
    /// always allocated at `u` ≥ `t`).
    pub inversions: Vec<bool>,
}

fn is_prime(n: u32) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= n {
        if n % d == 0 {
            return false;
        }
        d += 1;
    }
    true
}

impl Aegis {
    /// Creates an Aegis scheme over a `t × u` grid.
    ///
    /// # Panics
    ///
    /// Panics unless `u` is prime, `t <= u`, and the grid covers 512 cells.
    pub fn new(t: u32, u: u32) -> Self {
        assert!(is_prime(u), "u must be prime, got {u}");
        assert!(t >= 2 && t <= u, "need 2 <= t <= u, got t={t} u={u}");
        assert!(
            t * u >= DATA_BITS as u32,
            "grid {t}x{u} too small for 512 cells"
        );
        let mut aegis = Aegis {
            t,
            u,
            groups: Vec::new(),
            group_masks: Vec::new(),
        };
        aegis.groups = (0..=t)
            .map(|k| std::array::from_fn(|pos| aegis.group(pos as u16, k) as u16))
            .collect();
        aegis.group_masks = aegis
            .groups
            .iter()
            .map(|table| {
                let mut per_group = vec![Line512::zero(); u as usize];
                for (pos, &g) in table.iter().enumerate() {
                    per_group[g as usize].set_bit(pos, true);
                }
                per_group
            })
            .collect();
        aegis
    }

    /// The 17×31 configuration evaluated in the paper.
    pub fn aegis_17x31() -> Self {
        Aegis::new(17, 31)
    }

    /// Grid coordinates of a cell position.
    fn coords(&self, pos: u16) -> (u32, u32) {
        let p = pos as u32;
        (p % self.u, p / self.u)
    }

    /// Group index of `pos` under partition `k` (`k == t` is horizontal),
    /// computed by division; [`new`](Self::new) tabulates it into `groups`.
    fn group(&self, pos: u16, k: u32) -> usize {
        let (x, y) = self.coords(pos);
        if k < self.t {
            ((x + k * y) % self.u) as usize
        } else {
            y as usize
        }
    }

    /// Number of partitions (`t` slopes + horizontal).
    pub fn partitions(&self) -> u32 {
        self.t + 1
    }

    /// Finds a partition that puts every fault in its own group.
    pub fn find_partition(&self, fault_positions: &[u16]) -> Option<u32> {
        if fault_positions.len() as u32 > self.u {
            return None;
        }
        // One table lookup per fault against a "group already taken"
        // bitmap; the first collision moves on to the next partition.
        'part: for (k, table) in self.groups.iter().enumerate() {
            let mut seen = [0u64; 8];
            for &pos in fault_positions {
                let g = table[pos as usize] as usize;
                let bit = 1u64 << (g % 64);
                if seen[g / 64] & bit != 0 {
                    continue 'part;
                }
                seen[g / 64] |= bit;
            }
            return Some(k as u32);
        }
        None
    }

    /// The position-only half of [`write`](Self::write): the partition
    /// that isolates every fault in `faults` ([`find_partition`] over
    /// their positions); see [`Safer::plan`](crate::Safer::plan).
    ///
    /// [`find_partition`]: Self::find_partition
    pub fn plan(&self, faults: &FaultMap) -> Option<u32> {
        let mut buf = [0u16; DATA_BITS];
        self.find_partition(faults.positions_into(&mut buf))
    }

    /// The data-dependent half of [`write`](Self::write): stores `data`
    /// under `plan`, falling back to a partition whose same-group faults
    /// agree for this data; see [`Safer::apply`](crate::Safer::apply).
    ///
    /// # Errors
    ///
    /// Returns [`EccError::TooManyFaults`] when no partition works for this
    /// data.
    ///
    /// # Panics
    ///
    /// Panics if `plan` names a partition that does not isolate every
    /// fault in `faults`.
    pub fn apply(
        &self,
        plan: Option<u32>,
        data: &Line512,
        faults: &FaultMap,
    ) -> Result<(Line512, AegisCode), EccError> {
        let chosen =
            plan.or_else(|| (0..=self.t).find(|&k| self.inversions_for(k, data, faults).is_some()));
        let Some(k) = chosen else {
            return Err(EccError::TooManyFaults {
                scheme: self.name(),
                faults: faults.count(),
            });
        };
        let inversions = self
            .inversions_for(k, data, faults)
            .expect("partition was validated");
        let stored = faults.apply(self.transform(data, k, &inversions));
        Ok((
            stored,
            AegisCode {
                partition: k,
                inversions,
            },
        ))
    }

    /// Stores `data` into a line with the given faults: [`plan`](Self::plan)
    /// then [`apply`](Self::apply), with the semantics of
    /// [`Safer::write`](crate::Safer::write) (deterministic partition
    /// first, data-dependent agreement as a fallback).
    ///
    /// # Errors
    ///
    /// Returns [`EccError::TooManyFaults`] when no partition works for this
    /// data.
    pub fn write(
        &self,
        data: &Line512,
        faults: &FaultMap,
    ) -> Result<(Line512, AegisCode), EccError> {
        self.apply(self.plan(faults), data, faults)
    }

    /// Reconstructs the original data from a physical line and its code.
    pub fn read(&self, stored: &Line512, code: &AegisCode) -> Line512 {
        self.transform(stored, code.partition, &code.inversions)
    }

    fn transform(&self, line: &Line512, k: u32, inversions: &[bool]) -> Line512 {
        let mut out = *line;
        for (g, &inv) in inversions.iter().enumerate() {
            if inv {
                out = out ^ self.group_masks[k as usize][g];
            }
        }
        out
    }

    fn inversions_for(&self, k: u32, data: &Line512, faults: &FaultMap) -> Option<Vec<bool>> {
        // pcm-audit: allow(hotpath-alloc) — the inversion vector is the stored per-line code word, not scratch; it escapes into AegisCode
        let mut inversions = vec![false; self.u as usize];
        // Dense "group already constrained" bitmap: group indices are
        // bounded by the 512 cell positions, so 8 words always suffice.
        let table = &self.groups[k as usize];
        let mut fixed = [0u64; 8];
        for f in faults.iter() {
            let g = table[f.pos as usize] as usize;
            let needed = data.bit(f.pos as usize) != f.value;
            if fixed[g / 64] >> (g % 64) & 1 == 1 && inversions[g] != needed {
                return None;
            }
            inversions[g] = needed;
            fixed[g / 64] |= 1 << (g % 64);
        }
        Some(inversions)
    }
}

impl HardErrorScheme for Aegis {
    fn name(&self) -> &'static str {
        if self.t == 17 && self.u == 31 {
            "Aegis 17x31"
        } else {
            "Aegis"
        }
    }

    fn guaranteed(&self) -> u32 {
        // Any pair of faults invalidates at most ONE partition: a same-row
        // pair collides only in the horizontal partition, a different-row
        // pair collides in exactly one slope k* ∈ Z_u (u prime) — and only
        // if k* < t. So f faults invalidate at most f(f-1)/2 of the t+1
        // partitions, and are always separable while f(f-1)/2 < t + 1.
        let parts = self.partitions();
        let mut f = 1;
        while f * (f + 1) / 2 < parts {
            f += 1;
        }
        f
    }

    fn metadata_bits(&self) -> u32 {
        let selector = 32 - self.partitions().leading_zeros();
        self.u + selector
    }

    fn can_store(&self, fault_positions: &[u16]) -> bool {
        self.find_partition(fault_positions).is_some()
    }
}

impl std::fmt::Display for Aegis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Aegis {}x{}", self.t, self.u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_util::fault::StuckAt;
    use pcm_util::seeded_rng;
    use rand::seq::SliceRandom;

    #[test]
    fn pairwise_collision_at_most_one_slope() {
        let aegis = Aegis::aegis_17x31();
        let mut rng = seeded_rng(41);
        let mut all: Vec<u16> = (0..512).collect();
        for _ in 0..100 {
            all.shuffle(&mut rng);
            let (p, q) = (all[0], all[1]);
            let collisions = (0..aegis.t)
                .filter(|&k| aegis.group(p, k) == aegis.group(q, k))
                .count();
            assert!(
                collisions <= 1,
                "positions {p},{q} collide in {collisions} slopes"
            );
        }
    }

    #[test]
    fn guaranteed_matches_partition_count() {
        let aegis = Aegis::aegis_17x31();
        // 18 partitions: f(f-1)/2 < 18 holds through f = 6 (15 < 18).
        assert_eq!(aegis.guaranteed(), 6);
    }

    #[test]
    fn guarantee_holds_empirically() {
        let aegis = Aegis::aegis_17x31();
        let mut rng = seeded_rng(42);
        let mut all: Vec<u16> = (0..512).collect();
        for _ in 0..300 {
            all.shuffle(&mut rng);
            let faults = &all[..aegis.guaranteed() as usize];
            assert!(aegis.can_store(faults), "faults {faults:?} not separable");
        }
    }

    #[test]
    fn separates_many_random_faults_probabilistically() {
        // Aegis should typically separate far more than its guarantee.
        let aegis = Aegis::aegis_17x31();
        let mut rng = seeded_rng(43);
        let mut all: Vec<u16> = (0..512).collect();
        let mut successes = 0;
        for _ in 0..100 {
            all.shuffle(&mut rng);
            if aegis.can_store(&all[..12]) {
                successes += 1;
            }
        }
        assert!(
            successes >= 50,
            "only {successes}/100 of 12-fault sets separable"
        );
    }

    #[test]
    fn write_read_round_trip() {
        let aegis = Aegis::aegis_17x31();
        let mut rng = seeded_rng(44);
        let faults: FaultMap = [
            StuckAt {
                pos: 3,
                value: true,
            },
            StuckAt {
                pos: 77,
                value: false,
            },
            StuckAt {
                pos: 200,
                value: true,
            },
            StuckAt {
                pos: 317,
                value: false,
            },
            StuckAt {
                pos: 450,
                value: true,
            },
        ]
        .into_iter()
        .collect();
        for _ in 0..32 {
            let data = Line512::random(&mut rng);
            let (stored, code) = aegis.write(&data, &faults).unwrap();
            for f in faults.iter() {
                assert_eq!(stored.bit(f.pos as usize), f.value);
            }
            assert_eq!(aegis.read(&stored, &code), data);
        }
    }

    #[test]
    fn metadata_fits_ecc_chip() {
        let aegis = Aegis::aegis_17x31();
        assert_eq!(aegis.metadata_bits(), 31 + 5);
        assert!(aegis.metadata_bits() <= 64);
    }

    #[test]
    fn horizontal_partition_rescues_same_column() {
        let aegis = Aegis::aegis_17x31();
        // Same column (x equal), distinct rows: slope partitions may
        // separate them; pile up many to force horizontal relevance.
        let faults: Vec<u16> = (0..10).map(|y| (y * 31) as u16).collect(); // x = 0, y = 0..10
                                                                           // Same x, distinct y: slope k groups are (0 + k*y) mod 31 — distinct
                                                                           // for k >= 1; slope 0 groups all into x=0. Must be separable.
        assert!(aegis.can_store(&faults));
    }

    #[test]
    #[should_panic(expected = "prime")]
    fn rejects_composite_u() {
        Aegis::new(17, 30);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_small_grid() {
        Aegis::new(3, 5);
    }
}
