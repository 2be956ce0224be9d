//! WoLFRaM-style wear-leveling with a programmable address decoder
//! (Yavits et al., arXiv:2010.02825).
//!
//! Where Start-Gap rotates the whole region through one gap slot and
//! Security Refresh re-keys an XOR mapping, WoLFRaM keeps an explicit
//! programmable decoder table and reprograms it at two granularities:
//!
//! * **Epoch remaps** — each epoch draws a fresh key and derives a target
//!   permutation of the logical lines over the currently healthy slots
//!   (a keyed Feistel network with cycle walking, so the permutation is
//!   deterministic and needs no stored state beyond the key). A migration
//!   pointer walks the logical space, and every ψ writes it aligns one
//!   line with its target via a physical swap — the same incremental
//!   pointer-walk shape as Security Refresh, but over an arbitrary
//!   (non-power-of-two, hole-punched) slot set.
//! * **Hot-slot swaps** — coarse per-slot write counters; when a slot's
//!   count climbs a threshold above the coldest active slot, the two
//!   exchange contents immediately instead of waiting for the epoch.
//!
//! WoLFRaM also folds in fault tolerance: the decoder keeps spare slots,
//! and when a physical line dies mid-write the hosted logical line is
//! redirected to the next spare ([`WearScheme::retire_line`]), so single
//! dead lines cost a spare instead of a dead address.

use pcm_util::child_seed;
use serde::{Deserialize, Serialize};

use crate::scheme::{WearEvent, WearScheme};

/// Spare physical slots kept per region: one plus one per 16 lines.
pub fn spare_lines(n: u64) -> u64 {
    1 + n / 16
}

/// Hot-slot swap threshold: a slot this many recorded writes above the
/// coldest active slot trades places with it without waiting for the
/// epoch walk.
const HOT_SWAP_THRESHOLD: u64 = 512;

/// The WoLFRaM programmable-decoder wear-leveling engine for `n` logical
/// lines over `n + spare_lines(n)` physical slots.
///
/// # Examples
///
/// ```
/// use pcm_wear::{Wolfram, WearScheme};
///
/// let mut w = Wolfram::new(16, 4, 7);
/// assert_eq!(w.physical_lines(), 18);
/// let before = w.map(3);
/// for i in 0u64..16 * 64 { w.on_write(i % 16); }
/// // After full epochs the decoder has been reprogrammed.
/// assert!(before < 18);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Wolfram {
    n: u64,
    psi: u32,
    seed: u64,
    /// Programmable decoder: logical line → physical slot.
    table: Vec<u64>,
    /// Inverse decoder: physical slot → hosted logical line.
    inverse: Vec<Option<u64>>,
    /// Slots that reported a hard failure and were taken out of service.
    retired: Vec<bool>,
    /// Target permutation the current epoch migrates toward.
    target: Vec<u64>,
    /// Next logical line the migration pointer will align.
    pointer: u64,
    writes_since_step: u32,
    epoch: u64,
    /// Coarse per-slot demand-write counters driving hot-slot swaps.
    writes: Vec<u64>,
    total_writes: u64,
    /// No hot-slot swap fires before this many total writes (cooldown).
    swap_ready_at: u64,
    /// Hot-slot swap threshold in writes above the coldest slot.
    threshold: u64,
    spares_used: u64,
}

impl Wolfram {
    /// Creates a WoLFRaM engine over `n` lines, advancing the epoch
    /// migration pointer every `psi` writes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `psi == 0`.
    pub fn new(n: u64, psi: u32, seed: u64) -> Self {
        assert!(n >= 2, "need at least two lines, got {n}");
        assert!(psi > 0, "migration period must be positive");
        let phys = n + spare_lines(n);
        let mut w = Wolfram {
            n,
            psi,
            seed,
            table: (0..n).collect(),
            inverse: (0..phys).map(|p| (p < n).then_some(p)).collect(),
            retired: vec![false; phys as usize],
            target: Vec::new(),
            pointer: 0,
            writes_since_step: 0,
            epoch: 0,
            writes: vec![0; phys as usize],
            total_writes: 0,
            swap_ready_at: 0,
            threshold: HOT_SWAP_THRESHOLD,
            spares_used: 0,
        };
        w.rebuild_target();
        w
    }

    /// Completed remap epochs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Spare slots consumed by retired lines.
    pub fn spares_used(&self) -> u64 {
        self.spares_used
    }

    /// The active slots (currently hosting a logical line), ascending.
    fn active_slots(&self) -> Vec<u64> {
        (0..self.inverse.len() as u64)
            .filter(|&p| self.inverse[p as usize].is_some())
            // pcm-audit: allow(hotpath-alloc) — once per WoLFRaM epoch, not per write; the line write path reaches it only through name-based resolution of `write`
            .collect()
    }

    /// Derives this epoch's target permutation: logical line `l` should end
    /// up on `active[perm(l)]` where `perm` is a keyed Feistel permutation
    /// of `0..n`.
    fn rebuild_target(&mut self) {
        let key = child_seed(self.seed, self.epoch);
        let active = self.active_slots();
        self.target = (0..self.n)
            .map(|l| active[feistel_perm(l, self.n, key) as usize])
            // pcm-audit: allow(hotpath-alloc) — once per WoLFRaM epoch, not per write; the line write path reaches it only through name-based resolution of `write`
            .collect();
    }

    /// Moves logical `l` onto slot `q`, displacing whatever line lives
    /// there into `l`'s old slot.
    fn swap_into(&mut self, l: u64, q: u64) {
        let p = self.table[l as usize];
        if p == q {
            return;
        }
        match self.inverse[q as usize] {
            Some(m) => {
                self.table[m as usize] = p;
                self.inverse[p as usize] = Some(m);
            }
            None => self.inverse[p as usize] = None,
        }
        self.table[l as usize] = q;
        self.inverse[q as usize] = Some(l);
    }

    /// Advances the migration pointer one step: aligns the next misplaced
    /// line with its epoch target and returns the physical swap.
    fn step(&mut self) -> WearEvent {
        let mut l = self.pointer;
        while l < self.n && self.table[l as usize] == self.target[l as usize] {
            l += 1;
        }
        let ev = if l < self.n {
            let p = self.table[l as usize];
            let q = self.target[l as usize];
            self.swap_into(l, q);
            WearEvent::Swap { a: p, b: q }
        } else {
            WearEvent::Swap { a: 0, b: 0 } // epoch tail: already aligned
        };
        self.pointer = l + 1;
        if self.pointer >= self.n {
            self.epoch += 1;
            self.pointer = 0;
            self.rebuild_target();
        }
        ev
    }

    /// The coldest active slot other than `hot` (fewest recorded writes,
    /// ties to the lowest index — fully deterministic).
    fn coldest_slot(&self, hot: u64) -> Option<(u64, u64)> {
        (0..self.inverse.len() as u64)
            .filter(|&p| p != hot && self.inverse[p as usize].is_some())
            .map(|p| (self.writes[p as usize], p))
            .min()
            .map(|(w, p)| (p, w))
    }
}

impl WearScheme for Wolfram {
    fn name(&self) -> &'static str {
        "wolfram"
    }

    fn logical_lines(&self) -> u64 {
        self.n
    }

    fn physical_lines(&self) -> u64 {
        self.n + spare_lines(self.n)
    }

    fn map(&self, logical: u64) -> u64 {
        assert!(logical < self.n, "logical line {logical} out of range");
        self.table[logical as usize]
    }

    fn on_write(&mut self, logical: u64) -> Option<WearEvent> {
        let p = self.map(logical);
        self.writes[p as usize] += 1;
        self.total_writes += 1;
        self.writes_since_step += 1;
        if self.writes_since_step >= self.psi {
            self.writes_since_step = 0;
            return Some(self.step());
        }
        if self.total_writes >= self.swap_ready_at {
            if let Some((cold, cold_writes)) = self.coldest_slot(p) {
                if self.writes[p as usize] >= cold_writes + self.threshold {
                    self.swap_ready_at = self.total_writes + self.threshold;
                    if let Some(l) = self.inverse[p as usize] {
                        self.swap_into(l, cold);
                        return Some(WearEvent::Swap { a: p, b: cold });
                    }
                }
            }
        }
        None
    }

    fn retire_line(&mut self, phys: u64) -> Option<u64> {
        if phys >= self.inverse.len() as u64 || self.retired[phys as usize] {
            return None;
        }
        self.retired[phys as usize] = true;
        let hosted = self.inverse[phys as usize]?;
        // First spare-or-healthy slot that is empty and not retired.
        let spare = (0..self.inverse.len() as u64)
            .find(|&p| !self.retired[p as usize] && self.inverse[p as usize].is_none())?;
        self.inverse[phys as usize] = None;
        self.table[hosted as usize] = spare;
        self.inverse[spare as usize] = Some(hosted);
        self.spares_used += 1;
        // Keep the epoch target valid: nothing may migrate onto a dead
        // slot, so the retired slot's role passes to the replacement.
        for t in &mut self.target {
            if *t == phys {
                *t = spare;
            }
        }
        Some(spare)
    }

    fn digest_words(&self) -> Vec<u64> {
        let fold = self.table.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &p| {
            (h ^ p).wrapping_mul(0x100_0000_01b3)
        });
        vec![self.epoch, self.pointer, self.spares_used, fold]
    }
}

/// A keyed permutation of `0..n` via a 4-round Feistel network over the
/// smallest even-width power-of-two domain ≥ `n`, cycle-walking until the
/// image lands back inside `0..n`.
fn feistel_perm(x: u64, n: u64, key: u64) -> u64 {
    debug_assert!(x < n);
    let mut half = 1u32;
    while 1u64 << (2 * half) < n {
        half += 1;
    }
    let mask = (1u64 << half) - 1;
    let mut v = x;
    loop {
        let (mut l, mut r) = (v >> half, v & mask);
        for round in 0..4u64 {
            let f = child_seed(key, (round << (2 * half)) | r) & mask;
            let next = l ^ f;
            l = r;
            r = next;
        }
        v = (l << half) | r;
        if v < n {
            return v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn check_bijection(w: &Wolfram) {
        let mut seen = HashSet::new();
        for l in 0..w.logical_lines() {
            let p = w.map(l);
            assert!(p < w.physical_lines());
            assert!(seen.insert(p), "slot {p} mapped twice");
        }
    }

    #[test]
    fn feistel_is_a_permutation() {
        for n in [2u64, 5, 16, 33, 96] {
            for key in [1u64, 0xdead_beef, 42] {
                let image: HashSet<u64> = (0..n).map(|x| feistel_perm(x, n, key)).collect();
                assert_eq!(image.len() as u64, n, "n={n} key={key}");
                assert!(image.iter().all(|&y| y < n));
            }
        }
    }

    #[test]
    fn initial_mapping_is_identity_and_bijective() {
        let w = Wolfram::new(16, 4, 9);
        for l in 0..16 {
            assert_eq!(w.map(l), l);
        }
        check_bijection(&w);
    }

    #[test]
    fn swaps_track_the_mapping() {
        // Shadow the physical contents; phys[map(l)] == l must survive
        // every emitted event across several epochs.
        let n = 24u64;
        let mut w = Wolfram::new(n, 1, 13);
        let phys_n = w.physical_lines();
        let mut slots: Vec<Option<u64>> = (0..phys_n).map(|p| (p < n).then_some(p)).collect();
        for step in 0..2_000u64 {
            if let Some(WearEvent::Swap { a, b }) = w.on_write(step % n) {
                slots.swap(a as usize, b as usize);
            }
            for l in 0..n {
                assert_eq!(
                    slots[w.map(l) as usize],
                    Some(l),
                    "step {step}: logical {l} lost (epoch {})",
                    w.epoch()
                );
            }
        }
        assert!(w.epoch() >= 2, "test must cover multiple epochs");
    }

    #[test]
    fn epochs_reprogram_the_decoder() {
        let n = 16u64;
        let mut w = Wolfram::new(n, 1, 3);
        let initial: Vec<u64> = (0..n).map(|l| w.map(l)).collect();
        for i in 0..n * 6 {
            w.on_write(i % n);
        }
        assert!(w.epoch() >= 2);
        let later: Vec<u64> = (0..n).map(|l| w.map(l)).collect();
        assert_ne!(initial, later, "decoder must be reprogrammed");
        check_bijection(&w);
    }

    #[test]
    fn hot_slot_swap_moves_the_hot_line() {
        // Hammer one line with the epoch walk effectively off (huge psi):
        // the hot-slot threshold must eventually move it to a cold slot.
        let n = 8u64;
        let mut w = Wolfram::new(n, 10_000, 5);
        let before = w.map(0);
        let mut moved = false;
        for _ in 0..w.threshold * 3 {
            if let Some(WearEvent::Swap { a, b }) = w.on_write(0) {
                assert!(a == before || b == before);
                moved = true;
                break;
            }
        }
        assert!(moved, "hot line never swapped");
        assert_ne!(w.map(0), before);
        check_bijection(&w);
    }

    #[test]
    fn retire_redirects_to_a_spare() {
        let n = 16u64;
        let mut w = Wolfram::new(n, 4, 7);
        let victim = w.map(5);
        let spare = w.retire_line(victim).expect("spares available");
        assert_ne!(spare, victim);
        assert_eq!(w.map(5), spare);
        assert_eq!(w.spares_used(), 1);
        check_bijection(&w);
        // The retired slot never reappears in the mapping.
        for i in 0..4_000u64 {
            w.on_write(i % n);
            assert!((0..n).all(|l| w.map(l) != victim), "dead slot reused");
        }
    }

    #[test]
    fn retire_exhausts_spares_then_declines() {
        let n = 16u64; // 2 spares
        let mut w = Wolfram::new(n, 4, 7);
        assert!(w.retire_line(w.map(0)).is_some());
        assert!(w.retire_line(w.map(1)).is_some());
        assert_eq!(w.retire_line(w.map(2)), None, "spares exhausted");
        // Retiring the same slot twice is a no-op.
        let dead = w.map(0);
        let w2 = w.clone();
        assert_eq!(w.retire_line(dead), w2.clone().retire_line(dead));
    }

    #[test]
    fn deterministic_replay() {
        let mut a = Wolfram::new(32, 3, 21);
        let mut b = Wolfram::new(32, 3, 21);
        for i in 0..5_000u64 {
            assert_eq!(a.on_write(i % 32), b.on_write(i % 32));
        }
        assert_eq!(a, b);
    }
}
