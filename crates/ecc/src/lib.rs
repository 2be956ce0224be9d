//! Hard-error tolerance schemes for resistive memories.
//!
//! PCM cells fail *stuck-at* after their write endurance is exhausted, and
//! the fault population grows over time — so PCM needs multi-bit hard-error
//! correction, not DRAM-style SECDED. This crate implements the three
//! schemes the DSN'17 paper evaluates (§II-C), each fitting the 64-bit
//! per-line budget of an ECC-DIMM's ninth chip:
//!
//! * [`Ecp`] — *Error-Correcting Pointers* (Schechter et al., ISCA 2010):
//!   per-fault pointer + replacement bit; ECP-6 corrects any 6 faults in
//!   61 bits of metadata.
//! * [`Safer`] — *Stuck-At-Fault Error Recovery* (Seong et al., MICRO
//!   2010): dynamically partitions the 512 cells into 32 groups by choosing
//!   5 of the 9 position-index bits, then masks one stuck cell per group
//!   with a group inversion bit.
//! * [`Aegis`] — (Fan et al., MICRO 2013): partitions via lines of a 17×31
//!   grid, achieving more correction with fewer partitions.
//!
//! All three implement [`HardErrorScheme`], whose
//! [`can_store`](HardErrorScheme::can_store) answers the question the
//! compression-window controller and the paper's Fig. 9 Monte-Carlo ask:
//! *given these faulty cells inside the written region, can the block hold
//! arbitrary data?* Each scheme also has a concrete encode/decode path
//! (write data around stuck cells, read it back) used by tests to prove the
//! guarantee is real, plus packed metadata codecs in [`layout`] that show
//! everything fits the 64-bit ECC-chip budget.
//!
//! # Examples
//!
//! ```
//! use pcm_ecc::{Ecp, HardErrorScheme};
//!
//! let ecp6 = Ecp::new(6);
//! assert!(ecp6.can_store(&[1, 2, 3, 4, 5, 6]));
//! assert!(!ecp6.can_store(&[1, 2, 3, 4, 5, 6, 7]));
//! ```

pub mod aegis;
pub mod coset;
pub mod ecp;
pub mod layout;
pub mod montecarlo;
#[cfg(feature = "verify-mutations")]
pub mod mutation;
pub mod safer;
pub mod scheme;
pub mod secded;

pub use aegis::Aegis;
pub use coset::Coset;
pub use ecp::Ecp;
pub use montecarlo::{failure_probability, MonteCarlo};
pub use safer::Safer;
pub use scheme::{find_window, EccError, HardErrorScheme};
pub use secded::Secded;

#[cfg(test)]
mod proptests {
    use super::*;
    use pcm_util::fault::{FaultMap, StuckAt};
    use pcm_util::Line512;
    use proptest::prelude::*;

    fn arb_faults(max: usize) -> impl Strategy<Value = FaultMap> {
        prop::collection::btree_set(0u16..512, 0..=max).prop_flat_map(|positions| {
            let n = positions.len();
            (Just(positions), prop::collection::vec(any::<bool>(), n)).prop_map(
                |(positions, values)| {
                    positions
                        .into_iter()
                        .zip(values)
                        .map(|(pos, value)| StuckAt { pos, value })
                        .collect()
                },
            )
        })
    }

    proptest! {
        /// Any fault set within the deterministic guarantee must round-trip
        /// arbitrary data through every scheme.
        #[test]
        fn guaranteed_faults_round_trip(
            words in prop::array::uniform8(any::<u64>()),
            faults in arb_faults(6),
        ) {
            let data = Line512::from_words(words);
            let schemes: Vec<Box<dyn HardErrorScheme>> = vec![
                Box::new(Ecp::new(6)),
                Box::new(Safer::new(32)),
                Box::new(Aegis::new(17, 31)),
            ];
            for s in &schemes {
                let positions: Vec<u16> = faults.iter().map(|f| f.pos).collect();
                prop_assert!(
                    s.can_store(&positions),
                    "{} must guarantee {} faults", s.name(), positions.len()
                );
            }
            // Concrete round-trips.
            let ecp = Ecp::new(6);
            let (stored, code) = ecp.write(&data, &faults).unwrap();
            prop_assert_eq!(ecp.read(&stored, &code), data);

            let safer = Safer::new(32);
            let (stored, code) = safer.write(&data, &faults).unwrap();
            prop_assert_eq!(safer.read(&stored, &code), data);

            let aegis = Aegis::new(17, 31);
            let (stored, code) = aegis.write(&data, &faults).unwrap();
            prop_assert_eq!(aegis.read(&stored, &code), data);
        }

        /// The physical line always respects stuck cells after a write.
        #[test]
        fn stored_lines_respect_stuck_cells(
            words in prop::array::uniform8(any::<u64>()),
            faults in arb_faults(6),
        ) {
            let data = Line512::from_words(words);
            let safer = Safer::new(32);
            let (stored, _) = safer.write(&data, &faults).unwrap();
            for f in faults.iter() {
                prop_assert_eq!(stored.bit(f.pos as usize), f.value);
            }
        }
    }
}
