//! Wrapped compression-window placement and the fault-dodging search.
//!
//! The compression window is a contiguous run of `len` bytes starting at
//! byte `offset`, **wrapping** around the end of the 64-byte line: with
//! intra-line wear-leveling the start pointer rotates through all 64
//! positions, so a window beginning at byte 60 with 16 bytes of payload
//! occupies bytes 60..64 and 0..12. The chip does not care — the 6-bit
//! start pointer plus the payload length identify the cells.

use pcm_ecc::HardErrorScheme;
use pcm_util::fault::FaultMap;
use pcm_util::{Line512, DATA_BITS, DATA_BYTES};

/// Byte indices covered by a wrapped window.
pub fn window_bytes(offset: usize, len: usize) -> impl Iterator<Item = usize> {
    debug_assert!(offset < DATA_BYTES && len <= DATA_BYTES);
    (0..len).map(move |i| (offset + i) % DATA_BYTES)
}

/// A bit mask of the cells covered by a wrapped window.
///
/// # Panics
///
/// Panics if `offset >= 64` or `len > 64`.
///
/// # Examples
///
/// ```
/// use pcm_core::window::window_mask;
///
/// let m = window_mask(62, 4); // bytes 62, 63, 0, 1
/// assert_eq!(m.count_ones(), 32);
/// assert!(m.bit(0));
/// assert!(m.bit(62 * 8));
/// assert!(!m.bit(2 * 8));
/// ```
pub fn window_mask(offset: usize, len: usize) -> Line512 {
    assert!(offset < DATA_BYTES, "offset must be < 64");
    assert!(len <= DATA_BYTES, "window at most 64 bytes");
    let end = offset + len;
    if end <= DATA_BYTES {
        Line512::bit_range_mask(offset * 8..end * 8)
    } else {
        Line512::bit_range_mask(offset * 8..DATA_BITS)
            | Line512::bit_range_mask(0..(end - DATA_BYTES) * 8)
    }
}

/// Places `payload` into `current` at a wrapped window, leaving all other
/// bytes untouched.
///
/// # Panics
///
/// Panics if `offset >= 64` or the payload exceeds 64 bytes.
pub fn place(current: &Line512, offset: usize, payload: &[u8]) -> Line512 {
    assert!(offset < DATA_BYTES, "offset must be < 64");
    assert!(payload.len() <= DATA_BYTES, "payload at most 64 bytes");
    let mut bytes = current.to_bytes();
    let first = payload.len().min(DATA_BYTES - offset);
    bytes[offset..offset + first].copy_from_slice(&payload[..first]);
    bytes[..payload.len() - first].copy_from_slice(&payload[first..]);
    Line512::from_bytes(&bytes)
}

/// Extracts `len` bytes from a wrapped window.
///
/// # Panics
///
/// Panics if `offset >= 64` or `len > 64`.
pub fn extract(line: &Line512, offset: usize, len: usize) -> Vec<u8> {
    assert!(offset < DATA_BYTES, "offset must be < 64");
    assert!(len <= DATA_BYTES, "window at most 64 bytes");
    let bytes = line.to_bytes();
    let first = len.min(DATA_BYTES - offset);
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&bytes[offset..offset + first]);
    out.extend_from_slice(&bytes[..len - first]);
    out
}

/// The faulty cell positions that fall inside a wrapped window.
pub fn faults_in(faults: &FaultMap, offset: usize, len: usize) -> Vec<u16> {
    let mut buf = [0u16; DATA_BITS];
    faults_in_buf(faults, offset, len, &mut buf).to_vec()
}

/// [`faults_in`] into a fixed stack buffer, returning the filled prefix —
/// the placement probes sit on the per-write hot path (the slide search
/// tries up to 64 windows), and a line has at most [`DATA_BITS`] stuck
/// cells.
pub fn faults_in_buf<'a>(
    faults: &FaultMap,
    offset: usize,
    len: usize,
    buf: &'a mut [u16; DATA_BITS],
) -> &'a [u16] {
    fault_map_in(faults, offset, len).positions_into(buf)
}

/// The sub-map of faults inside a wrapped window.
pub fn fault_map_in(faults: &FaultMap, offset: usize, len: usize) -> FaultMap {
    faults.masked(window_mask(offset, len))
}

/// The Comp+WF window search (§III-A): finds a start offset at which a
/// `len`-byte payload is storable under `scheme`, trying `preferred` first
/// and then sliding byte-by-byte (wrapping) through all 64 positions.
///
/// Returns `None` when the line is dead for this payload size.
///
/// # Examples
///
/// ```
/// use pcm_core::window::find_offset;
/// use pcm_ecc::Ecp;
/// use pcm_util::fault::{FaultMap, StuckAt};
///
/// // Ten faults in byte 0..2: a 32-byte window starting at byte 0 fails
/// // ECP-6, but sliding past them succeeds.
/// let faults: FaultMap = (0..10u16).map(|i| StuckAt { pos: i, value: true }).collect();
/// let offset = find_offset(&Ecp::new(6), &faults, 32, 0).unwrap();
/// assert_ne!(offset, 0);
/// ```
pub fn find_offset(
    scheme: &dyn HardErrorScheme,
    faults: &FaultMap,
    len: usize,
    preferred: usize,
) -> Option<usize> {
    find_offset_with_step(scheme, faults, len, preferred, 1)
}

/// [`find_offset`] with a coarser placement granularity: only offsets that
/// are multiples of `step` (relative to byte 0) are considered, shrinking
/// the start-pointer metadata from 6 bits to `6 - log2(step)` at the cost
/// of fewer placement choices (the `ablation_window_step` bench quantifies
/// the lifetime cost).
///
/// `preferred` is rounded down to the grid.
///
/// # Panics
///
/// Panics unless `step` is a power of two dividing 64, `preferred < 64`,
/// and `len` is `1..=64`.
pub fn find_offset_with_step(
    scheme: &dyn HardErrorScheme,
    faults: &FaultMap,
    len: usize,
    preferred: usize,
    step: usize,
) -> Option<usize> {
    assert!(preferred < DATA_BYTES, "preferred offset must be < 64");
    assert!(
        (1..=DATA_BYTES).contains(&len),
        "window must be 1..=64 bytes"
    );
    assert!(
        step.is_power_of_two() && DATA_BYTES % step == 0,
        "step must be a power of two dividing 64, got {step}"
    );
    let preferred = preferred / step * step;
    if faults.is_empty() {
        return Some(preferred);
    }
    let slots = DATA_BYTES / step;
    let mut buf = [0u16; DATA_BITS];
    (0..slots)
        .map(|slide| (preferred + slide * step) % DATA_BYTES)
        .find(|&offset| scheme.can_store(faults_in_buf(faults, offset, len, &mut buf)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_ecc::Ecp;
    use pcm_util::fault::StuckAt;
    use pcm_util::seeded_rng;

    #[test]
    fn place_extract_round_trip_wrapped() {
        let mut rng = seeded_rng(101);
        let base = Line512::random(&mut rng);
        let payload: Vec<u8> = (0..20).map(|i| i as u8 * 3).collect();
        for offset in [0usize, 10, 50, 63] {
            let placed = place(&base, offset, &payload);
            assert_eq!(extract(&placed, offset, 20), payload);
            // Bytes outside the window unchanged.
            let mask = window_mask(offset, 20);
            assert_eq!(placed & !mask, base & !mask);
        }
    }

    #[test]
    fn window_bytes_wrap() {
        let v: Vec<usize> = window_bytes(62, 4).collect();
        assert_eq!(v, vec![62, 63, 0, 1]);
    }

    #[test]
    fn faults_filtered_by_window() {
        let faults: FaultMap = [
            StuckAt {
                pos: 5,
                value: true,
            }, // byte 0
            StuckAt {
                pos: 500,
                value: false,
            }, // byte 62
            StuckAt {
                pos: 200,
                value: true,
            }, // byte 25
        ]
        .into_iter()
        .collect();
        assert_eq!(faults_in(&faults, 62, 4), vec![5, 500]);
        assert_eq!(faults_in(&faults, 20, 10), vec![200]);
        assert_eq!(fault_map_in(&faults, 62, 4).count(), 2);
        // The stack-buffer variant agrees with the allocating one.
        let mut buf = [0u16; DATA_BITS];
        assert_eq!(faults_in_buf(&faults, 62, 4, &mut buf), &[5, 500]);
        assert_eq!(faults_in_buf(&faults, 20, 10, &mut buf), &[200]);
        assert_eq!(faults_in_buf(&faults, 30, 4, &mut buf), &[] as &[u16]);
    }

    #[test]
    fn find_offset_prefers_preferred() {
        let ecp = Ecp::new(6);
        let faults = FaultMap::new();
        assert_eq!(find_offset(&ecp, &faults, 16, 37), Some(37));
    }

    #[test]
    fn find_offset_slides_past_fault_cluster() {
        let ecp = Ecp::new(6);
        // 8 faults in byte 0: infeasible for any window containing byte 0.
        let faults: FaultMap = (0..8u16).map(|pos| StuckAt { pos, value: true }).collect();
        let offset = find_offset(&ecp, &faults, 16, 0).unwrap();
        // The window [offset, offset+16) must not contain byte 0.
        assert!(offset >= 1 && offset <= 48, "offset {offset}");
    }

    #[test]
    fn coarse_step_restricts_offsets() {
        let ecp = Ecp::new(6);
        // 8 faults in byte 0..1 kill any window containing them.
        let faults: FaultMap = (0..8u16).map(|pos| StuckAt { pos, value: true }).collect();
        let fine = find_offset_with_step(&ecp, &faults, 16, 0, 1).unwrap();
        let coarse = find_offset_with_step(&ecp, &faults, 16, 0, 8).unwrap();
        assert_eq!(
            fine, 1,
            "byte-granular search lands right after the cluster"
        );
        assert_eq!(coarse, 8, "8-byte grid must skip to the next slot");
        assert_eq!(coarse % 8, 0);
    }

    #[test]
    fn coarse_step_rounds_preferred_down() {
        let ecp = Ecp::new(6);
        let faults = FaultMap::new();
        assert_eq!(find_offset_with_step(&ecp, &faults, 8, 19, 4), Some(16));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_step() {
        find_offset_with_step(&Ecp::new(6), &FaultMap::new(), 8, 0, 3);
    }

    #[test]
    fn find_offset_none_when_line_saturated() {
        let ecp = Ecp::new(6);
        // 7 faults in every 8-byte stretch: any 16-byte window has >6.
        let faults: FaultMap = (0..512u16)
            .step_by(1)
            .take(512)
            .map(|pos| StuckAt { pos, value: false })
            .collect();
        assert_eq!(find_offset(&ecp, &faults, 16, 0), None);
    }

    #[test]
    fn full_line_window_only_depends_on_total() {
        let ecp = Ecp::new(6);
        let few: FaultMap = (0..6u16)
            .map(|i| StuckAt {
                pos: i * 80,
                value: true,
            })
            .collect();
        assert!(find_offset(&ecp, &few, 64, 0).is_some());
        let many: FaultMap = (0..7u16)
            .map(|i| StuckAt {
                pos: i * 70,
                value: true,
            })
            .collect();
        assert_eq!(find_offset(&ecp, &many, 64, 0), None);
    }
}
