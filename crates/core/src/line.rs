//! One physical line under the compression-window controller.
//!
//! [`ManagedLine`] ties every mechanism of the paper together for a single
//! 512-cell line: the compressed payload is placed in a (possibly wrapped)
//! window, the hard-error scheme encodes around the stuck cells inside that
//! window, the differential-write cell model programs only changed cells,
//! and the write-verify step catches cells that die *during* the write and
//! re-encodes (or slides the window) until the payload is stored — or the
//! line is declared dead.

use crate::registry;
use crate::system::EccChoice;
use crate::window;
use pcm_compress::Method;
use pcm_device::{CellTech, EnduranceModel, LineWear};
use pcm_ecc::aegis::AegisCode;
use pcm_ecc::ecp::EcpCode;
use pcm_ecc::safer::SaferCode;
use pcm_ecc::secded::SecdedCode;
use pcm_ecc::{Aegis, Coset, Ecp, HardErrorScheme, Safer, Secded};
use pcm_util::fault::FaultMap;
use pcm_util::{Line512, DATA_BYTES};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The instantiated hard-error scheme with its encode/decode machinery.
///
/// Table-heavy schemes (SAFER-32, Aegis 17×31, the coset masks) come from
/// the process-wide [`registry`] so every engine shares one instance —
/// `simulate_line` constructs an engine per call, which once made table
/// construction dominate short-lived lines.
#[derive(Debug, Clone)]
pub struct EccEngine {
    choice: EccChoice,
    ecp: Ecp,
    safer: &'static Safer,
    aegis: &'static Aegis,
    secded: Secded,
    coset: &'static Coset,
}

/// Per-line ECC correction state from the most recent write.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum EccCode {
    /// No write yet.
    None,
    /// ECP pointers + replacement bits.
    Ecp(EcpCode),
    /// SAFER partition + inversions.
    Safer(SaferCode),
    /// Aegis partition + inversions.
    Aegis(AegisCode),
    /// SECDED check bytes.
    Secded(SecdedCode),
    /// Coset transform tag + ECP pointers for the transformed payload.
    Coset(u16, EcpCode),
}

impl EccEngine {
    /// Builds the engine for a configuration choice.
    pub fn new(choice: EccChoice) -> Self {
        let ecp = match choice {
            EccChoice::EcpN(n) => Ecp::new(n as u32),
            _ => Ecp::new(6),
        };
        EccEngine {
            choice,
            ecp,
            safer: registry::shared_safer32(),
            aegis: registry::shared_aegis_17x31(),
            secded: Secded::new(),
            coset: registry::shared_coset(),
        }
    }

    /// The underlying scheme as a trait object (for window searches).
    pub fn scheme(&self) -> &dyn HardErrorScheme {
        match self.choice {
            EccChoice::Ecp6 | EccChoice::EcpN(_) => &self.ecp,
            EccChoice::Safer32 => self.safer,
            EccChoice::Aegis17x31 => self.aegis,
            EccChoice::Secded => &self.secded,
            EccChoice::Coset => self.coset,
        }
    }

    /// A one-byte name of the scheme, distinct for distinct schemes: ECP
    /// by its entry count (`Ecp::new` bounds it to `1..=51`), the rest
    /// above that range. Keys the line's [`EpochMemo`].
    fn tag(&self) -> u8 {
        match self.choice {
            EccChoice::Ecp6 => 6,
            EccChoice::EcpN(n) => n,
            EccChoice::Safer32 => 64,
            EccChoice::Aegis17x31 => 65,
            EccChoice::Secded => 66,
            EccChoice::Coset => 67,
        }
    }

    /// `true` for the partition schemes, whose encode splits into a
    /// position-only plan and a per-write apply step.
    fn plans(&self) -> bool {
        matches!(self.choice, EccChoice::Safer32 | EccChoice::Aegis17x31)
    }

    /// The position-only encode plan over the window faults: SAFER's
    /// subset mask or the Aegis partition id (`None` when no partition
    /// isolates every fault, or for schemes without a plan).
    fn plan(&self, faults: &FaultMap) -> Option<u16> {
        match self.choice {
            EccChoice::Safer32 => self.safer.plan(faults),
            // The shared 17×31 grid has 18 partitions: the id fits a u16.
            EccChoice::Aegis17x31 => self.aegis.plan(faults).map(|k| k as u16),
            _ => None,
        }
    }

    /// Encodes `target` around the given (window-restricted) faults.
    ///
    /// Partition schemes apply `plan` (from [`plan`](Self::plan) over the
    /// same faults); the others ignore it. Payload-transforming schemes
    /// also see the currently `stored` line and the window mask, so they
    /// can pick the cheapest equivalent vector; plain correction schemes
    /// ignore both.
    fn encode(
        &self,
        target: &Line512,
        stored: &Line512,
        window_mask: &Line512,
        faults: &FaultMap,
        plan: Option<u16>,
    ) -> Result<(Line512, EccCode), pcm_ecc::EccError> {
        match self.choice {
            EccChoice::Ecp6 | EccChoice::EcpN(_) => self
                .ecp
                .write(target, faults)
                .map(|(s, c)| (s, EccCode::Ecp(c))),
            EccChoice::Safer32 => self
                .safer
                .apply(plan, target, faults)
                .map(|(s, c)| (s, EccCode::Safer(c))),
            EccChoice::Aegis17x31 => self
                .aegis
                .apply(plan.map(u32::from), target, faults)
                .map(|(s, c)| (s, EccCode::Aegis(c))),
            EccChoice::Secded => self
                .secded
                .write(target, faults)
                .map(|(s, c)| (s, EccCode::Secded(c))),
            EccChoice::Coset => {
                let (transformed, tag) =
                    self.coset
                        .encode_payload(target, stored, window_mask, faults);
                self.coset
                    .write(&transformed, faults)
                    .map(|(s, c)| (s, EccCode::Coset(tag, c)))
            }
        }
    }

    /// Decodes a stored line with its correction state.
    fn decode(&self, stored: &Line512, code: &EccCode) -> Line512 {
        match code {
            EccCode::None => *stored,
            EccCode::Ecp(c) => self.ecp.read(stored, c),
            EccCode::Safer(c) => self.safer.read(stored, c),
            EccCode::Aegis(c) => self.aegis.read(stored, c),
            EccCode::Secded(c) => self.secded.read(stored, c),
            EccCode::Coset(tag, c) => self.coset.decode_payload(&self.coset.read(stored, c), *tag),
        }
    }
}

/// The payload handed to a line write: method plus window bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Payload<'a> {
    /// How the bytes are encoded.
    pub method: Method,
    /// The bytes that occupy the compression window.
    pub bytes: &'a [u8],
}

/// The report of one successful line write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineWriteReport {
    /// Window start byte actually used.
    pub offset: usize,
    /// Total cells programmed (over all verify-retry attempts).
    pub flips: u32,
    /// Mask of cells programmed by this write (union over attempts).
    pub flip_mask: Line512,
    /// Cells that became stuck during this write.
    pub new_faults: u32,
    /// Encode/program attempts (1 = clean write).
    pub attempts: u32,
    /// `true` when the window had to slide away from the preferred offset.
    pub slid: bool,
}

/// Error returned when a line cannot store the payload: it is (now) dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineDead {
    /// Faulty cells in the line at the time of death.
    pub faults: u32,
}

impl std::fmt::Display for LineDead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line is dead ({} faulty cells)", self.faults)
    }
}

impl std::error::Error for LineDead {}

/// Per-line metadata update counters (paper §III-B: metadata cells wear
/// far slower than data cells because their fields change rarely).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MetaUpdateCounts {
    /// Writes served by the line.
    pub writes: u64,
    /// Times the 6-bit start pointer changed (rotation or slide).
    pub start_pointer: u64,
    /// Times the 5-bit encoding field changed (compression method).
    pub encoding: u64,
    /// Times the payload size changed (a proxy for coding-bit churn).
    pub size: u64,
}

/// `offset` byte of an [`EpochMemo`] placement: no window fits that size.
const NO_OFFSET: u8 = DATA_BYTES as u8;
/// [`EpochMemo::plan`] value: no partition isolates every window fault.
const NO_PLAN: u16 = u16::MAX;

/// Fault-dependent work a line reuses until its fault set grows: the
/// Comp+WF sliding placements and the SAFER/Aegis partition plan.
///
/// The epoch is `faults().count()`. Faults are insert-only, and the count
/// also sees cells killed by fast-forward wear
/// ([`ManagedLine::add_wear_bulk`]), which a counter bumped by writes
/// alone would miss. Every entry depends on fault *positions* only; the
/// data-dependent encode (inversion bits, ECP replacement bits, the
/// coset tag) stays per write. Packed into 16 bytes so the per-line state
/// barely grows.
#[derive(Debug, Clone, Copy)]
struct EpochMemo {
    /// Fault count the entries were computed under (`u16::MAX`: none yet).
    epoch: u16,
    /// [`EccEngine::tag`] of the scheme the entries were computed with.
    scheme: u8,
    /// Search start of `places` (see [`slide_key`]).
    grid: u8,
    /// Sliding placements as `[len, offset]`, most recently used first;
    /// `len == 0` marks an empty slot, `offset == NO_OFFSET` a size that
    /// fits nowhere.
    places: [[u8; 2]; 4],
    /// Window `[offset, len]` that `plan` was computed for (`len == 0`:
    /// none).
    plan_window: [u8; 2],
    /// [`EccEngine::plan`] for `plan_window`, `NO_PLAN` for `None`.
    plan: u16,
}

impl EpochMemo {
    const EMPTY: EpochMemo = EpochMemo {
        epoch: u16::MAX,
        scheme: 0,
        grid: 0,
        places: [[0; 2]; 4],
        plan_window: [0; 2],
        plan: NO_PLAN,
    };

    /// Drops every entry unless it was computed under `epoch` with
    /// `scheme`.
    fn sync(&mut self, epoch: u16, scheme: u8) {
        if self.epoch != epoch || self.scheme != scheme {
            *self = EpochMemo {
                epoch,
                scheme,
                ..EpochMemo::EMPTY
            };
        }
    }

    /// The remembered placement of a `len`-byte payload searched from
    /// `grid`, moved to the front; `None` on a miss.
    fn place(&mut self, grid: u8, len: u8) -> Option<Option<usize>> {
        if self.grid != grid {
            self.grid = grid;
            self.places = EpochMemo::EMPTY.places;
            return None;
        }
        let hit = self.places.iter().position(|p| p[0] == len)?;
        self.places[..=hit].rotate_right(1);
        let offset = self.places[0][1];
        Some((offset != NO_OFFSET).then_some(offset as usize))
    }

    /// Records a placement found from the current grid, evicting the
    /// least recently used one.
    fn remember_place(&mut self, len: u8, offset: Option<usize>) {
        self.places.rotate_right(1);
        self.places[0] = [len, offset.map_or(NO_OFFSET, |o| o as u8)];
    }
}

/// Validates a sliding search and names it in the [`EpochMemo`]: the
/// payload length plus one byte holding `preferred` rounded down to the
/// `step` grid, shifted left once, with `step` as its lowest set bit (the
/// rounded offset is a multiple of `step`, so the shifted one is a
/// multiple of `2 * step` and both are recoverable).
///
/// # Panics
///
/// As [`window::find_offset_with_step`], so a memo hit panics exactly
/// where a fresh search would.
fn slide_key(len: usize, preferred: usize, step: usize) -> (u8, u8) {
    assert!(preferred < DATA_BYTES, "preferred offset must be < 64");
    assert!(
        (1..=DATA_BYTES).contains(&len),
        "window must be 1..=64 bytes"
    );
    assert!(
        step.is_power_of_two() && DATA_BYTES % step == 0,
        "step must be a power of two dividing 64, got {step}"
    );
    (len as u8, ((preferred / step * step) << 1 | step) as u8)
}

/// One physical line: cells, ECC state, and window metadata.
#[derive(Debug, Clone)]
pub struct ManagedLine {
    wear: LineWear,
    code: EccCode,
    method: Method,
    offset: usize,
    size: usize,
    dead: bool,
    valid: bool,
    memo: EpochMemo,
    meta_updates: MetaUpdateCounts,
}

impl ManagedLine {
    /// Samples a fresh SLC line from an endurance model.
    pub fn sample<R: Rng + ?Sized>(model: &EnduranceModel, rng: &mut R) -> Self {
        ManagedLine::sample_with_tech(model, CellTech::Slc, rng)
    }

    /// Samples a fresh line with the given cell technology.
    pub fn sample_with_tech<R: Rng + ?Sized>(
        model: &EnduranceModel,
        tech: CellTech,
        rng: &mut R,
    ) -> Self {
        ManagedLine {
            wear: LineWear::sample_with_tech(model, tech, rng),
            code: EccCode::None,
            method: Method::Uncompressed,
            offset: 0,
            size: 0,
            dead: false,
            valid: false,
            memo: EpochMemo::EMPTY,
            meta_updates: MetaUpdateCounts::default(),
        }
    }

    /// Creates a line with explicit per-cell endurance (tests).
    ///
    /// # Panics
    ///
    /// Panics unless exactly 512 values are given.
    pub fn with_endurance(endurance: Vec<u32>) -> Self {
        ManagedLine {
            wear: LineWear::with_endurance(endurance),
            code: EccCode::None,
            method: Method::Uncompressed,
            offset: 0,
            size: 0,
            dead: false,
            valid: false,
            memo: EpochMemo::EMPTY,
            meta_updates: MetaUpdateCounts::default(),
        }
    }

    /// Creates a healthy-except-for-`faults` line (infinite endurance
    /// elsewhere); see [`LineWear::with_faults`]. Used by the verification
    /// harness to realize a seeded fault plan exactly.
    pub fn with_faults(faults: &FaultMap) -> Self {
        ManagedLine {
            wear: LineWear::with_faults(faults),
            code: EccCode::None,
            method: Method::Uncompressed,
            offset: 0,
            size: 0,
            dead: false,
            valid: false,
            memo: EpochMemo::EMPTY,
            meta_updates: MetaUpdateCounts::default(),
        }
    }

    /// The line's stuck-at faults.
    pub fn faults(&self) -> &FaultMap {
        self.wear.faults()
    }

    /// `true` once a write has failed and the line was marked dead.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// `true` when the line holds a readable payload.
    pub fn is_valid(&self) -> bool {
        self.valid && !self.dead
    }

    /// Window start byte of the stored payload.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Stored payload size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Storage method of the current payload.
    pub fn method(&self) -> Method {
        self.method
    }

    /// Direct access to the cell wear state.
    pub fn wear(&self) -> &LineWear {
        &self.wear
    }

    /// Metadata-field update counters ([`MetaUpdateCounts`], paper §III-B).
    pub fn meta_updates(&self) -> MetaUpdateCounts {
        self.meta_updates
    }

    /// Fast-forwards wear (accelerated lifetime engine); see
    /// [`LineWear::add_wear`].
    pub fn add_wear(&mut self, pos: usize, events: u32) -> Option<pcm_util::StuckAt> {
        self.wear.add_wear(pos, events)
    }

    /// Fast-forwards wear on every bit at once; see
    /// [`LineWear::add_wear_bulk`].
    pub fn add_wear_bulk(&mut self, grants: &[u32; pcm_util::DATA_BITS]) {
        self.wear.add_wear_bulk(grants)
    }

    /// Checks whether a payload of `len` bytes could be stored (used for
    /// dead-block resurrection): returns the offset that would be used.
    ///
    /// Takes `&mut self` because a sliding search is remembered until the
    /// line's fault set grows.
    pub fn can_host(
        &mut self,
        engine: &EccEngine,
        len: usize,
        preferred: usize,
        slide: bool,
    ) -> Option<usize> {
        self.can_host_with_step(engine, len, preferred, slide, 1)
    }

    /// [`can_host`](Self::can_host) at a coarser window-placement
    /// granularity (see [`window::find_offset_with_step`]).
    pub(crate) fn can_host_with_step(
        &mut self,
        engine: &EccEngine,
        len: usize,
        preferred: usize,
        slide: bool,
        step: usize,
    ) -> Option<usize> {
        if slide {
            let (len_key, grid) = slide_key(len, preferred, step);
            if let Some(hit) = self.memo(engine).place(grid, len_key) {
                return hit;
            }
            let found =
                window::find_offset_with_step(engine.scheme(), self.faults(), len, preferred, step);
            self.memo.remember_place(len_key, found);
            found
        } else {
            let preferred = preferred / step * step;
            let mut buf = [0u16; pcm_util::DATA_BITS];
            let faults = window::faults_in_buf(self.faults(), preferred, len, &mut buf);
            engine.scheme().can_store(faults).then_some(preferred)
        }
    }

    /// The line's [`EpochMemo`], emptied first if the fault set or the
    /// scheme changed since its entries were computed.
    fn memo(&mut self, engine: &EccEngine) -> &mut EpochMemo {
        let epoch = self.faults().count() as u16;
        self.memo.sync(epoch, engine.tag());
        &mut self.memo
    }

    /// The encode plan for the window `[offset, offset + len)`, reused
    /// while the fault epoch and the window are unchanged.
    fn plan(
        &mut self,
        engine: &EccEngine,
        offset: usize,
        len: usize,
        window_faults: &FaultMap,
    ) -> Option<u16> {
        if !engine.plans() {
            return None;
        }
        let memo = self.memo(engine);
        let window = [offset as u8, len as u8];
        if memo.plan_window != window {
            memo.plan_window = window;
            memo.plan = engine.plan(window_faults).unwrap_or(NO_PLAN);
        }
        (memo.plan != NO_PLAN).then_some(memo.plan)
    }

    /// Clears the dead flag after a successful resurrection check; the
    /// next write must succeed or the line dies again.
    pub fn revive(&mut self) {
        self.dead = false;
        self.valid = false;
    }

    /// Writes a payload at (or near) `preferred` window offset.
    ///
    /// `slide = true` enables the Comp+WF fault-dodging search; otherwise
    /// the payload must fit at `preferred` exactly.
    ///
    /// # Errors
    ///
    /// Returns [`LineDead`] (and marks the line dead) when no feasible
    /// window exists. The paper's Comp/Comp+W mark the block permanently
    /// dead at this point; Comp+WF may later [`revive`](Self::revive) it.
    ///
    /// # Panics
    ///
    /// Panics if the payload is empty or exceeds 64 bytes, or `preferred >=
    /// 64`.
    pub fn write(
        &mut self,
        engine: &EccEngine,
        payload: Payload<'_>,
        preferred: usize,
        slide: bool,
    ) -> Result<LineWriteReport, LineDead> {
        self.write_with_step(engine, payload, preferred, slide, 1)
    }

    /// [`write`](Self::write) at a coarser window-placement granularity
    /// (see [`window::find_offset_with_step`]).
    ///
    /// # Errors
    ///
    /// Returns [`LineDead`] when no feasible window exists on the grid.
    ///
    /// # Panics
    ///
    /// As [`write`](Self::write), plus if `step` is not a power of two
    /// dividing 64.
    pub(crate) fn write_with_step(
        &mut self,
        engine: &EccEngine,
        payload: Payload<'_>,
        preferred: usize,
        slide: bool,
        step: usize,
    ) -> Result<LineWriteReport, LineDead> {
        let len = payload.bytes.len();
        assert!(
            (1..=DATA_BYTES).contains(&len),
            "payload must be 1..=64 bytes"
        );
        assert!(preferred < DATA_BYTES, "preferred offset must be < 64");

        let mut report = LineWriteReport {
            offset: preferred,
            flips: 0,
            flip_mask: Line512::zero(),
            new_faults: 0,
            attempts: 0,
            slid: false,
        };
        // Verify-and-retry: each iteration either succeeds or adds at least
        // one newly-stuck cell, so 512 iterations bound the loop.
        loop {
            report.attempts += 1;
            let offset = match self.can_host_with_step(engine, len, preferred, slide, step) {
                Some(o) => o,
                None => {
                    self.dead = true;
                    self.valid = false;
                    return Err(LineDead {
                        faults: self.faults().count(),
                    });
                }
            };
            report.slid |= offset != preferred;
            report.offset = offset;

            let target = window::place(&self.wear.stored(), offset, payload.bytes);
            let window_faults = window::fault_map_in(self.faults(), offset, len);
            let stored_now = self.wear.stored();
            // Program only the window cells; everything outside keeps its
            // current physical value (don't-care, zero flips).
            let mask = window::window_mask(offset, len);
            let plan = self.plan(engine, offset, len, &window_faults);
            let (encoded, code) =
                match engine.encode(&target, &stored_now, &mask, &window_faults, plan) {
                    Ok(v) => v,
                    // can_store passed but the data-dependent encode failed
                    // (cannot happen for the schemes here, guarded anyway).
                    Err(_) => {
                        self.dead = true;
                        self.valid = false;
                        return Err(LineDead {
                            faults: self.faults().count(),
                        });
                    }
                };
            let stored_target = (encoded & mask) | (self.wear.stored() & !mask);
            let outcome = self.wear.write(&stored_target);
            report.flips += outcome.flips;
            report.flip_mask = report.flip_mask | outcome.flip_mask;
            report.new_faults += outcome.new_faults.len() as u32;

            let fresh_in_window = outcome.new_faults.iter().any(|f| mask.bit(f.pos as usize));
            if !fresh_in_window {
                self.meta_updates.writes += 1;
                if self.valid {
                    self.meta_updates.start_pointer += (self.offset != offset) as u64;
                    self.meta_updates.encoding += (self.method != payload.method) as u64;
                    self.meta_updates.size += (self.size != len) as u64;
                }
                self.code = code;
                self.method = payload.method;
                self.offset = offset;
                self.size = len;
                self.valid = true;
                self.dead = false;
                return Ok(report);
            }
            // A cell died under the write: the stored data is corrupt;
            // re-encode around the enlarged fault set (possibly sliding).
        }
    }

    /// Reads back the stored payload (method + bytes), or `None` when the
    /// line holds no valid data.
    pub fn read(&self, engine: &EccEngine) -> Option<(Method, Vec<u8>)> {
        if !self.is_valid() {
            return None;
        }
        let corrected = engine.decode(&self.wear.stored(), &self.code);
        Some((
            self.method,
            window::extract(&corrected, self.offset, self.size),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_compress::{compress_best, decompress, CompressedWrite};
    use pcm_util::seeded_rng;

    fn engine() -> EccEngine {
        EccEngine::new(EccChoice::Ecp6)
    }

    fn payload_of(c: &CompressedWrite) -> Payload<'_> {
        Payload {
            method: c.method(),
            bytes: c.bytes(),
        }
    }

    #[test]
    fn healthy_line_write_read_round_trip() {
        let mut rng = seeded_rng(111);
        let e = engine();
        let mut line = ManagedLine::with_endurance(vec![u32::MAX; 512]);
        for offset in [0usize, 17, 60] {
            let data = Line512::random(&mut rng);
            let c = compress_best(&data);
            let r = line.write(&e, payload_of(&c), offset, false).unwrap();
            assert_eq!(r.offset, offset);
            assert_eq!(r.attempts, 1);
            let (method, bytes) = line.read(&e).unwrap();
            let back = decompress(&CompressedWrite::from_parts(method, bytes).unwrap());
            assert_eq!(back, data);
        }
    }

    #[test]
    fn compressed_write_only_touches_window() {
        let e = engine();
        let mut line = ManagedLine::with_endurance(vec![u32::MAX; 512]);
        // First fill the line with ones (uncompressed write).
        let ones = Line512::ones();
        let c0 =
            CompressedWrite::from_parts(Method::Uncompressed, ones.to_bytes().to_vec()).unwrap();
        line.write(&e, payload_of(&c0), 0, false).unwrap();
        // Now write a 1-byte zero payload at offset 5.
        let zeros = compress_best(&Line512::zero());
        assert_eq!(zeros.size(), 1);
        let r = line.write(&e, payload_of(&zeros), 5, false).unwrap();
        assert_eq!(r.flips, 8, "only the window byte is programmed");
        // Cells outside the window still hold ones.
        assert_eq!(line.wear().stored().byte(4), 0xFF);
        assert_eq!(line.wear().stored().byte(6), 0xFF);
    }

    #[test]
    fn write_survives_faults_within_capacity() {
        let mut rng = seeded_rng(112);
        let e = engine();
        // Six cells with zero endurance die on first touch.
        let mut endurance = vec![u32::MAX; 512];
        for pos in [3usize, 50, 100, 200, 300, 400] {
            endurance[pos] = 0;
        }
        let mut line = ManagedLine::with_endurance(endurance);
        for _ in 0..16 {
            let data = Line512::random(&mut rng);
            let c = compress_best(&data);
            line.write(&e, payload_of(&c), 0, false).unwrap();
            let (method, bytes) = line.read(&e).unwrap();
            let back = decompress(&CompressedWrite::from_parts(method, bytes).unwrap());
            assert_eq!(back, data, "ECP must mask the stuck cells");
        }
        assert!(line.faults().count() <= 6);
    }

    #[test]
    fn seven_clustered_faults_kill_non_sliding_line() {
        let e = engine();
        let mut endurance = vec![u32::MAX; 512];
        for pos in 0..7 {
            endurance[pos] = 0;
        }
        let mut line = ManagedLine::with_endurance(endurance);
        let data = Line512::ones();
        let c =
            CompressedWrite::from_parts(Method::Uncompressed, data.to_bytes().to_vec()).unwrap();
        let err = line.write(&e, payload_of(&c), 0, false).unwrap_err();
        assert_eq!(err.faults, 7);
        assert!(line.is_dead());
        assert!(line.read(&e).is_none());
    }

    #[test]
    fn sliding_window_dodges_fault_cluster() {
        let e = engine();
        let mut endurance = vec![u32::MAX; 512];
        for pos in 0..16 {
            endurance[pos] = 0; // all of bytes 0-1 die on first touch
        }
        let mut line = ManagedLine::with_endurance(endurance);
        // A 16-byte compressible payload with slide: must succeed by
        // dodging the dead bytes (possibly after verify-retry).
        let mut narrow = [0u8; 64];
        for i in 0..8 {
            narrow[i * 8] = i as u8;
        }
        let data = Line512::from_bytes(&narrow);
        let c = compress_best(&data);
        assert!(c.size() <= 16);
        let r = line.write(&e, payload_of(&c), 0, true).unwrap();
        let (method, bytes) = line.read(&e).unwrap();
        let back = decompress(&CompressedWrite::from_parts(method, bytes).unwrap());
        assert_eq!(back, data);
        // After the initial failures the window settles past the cluster.
        assert!(r.slid || r.offset == 0);
        assert!(!line.is_dead());
    }

    #[test]
    fn verify_retry_reencodes_midwrite_failures() {
        let e = engine();
        // Cell 8 survives exactly one programming event, then sticks.
        let mut endurance = vec![u32::MAX; 512];
        endurance[8] = 1;
        let mut line = ManagedLine::with_endurance(endurance);
        // Write all-ones (uncompressed): programs cell 8 once (0 -> 1).
        let ones =
            CompressedWrite::from_parts(Method::Uncompressed, Line512::ones().to_bytes().to_vec())
                .unwrap();
        line.write(&e, payload_of(&ones), 0, false).unwrap();
        // Write all-zeros: cell 8's second programming fails; the write
        // must verify-retry and cover it with ECP.
        let zeros =
            CompressedWrite::from_parts(Method::Uncompressed, Line512::zero().to_bytes().to_vec())
                .unwrap();
        let r = line.write(&e, payload_of(&zeros), 0, false).unwrap();
        assert!(r.attempts >= 2, "mid-write failure forces a retry");
        assert_eq!(r.new_faults, 1);
        let (method, bytes) = line.read(&e).unwrap();
        let back = decompress(&CompressedWrite::from_parts(method, bytes).unwrap());
        assert_eq!(back, Line512::zero());
    }

    #[test]
    fn resurrection_flow() {
        let e = engine();
        let mut endurance = vec![u32::MAX; 512];
        for pos in 0..60 {
            endurance[pos] = 0; // bytes 0..7 mostly dead
        }
        let mut line = ManagedLine::with_endurance(endurance);
        let big =
            CompressedWrite::from_parts(Method::Uncompressed, Line512::ones().to_bytes().to_vec())
                .unwrap();
        assert!(line.write(&e, payload_of(&big), 0, true).is_err());
        assert!(line.is_dead());
        // A 1-byte payload fits in the healthy tail: resurrection check.
        let offset = line.can_host(&e, 1, 0, true).expect("healthy bytes remain");
        line.revive();
        let tiny = compress_best(&Line512::zero());
        line.write(&e, payload_of(&tiny), offset, true).unwrap();
        assert!(line.is_valid());
    }

    #[test]
    fn safer_and_aegis_engines_round_trip() {
        let mut rng = seeded_rng(113);
        for choice in [EccChoice::Safer32, EccChoice::Aegis17x31] {
            let e = EccEngine::new(choice);
            let mut endurance = vec![u32::MAX; 512];
            for pos in [9usize, 120, 333] {
                endurance[pos] = 0;
            }
            let mut line = ManagedLine::with_endurance(endurance);
            for _ in 0..8 {
                let data = Line512::random(&mut rng);
                let c = compress_best(&data);
                line.write(&e, payload_of(&c), 0, true).unwrap();
                let (method, bytes) = line.read(&e).unwrap();
                let back = decompress(&CompressedWrite::from_parts(method, bytes).unwrap());
                assert_eq!(back, data, "{choice:?}");
            }
        }
    }

    #[test]
    fn coset_engine_round_trips_through_stuck_cells() {
        let mut rng = seeded_rng(114);
        let e = EccEngine::new(EccChoice::Coset);
        let mut endurance = vec![u32::MAX; 512];
        for pos in [9usize, 120, 333] {
            endurance[pos] = 0;
        }
        let mut line = ManagedLine::with_endurance(endurance);
        for _ in 0..8 {
            let data = Line512::random(&mut rng);
            let c = compress_best(&data);
            line.write(&e, payload_of(&c), 0, true).unwrap();
            let (method, bytes) = line.read(&e).unwrap();
            let back = decompress(&CompressedWrite::from_parts(method, bytes).unwrap());
            assert_eq!(back, data);
        }
    }

    #[test]
    fn coset_transform_cuts_flips_on_inverting_writes() {
        // Alternating all-ones / all-zeros uncompressed writes: a plain
        // scheme flips all 512 cells every write; coset's tag-7 candidate
        // rewrites the line in place.
        let plain = EccEngine::new(EccChoice::Ecp6);
        let coset = EccEngine::new(EccChoice::Coset);
        let mut flips = [0u32; 2];
        for (i, e) in [&plain, &coset].into_iter().enumerate() {
            let mut line = ManagedLine::with_endurance(vec![u32::MAX; 512]);
            for round in 0..8 {
                let data = if round % 2 == 0 {
                    Line512::ones()
                } else {
                    Line512::zero()
                };
                let c = CompressedWrite::from_parts(Method::Uncompressed, data.to_bytes().to_vec())
                    .unwrap();
                flips[i] += line.write(e, payload_of(&c), 0, false).unwrap().flips;
                let (_, bytes) = line.read(e).unwrap();
                assert_eq!(Line512::from_bytes(&bytes.try_into().unwrap()), data);
            }
        }
        assert!(
            flips[1] < flips[0] / 2,
            "coset ({}) must beat plain ECP ({}) on inverting traffic",
            flips[1],
            flips[0]
        );
    }

    /// From-scratch twin of [`ManagedLine`]: the same write loop over the
    /// same cell model, but every placement runs
    /// [`window::find_offset_with_step`] afresh and every encode runs the
    /// scheme's full `write`, so nothing carries over between writes.
    struct FromScratch {
        wear: LineWear,
        code: EccCode,
        offset: usize,
        size: usize,
        valid: bool,
        dead: bool,
    }

    impl FromScratch {
        fn locate(
            &self,
            choice: EccChoice,
            len: usize,
            preferred: usize,
            slide: bool,
            step: usize,
        ) -> Option<usize> {
            let faults = self.wear.faults();
            if slide {
                window::find_offset_with_step(choice.scheme(), faults, len, preferred, step)
            } else {
                let preferred = preferred / step * step;
                let in_window = window::faults_in(faults, preferred, len);
                choice.scheme().can_store(&in_window).then_some(preferred)
            }
        }

        fn encode(
            choice: EccChoice,
            target: &Line512,
            stored: &Line512,
            mask: &Line512,
            faults: &FaultMap,
        ) -> Result<(Line512, EccCode), pcm_ecc::EccError> {
            match choice {
                EccChoice::Ecp6 | EccChoice::EcpN(_) => {
                    let entries = if let EccChoice::EcpN(n) = choice {
                        n as u32
                    } else {
                        6
                    };
                    Ecp::new(entries)
                        .write(target, faults)
                        .map(|(s, c)| (s, EccCode::Ecp(c)))
                }
                EccChoice::Safer32 => registry::shared_safer32()
                    .write(target, faults)
                    .map(|(s, c)| (s, EccCode::Safer(c))),
                EccChoice::Aegis17x31 => registry::shared_aegis_17x31()
                    .write(target, faults)
                    .map(|(s, c)| (s, EccCode::Aegis(c))),
                EccChoice::Secded => Secded::new()
                    .write(target, faults)
                    .map(|(s, c)| (s, EccCode::Secded(c))),
                EccChoice::Coset => {
                    let coset = registry::shared_coset();
                    let (transformed, tag) = coset.encode_payload(target, stored, mask, faults);
                    coset
                        .write(&transformed, faults)
                        .map(|(s, c)| (s, EccCode::Coset(tag, c)))
                }
            }
        }

        fn write(
            &mut self,
            choice: EccChoice,
            bytes: &[u8],
            preferred: usize,
            slide: bool,
            step: usize,
        ) -> Result<LineWriteReport, LineDead> {
            let len = bytes.len();
            let mut report = LineWriteReport {
                offset: preferred,
                flips: 0,
                flip_mask: Line512::zero(),
                new_faults: 0,
                attempts: 0,
                slid: false,
            };
            loop {
                report.attempts += 1;
                let located = self.locate(choice, len, preferred, slide, step);
                let dead = LineDead {
                    faults: self.wear.faults().count(),
                };
                let Some(offset) = located else {
                    (self.dead, self.valid) = (true, false);
                    return Err(dead);
                };
                report.slid |= offset != preferred;
                report.offset = offset;
                let stored = self.wear.stored();
                let mask = window::window_mask(offset, len);
                let target = window::place(&stored, offset, bytes);
                let faults = window::fault_map_in(self.wear.faults(), offset, len);
                let Ok((encoded, code)) = Self::encode(choice, &target, &stored, &mask, &faults)
                else {
                    (self.dead, self.valid) = (true, false);
                    return Err(dead);
                };
                let outcome = self.wear.write(&((encoded & mask) | (stored & !mask)));
                report.flips += outcome.flips;
                report.flip_mask = report.flip_mask | outcome.flip_mask;
                report.new_faults += outcome.new_faults.len() as u32;
                if !outcome.new_faults.iter().any(|f| mask.bit(f.pos as usize)) {
                    (self.code, self.offset, self.size) = (code, offset, len);
                    (self.valid, self.dead) = (true, false);
                    return Ok(report);
                }
            }
        }
    }

    /// The epoch memo is invisible: a memoized line and a from-scratch
    /// twin fed the same traffic, fault injections and revivals agree on
    /// every placement probe, write report, code word, stored line and
    /// read, for every scheme, with and without sliding, at two grids.
    #[test]
    fn epoch_memo_matches_from_scratch_placement_and_encode() {
        use rand::RngExt;
        let choices = [
            EccChoice::Ecp6,
            EccChoice::EcpN(3),
            EccChoice::Safer32,
            EccChoice::Aegis17x31,
            EccChoice::Secded,
            EccChoice::Coset,
        ];
        let mut deaths = 0;
        let mut revivals = 0;
        let mut injected = 0;
        for (ci, &choice) in choices.iter().enumerate() {
            for slide in [false, true] {
                for step in [1usize, 8] {
                    let seed = 0xE90C_u64 ^ (ci as u64) << 8 ^ (slide as u64) << 4 ^ step as u64;
                    let mut rng = seeded_rng(seed);
                    // One cell in six is weak enough to die within the run.
                    let endurance: Vec<u32> = (0..pcm_util::DATA_BITS)
                        .map(|_| {
                            if rng.random_ratio(1, 6) {
                                rng.random_range(0..400u32)
                            } else {
                                1 << 30
                            }
                        })
                        .collect();
                    let engine = EccEngine::new(choice);
                    let mut line = ManagedLine::with_endurance(endurance.clone());
                    let mut twin = FromScratch {
                        wear: LineWear::with_endurance(endurance),
                        code: EccCode::None,
                        offset: 0,
                        size: 0,
                        valid: false,
                        dead: false,
                    };
                    let mut preferred = 0;
                    let sizes = [64usize, 8, 16, 24, 40];
                    for w in 0..600 {
                        let ctx = format!("{choice:?} slide {slide} step {step} write {w}");
                        if w % 16 == 0 {
                            preferred = rng.random_range(0..DATA_BYTES);
                        }
                        let len = if rng.random_ratio(1, 8) {
                            rng.random_range(1..=DATA_BYTES)
                        } else {
                            sizes[rng.random_range(0..sizes.len())]
                        };
                        if line.is_dead() {
                            // Resurrection check, then revive on a fit.
                            let fit = line.can_host_with_step(&engine, len, preferred, slide, step);
                            assert_eq!(
                                fit,
                                twin.locate(choice, len, preferred, slide, step),
                                "{ctx}"
                            );
                            if fit.is_none() {
                                continue;
                            }
                            line.revive();
                            twin.dead = false;
                            twin.valid = false;
                            revivals += 1;
                        }
                        // The fallback probes the campaign runs before a write.
                        for probe in [DATA_BYTES, len] {
                            assert_eq!(
                                line.can_host_with_step(&engine, probe, preferred, slide, step),
                                twin.locate(choice, probe, preferred, slide, step),
                                "{ctx}: probe {probe}"
                            );
                        }
                        let bytes: Vec<u8> = (0..len).map(|_| rng.random()).collect();
                        let payload = Payload {
                            method: Method::Uncompressed,
                            bytes: &bytes,
                        };
                        let got = line.write_with_step(&engine, payload, preferred, slide, step);
                        let want = twin.write(choice, &bytes, preferred, slide, step);
                        assert_eq!(got, want, "{ctx}");
                        deaths += got.is_err() as u32;
                        assert_eq!(line.code, twin.code, "{ctx}");
                        assert_eq!(line.wear().stored(), twin.wear.stored(), "{ctx}");
                        assert_eq!(line.faults(), twin.wear.faults(), "{ctx}");
                        let twin_read = (twin.valid && !twin.dead).then(|| {
                            let corrected = engine.decode(&twin.wear.stored(), &twin.code);
                            (
                                Method::Uncompressed,
                                window::extract(&corrected, twin.offset, twin.size),
                            )
                        });
                        assert_eq!(line.read(&engine), twin_read, "{ctx}");
                        if let Ok(r) = got {
                            assert_eq!(twin_read.map(|(_, b)| b), Some(bytes), "{ctx}: round trip");
                            if slide {
                                assert!(
                                    line.memo.places.iter().any(|p| p[0] == len as u8),
                                    "{ctx}: placement memoized at offset {}",
                                    r.offset
                                );
                            }
                        }
                        // Fast-forward wear between writes, as the campaign
                        // engine does: it creates faults no write reports.
                        if w % 8 == 7 {
                            let mut grants = [0u32; pcm_util::DATA_BITS];
                            for g in grants.iter_mut() {
                                if rng.random_ratio(1, 4) {
                                    *g = rng.random_range(0..40);
                                }
                            }
                            let before = line.faults().count();
                            line.add_wear_bulk(&grants);
                            twin.wear.add_wear_bulk(&grants);
                            injected += line.faults().count() - before;
                            assert_eq!(line.faults(), twin.wear.faults(), "{ctx}");
                        }
                    }
                }
            }
        }
        // The run must reach the paths under test, not just healthy writes.
        assert!(
            deaths > 20 && revivals > 10 && injected > 100,
            "deaths {deaths} revivals {revivals} injected {injected}"
        );
    }

    #[test]
    fn epoch_memo_stays_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<EpochMemo>(), 16);
    }

    #[test]
    fn slide_keys_are_distinct_per_grid_start() {
        let mut seen = std::collections::BTreeMap::new();
        for step in [1usize, 2, 4, 8, 16, 32, 64] {
            for preferred in 0..DATA_BYTES {
                let (_, grid) = slide_key(1, preferred, step);
                let start = (preferred / step * step, step);
                assert_eq!(
                    *seen.entry(grid).or_insert(start),
                    start,
                    "grid byte {grid}"
                );
            }
        }
    }
}
