//! Checkpoint / restart: save a full [`SimState`] to disk and resume it
//! bit-exactly. Long FSI runs (the paper's inputs run for hours) need
//! this in practice.
//!
//! The format is a versioned little-endian binary layout written by this
//! module (no external serialization crate): magic, version, config,
//! a fluid-encoding tag, fluid arrays, structure arrays, step counter, a
//! trailing length guard, and a CRC-32 over everything before it. Loading
//! validates magic, version, sizes and the checksum and fails loudly on
//! corruption or truncation.
//!
//! # Compact fluid section
//!
//! At a step boundary every backend's state has `f_new == f`, and ρ, u
//! and u_eq equal [`node_moments_shifted`] of `f`, the stored force and τ
//! bit for bit. When that holds at every node, the file stores only `f`
//! and the force (22 doubles per node instead of 48) and the reader
//! derives the rest. Any other state (a fresh one stores ρ = 1.0 where
//! the weights sum to 1.0000000000000002) is written in full, so a
//! round trip is bit-exact either way. Version 2 files, which carry no
//! tag and always the full section, still load.
//!
//! # Crash consistency
//!
//! [`save`] never leaves a torn file at the final path: the checkpoint is
//! written to a temporary sibling, fsynced, and atomically renamed into
//! place. An existing checkpoint is first rotated to `<path>.prev`, and
//! [`resume`] falls back to that previous snapshot when the primary file
//! is corrupt or missing (e.g. the process was killed between the two
//! renames).

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use ib::delta::DeltaKind;
use ib::sheet::FiberSheet;
use ib::tether::{Tether, TetherSet};
use lbm::boundary::{AxisBoundary, BoundaryConfig};
use lbm::grid::FluidGrid;
use lbm::macroscopic::{node_moments_shifted, update_velocity_shifted};
use lbm::Q;

use crate::config::{SheetConfig, SimulationConfig, TetherConfig};
use crate::state::SimState;

const MAGIC: &[u8; 8] = b"LBMIB\0\0\x01";
const VERSION: u64 = 3;
/// The previous format: the v3 layout without the fluid-encoding tag,
/// always with the full fluid section. Still read.
const VERSION_V2: u64 = 2;

/// Fluid-encoding tag of a v3 file: `f` and the force's x, y and z
/// components only.
const FLUID_COMPACT: u64 = 0;
/// Fluid-encoding tag of a v3 file: all twelve arrays, in v2's order: `f`,
/// `f_new`, `rho`, then the x, y and z components of `u`, of `ueq` and of
/// the force, one array each. This module is the only code that splits a
/// [`FluidGrid`] triple into components.
const FLUID_FULL: u64 = 1;

/// Buffer size of the checkpoint writer and reader. At 8 KiB a 32³ save
/// took about 1,500 `write` calls.
const IO_BUF: usize = 1 << 20;

/// Sanity bounds on header dimensions, checked **before** any allocation
/// sized from them. A corrupt or hostile header used to drive
/// `FluidGrid::new(nx * ny * nz)` directly: `u64::MAX` extents overflowed
/// the product (a panic in debug builds, an absurd allocation in release).
const MAX_EXTENT: u64 = 1 << 16;
const MAX_GRID_NODES: u64 = 1 << 31;
const MAX_FIBER_COUNT: u64 = 1 << 20;
const MAX_NODES_PER_FIBER: u64 = 1 << 20;
const MAX_SHEET_NODES: u64 = 1 << 26;

/// Rejects zero or out-of-bounds header dimensions with a format error.
fn bounded(v: u64, max: u64, what: &str) -> Result<usize, CheckpointError> {
    if v == 0 || v > max {
        return Err(CheckpointError::Format(format!(
            "{what} = {v} outside sane range 1..={max}"
        )));
    }
    Ok(v as usize)
}

/// Errors from loading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    Io(io::Error),
    /// Not a checkpoint file, or a different format version.
    Format(String),
    /// The payload decoded but its CRC-32 does not match: silent on-disk
    /// corruption (bit rot, torn write that still parses).
    Crc {
        expected: u32,
        found: u32,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Format(m) => write!(f, "invalid checkpoint: {m}"),
            CheckpointError::Crc { expected, found } => write!(
                f,
                "checkpoint CRC mismatch: payload hashes to {expected:#010x}, trailer says {found:#010x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, reflected; no external crates).
// ---------------------------------------------------------------------------

/// Folds `bytes` into the running (pre-inversion) CRC-32 `state`. The
/// digest is the same as a byte-at-a-time loop over the same polynomial.
///
/// On x86_64 CPUs with PCLMULQDQ (checked at run time), a piece of at
/// least 128 bytes goes through the carry-less-multiply fold
/// ([`clmul::fold`]) in whole 64-byte blocks, and only its remainder of
/// fewer than 64 bytes through the table loop ([`crc32_table_update`]),
/// which takes shorter pieces and serves every other CPU.
fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN && std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: the CPU supports PCLMULQDQ (checked just above), and
        // SSE2, the fold's other requirement, is part of x86_64 itself.
        let (state, rest) = unsafe { clmul::fold(state, bytes) };
        return crc32_table_update(state, rest);
    }
    crc32_table_update(state, bytes)
}

/// Bytes folded per step of the sliced loop in [`crc32_table_update`].
const CRC_SLICE: usize = 16;

/// Slicing-by-16 tables. `table[0]` is the classic bytewise table;
/// `table[j][b]` is the CRC contribution of byte `b` followed by `j` zero
/// bytes, so one step can look up 16 input bytes independently and XOR
/// the results.
const fn crc32_tables() -> [[u32; 256]; CRC_SLICE] {
    let mut table = [[0u32; 256]; CRC_SLICE];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < CRC_SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = table[j - 1][i];
            table[j][i] = (prev >> 8) ^ table[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    table
}

static CRC_TABLES: [[u32; 256]; CRC_SLICE] = crc32_tables();

/// [`crc32_update`] by table lookups alone: slicing-by-16, and a
/// byte-at-a-time loop for a tail of fewer than 16 bytes.
fn crc32_table_update(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let (blocks, rest) = bytes.as_chunks::<CRC_SLICE>();
    for b in blocks {
        // The state lines up with the block's first four bytes; each byte
        // then goes through the table for its distance to the block end.
        let s = state.to_le_bytes();
        let mut next = 0;
        for j in 0..CRC_SLICE {
            let v = if j < 4 { b[j] ^ s[j] } else { b[j] };
            next ^= t[CRC_SLICE - 1 - j][v as usize];
        }
        state = next;
    }
    for &b in rest {
        state = t[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// CRC-32 by carry-less multiplication (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel, 2009), in the bit-reflected form the IEEE CRC uses.
///
/// Four 128-bit accumulators each take every fourth 16-byte lane. One
/// fold step multiplies an accumulator's two 64-bit halves by
/// `x^(512±32) mod P` and XORs the products into the lane 64 bytes on,
/// which keeps the accumulator congruent to the message so far. At the
/// end the four fold into one (constants for 128 bits), the 128 bits
/// reduce to 64, and a Barrett reduction by `P` and `μ = x^64 / P` leaves
/// the 32-bit remainder, the running CRC state.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The fewest bytes worth folding: the four accumulators' first load
    /// plus one fold step.
    pub(super) const MIN_LEN: usize = 128;

    /// Fold constants, each `x^e mod P` with its 32 bits reversed and
    /// shifted up one (33 bits): `e` = 4·128+32 (`K1`) and 4·128−32
    /// (`K2`) fold 64 bytes on, 128+32 (`K3`) and 128−32 (`K4`) 16 bytes
    /// on, and 64 (`K5`) takes 128 bits to 64.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial `P` and the Barrett constant `μ`, bit-reflected.
    const P_X: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Folds the longest prefix of `bytes` made of whole 64-byte blocks
    /// into the running (pre-inversion) `state` and returns the new state
    /// with the bytes left over (fewer than 64). `bytes` must hold at
    /// least [`MIN_LEN`] bytes.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ (SSE2 is part of x86_64), which is
    /// why a call from code compiled without it is `unsafe`.
    #[target_feature(enable = "pclmulqdq,sse2")]
    pub(super) fn fold(state: u32, bytes: &[u8]) -> (u32, &[u8]) {
        debug_assert!(bytes.len() >= MIN_LEN);
        let (blocks, rest) = bytes.as_chunks::<64>();
        let lane = |block: &[u8; 64], j: usize| {
            let lane: &[u8; 16] = &block.as_chunks::<16>().0[j];
            // SAFETY: `lane` is 16 readable bytes, and `_mm_loadu_si128`
            // has no alignment requirement.
            unsafe { _mm_loadu_si128(lane.as_ptr().cast::<__m128i>()) }
        };
        let mut x = [0, 1, 2, 3].map(|j| lane(&blocks[0], j));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in &blocks[1..] {
            for (j, acc) in x.iter_mut().enumerate() {
                *acc = fold_into(*acc, lane(block, j), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold_into(x[0], x[1], k3k4);
        acc = fold_into(acc, x[2], k3k4);
        acc = fold_into(acc, x[3], k3k4);

        // 128 bits to 64: fold the low half onto the high half, then the
        // low 32 bits of that onto the rest.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(acc, k3k4),
            _mm_srli_si128::<8>(acc),
        );
        acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(acc),
        );

        // Barrett reduction, 64 bits to 32: T1 = (R mod x^32)·μ,
        // T2 = (T1 mod x^32)·P, and the CRC is bits 32..64 of R ⊕ T2.
        let pmu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        let crc = _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(acc, t2))) as u32;
        (crc, rest)
    }

    /// One fold step: `a`'s low half times `keys`' low half and its high
    /// half times `keys`' high half, both XORed into `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2")]
    fn fold_into(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(a, keys);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }
}

/// Writer that folds every byte it forwards into a running CRC-32.
struct CrcWriter<W: Write> {
    inner: W,
    state: u32,
}

impl<W: Write> CrcWriter<W> {
    fn new(inner: W) -> Self {
        Self {
            inner,
            state: 0xFFFF_FFFF,
        }
    }
    fn digest(&self) -> u32 {
        !self.state
    }
    /// Direct access to the underlying writer, bypassing the CRC (used to
    /// append the CRC trailer itself).
    fn raw(&mut self) -> &mut W {
        &mut self.inner
    }
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.state = crc32_update(self.state, &buf[..n]);
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Reader that folds every byte it yields into a running CRC-32.
struct CrcReader<R: Read> {
    inner: R,
    state: u32,
}

impl<R: Read> CrcReader<R> {
    fn new(inner: R) -> Self {
        Self {
            inner,
            state: 0xFFFF_FFFF,
        }
    }
    fn digest(&self) -> u32 {
        !self.state
    }
    /// Direct access to the underlying reader, bypassing the CRC (used to
    /// read the CRC trailer itself).
    fn raw(&mut self) -> &mut R {
        &mut self.inner
    }
}

impl<R: Read> Read for CrcReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.state = crc32_update(self.state, &buf[..n]);
        Ok(n)
    }
}

/// Values per block write/read of a float array.
const F64_BLOCK: usize = 1024;

struct Enc<W: Write>(W);

impl<W: Write> Enc<W> {
    fn u64(&mut self, v: u64) -> io::Result<()> {
        self.0.write_all(&v.to_le_bytes())
    }
    fn f64(&mut self, v: f64) -> io::Result<()> {
        self.0.write_all(&v.to_le_bytes())
    }
    fn f64s(&mut self, v: &[f64]) -> io::Result<()> {
        self.u64(v.len() as u64)?;
        self.f64_blocks(v, |&x| x)
    }
    fn vec3s(&mut self, v: &[[f64; 3]]) -> io::Result<()> {
        self.u64(v.len() as u64)?;
        self.f64_blocks(v.as_flattened(), |&x| x)
    }
    /// Writes the x, y and z components of `v` as three length-prefixed
    /// arrays.
    fn components(&mut self, v: &[[f64; 3]]) -> io::Result<()> {
        for c in 0..3 {
            self.u64(v.len() as u64)?;
            self.f64_blocks(v, |t| t[c])?;
        }
        Ok(())
    }
    /// Writes `value` of every entry of `v` with no length prefix,
    /// [`F64_BLOCK`] values per write, so the CRC folds large blocks rather
    /// than single values.
    fn f64_blocks<T>(&mut self, v: &[T], value: impl Fn(&T) -> f64) -> io::Result<()> {
        let mut buf = [0u8; 8 * F64_BLOCK];
        for chunk in v.chunks(F64_BLOCK) {
            for (dst, x) in buf.chunks_exact_mut(8).zip(chunk) {
                dst.copy_from_slice(&value(x).to_le_bytes());
            }
            self.0.write_all(&buf[..8 * chunk.len()])?;
        }
        Ok(())
    }
    fn axis(&mut self, a: AxisBoundary) -> io::Result<()> {
        match a {
            AxisBoundary::Periodic => self.u64(0),
            AxisBoundary::Walls { lo, hi } => {
                self.u64(1)?;
                for c in lo.iter().chain(hi.iter()) {
                    self.f64(*c)?;
                }
                Ok(())
            }
        }
    }
}

struct Dec<R: Read>(R);

impl<R: Read> Dec<R> {
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let mut b = [0u8; 8];
        self.0.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
    fn f64(&mut self) -> Result<f64, CheckpointError> {
        let mut b = [0u8; 8];
        self.0.read_exact(&mut b)?;
        Ok(f64::from_le_bytes(b))
    }
    /// Fills `out` from a length-prefixed array of exactly its length.
    fn f64s(&mut self, out: &mut [f64]) -> Result<(), CheckpointError> {
        self.length(out.len())?;
        self.f64_blocks(out, |x, v| *x = v)
    }
    /// Fills the x, y and z components of `out` from three length-prefixed
    /// arrays of exactly its length (the inverse of [`Enc::components`]).
    fn components(&mut self, out: &mut [[f64; 3]]) -> Result<(), CheckpointError> {
        for c in 0..3 {
            self.length(out.len())?;
            self.f64_blocks(out, |t, v| t[c] = v)?;
        }
        Ok(())
    }
    /// Reads an array's length prefix, which must be `expect`.
    fn length(&mut self, expect: usize) -> Result<(), CheckpointError> {
        let n = self.u64()?;
        if n != expect as u64 {
            return Err(CheckpointError::Format(format!(
                "array length {n}, expected {expect}"
            )));
        }
        Ok(())
    }
    fn vec3s(&mut self, expect: usize) -> Result<Vec<[f64; 3]>, CheckpointError> {
        let n = self.u64()? as usize;
        if n != expect {
            return Err(CheckpointError::Format(format!(
                "node count {n}, expected {expect}"
            )));
        }
        let mut out = vec![[0.0; 3]; n];
        self.f64_blocks(out.as_flattened_mut(), |x, v| *x = v)?;
        Ok(out)
    }
    /// Hands every entry of `out` one value through `set`, from
    /// [`F64_BLOCK`]-value reads (the inverse of [`Enc::f64_blocks`]).
    fn f64_blocks<T>(
        &mut self,
        out: &mut [T],
        set: impl Fn(&mut T, f64),
    ) -> Result<(), CheckpointError> {
        let mut buf = [0u8; 8 * F64_BLOCK];
        for chunk in out.chunks_mut(F64_BLOCK) {
            let bytes = &mut buf[..8 * chunk.len()];
            self.0.read_exact(bytes)?;
            for (x, b) in chunk.iter_mut().zip(bytes.as_chunks::<8>().0) {
                set(x, f64::from_le_bytes(*b));
            }
        }
        Ok(())
    }
    fn axis(&mut self) -> Result<AxisBoundary, CheckpointError> {
        match self.u64()? {
            0 => Ok(AxisBoundary::Periodic),
            1 => {
                let mut v = [0.0; 6];
                for c in v.iter_mut() {
                    *c = self.f64()?;
                }
                Ok(AxisBoundary::Walls {
                    lo: [v[0], v[1], v[2]],
                    hi: [v[3], v[4], v[5]],
                })
            }
            k => Err(CheckpointError::Format(format!("unknown axis kind {k}"))),
        }
    }
}

fn delta_code(d: DeltaKind) -> u64 {
    match d {
        DeltaKind::Peskin4 => 0,
        DeltaKind::Peskin4Poly => 1,
        DeltaKind::Hat2 => 2,
        DeltaKind::Roma3 => 3,
    }
}

fn delta_from(code: u64) -> Result<DeltaKind, CheckpointError> {
    Ok(match code {
        0 => DeltaKind::Peskin4,
        1 => DeltaKind::Peskin4Poly,
        2 => DeltaKind::Hat2,
        3 => DeltaKind::Roma3,
        k => return Err(CheckpointError::Format(format!("unknown delta kind {k}"))),
    })
}

/// Whether the compact section loses nothing: `f_new == f`, and at every
/// node ρ, u and u_eq are [`node_moments_shifted`] of `f`, the force and
/// τ, all compared bit for bit.
fn moments_derivable(g: &FluidGrid, tau: f64) -> bool {
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
    g.f.chunks_exact(Q)
        .zip(g.f_new.chunks_exact(Q))
        .enumerate()
        .all(|(node, (f, f_new))| {
            let (rho, u, ueq) = node_moments_shifted(f, g.force[node], tau);
            let same3 = |a: [f64; 3], b: [f64; 3]| (0..3).all(|c| same(a[c], b[c]));
            f.iter().zip(f_new).all(|(&a, &b)| same(a, b))
                && same(rho, g.rho[node])
                && same3(u, g.u[node])
                && same3(ueq, g.ueq[node])
        })
}

/// Writes a checkpoint of `state` to `w`.
pub fn write_checkpoint<W: Write>(state: &SimState, w: W) -> io::Result<()> {
    let mut e = Enc(CrcWriter::new(io::BufWriter::with_capacity(IO_BUF, w)));
    e.0.write_all(MAGIC)?;
    e.u64(VERSION)?;

    // Config.
    let c = &state.config;
    e.u64(c.nx as u64)?;
    e.u64(c.ny as u64)?;
    e.u64(c.nz as u64)?;
    e.f64(c.tau)?;
    for g in c.body_force {
        e.f64(g)?;
    }
    e.axis(c.bc.x)?;
    e.axis(c.bc.y)?;
    e.axis(c.bc.z)?;
    e.u64(delta_code(c.delta))?;
    e.u64(c.cube_k as u64)?;
    // Sheet config.
    let s = &c.sheet;
    e.u64(s.num_fibers as u64)?;
    e.u64(s.nodes_per_fiber as u64)?;
    e.f64(s.width)?;
    e.f64(s.height)?;
    for v in s.center {
        e.f64(v)?;
    }
    e.f64(s.k_bend)?;
    e.f64(s.k_stretch)?;
    match s.tether {
        TetherConfig::None => e.u64(0)?,
        TetherConfig::CenterRegion { radius, stiffness } => {
            e.u64(1)?;
            e.f64(radius)?;
            e.f64(stiffness)?;
        }
        TetherConfig::LeadingEdge { stiffness } => {
            e.u64(2)?;
            e.f64(stiffness)?;
        }
    }

    // Fluid arrays: the compact section when it is lossless.
    let g = &state.fluid;
    if moments_derivable(g, c.tau) {
        e.u64(FLUID_COMPACT)?;
        e.f64s(&g.f)?;
    } else {
        e.u64(FLUID_FULL)?;
        for a in [&g.f, &g.f_new, &g.rho] {
            e.f64s(a)?;
        }
        e.components(&g.u)?;
        e.components(&g.ueq)?;
    }
    e.components(&g.force)?;

    // Structure.
    let sh = &state.sheet;
    e.f64(sh.ds_node)?;
    e.f64(sh.ds_fiber)?;
    e.f64(sh.k_bend)?;
    e.f64(sh.k_stretch)?;
    e.vec3s(&sh.pos)?;
    e.vec3s(&sh.bending)?;
    e.vec3s(&sh.stretching)?;
    e.vec3s(&sh.elastic)?;

    // Tethers (runtime set, not just config, so anchors are preserved).
    e.u64(state.tethers.tethers.len() as u64)?;
    for t in &state.tethers.tethers {
        e.u64(t.node as u64)?;
        for v in t.anchor {
            e.f64(v)?;
        }
        e.f64(t.stiffness)?;
    }

    e.u64(state.step)?;
    e.u64(0xC0DA_F00D_u64)?; // trailing guard

    // CRC-32 over everything above, appended outside the digest.
    let crc = e.0.digest();
    e.0.raw().write_all(&(crc as u64).to_le_bytes())?;
    e.0.flush()
}

/// Reads a checkpoint from `r`.
pub fn read_checkpoint<R: Read>(r: R) -> Result<SimState, CheckpointError> {
    let mut d = Dec(CrcReader::new(io::BufReader::with_capacity(IO_BUF, r)));
    let mut magic = [0u8; 8];
    d.0.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::Format("bad magic".into()));
    }
    let version = d.u64()?;
    if version != VERSION && version != VERSION_V2 {
        return Err(CheckpointError::Format(format!(
            "unsupported version {version} (expected {VERSION_V2} or {VERSION})"
        )));
    }

    let nx = bounded(d.u64()?, MAX_EXTENT, "nx")?;
    let ny = bounded(d.u64()?, MAX_EXTENT, "ny")?;
    let nz = bounded(d.u64()?, MAX_EXTENT, "nz")?;
    let grid_nodes = (nx as u64) * (ny as u64) * (nz as u64);
    if grid_nodes > MAX_GRID_NODES {
        return Err(CheckpointError::Format(format!(
            "grid {nx}x{ny}x{nz} has {grid_nodes} nodes, limit {MAX_GRID_NODES}"
        )));
    }
    let tau = d.f64()?;
    let body_force = [d.f64()?, d.f64()?, d.f64()?];
    let bc = BoundaryConfig {
        x: d.axis()?,
        y: d.axis()?,
        z: d.axis()?,
    };
    let delta = delta_from(d.u64()?)?;
    let cube_k = d.u64()? as usize;
    let num_fibers = bounded(d.u64()?, MAX_FIBER_COUNT, "num_fibers")?;
    let nodes_per_fiber = bounded(d.u64()?, MAX_NODES_PER_FIBER, "nodes_per_fiber")?;
    let sheet_nodes = (num_fibers as u64) * (nodes_per_fiber as u64);
    if sheet_nodes > MAX_SHEET_NODES {
        return Err(CheckpointError::Format(format!(
            "sheet {num_fibers}x{nodes_per_fiber} has {sheet_nodes} nodes, limit {MAX_SHEET_NODES}"
        )));
    }
    let width = d.f64()?;
    let height = d.f64()?;
    let center = [d.f64()?, d.f64()?, d.f64()?];
    let k_bend = d.f64()?;
    let k_stretch = d.f64()?;
    let tether = match d.u64()? {
        0 => TetherConfig::None,
        1 => TetherConfig::CenterRegion {
            radius: d.f64()?,
            stiffness: d.f64()?,
        },
        2 => TetherConfig::LeadingEdge {
            stiffness: d.f64()?,
        },
        k => return Err(CheckpointError::Format(format!("unknown tether kind {k}"))),
    };
    let config = SimulationConfig {
        nx,
        ny,
        nz,
        tau,
        body_force,
        bc,
        delta,
        sheet: SheetConfig {
            num_fibers,
            nodes_per_fiber,
            width,
            height,
            center,
            k_bend,
            k_stretch,
            tether,
        },
        cube_k,
        // The kernel plan, watchdog cadence and halo timeout are runtime
        // execution choices, not physics: a resumed run uses whatever the
        // caller configures.
        plan: crate::config::KernelPlan::default(),
        watchdog: None,
        halo_timeout: None,
    };
    config
        .validate()
        .map_err(|e| CheckpointError::Format(e.to_string()))?;

    let compact = match version {
        VERSION_V2 => false,
        _ => match d.u64()? {
            FLUID_COMPACT => true,
            FLUID_FULL => false,
            k => {
                return Err(CheckpointError::Format(format!(
                    "unknown fluid encoding {k}"
                )))
            }
        },
    };
    let mut fluid = FluidGrid::new(lbm::grid::Dims::new(nx, ny, nz));
    let g = &mut fluid;
    if compact {
        d.f64s(&mut g.f)?;
        d.components(&mut g.force)?;
        g.f_new.copy_from_slice(&g.f);
        update_velocity_shifted(g, tau);
    } else {
        for a in [&mut g.f, &mut g.f_new, &mut g.rho] {
            d.f64s(a)?;
        }
        for a in [&mut g.u, &mut g.ueq, &mut g.force] {
            d.components(a)?;
        }
    }

    let n_nodes = num_fibers * nodes_per_fiber;
    let ds_node = d.f64()?;
    let ds_fiber = d.f64()?;
    let sheet_k_bend = d.f64()?;
    let sheet_k_stretch = d.f64()?;
    let sheet = FiberSheet {
        num_fibers,
        nodes_per_fiber,
        ds_node,
        ds_fiber,
        k_bend: sheet_k_bend,
        k_stretch: sheet_k_stretch,
        pos: d.vec3s(n_nodes)?,
        bending: d.vec3s(n_nodes)?,
        stretching: d.vec3s(n_nodes)?,
        elastic: d.vec3s(n_nodes)?,
    };

    let n_tethers = d.u64()? as usize;
    if n_tethers > n_nodes {
        return Err(CheckpointError::Format(format!(
            "{n_tethers} tethers for {n_nodes} nodes"
        )));
    }
    let mut tethers = Vec::with_capacity(n_tethers);
    for _ in 0..n_tethers {
        let node = d.u64()? as usize;
        if node >= n_nodes {
            return Err(CheckpointError::Format(format!(
                "tether node {node} out of range"
            )));
        }
        let anchor = [d.f64()?, d.f64()?, d.f64()?];
        let stiffness = d.f64()?;
        tethers.push(Tether {
            node,
            anchor,
            stiffness,
        });
    }

    let step = d.u64()?;
    if d.u64()? != 0xC0DA_F00D_u64 {
        return Err(CheckpointError::Format(
            "trailing guard mismatch (truncated?)".into(),
        ));
    }

    // CRC trailer: everything up to here contributed to the digest; the
    // trailer itself is read around the hasher.
    let expected = d.0.digest();
    let mut trailer = [0u8; 8];
    d.0.raw().read_exact(&mut trailer)?;
    let [crc @ .., 0, 0, 0, 0] = trailer else {
        return Err(CheckpointError::Format(
            "CRC trailer has nonzero high bytes".into(),
        ));
    };
    let found = u32::from_le_bytes(crc);
    if found != expected {
        return Err(CheckpointError::Crc { expected, found });
    }

    Ok(SimState {
        config,
        fluid,
        sheet,
        tethers: TetherSet { tethers },
        step,
    })
}

/// The sibling path an existing checkpoint is rotated to before the new
/// one is renamed into place. [`resume`] falls back to it.
pub fn prev_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".prev");
    path.with_file_name(name)
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Fsyncs the directory containing `path` so the renames themselves are
/// durable. Best-effort: not every platform lets you open a directory.
fn sync_parent_dir(path: &Path) {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Saves a checkpoint file crash-consistently.
///
/// Protocol: write `<path>.tmp`, flush + fsync it, rotate any existing
/// checkpoint to `<path>.prev`, then atomically rename the temp file into
/// place and fsync the directory. A crash at any point leaves either the
/// old checkpoint at `path`, or the new one at `path` (possibly with the
/// old one at `.prev`) — never a torn file at the final path.
pub fn save(state: &SimState, path: &Path) -> io::Result<()> {
    let tmp = tmp_path(path);
    {
        let file = std::fs::File::create(&tmp)?;
        write_checkpoint(state, &file)?;
        file.sync_all()?;
    }
    // Deterministic corruption point for the chaos tests: damage the temp
    // file *after* the fsync, as a torn physical write would.
    crate::faultinject::corrupt_checkpoint_file(&tmp)?;
    if path.exists() {
        std::fs::rename(path, prev_path(path))?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// Loads a checkpoint file (the exact file named — no fallback).
pub fn load(path: &Path) -> Result<SimState, CheckpointError> {
    read_checkpoint(std::fs::File::open(path)?)
}

/// Which snapshot [`resume`] actually loaded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResumeSource {
    /// The checkpoint at the requested path.
    Primary,
    /// The rotated `<path>.prev` snapshot — the primary was corrupt,
    /// truncated, or missing.
    Fallback,
}

/// Loads `path`, falling back to the rotated `<path>.prev` snapshot when
/// the primary is unreadable (torn, bit-flipped, or missing after a crash
/// between the two renames of [`save`]). Returns the primary's error when
/// both fail.
pub fn resume(path: &Path) -> Result<(SimState, ResumeSource), CheckpointError> {
    let primary_err = match load(path) {
        Ok(state) => return Ok((state, ResumeSource::Primary)),
        Err(e) => e,
    };
    match load(&prev_path(path)) {
        Ok(state) => Ok((state, ResumeSource::Fallback)),
        Err(_) => Err(primary_err),
    }
}

/// [`resume`], then re-apply the runtime-only choices a checkpoint does
/// not carry (kernel plan, watchdog cadence, halo timeout — see
/// [`read_checkpoint`]'s reset) from `runtime`. This is the rollback used
/// by the [`crate::supervisor::Supervisor`]: the restored state must
/// replay under the *same* runtime configuration as the failed attempt,
/// or the healed run would not be bit-identical to a fault-free one.
pub fn resume_with_runtime(
    path: &Path,
    runtime: &crate::config::SimulationConfig,
) -> Result<(SimState, ResumeSource), CheckpointError> {
    let (mut state, source) = resume(path)?;
    state.config.plan = runtime.plan;
    state.config.watchdog = runtime.watchdog;
    state.config.halo_timeout = runtime.halo_timeout;
    Ok((state, source))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::SequentialSolver;
    use crate::verify::compare_states;
    use proptest::prelude::*;

    fn evolved_state() -> SimState {
        let mut cfg = SimulationConfig::quick_test();
        cfg.sheet.tether = TetherConfig::CenterRegion {
            radius: 2.0,
            stiffness: 0.1,
        };
        let mut s = SequentialSolver::new(cfg);
        s.run(7);
        s.state
    }

    /// Unique scratch directory per test so parallel tests don't collide.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lbmib_ckpt_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Bit-at-a-time CRC-32 over the same polynomial, with no tables: the
    /// reference every path of [`crc32_update`] must reproduce.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        let mut state = 0xFFFF_FFFFu32;
        for &b in bytes {
            state ^= b as u32;
            for _ in 0..8 {
                state = if state & 1 != 0 {
                    0xEDB8_8320 ^ (state >> 1)
                } else {
                    state >> 1
                };
            }
        }
        !state
    }

    fn crc32(bytes: &[u8]) -> u32 {
        !crc32_update(0xFFFF_FFFF, bytes)
    }

    /// The digest of `bytes` through each path, called directly: the
    /// dispatching [`crc32_update`], the table loop alone, and, where the
    /// CPU has PCLMULQDQ and `bytes` is long enough, the carry-less fold.
    fn crc32_paths(bytes: &[u8]) -> Vec<(&'static str, u32)> {
        let fold = fold_crc32(bytes).map(|d| ("fold", d));
        [
            ("dispatch", crc32(bytes)),
            ("table", !crc32_table_update(0xFFFF_FFFF, bytes)),
        ]
        .into_iter()
        .chain(fold)
        .collect()
    }

    /// The carry-less fold's digest of `bytes`, with the table loop for
    /// its tail; `None` where the fold does not apply.
    #[cfg(target_arch = "x86_64")]
    fn fold_crc32(bytes: &[u8]) -> Option<u32> {
        if bytes.len() < clmul::MIN_LEN || !std::arch::is_x86_feature_detected!("pclmulqdq") {
            return None;
        }
        // SAFETY: the CPU supports PCLMULQDQ (checked just above), and
        // SSE2 is part of x86_64 itself.
        let (state, rest) = unsafe { clmul::fold(0xFFFF_FFFF, bytes) };
        Some(!crc32_table_update(state, rest))
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn fold_crc32(_: &[u8]) -> Option<u32> {
        None
    }

    #[test]
    fn crc32_known_answers() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(reference_crc32(b"123456789"), 0xCBF4_3926);
        let zeros = [0u8; 4096];
        for (path, got) in crc32_paths(&zeros) {
            assert_eq!(got, 0xC71C_0011, "{path}: CRC-32 of 4096 zero bytes");
        }
    }

    #[test]
    fn every_crc_path_matches_reference_at_lengths_0_to_300() {
        let mut rng = proptest::TestRng::new(0x0c2c_3200);
        let bytes: Vec<u8> = (0..300).map(|_| rng.next_u64() as u8).collect();
        for len in 0..=300 {
            let want = reference_crc32(&bytes[..len]);
            for (path, got) in crc32_paths(&bytes[..len]) {
                assert_eq!(got, want, "{path} at length {len}");
            }
        }
    }

    /// The compact v3 file of a stepped 32³ run with a 20×20 sheet (what
    /// `lbmib --nx 32 --ny 32 --nz 32 --sheet 20 --steps 1 --save` writes),
    /// without its CRC trailer.
    fn compact_32_cubed_payload() -> Vec<u8> {
        let mut cfg = SimulationConfig::quick_test();
        (cfg.nx, cfg.ny, cfg.nz) = (32, 32, 32);
        cfg.sheet = SheetConfig::square(20, 32.0 / 3.0, [8.0, 16.0, 16.0]);
        let mut s = SequentialSolver::new(cfg);
        s.run(1);
        let mut buf = Vec::new();
        write_checkpoint(&s.state, &mut buf).unwrap();
        assert_eq!(buf.len(), 5_805_992, "the compact form of a 32³ state");
        buf.truncate(buf.len() - 8);
        buf
    }

    #[test]
    fn every_crc_path_matches_reference_on_a_compact_payload() {
        let payload = compact_32_cubed_payload();
        // Sizes a `CrcWriter` or `CrcReader` sees (single words, whole
        // `F64_BLOCK` writes) and cuts that split blocks at odd points.
        let block = 8 * F64_BLOCK;
        let pieces = [8, block, block - 3, 131, block + 3, 8, 64];
        for offset in [0, 1, 7] {
            let bytes = &payload[offset..];
            let want = reference_crc32(bytes);
            for (path, got) in crc32_paths(bytes) {
                assert_eq!(got, want, "{path} at offset {offset}");
            }
            let mut w = CrcWriter::new(io::sink());
            let mut rest = bytes;
            for &n in pieces.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (head, tail) = rest.split_at(n.min(rest.len()));
                w.write_all(head).unwrap();
                rest = tail;
            }
            assert_eq!(w.digest(), want, "streamed at offset {offset}");
        }
    }

    proptest! {
        /// Whole or split at 1–3 points (as `CrcWriter`/`CrcReader` see a
        /// stream), the CRC matches the reference.
        #[test]
        fn sliced_crc32_matches_reference(
            len in 0usize..=300,
            seed in 0u64..u64::MAX,
            n_cuts in 1usize..=3,
        ) {
            let mut rng = proptest::TestRng::new(seed);
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let want = reference_crc32(&bytes);
            prop_assert_eq!(crc32(&bytes), want);

            let mut cuts: Vec<usize> =
                (0..n_cuts).map(|_| rng.below(len as u64 + 1) as usize).collect();
            cuts.sort_unstable();
            let mut state = 0xFFFF_FFFF;
            let mut start = 0;
            for cut in cuts.into_iter().chain([len]) {
                state = crc32_update(state, &bytes[start..cut]);
                start = cut;
            }
            prop_assert_eq!(!state, want);
        }
    }

    #[test]
    fn trailer_is_the_reference_crc_of_the_payload() {
        let mut buf = Vec::new();
        write_checkpoint(&evolved_state(), &mut buf).unwrap();
        let (payload, trailer) = buf.split_at(buf.len() - 8);
        assert_eq!(
            read_u64(trailer, 0),
            reference_crc32(payload) as u64,
            "trailer must be the IEEE CRC-32 of everything before it"
        );
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let state = evolved_state();
        let mut buf = Vec::new();
        write_checkpoint(&state, &mut buf).unwrap();
        let loaded = read_checkpoint(&buf[..]).unwrap();
        assert_eq!(loaded.step, state.step);
        assert_eq!(loaded.fluid.f, state.fluid.f);
        assert_eq!(loaded.fluid.ueq, state.fluid.ueq);
        assert_eq!(loaded.sheet.pos, state.sheet.pos);
        assert_eq!(loaded.tethers.tethers.len(), state.tethers.tethers.len());
        assert_eq!(compare_states(&state, &loaded).worst(), 0.0);
    }

    #[test]
    fn resumed_run_matches_uninterrupted_run() {
        let cfg = SimulationConfig::quick_test();
        let mut full = SequentialSolver::new(cfg);
        full.run(12);

        let mut first = SequentialSolver::new(cfg);
        first.run(6);
        let mut buf = Vec::new();
        write_checkpoint(&first.state, &mut buf).unwrap();
        let mut resumed = SequentialSolver::from_state(read_checkpoint(&buf[..]).unwrap());
        resumed.run(6);

        assert_eq!(resumed.state.step, full.state.step);
        assert_eq!(
            resumed.state.fluid.f, full.state.fluid.f,
            "resume must be bit-exact"
        );
        assert_eq!(resumed.state.sheet.pos, full.state.sheet.pos);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        write_checkpoint(&evolved_state(), &mut buf).unwrap();
        buf[0] ^= 0xFF;
        match read_checkpoint(&buf[..]) {
            Err(CheckpointError::Format(m)) => assert!(m.contains("magic")),
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn old_version_rejected() {
        let mut buf = Vec::new();
        write_checkpoint(&evolved_state(), &mut buf).unwrap();
        patch_u64(&mut buf, 8, 1);
        match read_checkpoint(&buf[..]) {
            Err(CheckpointError::Format(m)) => assert!(m.contains("version"), "{m}"),
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_rejected() {
        let mut buf = Vec::new();
        write_checkpoint(&evolved_state(), &mut buf).unwrap();
        buf.truncate(buf.len() - 9);
        assert!(read_checkpoint(&buf[..]).is_err());
    }

    #[test]
    fn corrupted_length_rejected() {
        let state = evolved_state();
        let mut buf = Vec::new();
        write_checkpoint(&state, &mut buf).unwrap();
        // The first array length sits right after the config block; flip a
        // byte deep in the file instead and require *some* failure, then
        // specifically corrupt the trailing guard (now followed by the
        // 8-byte CRC trailer).
        let guard_pos = buf.len() - 16;
        buf[guard_pos] ^= 0x01;
        match read_checkpoint(&buf[..]) {
            Err(CheckpointError::Format(m)) => assert!(m.contains("guard")),
            other => panic!("expected guard failure, got {other:?}"),
        }
    }

    #[test]
    fn payload_bit_flip_caught_by_crc() {
        let mut buf = Vec::new();
        write_checkpoint(&evolved_state(), &mut buf).unwrap();
        // Deep inside the `f` distribution array: the flipped f64 still
        // decodes, every length check passes, the guard matches — only the
        // checksum can catch it.
        let pos = buf.len() / 2;
        buf[pos] ^= 0x10;
        match read_checkpoint(&buf[..]) {
            Err(CheckpointError::Crc { expected, found }) => assert_ne!(expected, found),
            other => panic!("expected CRC failure, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_crc_trailer_rejected() {
        let mut buf = Vec::new();
        write_checkpoint(&evolved_state(), &mut buf).unwrap();
        let last = buf.len() - 8;
        buf[last] ^= 0x01;
        match read_checkpoint(&buf[..]) {
            Err(CheckpointError::Crc { .. }) => {}
            other => panic!("expected CRC failure, got {other:?}"),
        }
    }

    /// Little-endian u64 patch helper for header-corruption tests.
    fn patch_u64(buf: &mut [u8], offset: usize, value: u64) {
        buf[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
    }

    fn read_u64(buf: &[u8], offset: usize) -> u64 {
        u64::from_le_bytes(buf[offset..offset + 8].try_into().unwrap())
    }

    // Header layout for quick_test: magic(8) version(8) nx@16 ny@24 nz@32
    // tau(8) body_force(24) bc.x periodic(8) bc.y walls(56) bc.z walls(56)
    // delta(8) cube_k(8) num_fibers@208.
    const NX_OFF: usize = 16;
    const NY_OFF: usize = 24;
    const NZ_OFF: usize = 32;
    const NUM_FIBERS_OFF: usize = 208;

    #[test]
    fn absurd_grid_extent_rejected_before_allocating() {
        let mut buf = Vec::new();
        write_checkpoint(&evolved_state(), &mut buf).unwrap();
        assert_eq!(read_u64(&buf, NX_OFF), 24, "nx offset drifted");
        // Pre-fix this drove `nx * ny * nz` (overflow) straight into
        // `FluidGrid::new`; now it must fail fast on the header bound.
        patch_u64(&mut buf, NX_OFF, u64::MAX);
        match read_checkpoint(&buf[..]) {
            Err(CheckpointError::Format(m)) => assert!(m.contains("nx"), "{m}"),
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn grid_node_product_overflow_rejected() {
        let mut buf = Vec::new();
        write_checkpoint(&evolved_state(), &mut buf).unwrap();
        // Each extent passes the per-axis bound; the product must not.
        patch_u64(&mut buf, NX_OFF, 1 << 16);
        patch_u64(&mut buf, NY_OFF, 1 << 16);
        patch_u64(&mut buf, NZ_OFF, 1 << 16);
        match read_checkpoint(&buf[..]) {
            Err(CheckpointError::Format(m)) => assert!(m.contains("nodes"), "{m}"),
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn zero_extent_rejected() {
        let mut buf = Vec::new();
        write_checkpoint(&evolved_state(), &mut buf).unwrap();
        patch_u64(&mut buf, NZ_OFF, 0);
        match read_checkpoint(&buf[..]) {
            Err(CheckpointError::Format(m)) => assert!(m.contains("nz"), "{m}"),
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn absurd_fiber_count_rejected_before_allocating() {
        let mut buf = Vec::new();
        write_checkpoint(&evolved_state(), &mut buf).unwrap();
        assert_eq!(
            read_u64(&buf, NUM_FIBERS_OFF),
            8,
            "num_fibers offset drifted"
        );
        patch_u64(&mut buf, NUM_FIBERS_OFF, u64::MAX);
        match read_checkpoint(&buf[..]) {
            Err(CheckpointError::Format(m)) => assert!(m.contains("num_fibers"), "{m}"),
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_tether_node_rejected() {
        let state = evolved_state();
        assert!(
            !state.tethers.tethers.is_empty(),
            "test state must carry tethers"
        );
        let mut buf = Vec::new();
        write_checkpoint(&state, &mut buf).unwrap();
        // Trailing layout: ... last tether (node@-64, anchor, stiffness),
        // step(8), guard(8), crc(8).
        let node_off = buf.len() - 24 - 40;
        let old = read_u64(&buf, node_off);
        assert!(old < 64, "tether node offset drifted (read {old})");
        patch_u64(&mut buf, node_off, 1 << 40);
        match read_checkpoint(&buf[..]) {
            Err(CheckpointError::Format(m)) => assert!(m.contains("tether node"), "{m}"),
            other => panic!("expected format error, got {other:?}"),
        }
    }

    /// After a step every backend's gathered state takes the compact
    /// section and round-trips equal on every field; a fresh state (ρ = 1.0
    /// where the weights sum to 1.0000000000000002) takes the full one.
    #[test]
    fn stepped_states_encode_compact_and_fresh_states_full() {
        use crate::config::KernelPlan;
        let fresh = SimState::new(SimulationConfig::quick_test());
        let mut buf = Vec::new();
        write_checkpoint(&fresh, &mut buf).unwrap();
        // The compact section drops `f_new` and the seven moment arrays,
        // each with its 8-byte length prefix.
        let n = fresh.fluid.n();
        let compact_len = buf.len() - 8 * (n * Q + 1) - 7 * 8 * (n + 1);
        assert!(read_checkpoint(&buf[..]).unwrap().fingerprint() == fresh.fingerprint());

        let mut runs = vec![("seq", KernelPlan::Split, 1), ("seq", KernelPlan::Fused, 1)];
        for threads in 1..=3 {
            for plan in [KernelPlan::Split, KernelPlan::Fused] {
                runs.push(("omp", plan, threads));
            }
            runs.push(("cube", KernelPlan::Fused, threads));
            runs.push(("dist", KernelPlan::Fused, threads));
        }
        for (backend, plan, threads) in runs {
            let what = format!("{backend} {plan:?} {threads} thread(s)");
            let mut cfg = SimulationConfig::quick_test();
            cfg.plan = plan;
            let mut s = crate::build_solver(backend, SimState::new(cfg), threads).unwrap();
            s.run(2).unwrap();
            let state = s.to_state();
            buf.clear();
            write_checkpoint(&state, &mut buf).unwrap();
            assert_eq!(buf.len(), compact_len, "{what}");
            let mut loaded = read_checkpoint(&buf[..]).unwrap();
            // The plan is a runtime choice the file does not carry.
            loaded.config.plan = plan;
            assert!(loaded.fingerprint() == state.fingerprint(), "{what}");
        }
    }

    /// A 2×4×4 grid with a tethered 2×2 sheet and a 2-node stencil, after
    /// `steps` steps: small enough to parse every truncation of its file.
    fn tiny_state(steps: u64) -> SimState {
        let mut c = SimulationConfig::quick_test();
        (c.nx, c.ny, c.nz, c.cube_k) = (2, 4, 4, 2);
        c.delta = DeltaKind::Hat2;
        c.sheet = SheetConfig {
            tether: TetherConfig::LeadingEdge { stiffness: 0.05 },
            ..SheetConfig::square(2, 1.0, [1.0, 1.5, 1.5])
        };
        let mut s = SequentialSolver::new(c);
        s.run(steps);
        s.state
    }

    /// The full-form (fresh) and compact (one step) encodings of
    /// [`tiny_state`].
    fn tiny_files() -> [Vec<u8>; 2] {
        [0, 1].map(|steps| {
            let mut buf = Vec::new();
            write_checkpoint(&tiny_state(steps), &mut buf).unwrap();
            buf
        })
    }

    /// One ULP off in any derived array, at the last node, sends the
    /// state to the full section, which keeps it.
    #[test]
    fn every_derived_field_is_checked_before_compacting() {
        let [full, compact] = tiny_files().map(|f| f.len());
        for field in 0..8 {
            let mut state = tiny_state(1);
            let g = &mut state.fluid;
            let [ux, uy, uz] = g.u.last_mut().unwrap();
            let [qx, qy, qz] = g.ueq.last_mut().unwrap();
            let (f_new, rho) = (g.f_new.last_mut().unwrap(), g.rho.last_mut().unwrap());
            let derived = [f_new, rho, ux, uy, uz, qx, qy, qz];
            let v = derived.into_iter().nth(field).unwrap();
            *v = f64::from_bits(v.to_bits() + 1);
            let mut buf = Vec::new();
            write_checkpoint(&state, &mut buf).unwrap();
            assert_eq!(buf.len(), full, "field {field}");
            assert_ne!(buf.len(), compact);
            let loaded = read_checkpoint(&buf[..]).unwrap();
            assert!(loaded.fingerprint() == state.fingerprint(), "field {field}");
        }
    }

    #[test]
    fn every_truncation_is_an_error() {
        for file in tiny_files() {
            read_checkpoint(&file[..]).unwrap();
            for len in 0..file.len() {
                assert!(
                    read_checkpoint(&file[..len]).is_err(),
                    "{len} of {} bytes loaded",
                    file.len()
                );
            }
        }
    }

    #[test]
    fn unknown_fluid_encoding_is_a_format_error() {
        let [full, compact] = tiny_files();
        // The two files share their header; the first byte they differ in
        // is the fluid-encoding tag.
        let tag = full.iter().zip(&compact).position(|(a, b)| a != b).unwrap();
        assert_eq!(read_u64(&full, tag), FLUID_FULL);
        assert_eq!(read_u64(&compact, tag), FLUID_COMPACT);
        for mut file in [full, compact] {
            patch_u64(&mut file, tag, 2);
            match read_checkpoint(&file[..]) {
                Err(CheckpointError::Format(m)) => assert!(m.contains("encoding"), "{m}"),
                other => panic!("expected format error, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_bit_of_the_trailer_is_checked() {
        for file in tiny_files() {
            for bit in 8 * (file.len() - 24)..8 * file.len() {
                let mut bad = file.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(read_checkpoint(&bad[..]).is_err(), "bit {bit} flipped");
            }
        }
    }

    proptest! {
        /// A single flipped bit anywhere in either encoding is an error.
        #[test]
        fn single_bit_flips_are_errors(pos_frac in 0.0f64..1.0, bit in 0u32..8, compact in 0usize..2) {
            let mut file = tiny_files()[compact].clone();
            let pos = (file.len() as f64 * pos_frac) as usize;
            file[pos] ^= 1 << bit;
            prop_assert!(read_checkpoint(&file[..]).is_err(), "bit {bit} of byte {pos} flipped");
        }

        /// Arbitrary bytes, alone or after a valid file's prefix, give an
        /// error, never a panic.
        #[test]
        fn arbitrary_bytes_are_errors(
            prefix_frac in 0.0f64..1.0,
            tail in 0usize..4096,
            seed in 0u64..u64::MAX,
            compact in 0usize..2,
        ) {
            let file = &tiny_files()[compact];
            let mut rng = proptest::TestRng::new(seed);
            let mut bytes = file[..(file.len() as f64 * prefix_frac) as usize].to_vec();
            bytes.extend((0..tail).map(|_| rng.next_u64() as u8));
            prop_assert!(read_checkpoint(&bytes[..]).is_err());
        }
    }

    #[test]
    fn file_save_load() {
        let state = evolved_state();
        let dir = scratch_dir("save_load");
        let path = dir.join("test.ckpt");
        save(&state, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.fluid.f, state.fluid.f);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_rotates_previous_checkpoint() {
        let dir = scratch_dir("rotate");
        let path = dir.join("run.ckpt");

        let cfg = SimulationConfig::quick_test();
        let mut s = SequentialSolver::new(cfg);
        s.run(3);
        save(&s.state, &path).unwrap();
        s.run(3);
        save(&s.state, &path).unwrap();

        let primary = load(&path).unwrap();
        let previous = load(&prev_path(&path)).unwrap();
        assert_eq!(primary.step, 6);
        assert_eq!(previous.step, 3);
        assert!(!tmp_path(&path).exists(), "temp file must not linger");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_falls_back_to_previous_good_checkpoint() {
        let dir = scratch_dir("fallback");
        let path = dir.join("run.ckpt");

        let cfg = SimulationConfig::quick_test();
        let mut s = SequentialSolver::new(cfg);
        s.run(3);
        save(&s.state, &path).unwrap();
        s.run(3);
        save(&s.state, &path).unwrap();

        // Tear the primary: truncate it mid-payload.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len / 2).unwrap();
        drop(f);

        assert!(load(&path).is_err(), "torn primary must not load");
        let (state, source) = resume(&path).unwrap();
        assert_eq!(source, ResumeSource::Fallback);
        assert_eq!(state.step, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_prefers_primary_and_reports_both_failures() {
        let dir = scratch_dir("both_bad");
        let path = dir.join("run.ckpt");

        let cfg = SimulationConfig::quick_test();
        let mut s = SequentialSolver::new(cfg);
        s.run(2);
        save(&s.state, &path).unwrap();
        let (state, source) = resume(&path).unwrap();
        assert_eq!(source, ResumeSource::Primary);
        assert_eq!(state.step, 2);

        // With the primary gone and no .prev, resume surfaces the
        // primary's error (NotFound) rather than panicking.
        std::fs::remove_file(&path).unwrap();
        match resume(&path) {
            Err(CheckpointError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::NotFound),
            other => panic!("expected io error, got {:?}", other.map(|(_, s)| s)),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
