//! Runtime SIMD dispatch and the explicit microkernels.
//!
//! The packed GEMM in [`crate::gemm`] used to rely on the compiler
//! autovectorizing a broadcast+FMA loop, which left 2–3× on the table on
//! the shapes that dominate server-side ensemble distillation. This module
//! provides the pieces the dispatcher needs instead:
//!
//! * [`isa`] — one runtime decision (`AVX-512F`, `AVX2+FMA` or portable
//!   scalar), overridable per thread by [`force_scalar`] (tests exercise
//!   both paths on any host) and process-wide by `KEMF_SIMD=scalar` /
//!   `KEMF_SIMD=avx2`.
//! * [`microkernel_f32_8x32`] — an explicit 8×32 f32 register tile
//!   (16 ZMM accumulators, one broadcast + two FMAs per A element) for
//!   AVX-512F hosts; two 512-bit FMA ports make this tier's roofline
//!   twice the AVX2 one.
//! * [`microkernel_f32_bt`] — the 4- or 8-row by 16 tile over a B stored
//!   transposed and read in place, 16×16 blocks of it turned in registers:
//!   the weight gradient of a narrow convolution, a dense layer's forward.
//! * [`microkernel_f32_6x16`] — the AVX2+FMA 6×16 tile (12 YMM
//!   accumulators) used when 512-bit vectors are unavailable.
//! * [`transpose_8x8_avx2`] — the block step of the transposing pack on
//!   both SIMD tiers.
//! * [`gemm_i8_block_vnni`] — the int8 compute kernel behind the
//!   quantized ensemble-inference path: `vpdpbusd` over quad-interleaved
//!   int8 panels with i32 accumulation (AVX-512 VNNI hosts only; every
//!   other host runs the portable loop in [`crate::quant`]).
//! * [`crc32_pclmul`] — the IEEE CRC-32 by carry-less multiplication
//!   (Gopal et al., Intel 2009: fold 4×128 bits, then 128, then a Barrett
//!   reduction), ~15× the slice-by-8 table. Its one caller is
//!   `kemf_nn::codec::crc32`, which also runs the table — on short inputs,
//!   the tail, the scalar tier and hosts without [`pclmulqdq`] — and whose
//!   tests hold the two to the same bits.
//! * [`cpu_features`] — the detected feature set, recorded by
//!   `bench_kernels` so benchmark trajectories name the hardware tier
//!   they were measured on.
//!
//! All `unsafe` here is confined to `#[target_feature]` kernels whose
//! callers must check [`isa`] first (the CRC kernel checks for itself
//! behind a safe entry point); the scalar fallbacks live in safe code next
//! to their call sites.

use std::cell::Cell;
use std::sync::OnceLock;

/// Instruction-set tier the GEMM dispatcher selects between.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// 16-lane f32 FMA microkernels via `std::arch` (x86-64 AVX-512F).
    Avx512,
    /// 8-lane f32 FMA microkernels via `std::arch` (x86-64 AVX2 + FMA).
    Avx2Fma,
    /// The portable scalar microkernel (8×8 register tile, compiler
    /// autovectorization only).
    Scalar,
}

thread_local! {
    /// Per-thread scalar override. Thread-local rather than global so a
    /// test forcing the fallback cannot race concurrently running tests;
    /// the dispatcher reads it once per GEMM call on the calling thread.
    /// It does not cross to another thread by itself: the one place that
    /// runs work on behalf of a caller ([`crate::par`]) reads
    /// [`scalar_forced`] when it posts a share and applies it on the
    /// helper.
    static FORCE_SCALAR: Cell<bool> = const { Cell::new(false) };
}

/// Force the scalar microkernel on the current thread (`true`) or restore
/// runtime detection (`false`). Test hook: lets CI exercise the fallback
/// tier on SIMD hosts and vice versa. Prefer [`ScalarGuard`] in tests so a
/// panic cannot leak the override.
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.with(|f| f.set(on));
}

/// True while [`force_scalar`] is in effect on this thread.
pub fn scalar_forced() -> bool {
    FORCE_SCALAR.with(|f| f.get())
}

/// RAII guard that forces the scalar tier and restores detection on drop
/// (including panic unwinds mid-test).
pub struct ScalarGuard(());

impl ScalarGuard {
    /// Engage the scalar override on this thread.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        force_scalar(true);
        ScalarGuard(())
    }
}

impl Drop for ScalarGuard {
    fn drop(&mut self) {
        force_scalar(false);
    }
}

/// Hardware tier detected once per process (before overrides). The
/// `KEMF_SIMD` environment variable caps the tier: `scalar`/`off`/`0`
/// forces the portable kernel, `avx2` disables the 512-bit tier (useful
/// on parts that downclock under heavy 512-bit use).
fn detected() -> Isa {
    static DETECTED: OnceLock<Isa> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        let cap = std::env::var("KEMF_SIMD").ok().map(|v| v.trim().to_ascii_lowercase());
        if matches!(cap.as_deref(), Some("scalar" | "off" | "0")) {
            return Isa::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        {
            // Both SIMD tiers use the AVX2 helpers (the packing transpose),
            // so the 512-bit tier is the 256-bit one plus AVX-512F.
            let avx2 = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma");
            let allow_512 = !matches!(cap.as_deref(), Some("avx2"));
            if avx2 && allow_512 && std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            if avx2 {
                return Isa::Avx2Fma;
            }
        }
        Isa::Scalar
    })
}

/// The tier the dispatcher should use for the current call: the detected
/// hardware tier unless this thread forced the scalar fallback.
pub fn isa() -> Isa {
    if scalar_forced() {
        Isa::Scalar
    } else {
        detected()
    }
}

/// Names of the CPU features relevant to the kernels, as detected at
/// runtime. Recorded into `BENCH_kernels.json` so throughput numbers are
/// attributable to a hardware tier.
pub fn cpu_features() -> Vec<&'static str> {
    let mut feats = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, present) in [
            ("sse4.2", std::arch::is_x86_feature_detected!("sse4.2")),
            ("pclmulqdq", std::arch::is_x86_feature_detected!("pclmulqdq")),
            ("avx", std::arch::is_x86_feature_detected!("avx")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            ("avx512bw", std::arch::is_x86_feature_detected!("avx512bw")),
            ("avx512vnni", std::arch::is_x86_feature_detected!("avx512vnni")),
        ] {
            if present {
                feats.push(name);
            }
        }
    }
    if feats.is_empty() {
        feats.push("scalar");
    }
    feats
}

/// Register-tile height of the AVX2 f32 microkernel.
pub const SIMD_MR: usize = 6;
/// Register-tile width of the AVX2 f32 microkernel (two 8-lane vectors).
pub const SIMD_NR: usize = 16;
/// Register-tile height of the AVX-512 f32 microkernel.
pub const SIMD_MR512: usize = 8;
/// Register-tile width of the AVX-512 f32 microkernel (two 16-lane
/// vectors).
pub const SIMD_NR512: usize = 32;

/// `out[i*32 + j] = Σ_kk a_panel[kk*8 + i] · b_panel[kk*32 + j]` for the
/// full 8×32 register tile.
///
/// Sixteen ZMM accumulators live in registers across the whole k loop;
/// each k step is two 16-lane B loads, eight A broadcasts and sixteen
/// FMAs. With two 512-bit FMA ports that is eight cycles per step for 512
/// flops — the full machine peak — and sixteen independent dependency
/// chains hide the FMA latency. Panels must be padded to full tiles (the
/// packing routines in [`crate::gemm`] guarantee this), so there are no
/// edge branches.
///
/// # Safety
///
/// The caller must ensure AVX-512F is available (check
/// [`isa`] `== Isa::Avx512`), `a_panel` holds at least `k * 8` floats,
/// `b_panel` at least `k * 32`, and `out` at least `256`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
pub unsafe fn microkernel_f32_8x32(k: usize, a_panel: *const f32, b_panel: *const f32, out: *mut f32) {
    use core::arch::x86_64::*;
    let mut c00 = _mm512_setzero_ps();
    let mut c01 = _mm512_setzero_ps();
    let mut c10 = _mm512_setzero_ps();
    let mut c11 = _mm512_setzero_ps();
    let mut c20 = _mm512_setzero_ps();
    let mut c21 = _mm512_setzero_ps();
    let mut c30 = _mm512_setzero_ps();
    let mut c31 = _mm512_setzero_ps();
    let mut c40 = _mm512_setzero_ps();
    let mut c41 = _mm512_setzero_ps();
    let mut c50 = _mm512_setzero_ps();
    let mut c51 = _mm512_setzero_ps();
    let mut c60 = _mm512_setzero_ps();
    let mut c61 = _mm512_setzero_ps();
    let mut c70 = _mm512_setzero_ps();
    let mut c71 = _mm512_setzero_ps();
    // One k step at panel offset `kk`: two B loads, eight A broadcasts,
    // sixteen FMAs. Offsets are computed from the loop index (not running
    // pointers), so the unrolled tail leaves no dead stores behind.
    // SAFETY (applies to each expansion): `kk < k`, so every access stays
    // within the k·8 / k·32 panel bounds the caller guarantees.
    macro_rules! step {
        ($kk:expr) => {{
            let a = a_panel.add($kk * SIMD_MR512);
            let b = b_panel.add($kk * SIMD_NR512);
            let b0 = _mm512_loadu_ps(b);
            let b1 = _mm512_loadu_ps(b.add(16));
            let a0 = _mm512_set1_ps(*a);
            c00 = _mm512_fmadd_ps(a0, b0, c00);
            c01 = _mm512_fmadd_ps(a0, b1, c01);
            let a1 = _mm512_set1_ps(*a.add(1));
            c10 = _mm512_fmadd_ps(a1, b0, c10);
            c11 = _mm512_fmadd_ps(a1, b1, c11);
            let a2 = _mm512_set1_ps(*a.add(2));
            c20 = _mm512_fmadd_ps(a2, b0, c20);
            c21 = _mm512_fmadd_ps(a2, b1, c21);
            let a3 = _mm512_set1_ps(*a.add(3));
            c30 = _mm512_fmadd_ps(a3, b0, c30);
            c31 = _mm512_fmadd_ps(a3, b1, c31);
            let a4 = _mm512_set1_ps(*a.add(4));
            c40 = _mm512_fmadd_ps(a4, b0, c40);
            c41 = _mm512_fmadd_ps(a4, b1, c41);
            let a5 = _mm512_set1_ps(*a.add(5));
            c50 = _mm512_fmadd_ps(a5, b0, c50);
            c51 = _mm512_fmadd_ps(a5, b1, c51);
            let a6 = _mm512_set1_ps(*a.add(6));
            c60 = _mm512_fmadd_ps(a6, b0, c60);
            c61 = _mm512_fmadd_ps(a6, b1, c61);
            let a7 = _mm512_set1_ps(*a.add(7));
            c70 = _mm512_fmadd_ps(a7, b0, c70);
            c71 = _mm512_fmadd_ps(a7, b1, c71);
        }};
    }
    // Unrolled by two to halve loop-carried branch overhead.
    let mut kk = 0;
    while kk + 2 <= k {
        step!(kk);
        step!(kk + 1);
        kk += 2;
    }
    if kk < k {
        step!(kk);
    }
    // SAFETY: out holds ≥ 256 floats per the caller contract.
    _mm512_storeu_ps(out, c00);
    _mm512_storeu_ps(out.add(16), c01);
    _mm512_storeu_ps(out.add(32), c10);
    _mm512_storeu_ps(out.add(48), c11);
    _mm512_storeu_ps(out.add(64), c20);
    _mm512_storeu_ps(out.add(80), c21);
    _mm512_storeu_ps(out.add(96), c30);
    _mm512_storeu_ps(out.add(112), c31);
    _mm512_storeu_ps(out.add(128), c40);
    _mm512_storeu_ps(out.add(144), c41);
    _mm512_storeu_ps(out.add(160), c50);
    _mm512_storeu_ps(out.add(176), c51);
    _mm512_storeu_ps(out.add(192), c60);
    _mm512_storeu_ps(out.add(208), c61);
    _mm512_storeu_ps(out.add(224), c70);
    _mm512_storeu_ps(out.add(240), c71);
}

/// [`microkernel_f32_8x32`] over an *unpacked* row-major B:
/// `out[i*32 + j] = Σ_kk a_panel[kk*8 + i] · b[kk*ldb + j]`.
///
/// When A has only one or two row panels, a packed B panel is read back
/// at most twice — the pack's extra write+read pass over B costs more
/// than it saves. This variant reads B in place with a runtime row
/// stride instead, halving B memory traffic on the skinny products
/// (`m ≤ 16` im2col matrices) that dominate small-CNN inference.
///
/// # Safety
///
/// The caller must ensure AVX-512F is available, `a_panel` holds at
/// least `k * 8` floats, `b` points at the first of 32 consecutive
/// columns valid for rows `0..k` of a row-major matrix with row stride
/// `ldb`, and `out` holds at least `256` floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
pub unsafe fn microkernel_f32_8x32_ldb(
    k: usize,
    a_panel: *const f32,
    b: *const f32,
    ldb: usize,
    out: *mut f32,
) {
    use core::arch::x86_64::*;
    let mut c00 = _mm512_setzero_ps();
    let mut c01 = _mm512_setzero_ps();
    let mut c10 = _mm512_setzero_ps();
    let mut c11 = _mm512_setzero_ps();
    let mut c20 = _mm512_setzero_ps();
    let mut c21 = _mm512_setzero_ps();
    let mut c30 = _mm512_setzero_ps();
    let mut c31 = _mm512_setzero_ps();
    let mut c40 = _mm512_setzero_ps();
    let mut c41 = _mm512_setzero_ps();
    let mut c50 = _mm512_setzero_ps();
    let mut c51 = _mm512_setzero_ps();
    let mut c60 = _mm512_setzero_ps();
    let mut c61 = _mm512_setzero_ps();
    let mut c70 = _mm512_setzero_ps();
    let mut c71 = _mm512_setzero_ps();
    // SAFETY (applies to each expansion): `kk < k`, so the B loads stay
    // within the rows the caller guarantees and the A reads within k·8.
    macro_rules! step {
        ($kk:expr) => {{
            let a = a_panel.add($kk * SIMD_MR512);
            let brow = b.add($kk * ldb);
            let b0 = _mm512_loadu_ps(brow);
            let b1 = _mm512_loadu_ps(brow.add(16));
            let a0 = _mm512_set1_ps(*a);
            c00 = _mm512_fmadd_ps(a0, b0, c00);
            c01 = _mm512_fmadd_ps(a0, b1, c01);
            let a1 = _mm512_set1_ps(*a.add(1));
            c10 = _mm512_fmadd_ps(a1, b0, c10);
            c11 = _mm512_fmadd_ps(a1, b1, c11);
            let a2 = _mm512_set1_ps(*a.add(2));
            c20 = _mm512_fmadd_ps(a2, b0, c20);
            c21 = _mm512_fmadd_ps(a2, b1, c21);
            let a3 = _mm512_set1_ps(*a.add(3));
            c30 = _mm512_fmadd_ps(a3, b0, c30);
            c31 = _mm512_fmadd_ps(a3, b1, c31);
            let a4 = _mm512_set1_ps(*a.add(4));
            c40 = _mm512_fmadd_ps(a4, b0, c40);
            c41 = _mm512_fmadd_ps(a4, b1, c41);
            let a5 = _mm512_set1_ps(*a.add(5));
            c50 = _mm512_fmadd_ps(a5, b0, c50);
            c51 = _mm512_fmadd_ps(a5, b1, c51);
            let a6 = _mm512_set1_ps(*a.add(6));
            c60 = _mm512_fmadd_ps(a6, b0, c60);
            c61 = _mm512_fmadd_ps(a6, b1, c61);
            let a7 = _mm512_set1_ps(*a.add(7));
            c70 = _mm512_fmadd_ps(a7, b0, c70);
            c71 = _mm512_fmadd_ps(a7, b1, c71);
        }};
    }
    let mut kk = 0;
    while kk + 2 <= k {
        step!(kk);
        step!(kk + 1);
        kk += 2;
    }
    if kk < k {
        step!(kk);
    }
    // SAFETY: out holds ≥ 256 floats per the caller contract.
    _mm512_storeu_ps(out, c00);
    _mm512_storeu_ps(out.add(16), c01);
    _mm512_storeu_ps(out.add(32), c10);
    _mm512_storeu_ps(out.add(48), c11);
    _mm512_storeu_ps(out.add(64), c20);
    _mm512_storeu_ps(out.add(80), c21);
    _mm512_storeu_ps(out.add(96), c30);
    _mm512_storeu_ps(out.add(112), c31);
    _mm512_storeu_ps(out.add(128), c40);
    _mm512_storeu_ps(out.add(144), c41);
    _mm512_storeu_ps(out.add(160), c50);
    _mm512_storeu_ps(out.add(176), c51);
    _mm512_storeu_ps(out.add(192), c60);
    _mm512_storeu_ps(out.add(208), c61);
    _mm512_storeu_ps(out.add(224), c70);
    _mm512_storeu_ps(out.add(240), c71);
}

/// Transpose sixteen 16-lane rows in registers: lane `r` of `out[c]` is
/// lane `c` of `rows[r]`. Four rounds of sixteen shuffles (32-bit and
/// 64-bit interleaves inside each 128-bit lane, then two rounds of lane
/// exchanges).
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn transpose_16x16(
    r: [core::arch::x86_64::__m512; 16],
) -> [core::arch::x86_64::__m512; 16] {
    use core::arch::x86_64::*;
    let mut t = r;
    for i in 0..8 {
        t[2 * i] = _mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]);
        t[2 * i + 1] = _mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]);
    }
    // u[4g + c], 128-bit lane L: rows 4g..4g+4 at column 4L + c.
    let mut u = t;
    for g in 0..4 {
        u[4 * g] = _mm512_shuffle_ps::<0x44>(t[4 * g], t[4 * g + 2]);
        u[4 * g + 1] = _mm512_shuffle_ps::<0xEE>(t[4 * g], t[4 * g + 2]);
        u[4 * g + 2] = _mm512_shuffle_ps::<0x44>(t[4 * g + 1], t[4 * g + 3]);
        u[4 * g + 3] = _mm512_shuffle_ps::<0xEE>(t[4 * g + 1], t[4 * g + 3]);
    }
    let mut out = u;
    for c in 0..4 {
        // Lanes [rows 0..4 | rows 0..4 | rows 4..8 | rows 4..8] (and the
        // same for rows 8..16) at columns c, 8+c (even) or 4+c, 12+c (odd).
        let lo_even = _mm512_shuffle_f32x4::<0x88>(u[c], u[4 + c]);
        let lo_odd = _mm512_shuffle_f32x4::<0xDD>(u[c], u[4 + c]);
        let hi_even = _mm512_shuffle_f32x4::<0x88>(u[8 + c], u[12 + c]);
        let hi_odd = _mm512_shuffle_f32x4::<0xDD>(u[8 + c], u[12 + c]);
        out[c] = _mm512_shuffle_f32x4::<0x88>(lo_even, hi_even);
        out[8 + c] = _mm512_shuffle_f32x4::<0xDD>(lo_even, hi_even);
        out[4 + c] = _mm512_shuffle_f32x4::<0x88>(lo_odd, hi_odd);
        out[12 + c] = _mm512_shuffle_f32x4::<0xDD>(lo_odd, hi_odd);
    }
    out
}

/// `out[i*16 + j] = Σ_kk a_panel[kk*8 + i] · bt[j*ldb + kk]` for `i < R`:
/// an `R`×16 tile over a B operand stored *transposed* — sixteen rows of
/// length `k`, one per output column — and read in place.
///
/// This is the weight gradient of a convolution, `g · colsᵀ`: B is the
/// row-major patch matrix, `k = N·OH·OW` is long and there are only a
/// handful of A rows, so packing B (a transposing copy of the largest
/// matrix of the step) would cost more than the product. Instead each
/// 16×16 block of B is loaded along its storage, transposed in registers
/// (`transpose_16x16`) and consumed column by column: every output
/// element is still one FMA chain over `kk` ascending, bit-identical to
/// the packed kernels. `R` is 4 or 8: four accumulators for `O ≤ 4`
/// filter banks, where the transpose and not the FMAs sets the pace.
///
/// # Safety
///
/// The caller must ensure AVX-512F is available, `R <= 8`, `a_panel`
/// holds at least `k * 8` floats, `bt` points at `rows` (1 to 16) rows of
/// at least `k` floats each, `ldb` apart, and `out` holds `R * 16`
/// floats. Output columns `rows..16` are written with unspecified finite
/// or non-finite values.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
pub unsafe fn microkernel_f32_bt<const R: usize>(
    k: usize,
    a_panel: *const f32,
    bt: *const f32,
    ldb: usize,
    rows: usize,
    out: *mut f32,
) {
    use core::arch::x86_64::*;
    // Rows past `rows` alias row 0: their lanes are computed and ignored,
    // so the block loop has no edge case.
    let mut row = [bt; 16];
    for (j, p) in row.iter_mut().enumerate().take(rows) {
        // SAFETY: j < rows, so the row is inside the caller's matrix.
        *p = bt.add(j * ldb);
    }
    let mut acc = [_mm512_setzero_ps(); R];
    // One k step: column `kk` of the block against the A panel's row `kk`.
    // SAFETY (applies to each expansion): `kk < k` bounds the panel reads.
    macro_rules! step {
        ($kk:expr, $b:expr) => {{
            let a = a_panel.add($kk * SIMD_MR512);
            for (i, c) in acc.iter_mut().enumerate() {
                *c = _mm512_fmadd_ps(_mm512_set1_ps(*a.add(i)), $b, *c);
            }
        }};
    }
    let mut kk = 0;
    while kk + 16 <= k {
        let mut r = [_mm512_setzero_ps(); 16];
        for (v, p) in r.iter_mut().zip(row) {
            // SAFETY: kk + 16 <= k keeps the load inside the row.
            *v = _mm512_loadu_ps(p.add(kk));
        }
        for (t, b) in transpose_16x16(r).into_iter().enumerate() {
            step!(kk + t, b);
        }
        kk += 16;
    }
    if kk < k {
        let mask = ((1u32 << (k - kk)) - 1) as __mmask16;
        let mut r = [_mm512_setzero_ps(); 16];
        for (v, p) in r.iter_mut().zip(row) {
            // SAFETY: masked-off lanes are not accessed; the others are
            // elements kk..k of the row.
            *v = _mm512_maskz_loadu_ps(mask, p.add(kk));
        }
        for (t, b) in transpose_16x16(r).into_iter().enumerate().take(k - kk) {
            step!(kk + t, b);
        }
    }
    for (i, &c) in acc.iter().enumerate() {
        // SAFETY: out holds R·16 floats per the caller contract.
        _mm512_storeu_ps(out.add(i * 16), c);
    }
}

/// Transpose an 8×8 block given by its rows into rows `stride` apart:
/// `dst[c·stride + r] = src[r][c]`, as three rounds of eight shuffles.
///
/// # Safety
///
/// The caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub unsafe fn transpose_8x8_avx2(src: [&[f32; 8]; 8], dst: &mut [f32], stride: usize) {
    use core::arch::x86_64::*;
    assert!(dst.len() >= 7 * stride + 8, "eight rows of eight inside dst");
    let mut r = [_mm256_setzero_ps(); 8];
    for (v, s) in r.iter_mut().zip(src) {
        // SAFETY: `s` is eight readable floats.
        *v = _mm256_loadu_ps(s.as_ptr());
    }
    let mut t = r;
    for i in 0..4 {
        t[2 * i] = _mm256_unpacklo_ps(r[2 * i], r[2 * i + 1]);
        t[2 * i + 1] = _mm256_unpackhi_ps(r[2 * i], r[2 * i + 1]);
    }
    // u[4g + c], 128-bit lane L: rows 4g..4g+4 at column 4L + c.
    let mut u = t;
    for g in 0..2 {
        u[4 * g] = _mm256_shuffle_ps::<0x44>(t[4 * g], t[4 * g + 2]);
        u[4 * g + 1] = _mm256_shuffle_ps::<0xEE>(t[4 * g], t[4 * g + 2]);
        u[4 * g + 2] = _mm256_shuffle_ps::<0x44>(t[4 * g + 1], t[4 * g + 3]);
        u[4 * g + 3] = _mm256_shuffle_ps::<0xEE>(t[4 * g + 1], t[4 * g + 3]);
    }
    let dst = dst.as_mut_ptr();
    for c in 0..4 {
        // SAFETY: rows c and 4 + c start at most 7·stride into `dst`, which
        // the assertion above showed to hold eight more floats from there.
        _mm256_storeu_ps(dst.add(c * stride), _mm256_permute2f128_ps::<0x20>(u[c], u[4 + c]));
        _mm256_storeu_ps(dst.add((4 + c) * stride), _mm256_permute2f128_ps::<0x31>(u[c], u[4 + c]));
    }
}

/// `out[i*16 + j] = Σ_kk a_panel[kk*6 + i] · b_panel[kk*16 + j]` for the
/// full 6×16 register tile.
///
/// The twelve accumulators live in YMM registers across the whole k loop;
/// each k step is two 8-lane B loads, six A broadcasts and twelve FMAs —
/// enough independent dependency chains to hide FMA latency on any AVX2
/// part. Panels must be padded to full tiles (the packing routines in
/// [`crate::gemm`] guarantee this), so there are no edge branches.
///
/// # Safety
///
/// The caller must ensure AVX2 and FMA are available (check
/// [`isa`] `== Isa::Avx2Fma`), `a_panel` holds at least `k * 6` floats,
/// `b_panel` at least `k * 16`, and `out` at least `96`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn microkernel_f32_6x16(k: usize, a_panel: *const f32, b_panel: *const f32, out: *mut f32) {
    use core::arch::x86_64::*;
    let mut c00 = _mm256_setzero_ps();
    let mut c01 = _mm256_setzero_ps();
    let mut c10 = _mm256_setzero_ps();
    let mut c11 = _mm256_setzero_ps();
    let mut c20 = _mm256_setzero_ps();
    let mut c21 = _mm256_setzero_ps();
    let mut c30 = _mm256_setzero_ps();
    let mut c31 = _mm256_setzero_ps();
    let mut c40 = _mm256_setzero_ps();
    let mut c41 = _mm256_setzero_ps();
    let mut c50 = _mm256_setzero_ps();
    let mut c51 = _mm256_setzero_ps();
    // One k step at panel offset `kk`: two B loads, six A broadcasts,
    // twelve FMAs.
    // SAFETY (applies to each expansion): `kk < k`, so every access stays
    // within the k·6 / k·16 panel bounds the caller guarantees.
    macro_rules! step {
        ($kk:expr) => {{
            let a = a_panel.add($kk * SIMD_MR);
            let b = b_panel.add($kk * SIMD_NR);
            let b0 = _mm256_loadu_ps(b);
            let b1 = _mm256_loadu_ps(b.add(8));
            let a0 = _mm256_broadcast_ss(&*a);
            c00 = _mm256_fmadd_ps(a0, b0, c00);
            c01 = _mm256_fmadd_ps(a0, b1, c01);
            let a1 = _mm256_broadcast_ss(&*a.add(1));
            c10 = _mm256_fmadd_ps(a1, b0, c10);
            c11 = _mm256_fmadd_ps(a1, b1, c11);
            let a2 = _mm256_broadcast_ss(&*a.add(2));
            c20 = _mm256_fmadd_ps(a2, b0, c20);
            c21 = _mm256_fmadd_ps(a2, b1, c21);
            let a3 = _mm256_broadcast_ss(&*a.add(3));
            c30 = _mm256_fmadd_ps(a3, b0, c30);
            c31 = _mm256_fmadd_ps(a3, b1, c31);
            let a4 = _mm256_broadcast_ss(&*a.add(4));
            c40 = _mm256_fmadd_ps(a4, b0, c40);
            c41 = _mm256_fmadd_ps(a4, b1, c41);
            let a5 = _mm256_broadcast_ss(&*a.add(5));
            c50 = _mm256_fmadd_ps(a5, b0, c50);
            c51 = _mm256_fmadd_ps(a5, b1, c51);
        }};
    }
    // Unrolled by two to halve loop-carried branch overhead.
    let mut kk = 0;
    while kk + 2 <= k {
        step!(kk);
        step!(kk + 1);
        kk += 2;
    }
    if kk < k {
        step!(kk);
    }
    // SAFETY: out holds ≥ 96 floats per the caller contract.
    _mm256_storeu_ps(out, c00);
    _mm256_storeu_ps(out.add(8), c01);
    _mm256_storeu_ps(out.add(16), c10);
    _mm256_storeu_ps(out.add(24), c11);
    _mm256_storeu_ps(out.add(32), c20);
    _mm256_storeu_ps(out.add(40), c21);
    _mm256_storeu_ps(out.add(48), c30);
    _mm256_storeu_ps(out.add(56), c31);
    _mm256_storeu_ps(out.add(64), c40);
    _mm256_storeu_ps(out.add(72), c41);
    _mm256_storeu_ps(out.add(80), c50);
    _mm256_storeu_ps(out.add(88), c51);
}

/// Whether the AVX-512 VNNI int8 tier is available: `vpdpbusd` fuses a
/// 4-deep u8×i8 dot product with i32 accumulation into one instruction,
/// with no widening step at all.
pub fn avx512vnni() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static VNNI: OnceLock<bool> = OnceLock::new();
        *VNNI.get_or_init(|| std::arch::is_x86_feature_detected!("avx512vnni"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// AVX-512 VNNI int8 kernel: accumulate one A row against a
/// quad-interleaved B panel into i32 partial sums for `cols` output
/// columns.
///
/// `vpdpbusd` multiplies **unsigned** bytes by signed bytes, so each
/// signed A quad is biased to unsigned with XOR `0x80` per byte
/// (`a + 128`) and the bias is removed exactly after the k loop:
/// `Σ (a+128)·b − 128·Σ b = Σ a·b`. The caller supplies that column sum,
/// `bsum[j] = Σ_kk B(kk, col0 + j)`, computed once per column block and
/// amortized over all A rows. With `(a+128) ≤ 255` and `|b| ≤ 127` the
/// biased accumulator stays under `i32::MAX` for k up to ~66k — far past
/// any im2col depth in the model zoo.
///
/// # Safety
///
/// Caller must ensure AVX-512F **and** AVX-512VNNI are available,
/// `a_quad` holds `4 * k_quads` codes, `b_pack` holds `k_quads * 4 * n`
/// codes, `col0 + cols <= n`, `bsum` holds `cols` column sums for columns
/// `col0..col0 + cols`, and `acc` holds `cols` i32 slots.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512vnni")]
#[allow(clippy::too_many_arguments)] // raw kernel entry point: pointers, not a config struct
pub unsafe fn gemm_i8_block_vnni(
    k_quads: usize,
    n: usize,
    col0: usize,
    cols: usize,
    a_quad: *const i8,
    b_pack: *const i8,
    bsum: *const i32,
    acc: *mut i32,
) {
    use core::arch::x86_64::*;
    // acc[j] = s[j] − 128·bsum[j], vectorized as s − (bsum << 7).
    macro_rules! unbias {
        ($s:expr, $off:expr) => {
            _mm512_sub_epi32(
                $s,
                _mm512_slli_epi32::<7>(_mm512_loadu_si512(bsum.add($off) as *const _)),
            )
        };
    }
    let mut j = 0;
    // 16 columns per dpbusd; 4 accumulators in flight for ILP.
    while j + 64 <= cols {
        let mut s0 = _mm512_setzero_si512();
        let mut s1 = _mm512_setzero_si512();
        let mut s2 = _mm512_setzero_si512();
        let mut s3 = _mm512_setzero_si512();
        for q in 0..k_quads {
            // SAFETY: q < k_quads and col0 + j + 63 < col0 + cols <= n keep
            // every 64-byte load inside the b_pack allocation; the 4-byte
            // A-quad read stays inside the 4·k_quads code row.
            let row = b_pack.add(q * 4 * n + 4 * (col0 + j));
            let aw = (a_quad.add(4 * q) as *const u32).read_unaligned() ^ 0x8080_8080;
            let va = _mm512_set1_epi32(aw as i32);
            s0 = _mm512_dpbusd_epi32(s0, va, _mm512_loadu_si512(row as *const _));
            s1 = _mm512_dpbusd_epi32(s1, va, _mm512_loadu_si512(row.add(64) as *const _));
            s2 = _mm512_dpbusd_epi32(s2, va, _mm512_loadu_si512(row.add(128) as *const _));
            s3 = _mm512_dpbusd_epi32(s3, va, _mm512_loadu_si512(row.add(192) as *const _));
        }
        // SAFETY: acc and bsum hold `cols` i32 and j + 63 < cols.
        _mm512_storeu_si512(acc.add(j) as *mut _, unbias!(s0, j));
        _mm512_storeu_si512(acc.add(j + 16) as *mut _, unbias!(s1, j + 16));
        _mm512_storeu_si512(acc.add(j + 32) as *mut _, unbias!(s2, j + 32));
        _mm512_storeu_si512(acc.add(j + 48) as *mut _, unbias!(s3, j + 48));
        j += 64;
    }
    while j + 16 <= cols {
        let mut s0 = _mm512_setzero_si512();
        for q in 0..k_quads {
            // SAFETY: as above, j + 15 < cols keeps the load in bounds.
            let row = b_pack.add(q * 4 * n + 4 * (col0 + j));
            let aw = (a_quad.add(4 * q) as *const u32).read_unaligned() ^ 0x8080_8080;
            let va = _mm512_set1_epi32(aw as i32);
            s0 = _mm512_dpbusd_epi32(s0, va, _mm512_loadu_si512(row as *const _));
        }
        // SAFETY: acc and bsum hold `cols` i32 and j + 15 < cols.
        _mm512_storeu_si512(acc.add(j) as *mut _, unbias!(s0, j));
        j += 16;
    }
    // Masked tail (< 16 columns): fault-suppressed dword loads keep the
    // full dpbusd width even for narrow outputs — a 10-class linear head
    // lives entirely in this tail, so it must not fall back to scalar.
    if j < cols {
        let mask = ((1u32 << (cols - j)) - 1) as __mmask16;
        let mut s0 = _mm512_setzero_si512();
        for q in 0..k_quads {
            // SAFETY: the masked load touches only the 4·(cols − j) bytes
            // of row that are in bounds; lanes past the mask are never
            // dereferenced.
            let row = b_pack.add(q * 4 * n + 4 * (col0 + j));
            let aw = (a_quad.add(4 * q) as *const u32).read_unaligned() ^ 0x8080_8080;
            let va = _mm512_set1_epi32(aw as i32);
            s0 = _mm512_dpbusd_epi32(s0, va, _mm512_maskz_loadu_epi32(mask, row as *const i32));
        }
        // SAFETY: masked lanes of bsum/acc are in bounds for j < cols.
        let bs = _mm512_maskz_loadu_epi32(mask, bsum.add(j));
        let c0 = _mm512_sub_epi32(s0, _mm512_slli_epi32::<7>(bs));
        _mm512_mask_storeu_epi32(acc.add(j), mask, c0);
    }
}

/// Quantize four consecutive B rows into one quad-interleaved pack row:
/// `dst[4j + t] = code(r_t[j] · inv[j])` for `j < n_cols`, where `code`
/// matches [`crate::quant`]'s scalar quantizer bit for bit — clamp to
/// `[-127, 127]`, round half away from zero, NaN → 0. Interleaving in
/// registers is what makes the pack pass vectorizable at all: the
/// stride-4 byte stores the layout needs defeat the auto-vectorizer, so
/// this assembles each 4-byte column group in an i32 lane and stores 64
/// contiguous bytes per 16 columns. Sign manipulation uses integer and/or
/// on the float bit patterns (plain AVX-512F — the `ps` logical forms need
/// AVX-512DQ, which isn't assumed) and NaN zeroing uses a mask register
/// from the ordered self-compare.
///
/// # Safety
///
/// Caller must ensure AVX-512F is available, `r0..r3` and `inv` each hold
/// `n_cols` floats, and `dst` holds `4 * n_cols` bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)] // raw kernel entry point: pointers, not a config struct
pub unsafe fn quant_interleave4_avx512(
    n_cols: usize,
    r0: *const f32,
    r1: *const f32,
    r2: *const f32,
    r3: *const f32,
    inv: *const f32,
    dst: *mut i8,
) {
    use core::arch::x86_64::*;
    let lo = _mm512_set1_ps(-127.0);
    let hi = _mm512_set1_ps(127.0);
    let half = _mm512_set1_epi32(0x3F00_0000); // 0.5f32 bits
    let sign = _mm512_set1_epi32(i32::MIN); // 0x8000_0000
    let byte = _mm512_set1_epi32(0xFF);
    let mut j = 0;
    while j + 16 <= n_cols {
        // SAFETY: j + 15 < n_cols keeps every row/inv load in bounds.
        let vinv = _mm512_loadu_ps(inv.add(j));
        macro_rules! quant {
            ($src:expr) => {{
                let x = _mm512_mul_ps(_mm512_loadu_ps($src.add(j)), vinv);
                // NaN → 0 via the ordered self-compare mask, then clamp.
                let x = _mm512_maskz_mov_ps(_mm512_cmp_ps_mask::<_CMP_ORD_Q>(x, x), x);
                let x = _mm512_min_ps(_mm512_max_ps(x, lo), hi);
                // copysign(0.5, x) assembled in the integer domain.
                let xb = _mm512_castps_si512(x);
                let h = _mm512_or_si512(half, _mm512_and_si512(xb, sign));
                _mm512_cvttps_epi32(_mm512_add_ps(x, _mm512_castsi512_ps(h)))
            }};
        }
        let c0 = quant!(r0);
        let c1 = quant!(r1);
        let c2 = quant!(r2);
        let c3 = quant!(r3);
        // Each i32 lane becomes the 4-byte group of one column.
        let w = _mm512_or_si512(
            _mm512_or_si512(
                _mm512_and_si512(c0, byte),
                _mm512_slli_epi32::<8>(_mm512_and_si512(c1, byte)),
            ),
            _mm512_or_si512(
                _mm512_slli_epi32::<16>(_mm512_and_si512(c2, byte)),
                _mm512_slli_epi32::<24>(c3),
            ),
        );
        // SAFETY: dst holds 4·n_cols bytes and j + 15 < n_cols.
        _mm512_storeu_si512(dst.add(4 * j) as *mut _, w);
        j += 16;
    }
    // Scalar tail: the exact `code` formula from `crate::quant`.
    while j < n_cols {
        // SAFETY: j < n_cols bounds every read; dst holds 4·n_cols bytes.
        let iv = *inv.add(j);
        for (t, r) in [r0, r1, r2, r3].into_iter().enumerate() {
            let x = (*r.add(j) * iv).clamp(-127.0, 127.0);
            *dst.add(4 * j + t) = (x + f32::copysign(0.5, x)) as i8;
        }
        j += 1;
    }
}

/// Quantize one contiguous row: `dst[j] = code(src[j] · inv)` for
/// `j < n`, bit-identical to the scalar `code` in [`crate::quant`]. The
/// A operand re-quantizes on every int8 forward (activations change per
/// batch), so this pass being scalar would tax large-batch inference —
/// `vpmovdb` narrows each 16-lane i32 group straight to contiguous bytes.
///
/// # Safety
///
/// Caller must ensure AVX-512F is available, `src` holds `n` floats, and
/// `dst` holds `n` bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
pub unsafe fn quant_row_avx512(n: usize, src: *const f32, inv: f32, dst: *mut i8) {
    use core::arch::x86_64::*;
    let vinv = _mm512_set1_ps(inv);
    let lo = _mm512_set1_ps(-127.0);
    let hi = _mm512_set1_ps(127.0);
    let half = _mm512_set1_epi32(0x3F00_0000); // 0.5f32 bits
    let sign = _mm512_set1_epi32(i32::MIN);
    let mut j = 0;
    while j + 16 <= n {
        // SAFETY: j + 15 < n keeps the load and the 16-byte store in
        // bounds.
        let x = _mm512_mul_ps(_mm512_loadu_ps(src.add(j)), vinv);
        let x = _mm512_maskz_mov_ps(_mm512_cmp_ps_mask::<_CMP_ORD_Q>(x, x), x);
        let x = _mm512_min_ps(_mm512_max_ps(x, lo), hi);
        let xb = _mm512_castps_si512(x);
        let h = _mm512_or_si512(half, _mm512_and_si512(xb, sign));
        let c = _mm512_cvttps_epi32(_mm512_add_ps(x, _mm512_castsi512_ps(h)));
        // Codes are within [-127, 127], so the truncating narrow is exact.
        _mm_storeu_si128(dst.add(j) as *mut __m128i, _mm512_cvtepi32_epi8(c));
        j += 16;
    }
    // Scalar tail: the exact `code` formula from `crate::quant`.
    while j < n {
        // SAFETY: j < n bounds the read and the write.
        let x = (*src.add(j) * inv).clamp(-127.0, 127.0);
        *dst.add(j) = (x + f32::copysign(0.5, x)) as i8;
        j += 1;
    }
}

/// Whether [`crc32_pclmul`] can run on this host: PCLMULQDQ for the folds
/// and SSE4.1 for the final lane extract.
pub fn pclmulqdq() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static CLMUL: OnceLock<bool> = OnceLock::new();
        *CLMUL.get_or_init(|| {
            std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("sse4.1")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

// Fold constants of the reflected IEEE CRC-32: `x^e mod P(x)` for the
// stated `e`, bit-reflected and shifted left by one (the extra factor of
// `x` a reflected carry-less product owes), so a 64-bit lane multiplied by
// one lands where the data `e` bits further on would. `P` is the
// polynomial itself and `MU` is `⌊x^64 / P(x)⌋`, both reflected over 33
// bits, for the Barrett step. The tests derive every one of them from the
// polynomial.
/// `e = 4·128 + 32`: the low lane of a 128-bit block, 512 bits ahead.
const CRC32_K1: i64 = 0x1_5444_2bd4;
/// `e = 4·128 − 32`: its high lane.
const CRC32_K2: i64 = 0x1_c6e4_1596;
/// `e = 128 + 32`: the low lane, one block ahead.
const CRC32_K3: i64 = 0x1_7519_97d0;
/// `e = 128 − 32`: the high lane, one block ahead.
const CRC32_K4: i64 = 0x0_ccaa_009e;
/// `e = 64`: 96 bits down to 64.
const CRC32_K5: i64 = 0x1_63cd_6124;
/// `P(x)`, reflected.
const CRC32_P: i64 = 0x1_db71_0641;
/// `⌊x^64 / P(x)⌋`, reflected.
const CRC32_MU: i64 = 0x1_f701_1641;

/// The reflected IEEE CRC-32 register after `blocks`, starting from
/// register `state` — the complement of a finished checksum, so a checksum
/// of `blocks` alone starts from `!0` and finishes as `!result`.
///
/// Four 128-bit lanes run the first 64 bytes; each further 64 bytes folds
/// every lane 512 bits ahead (two carry-less products and an XOR per lane,
/// four independent chains), then the lanes fold into one, the remaining
/// blocks fold in one at a time, and a Barrett reduction takes the 128-bit
/// remainder to the 32-bit register. About 8 bytes per cycle where the
/// slice-by-8 table does half a byte; the same bits, which
/// `kemf_nn::codec`'s tests hold it to against a bit-at-a-time reference.
///
/// # Panics
///
/// Unless [`pclmulqdq`] holds and `blocks` is whole 16-byte blocks, at
/// least four of them. The caller runs the sub-block tail and short inputs
/// through its table.
pub fn crc32_pclmul(state: u32, blocks: &[u8]) -> u32 {
    assert!(
        blocks.len() >= 64 && blocks.len().is_multiple_of(16),
        "the CRC fold takes whole 16-byte blocks, at least four, not {} bytes",
        blocks.len()
    );
    assert!(pclmulqdq(), "the CRC fold needs PCLMULQDQ and SSE4.1");
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: both features were checked just above; the length
        // contract is the kernel's loop bound.
        unsafe { crc32_fold_pclmul(state, blocks) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("pclmulqdq() is false off x86-64")
}

/// [`crc32_pclmul`]'s kernel.
///
/// # Safety
///
/// The caller must ensure PCLMULQDQ and SSE4.1 are available and that
/// `blocks.len()` is a multiple of 16 and at least 64.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
unsafe fn crc32_fold_pclmul(state: u32, blocks: &[u8]) -> u32 {
    use core::arch::x86_64::*;
    let n = blocks.len() / 16;
    let p = blocks.as_ptr() as *const __m128i;
    // `x` carried ahead by the distance `k` encodes, folded into `next`:
    // x.lo ⊗ k.lo ⊕ x.hi ⊗ k.hi ⊕ next.
    macro_rules! fold {
        ($x:expr, $next:expr, $k:expr) => {
            _mm_xor_si128(
                _mm_xor_si128(_mm_clmulepi64_si128::<0x00>($x, $k), _mm_clmulepi64_si128::<0x11>($x, $k)),
                $next,
            )
        };
    }
    // SAFETY (every load below): block `i` is read only for `i < n`, and
    // `n ≥ 4` per the caller contract; `loadu` takes any alignment.
    let mut x0 = _mm_xor_si128(_mm_loadu_si128(p), _mm_cvtsi32_si128(state as i32));
    let mut x1 = _mm_loadu_si128(p.add(1));
    let mut x2 = _mm_loadu_si128(p.add(2));
    let mut x3 = _mm_loadu_si128(p.add(3));
    let k1k2 = _mm_set_epi64x(CRC32_K2, CRC32_K1);
    let mut i = 4;
    while i + 4 <= n {
        x0 = fold!(x0, _mm_loadu_si128(p.add(i)), k1k2);
        x1 = fold!(x1, _mm_loadu_si128(p.add(i + 1)), k1k2);
        x2 = fold!(x2, _mm_loadu_si128(p.add(i + 2)), k1k2);
        x3 = fold!(x3, _mm_loadu_si128(p.add(i + 3)), k1k2);
        i += 4;
    }
    let k3k4 = _mm_set_epi64x(CRC32_K4, CRC32_K3);
    let mut x = fold!(fold!(fold!(x0, x1, k3k4), x2, k3k4), x3, k3k4);
    while i < n {
        x = fold!(x, _mm_loadu_si128(p.add(i)), k3k4);
        i += 1;
    }
    // 128 → 96 bits (the low lane one lane ahead), then 96 → 64.
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    let x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k3k4), _mm_srli_si128::<8>(x));
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, CRC32_K5)),
        _mm_srli_si128::<4>(x),
    );
    // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and the register
    // is the upper half of R ⊕ T2 (the reflected variant's "divide by x^32").
    let pmu = _mm_set_epi64x(CRC32_MU, CRC32_P);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
    _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_scalar_is_thread_local_and_guarded() {
        assert!(!scalar_forced());
        {
            let _g = ScalarGuard::new();
            assert!(scalar_forced());
            assert_eq!(isa(), Isa::Scalar);
        }
        assert!(!scalar_forced());
        // Another thread never sees this thread's override.
        force_scalar(true);
        let other = std::thread::spawn(scalar_forced).join().unwrap();
        force_scalar(false);
        assert!(!other);
    }

    #[test]
    fn cpu_features_nonempty() {
        assert!(!cpu_features().is_empty());
    }

    /// The IEEE polynomial without its `x^32` term, in normal bit order.
    const IEEE: u32 = 0x04C1_1DB7;

    /// `x^e mod P(x)`, in normal bit order.
    fn x_pow_mod_p(e: u32) -> u32 {
        (0..e).fold(1u32, |r, _| (r << 1) ^ (IEEE & (r >> 31).wrapping_neg()))
    }

    #[test]
    fn crc32_fold_constants_derive_from_the_polynomial() {
        let k = |e: u32| (x_pow_mod_p(e).reverse_bits() as i64) << 1;
        assert_eq!(k(4 * 128 + 32), CRC32_K1);
        assert_eq!(k(4 * 128 - 32), CRC32_K2);
        assert_eq!(k(128 + 32), CRC32_K3);
        assert_eq!(k(128 - 32), CRC32_K4);
        assert_eq!(k(64), CRC32_K5);
        assert_eq!(((IEEE.reverse_bits() as i64) << 1) | 1, CRC32_P);
        // μ = ⌊x^64 / P(x)⌋ by long division, then reflected over 33 bits.
        let p = (1u128 << 32) | IEEE as u128;
        let (mut rem, mut mu) = (1u128 << 64, 0u64);
        for bit in (32..=64).rev() {
            if (rem >> bit) & 1 == 1 {
                rem ^= p << (bit - 32);
                mu |= 1 << (bit - 32);
            }
        }
        assert_eq!((mu.reverse_bits() >> 31) as i64, CRC32_MU);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_f32_kernel_matches_scalar_reference() {
        if !std::arch::is_x86_feature_detected!("avx512f") {
            return; // host lacks AVX-512 — covered by the lower tiers
        }
        let k = 37;
        let a: Vec<f32> = (0..k * SIMD_MR512).map(|i| ((i * 37) % 23) as f32 - 11.0).collect();
        let b: Vec<f32> = (0..k * SIMD_NR512).map(|i| ((i * 17) % 19) as f32 - 9.0).collect();
        let mut out = [0.0f32; SIMD_MR512 * SIMD_NR512];
        // SAFETY: AVX-512F checked above; panel and out sizes match the contract.
        unsafe { microkernel_f32_8x32(k, a.as_ptr(), b.as_ptr(), out.as_mut_ptr()) };
        for i in 0..SIMD_MR512 {
            for j in 0..SIMD_NR512 {
                let want: f32 =
                    (0..k).map(|kk| a[kk * SIMD_MR512 + i] * b[kk * SIMD_NR512 + j]).sum();
                assert!(
                    (out[i * SIMD_NR512 + j] - want).abs() < 1e-3,
                    "tile ({i},{j}): {} vs {want}",
                    out[i * SIMD_NR512 + j]
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_ldb_kernel_matches_packed_kernel() {
        if !std::arch::is_x86_feature_detected!("avx512f") {
            return;
        }
        let (k, ldb) = (19, 45); // B wider than the tile: stride ≠ 32
        let a: Vec<f32> = (0..k * SIMD_MR512).map(|i| ((i * 29) % 13) as f32 - 6.0).collect();
        let b: Vec<f32> = (0..k * ldb).map(|i| ((i * 11) % 21) as f32 - 10.0).collect();
        let col0 = 7;
        let mut packed = vec![0.0f32; k * SIMD_NR512];
        for kk in 0..k {
            packed[kk * SIMD_NR512..(kk + 1) * SIMD_NR512]
                .copy_from_slice(&b[kk * ldb + col0..kk * ldb + col0 + SIMD_NR512]);
        }
        let mut want = [0.0f32; SIMD_MR512 * SIMD_NR512];
        let mut got = [0.0f32; SIMD_MR512 * SIMD_NR512];
        // SAFETY: AVX-512F checked above; sizes match both contracts.
        unsafe {
            microkernel_f32_8x32(k, a.as_ptr(), packed.as_ptr(), want.as_mut_ptr());
            microkernel_f32_8x32_ldb(k, a.as_ptr(), b.as_ptr().add(col0), ldb, got.as_mut_ptr());
        }
        assert_eq!(want, got, "direct-B kernel must match the packed kernel bit-for-bit");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_transposing_kernel_matches_packed_kernel() {
        if !std::arch::is_x86_feature_detected!("avx512f") {
            return;
        }
        // B stored transposed, rows longer than k (ldb ≠ k); k = 37 leaves
        // a 5-deep masked block after two full ones, and 11 rows leave
        // five tile columns aliased to row 0.
        let (k, ldb, rows) = (37, 41, 11);
        let a: Vec<f32> = (0..k * SIMD_MR512).map(|i| ((i * 29) % 13) as f32 * 0.37 - 2.0).collect();
        let bt: Vec<f32> = (0..rows * ldb).map(|i| ((i * 11) % 21) as f32 * 0.19 - 1.9).collect();
        let mut packed = vec![0.0f32; k * SIMD_NR512];
        for kk in 0..k {
            for j in 0..rows {
                packed[kk * SIMD_NR512 + j] = bt[j * ldb + kk];
            }
        }
        let mut want = [0.0f32; SIMD_MR512 * SIMD_NR512];
        let mut got8 = [f32::NAN; 8 * 16];
        let mut got4 = [f32::NAN; 4 * 16];
        // SAFETY: AVX-512F checked above; sizes match each contract.
        unsafe {
            microkernel_f32_8x32(k, a.as_ptr(), packed.as_ptr(), want.as_mut_ptr());
            microkernel_f32_bt::<8>(k, a.as_ptr(), bt.as_ptr(), ldb, rows, got8.as_mut_ptr());
            microkernel_f32_bt::<4>(k, a.as_ptr(), bt.as_ptr(), ldb, rows, got4.as_mut_ptr());
        }
        for i in 0..8 {
            for j in 0..rows {
                let w = want[i * SIMD_NR512 + j].to_bits();
                assert_eq!(got8[i * 16 + j].to_bits(), w, "8-row tile ({i},{j})");
                if i < 4 {
                    assert_eq!(got4[i * 16 + j].to_bits(), w, "4-row tile ({i},{j})");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_block_transpose_is_a_transpose() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let src: [[f32; 8]; 8] = std::array::from_fn(|r| std::array::from_fn(|c| (r * 8 + c) as f32));
        // Rows 11 apart: the three floats between two rows stay untouched.
        let mut dst = [f32::NAN; 7 * 11 + 8];
        // SAFETY: AVX2 checked above.
        unsafe { transpose_8x8_avx2(std::array::from_fn(|r| &src[r]), &mut dst, 11) };
        for (i, v) in dst.iter().enumerate() {
            match (i / 11, i % 11) {
                (c, r) if r < 8 => assert_eq!(*v, src[r][c], "({r},{c})"),
                _ => assert!(v.is_nan(), "gap element {i} written"),
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_f32_kernel_matches_scalar_reference() {
        if !(std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma"))
        {
            return; // host lacks AVX2 — covered by the scalar tier
        }
        let k = 37;
        let a: Vec<f32> = (0..k * SIMD_MR).map(|i| ((i * 37) % 23) as f32 - 11.0).collect();
        let b: Vec<f32> = (0..k * SIMD_NR).map(|i| ((i * 17) % 19) as f32 - 9.0).collect();
        let mut out = [0.0f32; SIMD_MR * SIMD_NR];
        // SAFETY: AVX2+FMA checked above; panel and out sizes match the contract.
        unsafe { microkernel_f32_6x16(k, a.as_ptr(), b.as_ptr(), out.as_mut_ptr()) };
        for i in 0..SIMD_MR {
            for j in 0..SIMD_NR {
                let want: f32 = (0..k).map(|kk| a[kk * SIMD_MR + i] * b[kk * SIMD_NR + j]).sum();
                assert!(
                    (out[i * SIMD_NR + j] - want).abs() < 1e-3,
                    "tile ({i},{j}): {} vs {want}",
                    out[i * SIMD_NR + j]
                );
            }
        }
    }

    /// Quad-interleaved test fixture: `k × n` deterministic codes packed
    /// as `bp[q·4n + 4j + t] = B(4q + t, j)` with zero pads, plus an A
    /// row padded to `4 · k_quads` codes.
    #[cfg(target_arch = "x86_64")]
    fn i8_fixture(k: usize, n: usize) -> (Vec<i8>, Vec<i8>, Vec<i8>) {
        let k_quads = k.div_ceil(4);
        let a: Vec<i8> =
            (0..4 * k_quads).map(|i| if i < k { (i as i8).wrapping_mul(7) } else { 0 }).collect();
        let mut bp = vec![0i8; k_quads * 4 * n];
        let mut b = vec![0i8; k * n];
        for kk in 0..k {
            for j in 0..n {
                let v = ((kk * 31 + j * 7) % 255) as i32 - 127;
                b[kk * n + j] = v as i8;
                bp[(kk / 4) * 4 * n + 4 * j + (kk % 4)] = v as i8;
            }
        }
        (a, b, bp)
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vnni_i8_kernel_matches_scalar_reference() {
        if !std::arch::is_x86_feature_detected!("avx512f") || !avx512vnni() {
            return;
        }
        // 90 columns exercise the 64-wide block, the 16-wide loop, and the
        // sub-16 scalar tail; k = 13 exercises the partial-quad zero pad.
        // The tail computes signed products directly while the vector body
        // goes through the +128 bias and bsum correction, so agreement
        // here checks the correction is exact.
        let (k, n) = (13usize, 90usize);
        let k_quads = k.div_ceil(4);
        let (a, b, bp) = i8_fixture(k, n);
        let bsum: Vec<i32> =
            (0..n).map(|j| (0..k).map(|kk| b[kk * n + j] as i32).sum()).collect();
        let mut acc = vec![0i32; n];
        // SAFETY: AVX-512F + VNNI checked above; layouts match the contract.
        unsafe {
            gemm_i8_block_vnni(
                k_quads,
                n,
                0,
                n,
                a.as_ptr(),
                bp.as_ptr(),
                bsum.as_ptr(),
                acc.as_mut_ptr(),
            )
        };
        for j in 0..n {
            let want: i32 = (0..k).map(|kk| a[kk] as i32 * b[kk * n + j] as i32).sum();
            assert_eq!(acc[j], want, "column {j}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn quant_interleave_matches_scalar_code() {
        if !std::arch::is_x86_feature_detected!("avx512f") {
            return;
        }
        // 37 columns: two full 16-wide iterations plus a 5-column scalar
        // tail. Inputs include NaN, ±∞, exact .5 boundaries, and ±0.0 —
        // every case where a sloppy vector quantizer could diverge from
        // the scalar `code` formula.
        let n = 37usize;
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 63.5, -63.5, 0.0, -0.0];
        let rows: Vec<Vec<f32>> = (0..4)
            .map(|t| {
                (0..n)
                    .map(|j| {
                        if (j + t) % 3 == 0 {
                            specials[(j + t) % specials.len()]
                        } else {
                            (j as f32 - 9.5) * (t as f32 + 0.7)
                        }
                    })
                    .collect()
            })
            .collect();
        let inv: Vec<f32> = (0..n).map(|j| 1.0 / (0.05 + j as f32 * 0.13)).collect();
        let mut dst = vec![0i8; 4 * n];
        // SAFETY: AVX-512F checked above; every buffer holds n (or 4n) slots.
        unsafe {
            quant_interleave4_avx512(
                n,
                rows[0].as_ptr(),
                rows[1].as_ptr(),
                rows[2].as_ptr(),
                rows[3].as_ptr(),
                inv.as_ptr(),
                dst.as_mut_ptr(),
            )
        };
        for j in 0..n {
            for t in 0..4 {
                let x = (rows[t][j] * inv[j]).clamp(-127.0, 127.0);
                let want = (x + f32::copysign(0.5, x)) as i8;
                assert_eq!(dst[4 * j + t], want, "col {j} row {t} (src {})", rows[t][j]);
            }
        }
    }

    #[test]
    fn quant_row_matches_scalar_code() {
        if !std::arch::is_x86_feature_detected!("avx512f") {
            return;
        }
        // 37 elements: two full 16-wide iterations plus a 5-element scalar
        // tail, with the same special values the interleave test uses.
        let n = 37usize;
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 63.5, -63.5, 0.0, -0.0];
        let src: Vec<f32> = (0..n)
            .map(|j| {
                if j % 3 == 0 {
                    specials[j % specials.len()]
                } else {
                    (j as f32 - 17.5) * 0.9
                }
            })
            .collect();
        let inv = 1.0 / 0.37;
        let mut dst = vec![0i8; n];
        // SAFETY: AVX-512F checked above; src holds n floats, dst n bytes.
        unsafe { quant_row_avx512(n, src.as_ptr(), inv, dst.as_mut_ptr()) };
        for j in 0..n {
            let x = (src[j] * inv).clamp(-127.0, 127.0);
            let want = (x + f32::copysign(0.5, x)) as i8;
            assert_eq!(dst[j], want, "elem {j} (src {})", src[j]);
        }
    }
}
