//! Register-tiled and manually unrolled `f32` compute kernels.
//!
//! Every hot loop of the tensor layer funnels through this module: the three
//! matrix-product variants ([`matmul`], [`matmul_nt`] for `A·Bᵀ`,
//! [`matmul_tn`] for `Aᵀ·B`), the fused-multiply-free [`axpy`], the
//! element-wise arithmetic kernels, and the activation maps. The kernels are
//! written for stable Rust — no `std::simd`, no intrinsics.
//!
//! The matrix products run on register tiles: per output row, a fixed-width
//! accumulator array (32 columns, then 16- and 8-column remainder tiles and
//! a scalar tail) lives in registers across the whole inner-product sweep,
//! and is read from and written back to `out` once. The element-wise
//! kernels are 8-wide manually unrolled loops over `chunks_exact(8)`. LLVM
//! turns both into SIMD on x86-64 and aarch64.
//!
//! The tile bodies are compiled twice: once for the target's baseline
//! features, and once inside a `#[target_feature(enable = "avx2")]` wrapper
//! that [`matmul`] and [`matmul_tn`] pick per call when
//! `is_x86_feature_detected!("avx2")` holds. The AVX2 arm does **not**
//! enable `fma`: a fused multiply-add rounds once where the scalar loop
//! rounds twice, which would change the bits. Non-x86 targets always run
//! the baseline arm. Nothing configures the choice.
//!
//! [`exp_in_place`], which the sigmoid and the tape's masked softmax use,
//! is the one kernel with an FMA arm: it ports glibc's `expf`, whose own
//! x86-64 build fuses multiply-adds on FMA CPUs, so fusing exactly where
//! glibc does is what reproduces `f32::exp`'s bits there.
//!
//! # Bit-exactness contract
//!
//! Each kernel produces **bit-identical** results to the scalar reference
//! loops that preceded it (and that the property suite in
//! `crates/tensor/tests/kernels.rs` still checks against), on either arm:
//!
//! - every output element accumulates its terms in a fixed order (increasing
//!   inner-product index), never via thread-, width- or arm-dependent
//!   partial sums;
//! - the sparse skip of the original `Tensor::matmul` — contributions whose
//!   left-hand factor is exactly `0.0` are *skipped*, not multiplied — is
//!   preserved, because `0.0 * b` is not a bitwise no-op for `b ∈ {±∞, NaN}`
//!   and `(-0.0) + 0.0` flips the sign bit;
//! - each product and each sum is its own IEEE-754 rounding (no FMA
//!   contraction, which Rust never does implicitly).
//!
//! Tiling is therefore free: the lanes of a tile are independent output
//! elements, and the tile only decides which of them share registers, so
//! every element sees exactly the same `f32` sequence as in the scalar loop.
//! The same holds for the 8 lanes of an unrolled element-wise block.

/// `y += alpha * x`, 8-wide unrolled.
///
/// Each `y[i]` receives exactly one `+ alpha * x[i]`, matching the scalar
/// loop bit-for-bit.
///
/// # Panics
/// Panics if `x` and `y` differ in length.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    let mut xc = x.chunks_exact(8);
    let mut yc = y.chunks_exact_mut(8);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        ys[0] += alpha * xs[0];
        ys[1] += alpha * xs[1];
        ys[2] += alpha * xs[2];
        ys[3] += alpha * xs[3];
        ys[4] += alpha * xs[4];
        ys[5] += alpha * xs[5];
        ys[6] += alpha * xs[6];
        ys[7] += alpha * xs[7];
    }
    for (&xv, yv) in xc.remainder().iter().zip(yc.into_remainder()) {
        *yv += alpha * xv;
    }
}

/// 8-wide unrolled unary element map: `out[i] = f(x[i])`.
#[inline]
fn map_unary(x: &[f32], out: &mut [f32], f: impl Fn(f32) -> f32) {
    debug_assert_eq!(x.len(), out.len());
    let mut xc = x.chunks_exact(8);
    let mut oc = out.chunks_exact_mut(8);
    for (xs, os) in (&mut xc).zip(&mut oc) {
        os[0] = f(xs[0]);
        os[1] = f(xs[1]);
        os[2] = f(xs[2]);
        os[3] = f(xs[3]);
        os[4] = f(xs[4]);
        os[5] = f(xs[5]);
        os[6] = f(xs[6]);
        os[7] = f(xs[7]);
    }
    for (&xv, ov) in xc.remainder().iter().zip(oc.into_remainder()) {
        *ov = f(xv);
    }
}

/// 8-wide unrolled binary element map: `out[i] = f(a[i], b[i])`.
#[inline]
fn map_binary(a: &[f32], b: &[f32], out: &mut [f32], f: impl Fn(f32, f32) -> f32) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    let mut ac = a.chunks_exact(8);
    let mut bc = b.chunks_exact(8);
    let mut oc = out.chunks_exact_mut(8);
    for ((xs, ys), os) in (&mut ac).zip(&mut bc).zip(&mut oc) {
        os[0] = f(xs[0], ys[0]);
        os[1] = f(xs[1], ys[1]);
        os[2] = f(xs[2], ys[2]);
        os[3] = f(xs[3], ys[3]);
        os[4] = f(xs[4], ys[4]);
        os[5] = f(xs[5], ys[5]);
        os[6] = f(xs[6], ys[6]);
        os[7] = f(xs[7], ys[7]);
    }
    for ((&xv, &yv), ov) in ac
        .remainder()
        .iter()
        .zip(bc.remainder())
        .zip(oc.into_remainder())
    {
        *ov = f(xv, yv);
    }
}

/// Element-wise sum `out = a + b`.
///
/// # Panics
/// Panics on length mismatch.
pub fn add(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "add length mismatch");
    assert_eq!(a.len(), out.len(), "add output length mismatch");
    map_binary(a, b, out, |x, y| x + y);
}

/// Element-wise difference `out = a - b`.
///
/// # Panics
/// Panics on length mismatch.
pub fn sub(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "sub length mismatch");
    assert_eq!(a.len(), out.len(), "sub output length mismatch");
    map_binary(a, b, out, |x, y| x - y);
}

/// Hadamard product `out = a ⊙ b`.
///
/// # Panics
/// Panics on length mismatch.
pub fn mul(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "mul length mismatch");
    assert_eq!(a.len(), out.len(), "mul output length mismatch");
    map_binary(a, b, out, |x, y| x * y);
}

/// Scalar multiple `out = x * alpha`.
///
/// # Panics
/// Panics on length mismatch.
pub fn scale(alpha: f32, x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "scale length mismatch");
    map_unary(x, out, |v| v * alpha);
}

/// Scalar offset `out = x + alpha`.
///
/// # Panics
/// Panics on length mismatch.
pub fn add_scalar(alpha: f32, x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "add_scalar length mismatch");
    map_unary(x, out, |v| v + alpha);
}

/// Logistic sigmoid `out = 1 / (1 + e^{-x})`, with `e^{-x}` from
/// [`exp_in_place`] — the bits of `1.0 / (1.0 + (-x).exp())`.
///
/// # Panics
/// Panics on length mismatch.
pub fn sigmoid(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "sigmoid length mismatch");
    map_unary(x, out, |v| -v);
    exp_in_place(out);
    for o in out.iter_mut() {
        *o = 1.0 / (1.0 + *o);
    }
}

/// `v[i] = e^{v[i]}`, bit-identical to [`f32::exp`].
///
/// On `x86_64-linux-gnu`, where `f32::exp` is glibc's `expf`, this runs a
/// port of that `expf` whose loop vectorizes, with one arm per build that
/// glibc's ifunc picks from (FMA and AVX2, or neither); elsewhere it calls
/// [`f32::exp`] per element.
pub fn exp_in_place(v: &mut [f32]) {
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    expf::exp_in_place(expf::Arm::detect(), v);
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")))]
    for x in v {
        *x = x.exp();
    }
}

/// A port of glibc's `__expf` (`sysdeps/ieee754/flt-32/e_expf.c`, the
/// 32-entry `__exp2f_data` table and a degree-3 polynomial evaluated in
/// `f64`), so that a slice of exponentials vectorizes instead of making
/// one libm call per element.
///
/// glibc's x86-64 ifunc picks between two builds of the same C source:
/// `__expf_fma` when the CPU has FMA and AVX2, where the compiler fuses
/// five multiply-adds, and the SSE2 build otherwise, where nothing is
/// fused. The two differ on two of all `f32` inputs (`0x4202422f` and
/// `0xc27c65d9`), so the port has the same two arms, picked by the same
/// feature test: [`Arm::Fma`] with the five `mul_add`s in glibc's places,
/// and [`Arm::Plain`] with the same operations in the same order, unfused.
///
/// Inputs with `|x| ≥ 88`, infinities and NaNs take glibc's special-case
/// branch (overflow, underflow, `errno`); the port sends them to
/// [`f32::exp`] instead, after one check over the whole slice, so the
/// common all-finite slice runs a branch-free loop.
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
pub(crate) mod expf {
    /// `__exp2f_data.tab`: `tab[i] = bits(2^(i/32)) - (i << 47)`.
    const TAB: [u64; 32] = [
        0x3ff0000000000000,
        0x3fefd9b0d3158574,
        0x3fefb5586cf9890f,
        0x3fef9301d0125b51,
        0x3fef72b83c7d517b,
        0x3fef54873168b9aa,
        0x3fef387a6e756238,
        0x3fef1e9df51fdee1,
        0x3fef06fe0a31b715,
        0x3feef1a7373aa9cb,
        0x3feedea64c123422,
        0x3feece086061892d,
        0x3feebfdad5362a27,
        0x3feeb42b569d4f82,
        0x3feeab07dd485429,
        0x3feea47eb03a5585,
        0x3feea09e667f3bcd,
        0x3fee9f75e8ec5f74,
        0x3feea11473eb0187,
        0x3feea589994cce13,
        0x3feeace5422aa0db,
        0x3feeb737b0cdc5e5,
        0x3feec49182a3f090,
        0x3feed503b23e255d,
        0x3feee89f995ad3ad,
        0x3feeff76f2fb5e47,
        0x3fef199bdd85529c,
        0x3fef3720dcef9069,
        0x3fef5818dcfba487,
        0x3fef7c97337b9b5f,
        0x3fefa4afa2a490da,
        0x3fefd0765b6e4540,
    ];
    /// `__exp2f_data.invln2_scaled`: `32 / ln 2`.
    const INV_LN2_N: f64 = f64::from_bits(0x40471547652b82fe);
    /// `__exp2f_data.shift`: `0x1.8p52`, rounds `z` to an integer in its
    /// low mantissa bits.
    const SHIFT: f64 = f64::from_bits(0x4338000000000000);
    /// `__exp2f_data.poly_scaled`: the coefficients of `r³`, `r²` and `r`.
    const C: [f64; 3] = [
        f64::from_bits(0x3ebc6af84b912394),
        f64::from_bits(0x3f2ebfce50fac4f3),
        f64::from_bits(0x3f962e42ff0c52d6),
    ];
    /// `|x|` bits from which glibc takes its special-case branch:
    /// `top12(88.0f)`, widened to the full word.
    const SPECIAL_ABS_BITS: u32 = 0x42b0_0000;

    /// Which build of glibc's `expf` the port reproduces.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Arm {
        /// The SSE2 build: no operation fused.
        Plain,
        /// The `__expf_fma` build. Only [`Arm::detect`] constructs it, after
        /// the CPU reported FMA and AVX2.
        Fma,
    }

    impl Arm {
        /// The arm glibc's ifunc selects on the running CPU.
        #[inline]
        pub(crate) fn detect() -> Arm {
            if std::arch::is_x86_feature_detected!("fma")
                && std::arch::is_x86_feature_detected!("avx2")
            {
                Arm::Fma
            } else {
                Arm::Plain
            }
        }
    }

    /// `a·b + c`, fused on the FMA arm.
    #[inline(always)]
    fn madd<const FMA: bool>(a: f64, b: f64, c: f64) -> f64 {
        if FMA {
            a.mul_add(b, c)
        } else {
            a * b + c
        }
    }

    /// `__expf`'s main path for a non-special `x` (`|x| < 88`).
    #[inline(always)]
    fn expf_core<const FMA: bool>(x: f32) -> f32 {
        let xd = f64::from(x);
        // x·32/ln2 = k + r with r in [-1/2, 1/2] and integer k.
        let kd = madd::<FMA>(INV_LN2_N, xd, SHIFT);
        let ki = kd.to_bits();
        let kd = kd - SHIFT;
        let r = madd::<FMA>(INV_LN2_N, xd, -kd);
        // exp(x) = 2^(k/32) · 2^(r/32) ≈ s · (C0·r³ + C1·r² + C2·r + 1).
        let t = TAB[(ki % 32) as usize].wrapping_add(ki << 47);
        let s = f64::from_bits(t);
        let z = madd::<FMA>(C[0], r, C[1]);
        let r2 = r * r;
        let y = madd::<FMA>(C[2], r, 1.0);
        let y = madd::<FMA>(z, r2, y);
        (y * s) as f32
    }

    /// Whether `x` takes glibc's special-case branch.
    #[inline(always)]
    fn special(x: f32) -> bool {
        x.to_bits() & 0x7fff_ffff >= SPECIAL_ABS_BITS
    }

    /// `v[i] = e^{v[i]}` on one arm: a branch-free loop when no element is
    /// special, else a per-element choice.
    #[inline(always)]
    fn exp_slice<const FMA: bool>(v: &mut [f32]) {
        let max_abs = v.iter().fold(0, |m, &x| m.max(x.to_bits() & 0x7fff_ffff));
        if max_abs < SPECIAL_ABS_BITS {
            for x in v.iter_mut() {
                *x = expf_core::<FMA>(*x);
            }
        } else {
            for x in v.iter_mut() {
                *x = if special(*x) {
                    x.exp()
                } else {
                    expf_core::<FMA>(*x)
                };
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    fn exp_slice_fma(v: &mut [f32]) {
        exp_slice::<true>(v);
    }

    /// `v[i] = e^{v[i]}` on the given arm.
    pub(crate) fn exp_in_place(arm: Arm, v: &mut [f32]) {
        match arm {
            Arm::Plain => exp_slice::<false>(v),
            // SAFETY: `Arm::Fma` is only constructed by `Arm::detect` once
            // the CPU has reported FMA and AVX2.
            Arm::Fma => unsafe { exp_slice_fma(v) },
        }
    }
}

/// Hyperbolic tangent.
///
/// # Panics
/// Panics on length mismatch.
pub fn tanh(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "tanh length mismatch");
    map_unary(x, out, f32::tanh);
}

/// Rectified linear unit `out = max(x, 0)`.
///
/// # Panics
/// Panics on length mismatch.
pub fn relu(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "relu length mismatch");
    map_unary(x, out, |v| v.max(0.0));
}

/// Leaky ReLU with the given negative slope.
///
/// # Panics
/// Panics on length mismatch.
pub fn leaky_relu(slope: f32, x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "leaky_relu length mismatch");
    map_unary(x, out, |v| if v > 0.0 { v } else { slope * v });
}

/// Width of the main register tile: 32 `f32` accumulators per output row,
/// four AVX2 or eight SSE registers.
const TILE: usize = 32;

/// Which compiled copy of the tile bodies a product runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    /// Compiled for the target's baseline features.
    Baseline,
    /// Compiled with AVX2 enabled. Only [`Arm::detect`] constructs it, after
    /// the running CPU reported AVX2.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx2,
}

impl Arm {
    /// The widest arm the running CPU supports (a cached feature lookup).
    #[inline]
    fn detect() -> Arm {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Arm::Avx2;
        }
        Arm::Baseline
    }
}

/// One `W`-column register tile: `out[j] += a[t·a_step] · b[t·n + j]` for
/// `t` in `0..k`, in increasing `t`, skipping factors `a[t·a_step] == 0.0`.
/// `a` starts at the output row's first factor and `b` at the tile's first
/// column; the accumulators stay in registers across the whole sweep.
#[inline(always)]
fn tile<const W: usize>(k: usize, a: &[f32], a_step: usize, b: &[f32], n: usize, out: &mut [f32]) {
    let mut acc = [0.0f32; W];
    acc.copy_from_slice(&out[..W]);
    for t in 0..k {
        let av = a[t * a_step];
        if av == 0.0 {
            continue;
        }
        for (c, &bv) in acc.iter_mut().zip(&b[t * n..t * n + W]) {
            *c += av * bv;
        }
    }
    out[..W].copy_from_slice(&acc);
}

/// The last `out.len() < 8` columns of a row, as one exact-width [`tile`].
#[inline(always)]
fn tail(k: usize, a: &[f32], a_step: usize, b: &[f32], n: usize, out: &mut [f32]) {
    match out.len() {
        1 => tile::<1>(k, a, a_step, b, n, out),
        2 => tile::<2>(k, a, a_step, b, n, out),
        3 => tile::<3>(k, a, a_step, b, n, out),
        4 => tile::<4>(k, a, a_step, b, n, out),
        5 => tile::<5>(k, a, a_step, b, n, out),
        6 => tile::<6>(k, a, a_step, b, n, out),
        7 => tile::<7>(k, a, a_step, b, n, out),
        w => unreachable!("tail tiles are 1..=7 columns wide, got {w}"),
    }
}

/// One output row of `n` columns: full [`TILE`]s, then 16-, 8- and
/// sub-8-column remainder tiles.
#[inline(always)]
fn tiled_row(k: usize, a: &[f32], a_step: usize, b: &[f32], n: usize, out: &mut [f32]) {
    let mut j = 0;
    while n - j >= TILE {
        tile::<TILE>(k, a, a_step, &b[j..], n, &mut out[j..]);
        j += TILE;
    }
    if n - j >= 16 {
        tile::<16>(k, a, a_step, &b[j..], n, &mut out[j..]);
        j += 16;
    }
    if n - j >= 8 {
        tile::<8>(k, a, a_step, &b[j..], n, &mut out[j..]);
        j += 8;
    }
    if j < n {
        tail(k, a, a_step, &b[j..], n, &mut out[j..n]);
    }
}

/// The [`matmul`] body shared by both arms.
#[inline(always)]
fn matmul_tiles(k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        tiled_row(k, arow, 1, b, n, orow);
    }
}

/// The [`matmul_tn`] body shared by both arms: output row `i` takes its
/// factors from column `i` of `A`.
#[inline(always)]
fn matmul_tn_tiles(r: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for (i, orow) in out.chunks_exact_mut(n).enumerate() {
        tiled_row(r, &a[i..], m, b, n, orow);
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn matmul_tiles_avx2(k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    matmul_tiles(k, n, a, b, out);
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn matmul_tn_tiles_avx2(r: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    matmul_tn_tiles(r, m, n, a, b, out);
}

/// [`matmul`] on the given arm, shapes already checked and non-empty.
fn matmul_on(arm: Arm, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    match arm {
        Arm::Baseline => matmul_tiles(k, n, a, b, out),
        // SAFETY: `Arm::Avx2` is only constructed by `Arm::detect` once
        // `is_x86_feature_detected!("avx2")` has returned true, so the CPU
        // supports every instruction the AVX2 copy may use.
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Arm::Avx2 => unsafe { matmul_tiles_avx2(k, n, a, b, out) },
    }
}

/// [`matmul_tn`] on the given arm, shapes already checked and non-empty.
fn matmul_tn_on(arm: Arm, r: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    match arm {
        Arm::Baseline => matmul_tn_tiles(r, m, n, a, b, out),
        // SAFETY: as in `matmul_on` — `Arm::Avx2` implies the CPU has AVX2.
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Arm::Avx2 => unsafe { matmul_tn_tiles_avx2(r, m, n, a, b, out) },
    }
}

/// Matrix product `out += A·B` over row-major slices (`A: m×k`, `B: k×n`,
/// `out: m×n`; pass a zeroed `out` for a plain product).
///
/// Register-tiled per output row (see the module docs), on the AVX2 arm
/// when the CPU has it. Contributions with `a[i][k] == 0.0` are skipped and
/// every `out[i][j]` accumulates in increasing-`k` order — bit-identical to
/// the scalar triple loop.
///
/// # Panics
/// Panics if slice lengths disagree with the given shape.
pub fn matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul lhs size mismatch");
    assert_eq!(b.len(), k * n, "matmul rhs size mismatch");
    assert_eq!(out.len(), m * n, "matmul output size mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    matmul_on(Arm::detect(), k, n, a, b, out);
}

/// Output volume (`m·k·n`) below which [`matmul_nt`] computes dot products
/// directly; above it, transposing `B` into a scratch buffer and running the
/// tiled [`matmul`] kernel wins — the strict per-element accumulation order
/// makes direct dots a serial dependence chain, while the tiles vectorize
/// across output columns, and the `k·n` transpose cost amortizes over `m`
/// rows.
const NT_DIRECT_MAX_VOLUME: usize = 4096;

/// Transposed-right product `out += A·Bᵀ` over row-major slices (`A: m×k`,
/// `B: n×k`, `out: m×n`; pass a zeroed `out` for a plain product) — the
/// backward fast path that replaces the tape's materialized
/// `B.transpose()` node.
///
/// Small products compute eight output columns at a time, each with its own
/// scalar accumulator summing in increasing-`k` order and skipping
/// `a[i][k] == 0.0` terms; larger ones transpose `B` into `scratch` and
/// reuse the tiled [`matmul`] kernel (same accumulation order and skip).
/// Both paths *accumulate into* `out`; on a zeroed `out` the result is
/// bit-identical to `A.matmul(&B.transpose())`.
///
/// `scratch`'s contents are ignored on entry and unspecified on return; the
/// large path resizes it to `k·n`, so a caller that passes the same buffer
/// (the autograd tape passes a pooled one) allocates nothing per call.
///
/// # Panics
/// Panics if slice lengths disagree with the given shape.
pub fn matmul_nt(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    scratch: &mut Vec<f32>,
) {
    assert_eq!(a.len(), m * k, "matmul_nt lhs size mismatch");
    assert_eq!(b.len(), n * k, "matmul_nt rhs size mismatch");
    assert_eq!(out.len(), m * n, "matmul_nt output size mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if m * k * n > NT_DIRECT_MAX_VOLUME {
        matmul_nt_transposed(Arm::detect(), m, k, n, a, b, out, scratch);
        return;
    }
    for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        let mut b8 = b.chunks_exact(8 * k);
        let mut o8 = orow.chunks_exact_mut(8);
        for (brows, os) in (&mut b8).zip(&mut o8) {
            // Seed the accumulators from `out` so both size paths perform
            // the same term-by-term `out +=` accumulation sequence.
            let mut acc = [os[0], os[1], os[2], os[3], os[4], os[5], os[6], os[7]];
            for (dk, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                acc[0] += av * brows[dk];
                acc[1] += av * brows[k + dk];
                acc[2] += av * brows[2 * k + dk];
                acc[3] += av * brows[3 * k + dk];
                acc[4] += av * brows[4 * k + dk];
                acc[5] += av * brows[5 * k + dk];
                acc[6] += av * brows[6 * k + dk];
                acc[7] += av * brows[7 * k + dk];
            }
            os.copy_from_slice(&acc);
        }
        for (brow, o) in b8.remainder().chunks_exact(k).zip(o8.into_remainder()) {
            let mut acc = *o;
            for (&av, &bv) in arow.iter().zip(brow) {
                if av == 0.0 {
                    continue;
                }
                acc += av * bv;
            }
            *o = acc;
        }
    }
}

/// The large-volume [`matmul_nt`] path on the given arm: transpose `B` into
/// `scratch`, then run the [`matmul`] tiles.
#[allow(clippy::too_many_arguments)]
fn matmul_nt_transposed(
    arm: Arm,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    scratch: &mut Vec<f32>,
) {
    debug_assert_eq!(out.len(), m * n);
    scratch.clear();
    scratch.resize(k * n, 0.0);
    for (j, brow) in b.chunks_exact(k).enumerate() {
        for (kk, &bv) in brow.iter().enumerate() {
            scratch[kk * n + j] = bv;
        }
    }
    matmul_on(arm, k, n, a, scratch, out);
}

/// Transposed-left product `out += Aᵀ·B` over row-major slices (`A: r×m`,
/// `B: r×n`, `out: m×n`; pass a zeroed `out` for a plain product) — the
/// backward fast path that replaces materializing `A.transpose()`.
///
/// Register-tiled like [`matmul`], with output row `i` reading column `i`
/// of `A`; every `out[i][j]` accumulates in increasing-row order, skipping
/// `a[row][i] == 0.0` terms — bit-identical to
/// `A.transpose().matmul(&B)`.
///
/// # Panics
/// Panics if slice lengths disagree with the given shape.
pub fn matmul_tn(r: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), r * m, "matmul_tn lhs size mismatch");
    assert_eq!(b.len(), r * n, "matmul_tn rhs size mismatch");
    assert_eq!(out.len(), m * n, "matmul_tn output size mismatch");
    if r == 0 || m == 0 || n == 0 {
        return;
    }
    matmul_tn_on(Arm::detect(), r, m, n, a, b, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-kernel scalar triple loop (with the sparse skip), kept as the
    /// in-module bit-exactness oracle.
    fn matmul_reference(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += av * b[kk * n + j];
                }
            }
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn ramp(len: usize, seed: f32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i as f32 * 0.37 + seed).sin() * 3.0) - 1.0)
            .collect()
    }

    #[test]
    fn matmul_matches_reference_bitwise_across_blocking_boundaries() {
        // Shapes straddling the 8-, 16- and 32-column tile boundaries and
        // long inner-product sweeps.
        for &(m, k, n) in &[(1, 1, 1), (3, 7, 9), (8, 64, 8), (5, 65, 17), (16, 130, 24)] {
            let a = ramp(m * k, 0.1);
            let b = ramp(k * n, 0.7);
            let mut out = vec![0.0f32; m * n];
            matmul(m, k, n, &a, &b, &mut out);
            assert_eq!(
                bits(&out),
                bits(&matmul_reference(m, k, n, &a, &b)),
                "({m},{k},{n})"
            );
        }
    }

    /// The arms this CPU can run: always the baseline, plus AVX2 when the
    /// CPU reports it.
    fn arms() -> Vec<Arm> {
        let mut arms = vec![Arm::Baseline];
        if Arm::detect() != Arm::Baseline {
            arms.push(Arm::detect());
        }
        arms
    }

    /// Output widths covering one remainder tile, exact and overhanging full
    /// tiles, and several full tiles plus every remainder size class.
    const TILE_WIDTHS: [usize; 9] = [1, 31, 32, 33, 64, 65, 96, 129, 200];

    /// Scalar `out[i][j] += Σ_t a(i, t) · b(t, j)` in increasing `t`,
    /// skipping `a(i, t) == 0.0` — the oracle for every product layout.
    fn accumulate_reference(
        (m, k, n): (usize, usize, usize),
        a: impl Fn(usize, usize) -> f32,
        b: impl Fn(usize, usize) -> f32,
        out: &mut [f32],
    ) {
        for i in 0..m {
            for t in 0..k {
                let av = a(i, t);
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += av * b(t, j);
                }
            }
        }
    }

    /// Left factors for an `m`-row, `k`-deep product: a ramp with scattered
    /// exact zeros (one a `-0.0`), and inner index `k / 2` zero in every
    /// row, so that a NaN/∞ behind it is only ever skipped.
    fn lhs_factors(m: usize, k: usize, at: impl Fn(usize, usize) -> usize) -> Vec<f32> {
        let mut a = ramp(m * k, 0.4);
        for i in 0..m {
            for t in 0..k {
                if t == k / 2 || (i + t) % 7 == 3 {
                    a[at(i, t)] = if t % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
        }
        a
    }

    /// Right factors: a ramp with `-0.0` terms and non-finite values in
    /// inner index `k / 2`, which every left factor skips.
    fn rhs_factors(k: usize, n: usize, at: impl Fn(usize, usize) -> usize) -> Vec<f32> {
        let mut b = ramp(k * n, 1.1);
        for t in 0..k {
            for j in 0..n {
                if t == k / 2 {
                    b[at(t, j)] = if j % 2 == 0 { f32::NAN } else { f32::INFINITY };
                } else if (t + j) % 5 == 0 {
                    b[at(t, j)] = -0.0;
                }
            }
        }
        b
    }

    #[test]
    fn every_arm_matches_the_reference_on_multi_tile_shapes() {
        for arm in arms() {
            for m in [1, 5] {
                for k in [1, 9, 64, 200] {
                    for n in TILE_WIDTHS {
                        let shape = (m, k, n);
                        // `out +=` semantics: seed the output with a ramp
                        // holding zeros of both signs.
                        let mut seed = ramp(m * n, 2.9);
                        seed[0] = -0.0;
                        seed[m * n - 1] = 0.0;

                        // matmul: A m×k, B k×n.
                        let a = lhs_factors(m, k, |i, t| i * k + t);
                        let b = rhs_factors(k, n, |t, j| t * n + j);
                        let mut want = seed.clone();
                        accumulate_reference(
                            shape,
                            |i, t| a[i * k + t],
                            |t, j| b[t * n + j],
                            &mut want,
                        );
                        let mut got = seed.clone();
                        matmul_on(arm, k, n, &a, &b, &mut got);
                        assert_eq!(bits(&got), bits(&want), "matmul {arm:?} {shape:?}");

                        // matmul_tn: A k×m (read column-wise), B k×n.
                        let at = lhs_factors(m, k, |i, t| t * m + i);
                        let mut want = seed.clone();
                        accumulate_reference(
                            shape,
                            |i, t| at[t * m + i],
                            |t, j| b[t * n + j],
                            &mut want,
                        );
                        let mut got = seed.clone();
                        matmul_tn_on(arm, k, m, n, &at, &b, &mut got);
                        assert_eq!(bits(&got), bits(&want), "matmul_tn {arm:?} {shape:?}");

                        // matmul_nt: A m×k, B n×k; the transposing path on
                        // this arm, and the public entry point, which takes
                        // the direct path for small volumes.
                        let bn = rhs_factors(k, n, |t, j| j * k + t);
                        let mut want = seed.clone();
                        accumulate_reference(
                            shape,
                            |i, t| a[i * k + t],
                            |t, j| bn[j * k + t],
                            &mut want,
                        );
                        let mut got = seed.clone();
                        matmul_nt_transposed(arm, m, k, n, &a, &bn, &mut got, &mut Vec::new());
                        assert_eq!(bits(&got), bits(&want), "matmul_nt {arm:?} {shape:?}");
                        let mut got = seed.clone();
                        matmul_nt(m, k, n, &a, &bn, &mut got, &mut Vec::new());
                        assert_eq!(bits(&got), bits(&want), "matmul_nt {shape:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_arm_skips_zero_factors_and_keeps_signed_zeros() {
        // Single-tile versions of the NaN-behind-zero case and of a sum
        // whose only term is `-0.0` (`0.0 + -0.0 = +0.0`, while the skipped
        // `-0.0 · x` must leave a `-0.0` output untouched).
        for arm in arms() {
            let a = [0.0, 2.0];
            let b = [f32::NAN, 1.0, 3.0, 4.0];
            let mut out = [0.0f32; 2];
            matmul_on(arm, 2, 2, &a, &b, &mut out);
            assert_eq!(bits(&out), bits(&[6.0, 8.0]), "{arm:?}");

            let mut out = [0.0f32, -0.0];
            matmul_on(arm, 1, 2, &[-0.0], &[5.0, 5.0], &mut out);
            assert_eq!(bits(&out), bits(&[0.0, -0.0]), "{arm:?}");
            let mut out = [0.0f32];
            matmul_tn_on(arm, 1, 1, 1, &[1.0], &[-0.0], &mut out);
            assert_eq!(bits(&out), bits(&[0.0]), "{arm:?}");
        }
    }

    #[test]
    fn matmul_preserves_the_sparse_zero_skip() {
        // With a NaN in B behind a zero in A, skipping is observable: the
        // reference skips 0.0 * NaN, so the kernel must too.
        let a = vec![0.0, 2.0];
        let b = vec![f32::NAN, 1.0, 3.0, 4.0];
        let mut out = vec![0.0f32; 2];
        matmul(1, 2, 2, &a, &b, &mut out);
        assert_eq!(bits(&out), bits(&[6.0, 8.0]));
    }

    #[test]
    fn matmul_nt_matches_transpose_then_matmul() {
        for &(m, k, n) in &[(1, 1, 1), (4, 5, 9), (8, 16, 8), (7, 33, 19)] {
            let a = ramp(m * k, 0.3);
            let mut b = ramp(n * k, 0.9);
            b[0] = 0.0; // exercise skips on both operands
            let mut a2 = a.clone();
            a2[m * k / 2] = 0.0;
            // reference: bt[kk][j] = b[j][kk]
            let mut bt = vec![0.0f32; k * n];
            for j in 0..n {
                for kk in 0..k {
                    bt[kk * n + j] = b[j * k + kk];
                }
            }
            let mut out = vec![0.0f32; m * n];
            matmul_nt(m, k, n, &a2, &b, &mut out, &mut Vec::new());
            assert_eq!(
                bits(&out),
                bits(&matmul_reference(m, k, n, &a2, &bt)),
                "({m},{k},{n})"
            );
        }
    }

    #[test]
    fn matmul_tn_matches_transpose_then_matmul() {
        for &(r, m, n) in &[(1, 1, 1), (5, 4, 9), (16, 8, 8), (33, 7, 19)] {
            let mut a = ramp(r * m, 0.2);
            a[r * m / 3] = 0.0;
            let b = ramp(r * n, 0.8);
            let mut at = vec![0.0f32; m * r];
            for row in 0..r {
                for i in 0..m {
                    at[i * r + row] = a[row * m + i];
                }
            }
            let mut out = vec![0.0f32; m * n];
            matmul_tn(r, m, n, &a, &b, &mut out);
            assert_eq!(
                bits(&out),
                bits(&matmul_reference(m, r, n, &at, &b)),
                "({r},{m},{n})"
            );
        }
    }

    #[test]
    fn axpy_matches_scalar_loop() {
        let x = ramp(19, 0.5);
        let mut y = ramp(19, 1.5);
        let mut expect = y.clone();
        for (e, &xv) in expect.iter_mut().zip(&x) {
            *e += 0.3 * xv;
        }
        axpy(0.3, &x, &mut y);
        assert_eq!(bits(&y), bits(&expect));
    }

    #[test]
    fn elementwise_kernels_match_scalar_maps() {
        let x = ramp(21, 0.4);
        let y = ramp(21, 2.2);
        let mut out = vec![0.0f32; 21];

        sigmoid(&x, &mut out);
        let expect: Vec<f32> = x.iter().map(|&v| 1.0 / (1.0 + (-v).exp())).collect();
        assert_eq!(bits(&out), bits(&expect));

        leaky_relu(0.2, &x, &mut out);
        let expect: Vec<f32> = x
            .iter()
            .map(|&v| if v > 0.0 { v } else { 0.2 * v })
            .collect();
        assert_eq!(bits(&out), bits(&expect));

        mul(&x, &y, &mut out);
        let expect: Vec<f32> = x.iter().zip(&y).map(|(&a, &b)| a * b).collect();
        assert_eq!(bits(&out), bits(&expect));

        sub(&x, &y, &mut out);
        let expect: Vec<f32> = x.iter().zip(&y).map(|(&a, &b)| a - b).collect();
        assert_eq!(bits(&out), bits(&expect));
    }

    /// The two inputs, among all `f32`, where glibc's unfused SSE2 `expf`
    /// and its `__expf_fma` disagree.
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    const FMA_SENSITIVE: [u32; 2] = [0x4202_422f, 0xc27c_65d9];

    /// Runs `arm` on `xs` and returns the bits of every input whose result
    /// differs from `f32::exp`.
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    fn expf_mismatches(arm: expf::Arm, xs: &[f32], out: &mut Vec<f32>) -> Vec<u32> {
        out.clear();
        out.extend_from_slice(xs);
        expf::exp_in_place(arm, out);
        xs.iter()
            .zip(out.iter())
            .filter(|(x, y)| x.exp().to_bits() != y.to_bits())
            .map(|(x, _)| x.to_bits())
            .collect()
    }

    #[test]
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    fn expf_port_matches_libm_on_sampled_and_pinned_inputs() {
        let pinned: Vec<f32> = [
            0.0,
            -0.0,
            f32::from_bits(1),
            f32::from_bits(0x807f_ffff),
            88.0,
            -88.0,
            f32::from_bits(0x42af_ffff), // the largest x below 88
            f32::from_bits(0xc2af_ffff),
            f32::from_bits(0x42b1_7217), // 0x1.62e42ep6: the overflow bound
            f32::from_bits(0x42b1_7218),
            f32::from_bits(0xc2cf_f1b4), // -0x1.9fe368p6: the underflow bound
            f32::from_bits(0xc2cf_f1b5),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(FMA_SENSITIVE[0]),
            f32::from_bits(FMA_SENSITIVE[1]),
        ]
        .to_vec();
        // Every 4099th bit pattern: ~1M inputs across all exponents,
        // signs, subnormals and NaN payloads. Slices mixing special and
        // ordinary lanes take the per-element branch, all-ordinary ones
        // the branch-free loop.
        let sampled: Vec<f32> = (0..=u32::MAX).step_by(4099).map(f32::from_bits).collect();
        let ordinary: Vec<f32> = sampled
            .iter()
            .copied()
            .filter(|&x| x.abs() < 88.0)
            .collect();
        let mut out = Vec::new();
        let detected = expf::Arm::detect();
        for xs in [&pinned, &sampled, &ordinary] {
            for chunk in xs.chunks(61) {
                let bad = expf_mismatches(detected, chunk, &mut out);
                assert!(
                    bad.is_empty(),
                    "{detected:?} differs from f32::exp at {bad:x?}"
                );
            }
        }
        // The pinned pair separates the arms: each arm gives glibc's bits
        // for its own build, so on an FMA host the plain arm must miss
        // exactly these two.
        if detected == expf::Arm::Fma {
            let bad = expf_mismatches(expf::Arm::Plain, &pinned, &mut out);
            assert_eq!(bad, FMA_SENSITIVE);
        }
        // The public kernels run the detected arm.
        let mut v = pinned.clone();
        exp_in_place(&mut v);
        assert_eq!(
            bits(&v),
            pinned.iter().map(|x| x.exp().to_bits()).collect::<Vec<_>>()
        );
    }

    /// Every `f32`: the detected arm matches `f32::exp` bit for bit, and on
    /// an FMA host the plain arm differs only at [`FMA_SENSITIVE`]. Slow in
    /// debug builds; run with
    /// `cargo test --release -p nasflat-tensor -- --ignored expf`.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release"]
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    fn expf_port_matches_libm_on_every_f32() {
        let detected = expf::Arm::detect();
        let halves = [0u32, 1 << 31];
        let results = std::thread::scope(|s| {
            let handles = halves.map(|start| {
                s.spawn(move || {
                    let (mut xs, mut out) = (Vec::new(), Vec::new());
                    let (mut bad, mut plain_bad, mut ordinary) = (Vec::new(), Vec::new(), 0u64);
                    for chunk in 0..(1u32 << 15) {
                        let base = start + (chunk << 16);
                        xs.clear();
                        xs.extend((0..1u32 << 16).map(|i| f32::from_bits(base + i)));
                        ordinary += xs.iter().filter(|x| x.abs() < 88.0).count() as u64;
                        bad.extend(expf_mismatches(detected, &xs, &mut out));
                        if detected == expf::Arm::Fma {
                            plain_bad.extend(expf_mismatches(expf::Arm::Plain, &xs, &mut out));
                        }
                    }
                    (bad, plain_bad, ordinary)
                })
            });
            handles.map(|h| h.join().expect("worker panicked"))
        });
        let ordinary: u64 = results.iter().map(|r| r.2).sum();
        assert_eq!(ordinary, 2_237_661_184, "inputs with |x| < 88");
        let bad: Vec<u32> = results.iter().flat_map(|r| r.0.clone()).collect();
        assert!(
            bad.is_empty(),
            "{detected:?} differs from f32::exp at {bad:x?}"
        );
        if detected == expf::Arm::Fma {
            let plain_bad: Vec<u32> = results.iter().flat_map(|r| r.1.clone()).collect();
            assert_eq!(plain_bad, FMA_SENSITIVE);
        }
    }

    #[test]
    fn degenerate_shapes_are_handled() {
        let mut out: Vec<f32> = Vec::new();
        matmul(0, 3, 0, &[], &[], &mut out);
        matmul_nt(0, 3, 0, &[], &[], &mut out, &mut Vec::new());
        matmul_tn(3, 0, 0, &[], &[], &mut out);
        // k == 0 accumulates nothing: out is left untouched on every path.
        let mut out1 = vec![1.0f32; 1];
        matmul_nt(1, 0, 1, &[], &[], &mut out1, &mut Vec::new());
        assert_eq!(out1, vec![1.0]);
    }

    #[test]
    fn matmul_nt_accumulates_on_both_size_paths() {
        // Same semantics below and above NT_DIRECT_MAX_VOLUME: term-by-term
        // `out +=` accumulation in increasing-k order, whatever the scratch
        // buffer held before.
        for &(m, k, n) in &[(2, 3, 2), (32, 32, 32)] {
            let a = ramp(m * k, 0.2);
            let b = ramp(n * k, 0.6);
            let mut got = vec![1.0f32; m * n];
            let mut dirty = vec![f32::NAN; 5];
            matmul_nt(m, k, n, &a, &b, &mut got, &mut dirty);
            let mut expect = vec![1.0f32; m * n];
            for i in 0..m {
                for kk in 0..k {
                    let av = a[i * k + kk];
                    if av == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        expect[i * n + j] += av * b[j * k + kk];
                    }
                }
            }
            assert_eq!(bits(&got), bits(&expect), "({m},{k},{n})");
        }
    }
}
