//! Residue number system (RNS) bases and fast basis conversion.
//!
//! RNS-CKKS stores every polynomial coefficient as its residues modulo a
//! chain of word-size primes q_0 … q_l (plus special primes p_0 … p_{K-1}
//! for hybrid keyswitching). The two primitives this module provides are:
//!
//! - [`RnsBasis::crt_reconstruct_centered`]: exact CRT reconstruction of a
//!   centered coefficient (used by decryption/decoding, where the value is
//!   small relative to the basis product), and
//! - [`BasisConverter`]: the fast (Halevi–Polyakov–Shoup style) conversion of
//!   residues from one basis to another — the arithmetic core of ModUp and
//!   ModDown in Keyswitch (paper Fig. 4), one of the whole-ciphertext PE
//!   kernels of paper Table IX.
//!
//! # The limb-major conversion kernel
//!
//! [`BasisConverter::convert_slab`] works on limb slabs, not coefficients:
//! a block of at most [`SLAB_BLOCK`] coefficients is read once per source
//! limb and written once per target limb, straight into the output limbs.
//!
//! 1. **Per source limb j**, `y_j = [x_j·(Q/q_j)^{-1}]_{q_j}` by a 64-bit
//!    Shoup multiply (any `x_j < 2^64` lands in `[0, 2q_j)`, one conditional
//!    subtraction makes it canonical), and `v_est += y_j · (1/q_j)` in f64.
//! 2. **Per target limb i**, `Σ_j y_j·[Q/q_j]_{p_i}` by *32-bit* Shoup
//!    multiplies: `y_j < q_j < 2^31` may exceed `p_i`, but the 32-bit Shoup
//!    bound holds for any operand below 2^32, so no pre-reduction is needed
//!    and every product is 32 × 32 → 64 bits. Each term lies in `[0, 2p_i)`.
//!    The terms of sources 1.. are summed unreduced — below 2^38 for at most
//!    [`MAX_CONVERT_LIMBS`] = 64 sources — and Barrett-reduced once; source
//!    0's term joins in the same loop, so the sum is below 3p_i and two
//!    conditional subtractions make it canonical (with a single source, the
//!    common K = 1 / α = 1 case, no Barrett reduction runs at all). The
//!    correction `v·[Q]_{p_i}` is a lookup in a precomputed `[v·Q]_{p_i}`
//!    table (`v ≤ |from|`).
//!
//! **Bit identity with [`BasisConverter::convert_coeff`]** (the scalar
//! oracle): y_j and the final residue are canonical values of the same
//! congruences, so only v could differ. v is an f64 round of a sum, and
//! the kernel forms that sum exactly as the oracle does — the same
//! products, added in the same order (j ascending, starting from 0.0) and
//! rounded by the same `(v_est + 0.5).floor()` — so v, and every output,
//! is bit-identical.

use crate::slab::SLAB_BLOCK;
use crate::{MathError, Modulus};

/// An ordered set of distinct word-size prime moduli.
///
/// # Examples
///
/// ```
/// use wd_modmath::rns::RnsBasis;
/// let basis = RnsBasis::new(vec![97, 193]).unwrap();
/// let residues = basis.decompose_i128(-5);
/// assert_eq!(basis.crt_reconstruct_centered(&residues).unwrap(), -5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsBasis {
    moduli: Vec<Modulus>,
}

impl RnsBasis {
    /// Builds a basis from prime values.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidModulus`] if any modulus is out of the
    /// word-size range or if two moduli are equal (CRT requires coprimality).
    pub fn new(primes: Vec<u64>) -> Result<Self, MathError> {
        let mut seen = primes.clone();
        seen.sort_unstable();
        for w in seen.windows(2) {
            if w[0] == w[1] {
                return Err(MathError::InvalidModulus(w[0]));
            }
        }
        let moduli = primes
            .into_iter()
            .map(Modulus::try_new)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { moduli })
    }

    /// The moduli in order.
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// Number of limbs in the basis.
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// Whether the basis is empty.
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// The prime values in order.
    pub fn values(&self) -> Vec<u64> {
        self.moduli.iter().map(|m| m.value()).collect()
    }

    /// Product of all moduli, if it fits in `u128`.
    pub fn product_u128(&self) -> Option<u128> {
        let mut acc: u128 = 1;
        for m in &self.moduli {
            acc = acc.checked_mul(u128::from(m.value()))?;
        }
        Some(acc)
    }

    /// Product of all moduli as an `f64` (approximate; used for noise/scale
    /// bookkeeping, never for exact arithmetic).
    pub fn product_f64(&self) -> f64 {
        self.moduli.iter().map(|m| m.value() as f64).product()
    }

    /// log2 of the basis product.
    pub fn log2_product(&self) -> f64 {
        self.moduli.iter().map(|m| (m.value() as f64).log2()).sum()
    }

    /// Residues of a signed integer in every limb.
    pub fn decompose_i128(&self, x: i128) -> Vec<u64> {
        self.moduli
            .iter()
            .map(|m| {
                let q = i128::from(m.value());
                ((x % q + q) % q) as u64
            })
            .collect()
    }

    /// Exact centered CRT reconstruction from one residue per limb.
    ///
    /// The reconstructed representative lies in `(-Q/2, Q/2]` where Q is the
    /// basis product. This is how decryption recovers the (small) plaintext
    /// coefficient from its RNS residues. Exact for every basis product
    /// below 2^128, including `[2^127, 2^128)`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidModulus`] if the basis product overflows
    /// `u128` (callers should reconstruct from a limb subset that bounds the
    /// coefficient — see `wd-ckks`).
    ///
    /// # Panics
    ///
    /// Panics if `residues.len() != self.len()`.
    pub fn crt_reconstruct_centered(&self, residues: &[u64]) -> Result<i128, MathError> {
        assert_eq!(residues.len(), self.len(), "one residue per limb");
        let q_prod = self
            .product_u128()
            .ok_or(MathError::InvalidModulus(u64::MAX))?;
        let mut acc: u128 = 0;
        for (m, &r) in self.moduli.iter().zip(residues) {
            let qi = u128::from(m.value());
            let q_hat = q_prod / qi; // Q / q_i
            let q_hat_inv = m.inv((q_hat % qi) as u64)?; // (Q/q_i)^{-1} mod q_i
            let y = m.mul(m.reduce(r), q_hat_inv); // < q_i
            acc = add_mod_u128(acc, mul_mod_u128(u128::from(y), q_hat, q_prod), q_prod);
        }
        // Both branches fit i128: acc ≤ ⌊Q/2⌋ < 2^127 and Q − acc < ⌈Q/2⌉.
        if acc > q_prod / 2 {
            Ok(-((q_prod - acc) as i128))
        } else {
            Ok(acc as i128)
        }
    }
}

/// (a + b) mod m for reduced operands `a, b < m`, correct for any m < 2^128
/// (a carry out of u128 means the true sum exceeds m).
fn add_mod_u128(a: u128, b: u128, m: u128) -> u128 {
    let (s, carry) = a.overflowing_add(b);
    if carry || s >= m {
        s.wrapping_sub(m)
    } else {
        s
    }
}

/// (a * b) mod m for u128 operands by double-and-add, so no intermediate
/// ever exceeds u128.
fn mul_mod_u128(a: u128, b: u128, m: u128) -> u128 {
    let mut a = a % m;
    let mut b = b % m;
    let mut acc: u128 = 0;
    while b > 0 {
        if b & 1 == 1 {
            acc = add_mod_u128(acc, a, m);
        }
        a = add_mod_u128(a, a, m);
        b >>= 1;
    }
    acc
}

/// Widest source basis a [`BasisConverter`] accepts. The lazy target
/// accumulator sums one `[0, 2p)` term per source limb, so 64 limbs keep it
/// below 2^38; the scalar oracle's stack buffer has the same size.
pub const MAX_CONVERT_LIMBS: usize = 64;

/// Fast RNS basis conversion (Halevi–Polyakov–Shoup), converting residues
/// from a source basis Q = {q_j} to a target basis {p_i}:
///
/// ```text
/// y_j  = [x_j * (Q/q_j)^{-1}]_{q_j}
/// v    = round(Σ_j y_j / q_j)              (f64 estimate of the overflow)
/// x_i  = Σ_j y_j * [Q/q_j]_{p_i} - v·[Q]_{p_i}   (mod p_i)
/// ```
///
/// With the `v` correction the conversion is exact whenever the true value is
/// not within rounding error of a multiple of Q — the same guarantee GPU FHE
/// libraries rely on for ModUp/ModDown.
#[derive(Debug, Clone)]
pub struct BasisConverter {
    from: RnsBasis,
    to: RnsBasis,
    /// (Q/q_j)^{-1} mod q_j, per source limb.
    q_hat_inv: Vec<u64>,
    /// 64-bit Shoup constants of `q_hat_inv`.
    q_hat_inv_shoup: Vec<u64>,
    /// [Q/q_j] mod p_i, indexed [i][j].
    q_hat_mod_to: Vec<Vec<u64>>,
    /// 32-bit Shoup constants of `q_hat_mod_to` (valid for y_j < 2^32).
    q_hat_mod_to_shoup32: Vec<Vec<u64>>,
    /// [Q] mod p_i.
    q_mod_to: Vec<u64>,
    /// [v·Q] mod p_i for v in 0..=|from|, indexed [i][v].
    v_q_mod_to: Vec<Vec<u64>>,
    /// 1/q_j as f64, per source limb.
    inv_q: Vec<f64>,
}

impl BasisConverter {
    /// Precomputes a converter from `from` to `to`.
    ///
    /// # Errors
    ///
    /// [`MathError::InvalidBasisWidth`] if `from` is empty or wider than
    /// [`MAX_CONVERT_LIMBS`]; otherwise propagates [`MathError`] from
    /// inverse computations (cannot happen for genuinely distinct primes).
    pub fn new(from: RnsBasis, to: RnsBasis) -> Result<Self, MathError> {
        let n_from = from.len();
        if !(1..=MAX_CONVERT_LIMBS).contains(&n_from) {
            return Err(MathError::InvalidBasisWidth(n_from));
        }
        let mut q_hat_inv = Vec::with_capacity(n_from);
        let mut q_hat_inv_shoup = Vec::with_capacity(n_from);
        let mut inv_q = Vec::with_capacity(n_from);
        for (j, mj) in from.moduli().iter().enumerate() {
            // (Q/q_j) mod q_j = prod_{k != j} q_k mod q_j
            let mut prod = 1u64;
            for (k, mk) in from.moduli().iter().enumerate() {
                if k != j {
                    prod = mj.mul(prod, mj.reduce(mk.value()));
                }
            }
            let inv = mj.inv(prod)?;
            q_hat_inv.push(inv);
            q_hat_inv_shoup.push(mj.shoup(inv));
            inv_q.push(1.0 / mj.value() as f64);
        }
        let mut q_hat_mod_to = Vec::with_capacity(to.len());
        let mut q_hat_mod_to_shoup32 = Vec::with_capacity(to.len());
        let mut q_mod_to = Vec::with_capacity(to.len());
        let mut v_q_mod_to = Vec::with_capacity(to.len());
        for mi in to.moduli() {
            let mut row = Vec::with_capacity(n_from);
            for j in 0..n_from {
                let mut prod = 1u64;
                for (k, mk) in from.moduli().iter().enumerate() {
                    if k != j {
                        prod = mi.mul(prod, mi.reduce(mk.value()));
                    }
                }
                row.push(prod);
            }
            let mut q_full = 1u64;
            for mk in from.moduli() {
                q_full = mi.mul(q_full, mi.reduce(mk.value()));
            }
            q_hat_mod_to_shoup32.push(row.iter().map(|&w| mi.shoup32(w)).collect());
            q_hat_mod_to.push(row);
            q_mod_to.push(q_full);
            v_q_mod_to.push(
                (0..=n_from as u64)
                    .map(|v| mi.mul(mi.reduce(v), q_full))
                    .collect(),
            );
        }
        Ok(Self {
            from,
            to,
            q_hat_inv,
            q_hat_inv_shoup,
            q_hat_mod_to,
            q_hat_mod_to_shoup32,
            q_mod_to,
            v_q_mod_to,
            inv_q,
        })
    }

    /// The source basis.
    pub fn from_basis(&self) -> &RnsBasis {
        &self.from
    }

    /// The target basis.
    pub fn to_basis(&self) -> &RnsBasis {
        &self.to
    }

    /// Scratch words [`BasisConverter::convert_slab`] needs for a run of
    /// `len` coefficients: `(y, v)` — the y slab holds one block per source
    /// limb, the v slab one word per coefficient of a block.
    pub fn slab_scratch_len(&self, len: usize) -> (usize, usize) {
        let block = len.min(SLAB_BLOCK);
        (self.from.len() * block, block)
    }

    /// Converts a run of coefficients limb-major: `src[j]` is a slice of
    /// source limb j and `out[i]` the same coefficient range of target limb
    /// i. Blocks of [`SLAB_BLOCK`] coefficients make two passes — per
    /// source limb the y_j slab and the overflow estimate, then per target
    /// limb a lazy multiply-accumulate — see the [module docs](self).
    /// `y` and `v` are caller-owned scratch of at least
    /// [`BasisConverter::slab_scratch_len`] words; their contents on entry
    /// do not matter. Bit-identical to [`BasisConverter::convert_coeff`] on
    /// every coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `src`/`out` do not match the bases, the slices differ in
    /// length, or the scratch is too short.
    pub fn convert_slab(
        &self,
        src: &[&[u64]],
        out: &mut [&mut [u64]],
        y: &mut [u64],
        v: &mut [u64],
    ) {
        let n_from = self.from.len();
        assert_eq!(src.len(), n_from, "one source slice per source limb");
        assert_eq!(out.len(), self.to.len(), "one output slice per target limb");
        let len = src[0].len();
        assert!(
            src.iter().all(|s| s.len() == len) && out.iter().all(|o| o.len() == len),
            "source and output slices cover the same coefficients"
        );
        let (y_len, v_len) = self.slab_scratch_len(len);
        assert!(
            y.len() >= y_len && v.len() >= v_len,
            "conversion scratch too short"
        );
        let mut lo = 0;
        while lo < len {
            let b = (len - lo).min(SLAB_BLOCK);
            let v = &mut v[..b];
            // Pass 1, per source limb: y_j and the f64 overflow estimate,
            // accumulated in the same order (j ascending from 0.0) as
            // `convert_coeff`, so every v below is bit-identical.
            v.fill(0.0f64.to_bits());
            for (j, (mj, x)) in self.from.moduli().iter().zip(src).enumerate() {
                let (q, w, ws, inv) = (
                    mj.value(),
                    self.q_hat_inv[j],
                    self.q_hat_inv_shoup[j],
                    self.inv_q[j],
                );
                let yj = &mut y[j * b..(j + 1) * b];
                for ((yk, &xk), vk) in yj.iter_mut().zip(&x[lo..lo + b]).zip(v.iter_mut()) {
                    let r = mj.mul_shoup_lazy(xk, w, ws);
                    let r = if r >= q { r - q } else { r };
                    *yk = r;
                    *vk = (f64::from_bits(*vk) + r as f64 * inv).to_bits();
                }
            }
            for vk in v.iter_mut() {
                *vk = (f64::from_bits(*vk) + 0.5).floor() as u64;
            }
            // Pass 2, per target limb: Σ_j y_j·[Q/q_j]_{p_i} by lazy 32-bit
            // Shoup terms, each in [0, 2p_i). Sources 1.. accumulate
            // unreduced (the sum stays below 2^38); source 0's term is
            // fused with the one reduction and the tabulated v·Q
            // correction.
            let (y0, y_rest) = y[..n_from * b].split_at(b);
            for (i, (mi, o)) in self.to.moduli().iter().zip(out.iter_mut()).enumerate() {
                let (p, row, row32, vq) = (
                    mi.value(),
                    &self.q_hat_mod_to[i],
                    &self.q_hat_mod_to_shoup32[i],
                    &self.v_q_mod_to[i],
                );
                let o = &mut o[lo..lo + b];
                for (j, yj) in y_rest.chunks_exact(b).enumerate() {
                    let (w, ws) = (row[j + 1], row32[j + 1]);
                    for (ok, &yk) in o.iter_mut().zip(yj) {
                        // y_j < q_j < 2^31, so the truncation is exact; it
                        // lets both products run as 32 × 32 → 64 multiplies.
                        let t = mi.mul_shoup32_lazy(u64::from(yk as u32), w, ws);
                        *ok = if j == 0 { t } else { *ok + t };
                    }
                }
                let (w, ws) = (row[0], row32[0]);
                for ((ok, &yk), &vk) in o.iter_mut().zip(y0).zip(v.iter()) {
                    // With one source nothing was accumulated into `o`.
                    let rest = if n_from > 1 { mi.reduce(*ok) } else { 0 };
                    let acc = mi.mul_shoup32_lazy(u64::from(yk as u32), w, ws) + rest;
                    let acc = if acc >= p { acc - p } else { acc };
                    let acc = if acc >= p { acc - p } else { acc };
                    *ok = mi.sub(acc, vq[vk as usize]);
                }
            }
            lo += b;
        }
    }

    /// Converts one coefficient's residues from the source to the target
    /// basis, writing into `out` (`out.len() == to.len()`). The scalar
    /// reference [`BasisConverter::convert_slab`] is tested against.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match the bases.
    pub fn convert_coeff(&self, residues: &[u64], out: &mut [u64]) {
        assert_eq!(residues.len(), self.from.len());
        assert_eq!(out.len(), self.to.len());
        // y_j and the float overflow estimate.
        let mut v_est = 0.0f64;
        let mut y = [0u64; MAX_CONVERT_LIMBS];
        for (j, (mj, &x)) in self.from.moduli().iter().zip(residues).enumerate() {
            let yj = mj.mul(mj.reduce(x), self.q_hat_inv[j]);
            y[j] = yj;
            v_est += yj as f64 * self.inv_q[j];
        }
        let v = (v_est + 0.5).floor() as u64;
        for (i, mi) in self.to.moduli().iter().enumerate() {
            let mut acc = 0u64;
            let row = &self.q_hat_mod_to[i];
            for j in 0..self.from.len() {
                // y_j is reduced mod q_j, which may exceed this target
                // modulus — reduce before multiplying.
                acc = mi.add(acc, mi.mul(mi.reduce(y[j]), row[j]));
            }
            let corr = mi.mul(mi.reduce(v), self.q_mod_to[i]);
            out[i] = mi.sub(acc, corr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::generate_ntt_primes;
    use proptest::prelude::*;

    fn basis(bits: u32, n: usize, offset: usize) -> RnsBasis {
        let primes = generate_ntt_primes(bits, 1 << 8, n + offset).unwrap();
        RnsBasis::new(primes[offset..].to_vec()).unwrap()
    }

    #[test]
    fn rejects_duplicate_moduli() {
        assert!(RnsBasis::new(vec![97, 97]).is_err());
    }

    #[test]
    fn crt_round_trip_small_values() {
        let b = RnsBasis::new(vec![97, 193, 389]).unwrap();
        for x in [-1_000_000i128, -1, 0, 1, 42, 3_000_000] {
            let r = b.decompose_i128(x);
            assert_eq!(b.crt_reconstruct_centered(&r).unwrap(), x, "x = {x}");
        }
    }

    #[test]
    fn crt_centered_range_boundaries() {
        let b = RnsBasis::new(vec![97, 101]).unwrap();
        let q: i128 = 97 * 101;
        // Largest positive representative is Q/2 (floor), smallest is -(Q-1)/2.
        let hi = q / 2;
        let lo = -(q - 1) / 2;
        for x in [lo, lo + 1, -1, 0, 1, hi - 1, hi] {
            let r = b.decompose_i128(x);
            assert_eq!(b.crt_reconstruct_centered(&r).unwrap(), x);
        }
    }

    #[test]
    fn product_u128_overflow_is_none() {
        let b = basis(24, 5, 0);
        assert!(b.product_u128().is_some());
        let primes = generate_ntt_primes(30, 1 << 8, 40).unwrap();
        let wide = RnsBasis::new(primes).unwrap();
        assert!(wide.product_u128().is_none());
        assert!(wide.log2_product() > 1000.0);
    }

    #[test]
    fn basis_conversion_exact_for_small_values() {
        let from = basis(28, 3, 0);
        let to = basis(28, 2, 3);
        let conv = BasisConverter::new(from.clone(), to.clone()).unwrap();
        for x in [-123_456_789i128, -7, 0, 5, 1 << 40, -(1i128 << 50)] {
            let src = from.decompose_i128(x);
            let mut out = vec![0u64; to.len()];
            conv.convert_coeff(&src, &mut out);
            assert_eq!(out, to.decompose_i128(x), "x = {x}");
        }
    }

    #[test]
    fn basis_conversion_large_negative_values() {
        // Values close to -Q/2 exercise the v-correction path.
        let from = basis(28, 3, 0);
        let to = basis(28, 3, 3);
        let q = from.product_u128().unwrap() as i128;
        let conv = BasisConverter::new(from.clone(), to.clone()).unwrap();
        // The HPS conversion is exact away from the ±Q/2 boundary (the f64
        // overflow estimate rounds the wrong way exactly at the edge).
        for x in [-(q / 3), q / 3, -(q * 2 / 5), q * 2 / 5] {
            let src = from.decompose_i128(x);
            let mut out = vec![0u64; to.len()];
            conv.convert_coeff(&src, &mut out);
            assert_eq!(out, to.decompose_i128(x), "x = {x}");
        }
    }

    #[test]
    fn conversion_to_single_limb_matches_mod() {
        let from = basis(28, 4, 0);
        let to = RnsBasis::new(vec![ntt_prime(20)]).unwrap();
        let conv = BasisConverter::new(from.clone(), to.clone()).unwrap();
        let x = 987_654_321_012i128;
        let src = from.decompose_i128(x);
        let mut out = vec![0u64];
        conv.convert_coeff(&src, &mut out);
        assert_eq!(out[0], to.decompose_i128(x)[0]);
    }

    #[test]
    fn crt_exact_for_products_in_top_bit_range() {
        // Product ≈ 2^127.5: doubling in the mul-mod, the accumulator sum
        // and the signed cast all used to overflow here.
        let b = RnsBasis::new(vec![47453207, 47453213, 47453227, 47453261, 47453269]).unwrap();
        let q = b.product_u128().unwrap();
        assert!(q > 1 << 127);
        let half = (q / 2) as i128;
        for x in [
            -5i128,
            5,
            0,
            -1,
            1 << 100,
            -(1 << 126),
            half,
            -half,
            half - 1,
        ] {
            let r = b.decompose_i128(x);
            assert_eq!(b.crt_reconstruct_centered(&r).unwrap(), x, "x = {x}");
        }
    }

    #[test]
    fn converter_rejects_empty_and_too_wide_source_bases() {
        let to = basis(28, 2, 0);
        let empty = RnsBasis::new(Vec::new()).unwrap();
        assert_eq!(
            BasisConverter::new(empty, to.clone()).unwrap_err(),
            MathError::InvalidBasisWidth(0)
        );
        let wide = RnsBasis::new(generate_ntt_primes(30, 1 << 8, 65).unwrap()).unwrap();
        assert_eq!(
            BasisConverter::new(wide, to).unwrap_err(),
            MathError::InvalidBasisWidth(65)
        );
        let max = RnsBasis::new(generate_ntt_primes(30, 1 << 8, 64).unwrap()).unwrap();
        assert!(BasisConverter::new(max, basis(28, 2, 0)).is_ok());
    }

    /// The SET-C prime chain (N = 2^14, 15 chain primes alternating around
    /// 2^27, one special prime above 2^29), built the way `wd-ckks` does.
    fn set_c_primes() -> (Vec<u64>, u64) {
        let two_n = 1 << 15;
        let (mut lo, mut hi) = (1u64 << 27, 1u64 << 27);
        let chain = (0..15)
            .map(|i| {
                if i % 2 == 0 {
                    hi = crate::prime::ntt_prime_above(hi + 1, two_n).unwrap();
                    hi
                } else {
                    lo = crate::prime::ntt_prime_below(lo - 1, two_n).unwrap();
                    lo
                }
            })
            .collect();
        let special = crate::prime::ntt_prime_above((1 << 29) + 1, two_n).unwrap();
        (chain, special)
    }

    /// Source limbs of length `len`: the edge residues 0, q−1, ⌊q/2⌋ and
    /// ⌊q/2⌋+1 (the last two straddle a flip of v) first, then
    /// pseudo-random residues.
    fn source_limbs(from: &[u64], len: usize) -> Vec<Vec<u64>> {
        from.iter()
            .enumerate()
            .map(|(j, &q)| {
                let edges = [0, q - 1, q / 2, q / 2 + 1];
                (0..len)
                    .map(|k| match k {
                        0..=15 => edges[(k + k / 4 * j) % 4],
                        _ => (k as u64 * 2_654_435_761 + j as u64 * 40_503) % q,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn slab_kernel_matches_scalar_oracle_at_set_c_shapes() {
        let (chain, special) = set_c_primes();
        let mut up_targets = chain[1..].to_vec();
        up_targets.push(special);
        let all = |lo: usize, hi: usize| {
            let mut t: Vec<u64> = chain[..lo].to_vec();
            t.extend_from_slice(&chain[hi..]);
            t.push(special);
            t
        };
        let shapes: [(Vec<u64>, Vec<u64>); 4] = [
            // ModDown, K = 1: a 29-bit source onto 27-bit targets (y ≥ p).
            (vec![special], chain.clone()),
            // ModUp, α = 1.
            (vec![chain[0]], up_targets),
            // ModUp from α = 3 and α = 13 digits.
            (chain[..3].to_vec(), all(0, 3)),
            (chain[..13].to_vec(), all(0, 13)),
        ];
        for (from, to) in &shapes {
            let conv = BasisConverter::new(
                RnsBasis::new(from.clone()).unwrap(),
                RnsBasis::new(to.clone()).unwrap(),
            )
            .unwrap();
            for len in [1usize, 64, SLAB_BLOCK + 1, 3 * SLAB_BLOCK - 7, 1 << 14] {
                let src = source_limbs(from, len);
                let src_refs: Vec<&[u64]> = src.iter().map(|l| &l[..]).collect();
                let mut out = vec![vec![0u64; len]; to.len()];
                let mut out_refs: Vec<&mut [u64]> = out.iter_mut().map(|l| &mut l[..]).collect();
                // Dirty scratch: the kernel must not depend on its contents.
                let (y_len, v_len) = conv.slab_scratch_len(len);
                let (mut y, mut v) = (vec![u64::MAX; y_len], vec![u64::MAX; v_len]);
                conv.convert_slab(&src_refs, &mut out_refs, &mut y, &mut v);
                let mut col = vec![0u64; to.len()];
                for k in 0..len {
                    let residues: Vec<u64> = src.iter().map(|l| l[k]).collect();
                    conv.convert_coeff(&residues, &mut col);
                    for (i, &c) in col.iter().enumerate() {
                        assert_eq!(
                            out[i][k],
                            c,
                            "|from| = {}, len = {len}, limb {i}, coeff {k}",
                            from.len()
                        );
                    }
                }
            }
        }
    }

    fn ntt_prime(bits: u32) -> u64 {
        crate::prime::ntt_prime_above(1 << bits, 1 << 8).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_crt_round_trip(x in -(1i128 << 60)..(1i128 << 60)) {
            let b = basis(28, 3, 0);
            let r = b.decompose_i128(x);
            prop_assert_eq!(b.crt_reconstruct_centered(&r).unwrap(), x);
        }

        #[test]
        fn prop_conversion_matches_direct_decomposition(x in -(1i128 << 70)..(1i128 << 70)) {
            let from = basis(28, 4, 0);
            let to = basis(28, 2, 4);
            let conv = BasisConverter::new(from.clone(), to.clone()).unwrap();
            let src = from.decompose_i128(x);
            let mut out = vec![0u64; to.len()];
            conv.convert_coeff(&src, &mut out);
            prop_assert_eq!(out, to.decompose_i128(x));
        }

        #[test]
        fn prop_conversion_is_additive(a in -(1i128 << 50)..(1i128 << 50),
                                       b in -(1i128 << 50)..(1i128 << 50)) {
            let from = basis(28, 4, 0);
            let to = basis(28, 2, 4);
            let conv = BasisConverter::new(from.clone(), to.clone()).unwrap();
            let (mut ra, mut rb, mut rab) =
                (vec![0u64; 2], vec![0u64; 2], vec![0u64; 2]);
            conv.convert_coeff(&from.decompose_i128(a), &mut ra);
            conv.convert_coeff(&from.decompose_i128(b), &mut rb);
            conv.convert_coeff(&from.decompose_i128(a + b), &mut rab);
            for (i, mi) in to.moduli().iter().enumerate() {
                prop_assert_eq!(mi.add(ra[i], rb[i]), rab[i]);
            }
        }
    }
}
