//! Negacyclic NTT/INTT with lazy Harvey butterflies and Shoup twiddles.
//!
//! This is the host transform behind every CKKS operation, the correctness
//! oracle for the other variants, and the CPU baseline (paper Table VII,
//! "CPU Baseline"). The forward transform computes, in **natural order**,
//!
//! ```text
//! X[k] = Σ_j a_j ψ^j ω^{jk}  (mod q),   ω = ψ², ψ a primitive 2N-th root
//! ```
//!
//! i.e. the evaluation of a(X) at the odd powers ψ^{2k+1} — the negacyclic
//! convolution theorem then reads `NTT(a ·_{X^N+1} b) = NTT(a) ⊙ NTT(b)`.
//!
//! [`NttTable::forward`] is a Cooley–Tukey transform with ψ merged into the
//! twiddles (so there is no pre-scale pass); [`NttTable::inverse`] is the
//! matching Gentleman–Sande transform with N^{-1} folded into its final
//! canonicalising pass. Both butterflies keep values lazily in [0, 4q) and
//! multiply by twiddles with Shoup constants (Harvey, "Faster arithmetic
//! for number-theoretic transforms"), so the inner loop has no full
//! reduction; one `bit_reverse` pass per direction restores natural order
//! and the output is canonical [0, q). Twiddles are stored in bit-reversed
//! order, built in O(N) by a running power scattered to bit-reversed slots.
//!
//! Montgomery-domain twiddles — the reduction §IV-A-4 selects for the GPU
//! kernels — remain here only for the ψ pre/post-scale and ω powers that the
//! 4-step variants in [`crate::fourstep`] share.

use crate::PolyError;
use wd_modmath::prime::primitive_root_of_unity;
use wd_modmath::{Modulus, Montgomery};

/// Precomputed tables for negacyclic NTTs of degree N modulo q.
#[derive(Debug, Clone)]
pub struct NttTable {
    modulus: Modulus,
    mont: Montgomery,
    n: usize,
    /// ψ, a primitive 2N-th root of unity.
    psi: u64,
    /// Forward twiddles (w, w_shoup): slot `bitrev(j)` holds ψ^j.
    fwd_twiddles: Vec<(u64, u64)>,
    /// Inverse twiddles (w, w_shoup): slot `bitrev(j)` holds ψ^{-j}.
    inv_twiddles: Vec<(u64, u64)>,
    /// N^{-1} and its Shoup constant, applied by the inverse's last pass.
    n_inv: (u64, u64),
    /// ψ^j for j in 0..N, Montgomery domain (4-step pre-scale).
    psi_pows_mont: Vec<u64>,
    /// ψ^{-j} · N^{-1} for j in 0..N, Montgomery domain (4-step post-scale).
    psi_inv_n_inv_mont: Vec<u64>,
    /// ω^e for e in 0..N, plain domain (shared by the 4-step variants).
    omega_pows: Vec<u64>,
    /// ω^{-e} for e in 0..N, plain domain.
    omega_inv_pows: Vec<u64>,
}

impl NttTable {
    /// Builds tables for degree `n` (power of two ≥ 4) and prime `q ≡ 1 mod 2n`.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::BadDegree`] or [`PolyError::NoRootOfUnity`].
    pub fn new(q: u64, n: usize) -> Result<Self, PolyError> {
        crate::poly::check_degree(n)?;
        let modulus = Modulus::new(q);
        let mont = Montgomery::new(q).map_err(|_| PolyError::NoRootOfUnity {
            modulus: q,
            degree: n,
        })?;
        let two_n = 2 * n as u64;
        if !(q - 1).is_multiple_of(two_n) {
            return Err(PolyError::NoRootOfUnity {
                modulus: q,
                degree: n,
            });
        }
        let psi = primitive_root_of_unity(q, two_n).map_err(|_| PolyError::NoRootOfUnity {
            modulus: q,
            degree: n,
        })?;
        let omega = modulus.mul(psi, psi);
        let psi_inv = modulus.inv(psi).expect("psi invertible");
        let omega_inv = modulus.inv(omega).expect("omega invertible");
        let n_inv = modulus.inv(n as u64).expect("n invertible");

        let shift = usize::BITS - n.trailing_zeros();
        let mut fwd_twiddles = vec![(0, 0); n];
        let mut inv_twiddles = vec![(0, 0); n];
        let mut psi_pows_mont = Vec::with_capacity(n);
        let mut psi_inv_n_inv_mont = Vec::with_capacity(n);
        let mut omega_pows = Vec::with_capacity(n);
        let mut omega_inv_pows = Vec::with_capacity(n);
        let (mut p, mut pi, mut pin, mut w, mut wi) = (1u64, 1u64, n_inv, 1u64, 1u64);
        for j in 0..n {
            let r = j.reverse_bits() >> shift;
            fwd_twiddles[r] = (p, modulus.shoup(p));
            inv_twiddles[r] = (pi, modulus.shoup(pi));
            psi_pows_mont.push(mont.to_mont(p));
            psi_inv_n_inv_mont.push(mont.to_mont(pin));
            omega_pows.push(w);
            omega_inv_pows.push(wi);
            p = modulus.mul(p, psi);
            pi = modulus.mul(pi, psi_inv);
            pin = modulus.mul(pin, psi_inv);
            w = modulus.mul(w, omega);
            wi = modulus.mul(wi, omega_inv);
        }

        Ok(Self {
            modulus,
            mont,
            n,
            psi,
            fwd_twiddles,
            inv_twiddles,
            n_inv: (n_inv, modulus.shoup(n_inv)),
            psi_pows_mont,
            psi_inv_n_inv_mont,
            omega_pows,
            omega_inv_pows,
        })
    }

    /// Ring degree N.
    pub fn degree(&self) -> usize {
        self.n
    }

    /// The modulus.
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// The Montgomery context (R = 2^32) for this modulus.
    pub fn montgomery(&self) -> &Montgomery {
        &self.mont
    }

    /// The primitive 2N-th root ψ.
    pub fn psi(&self) -> u64 {
        self.psi
    }

    /// ω^e (plain domain), e reduced mod N by the caller.
    #[inline]
    pub fn omega_pow(&self, e: usize) -> u64 {
        self.omega_pows[e % self.n]
    }

    /// ω^{-e} (plain domain).
    #[inline]
    pub fn omega_inv_pow(&self, e: usize) -> u64 {
        self.omega_inv_pows[e % self.n]
    }

    /// In-place bit-reversal permutation. Slices of length 0 or 1 are left
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two.
    pub fn bit_reverse(data: &mut [u64]) {
        let n = data.len();
        if n <= 1 {
            return;
        }
        assert!(
            n.is_power_of_two(),
            "bit_reverse needs a power-of-two length, got {n}"
        );
        let shift = usize::BITS - n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits() >> shift;
            if i < j {
                data.swap(i, j);
            }
        }
    }

    /// Pre-scales coefficients by ψ^j — the first step of the negacyclic
    /// forward transform in the 4-step variants.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != N`.
    pub fn prescale_psi(&self, data: &mut [u64]) {
        assert_eq!(data.len(), self.n);
        for (a, w) in data.iter_mut().zip(&self.psi_pows_mont) {
            *a = self.mont.mul_plain_by_mont(*a, *w);
        }
    }

    /// Post-scales by ψ^{-j}·N^{-1} — the last step of the negacyclic
    /// inverse transform in the 4-step variants.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != N`.
    pub fn postscale_psi_inv(&self, data: &mut [u64]) {
        assert_eq!(data.len(), self.n);
        for (a, w) in data.iter_mut().zip(&self.psi_inv_n_inv_mont) {
            *a = self.mont.mul_plain_by_mont(*a, *w);
        }
    }

    /// Negacyclic forward NTT, natural order in and out, input and output
    /// in [0, q).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != N`.
    pub fn forward(&self, data: &mut [u64]) {
        assert_eq!(data.len(), self.n);
        let m = &self.modulus;
        let q = m.value();
        let two_q = 2 * q;
        // Cooley–Tukey over bit-reversed twiddles: stage `half` has `half`
        // blocks of span 2t, block i using ψ^{bitrev(half + i)}. Values stay
        // in [0, 4q): u is folded to [0, 2q), v = w·y lands in [0, 2q).
        let mut t = self.n;
        let mut half = 1;
        while half < self.n {
            t /= 2;
            let twiddles = &self.fwd_twiddles[half..2 * half];
            for (block, &(w, ws)) in data.chunks_exact_mut(2 * t).zip(twiddles) {
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    let u = if *x >= two_q { *x - two_q } else { *x };
                    let v = m.mul_shoup_lazy(*y, w, ws);
                    *x = u + v;
                    *y = u + two_q - v;
                }
            }
            half *= 2;
        }
        for x in data.iter_mut() {
            let mut v = *x;
            if v >= two_q {
                v -= two_q;
            }
            if v >= q {
                v -= q;
            }
            *x = v;
        }
        Self::bit_reverse(data);
    }

    /// Negacyclic inverse NTT, natural order in and out, input and output
    /// in [0, q).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != N`.
    pub fn inverse(&self, data: &mut [u64]) {
        assert_eq!(data.len(), self.n);
        let m = &self.modulus;
        let q = m.value();
        let two_q = 2 * q;
        Self::bit_reverse(data);
        // Gentleman–Sande, undoing the forward stages in reverse order with
        // ψ^{-bitrev(half + i)}. Values stay in [0, 2q) between stages.
        let mut t = 1;
        let mut half = self.n;
        while half > 1 {
            half /= 2;
            let twiddles = &self.inv_twiddles[half..2 * half];
            for (block, &(w, ws)) in data.chunks_exact_mut(2 * t).zip(twiddles) {
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    let (u, v) = (*x, *y);
                    let s = u + v;
                    *x = if s >= two_q { s - two_q } else { s };
                    *y = m.mul_shoup_lazy(u + two_q - v, w, ws);
                }
            }
            t *= 2;
        }
        let (ni, nis) = self.n_inv;
        for x in data.iter_mut() {
            let v = m.mul_shoup_lazy(*x, ni, nis);
            *x = if v >= q { v - q } else { v };
        }
    }

    /// Direct O(N²) evaluation of the negacyclic NTT definition — used only
    /// by tests to pin down the canonical output order.
    pub fn forward_naive(&self, data: &[u64]) -> Vec<u64> {
        let m = &self.modulus;
        let n = self.n;
        (0..n)
            .map(|k| {
                let mut acc = 0u64;
                for (j, &a) in data.iter().enumerate() {
                    // ψ^{j(2k+1)}, folding ψ^N = -1.
                    let e = (j * (2 * k + 1)) % (2 * n);
                    let w = if e < n {
                        m.pow(self.psi, e as u64)
                    } else {
                        m.neg(m.pow(self.psi, (e - n) as u64))
                    };
                    acc = m.add(acc, m.mul(a, w));
                }
                acc
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wd_modmath::prime::{ntt_prime_above, ntt_prime_below};

    fn table(n: usize) -> NttTable {
        let q = ntt_prime_above(1 << 25, 2 * n as u64).unwrap();
        NttTable::new(q, n).unwrap()
    }

    /// The Montgomery-twiddle transform this module used before the lazy
    /// Harvey butterfly, kept as the bit-identity oracle: ψ pre-scale, then
    /// a bit-reversed iterative DIT cyclic NTT with twiddles `pow(e)`.
    fn oracle_cyclic(t: &NttTable, data: &mut [u64], pow: impl Fn(usize) -> u64) {
        let (m, mont, n) = (t.modulus(), t.montgomery(), t.degree());
        NttTable::bit_reverse(data);
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let tw: Vec<u64> = (0..half)
                .map(|j| mont.to_mont(pow(j * (n / len))))
                .collect();
            for block in data.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for j in 0..half {
                    let u = lo[j];
                    let v = mont.mul_plain_by_mont(hi[j], tw[j]);
                    lo[j] = m.add(u, v);
                    hi[j] = m.sub(u, v);
                }
            }
            len *= 2;
        }
    }

    fn oracle_forward(t: &NttTable, data: &mut [u64]) {
        t.prescale_psi(data);
        oracle_cyclic(t, data, |e| t.omega_pow(e));
    }

    fn oracle_inverse(t: &NttTable, data: &mut [u64]) {
        oracle_cyclic(t, data, |e| t.omega_inv_pow(e));
        t.postscale_psi_inv(data);
    }

    /// Chain and special primes of a CKKS parameter set, generated exactly
    /// as `wd_ckks::params::CkksParams` does (chain primes alternate above
    /// and below 2^prime_bits; special primes climb from 2^special_bits).
    fn set_primes(n: usize, level: usize, special: usize, pbits: u32, sbits: u32) -> Vec<u64> {
        let two_n = 2 * n as u64;
        let (mut lo, mut hi) = (1u64 << pbits, 1u64 << pbits);
        let mut primes = Vec::new();
        for i in 0..=level {
            let p = if i % 2 == 0 {
                hi = ntt_prime_above(hi + 1, two_n).unwrap();
                hi
            } else {
                lo = ntt_prime_below(lo - 1, two_n).unwrap();
                lo
            };
            primes.push(p);
        }
        let mut cursor = 1u64 << sbits;
        for _ in 0..special {
            cursor = ntt_prime_above(cursor + 1, two_n).unwrap();
            primes.push(cursor);
        }
        primes
    }

    /// Deterministic residues in [0, q) (splitmix64).
    fn random_limb(q: u64, n: usize, seed: u64) -> Vec<u64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % q
            })
            .collect()
    }

    #[test]
    fn lazy_transforms_match_montgomery_oracle_on_set_a_b_c() {
        // SET-A/B/C (Table VI) at their native N: every chain and special
        // prime, on random, all-zero and all-(q−1) inputs — the last one
        // drives the lazy butterfly towards its [0, 4q) bound.
        let sets = [
            (1 << 12, 2, 1, 26, 28),
            (1 << 13, 6, 1, 26, 29),
            (1 << 14, 14, 1, 27, 29),
        ];
        for (n, level, special, pbits, sbits) in sets {
            for (i, q) in set_primes(n, level, special, pbits, sbits)
                .into_iter()
                .enumerate()
            {
                let t = NttTable::new(q, n).unwrap();
                let inputs = [
                    random_limb(q, n, (n + i) as u64),
                    vec![0; n],
                    vec![q - 1; n],
                ];
                for input in inputs {
                    let (mut fast, mut slow) = (input.clone(), input.clone());
                    t.forward(&mut fast);
                    oracle_forward(&t, &mut slow);
                    assert_eq!(fast, slow, "forward diverged: N = {n}, q = {q}");
                    let (mut fast, mut slow) = (input.clone(), input);
                    t.inverse(&mut fast);
                    oracle_inverse(&t, &mut slow);
                    assert_eq!(fast, slow, "inverse diverged: N = {n}, q = {q}");
                }
            }
        }
    }

    #[test]
    fn rejects_modulus_without_root() {
        // 97 ≡ 1 mod 32 but not mod 64, so degree 32 fails.
        assert!(NttTable::new(97, 32).is_err());
        assert!(NttTable::new(97, 16).is_ok());
    }

    #[test]
    fn forward_matches_naive_definition_up_to_n64() {
        for n in [4usize, 8, 16, 32, 64] {
            let t = table(n);
            let q = t.modulus().value();
            for data in [
                (0..n).map(|i| (i * i + 3) as u64).collect::<Vec<_>>(),
                random_limb(q, n, n as u64),
                vec![q - 1; n],
            ] {
                let mut fast = data.clone();
                t.forward(&mut fast);
                assert_eq!(fast, t.forward_naive(&data), "N = {n}");
                t.inverse(&mut fast);
                assert_eq!(fast, data, "round trip, N = {n}");
            }
        }
    }

    #[test]
    fn round_trip_identity() {
        let t = table(64);
        let data: Vec<u64> = (0..64u64).map(|i| i * 977 % t.modulus().value()).collect();
        let mut x = data.clone();
        t.forward(&mut x);
        assert_ne!(x, data, "forward must change the data");
        t.inverse(&mut x);
        assert_eq!(x, data);
    }

    #[test]
    fn transform_of_delta_is_constant_ish() {
        // NTT of X^0 = 1 is all-ones (evaluation of constant 1 everywhere).
        let t = table(32);
        let mut x = vec![0u64; 32];
        x[0] = 1;
        t.forward(&mut x);
        assert!(x.iter().all(|&v| v == 1));
    }

    #[test]
    fn transform_of_x_is_odd_psi_powers() {
        // NTT of X is ψ^{2k+1} in natural order.
        let t = table(32);
        let m = t.modulus();
        let mut x = vec![0u64; 32];
        x[1] = 1;
        t.forward(&mut x);
        for (k, &v) in x.iter().enumerate() {
            assert_eq!(v, m.pow(t.psi(), (2 * k + 1) as u64));
        }
    }

    #[test]
    fn convolution_theorem_negacyclic() {
        let t = table(16);
        let q = t.modulus().value();
        let a: Vec<u64> = (0..16).map(|i| (7 * i + 1) as u64 % q).collect();
        let b: Vec<u64> = (0..16).map(|i| (i * i) as u64 % q).collect();
        let expect = crate::naive::negacyclic_mul(t.modulus(), &a, &b);
        let (mut fa, mut fb) = (a.clone(), b.clone());
        t.forward(&mut fa);
        t.forward(&mut fb);
        let mut fc: Vec<u64> = fa
            .iter()
            .zip(&fb)
            .map(|(&x, &y)| t.modulus().mul(x, y))
            .collect();
        t.inverse(&mut fc);
        assert_eq!(fc, expect);
    }

    #[test]
    fn negacyclic_wraparound_sign() {
        // X^{N-1} * X = X^N = -1: multiply and check the constant term is q-1.
        let t = table(8);
        let q = t.modulus().value();
        let mut a = vec![0u64; 8];
        a[7] = 1;
        let mut b = vec![0u64; 8];
        b[1] = 1;
        t.forward(&mut a);
        t.forward(&mut b);
        let mut c: Vec<u64> = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| t.modulus().mul(x, y))
            .collect();
        t.inverse(&mut c);
        assert_eq!(c[0], q - 1);
        assert!(c[1..].iter().all(|&v| v == 0));
    }

    #[test]
    fn bit_reverse_involution() {
        let mut v: Vec<u64> = (0..32).collect();
        let orig = v.clone();
        NttTable::bit_reverse(&mut v);
        assert_ne!(v, orig);
        NttTable::bit_reverse(&mut v);
        assert_eq!(v, orig);
    }

    #[test]
    fn bit_reverse_of_zero_or_one_element_is_a_no_op() {
        // A single element used to shift by usize::BITS and overflow.
        let mut one = vec![7u64];
        NttTable::bit_reverse(&mut one);
        assert_eq!(one, [7]);
        let mut empty: Vec<u64> = Vec::new();
        NttTable::bit_reverse(&mut empty);
        assert!(empty.is_empty());
        let mut two = vec![1u64, 2];
        NttTable::bit_reverse(&mut two);
        assert_eq!(two, [1, 2]);
    }

    #[test]
    #[should_panic(expected = "power-of-two length")]
    fn bit_reverse_rejects_non_power_of_two_length() {
        // Length 6 used to come back unpermuted without an error.
        let mut v: Vec<u64> = (0..6).collect();
        NttTable::bit_reverse(&mut v);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_round_trip(coeffs in proptest::collection::vec(0u64..(1 << 25), 64)) {
            let t = table(64);
            let reduced: Vec<u64> = coeffs.iter().map(|&c| t.modulus().reduce(c)).collect();
            let mut x = reduced.clone();
            t.forward(&mut x);
            t.inverse(&mut x);
            prop_assert_eq!(x, reduced);
        }

        #[test]
        fn prop_linearity(a in proptest::collection::vec(0u64..(1 << 25), 32),
                          b in proptest::collection::vec(0u64..(1 << 25), 32)) {
            let t = table(32);
            let m = *t.modulus();
            let ar: Vec<u64> = a.iter().map(|&c| m.reduce(c)).collect();
            let br: Vec<u64> = b.iter().map(|&c| m.reduce(c)).collect();
            let sum: Vec<u64> = ar.iter().zip(&br).map(|(&x, &y)| m.add(x, y)).collect();
            let (mut fa, mut fb, mut fs) = (ar, br, sum);
            t.forward(&mut fa);
            t.forward(&mut fb);
            t.forward(&mut fs);
            for i in 0..32 {
                prop_assert_eq!(fs[i], m.add(fa[i], fb[i]));
            }
        }
    }
}
