//! Property tests: the parallel batch primitives in `wd_polyring::par`
//! are **bit-identical** to their sequential counterparts for random ring
//! shapes, limb counts and thread counts. This is the determinism
//! guarantee the README advertises for `WD_THREADS`.

use std::sync::Arc;

use proptest::prelude::*;
use wd_modmath::prime::generate_ntt_primes;
use wd_modmath::rns::{BasisConverter, RnsBasis};
use wd_polyring::ntt::NttTable;
use wd_polyring::par;
use wd_polyring::rns::RnsPoly;

/// Random ring shape: (log2 degree, limb count, batch size, thread count).
fn shape_strategy() -> impl Strategy<Value = (u32, usize, usize, usize)> {
    (4u32..9, 1usize..6, 1usize..5, 1usize..9)
}

fn random_rns(primes: &[u64], n: usize, seed: usize) -> RnsPoly {
    let coeffs: Vec<i64> = (0..n)
        .map(|i| (((i * 2654435761 + seed * 40503) % 1021) as i64) - 510)
        .collect();
    RnsPoly::from_signed(primes, &coeffs).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prop_batched_ntt_roundtrip_is_bit_identical((logn, limbs, batch, threads) in shape_strategy()) {
        let n = 1usize << logn;
        let primes = generate_ntt_primes(20, 2 * n as u64, limbs).unwrap();
        let tables: Vec<Arc<NttTable>> = primes
            .iter()
            .map(|&q| Arc::new(NttTable::new(q, n).unwrap()))
            .collect();
        let polys: Vec<RnsPoly> = (0..batch).map(|j| random_rns(&primes, n, j)).collect();

        // Sequential reference: limb-by-limb through the plain tables.
        let mut seq = polys.clone();
        for p in &mut seq {
            p.ntt_forward(&tables);
        }

        let mut par_polys = polys.clone();
        par::ntt_forward_batch(&mut par_polys, &tables, threads);
        prop_assert_eq!(&seq, &par_polys, "forward NTT diverged at {} threads", threads);

        par::ntt_inverse_batch(&mut par_polys, &tables, threads);
        prop_assert_eq!(&polys, &par_polys, "inverse NTT did not restore input");
    }

    #[test]
    fn prop_pointwise_batch_matches_sequential((logn, limbs, batch, threads) in shape_strategy()) {
        let n = 1usize << logn;
        let primes = generate_ntt_primes(20, 2 * n as u64, limbs).unwrap();
        let tables: Vec<Arc<NttTable>> = primes
            .iter()
            .map(|&q| Arc::new(NttTable::new(q, n).unwrap()))
            .collect();
        let mut lhs: Vec<RnsPoly> = (0..batch).map(|j| random_rns(&primes, n, j)).collect();
        let mut rhs: Vec<RnsPoly> = (0..batch).map(|j| random_rns(&primes, n, j + 100)).collect();
        for p in lhs.iter_mut().chain(rhs.iter_mut()) {
            p.ntt_forward(&tables);
        }

        let pairs: Vec<(&RnsPoly, &RnsPoly)> = lhs.iter().zip(rhs.iter()).collect();
        let got = par::pointwise_batch(&pairs, threads).unwrap();
        for (i, out) in got.iter().enumerate() {
            let expect = lhs[i].pointwise(&rhs[i]).unwrap();
            prop_assert_eq!(out, &expect, "pointwise {} diverged at {} threads", i, threads);
        }
    }

    #[test]
    fn prop_base_conversion_matches_sequential((logn, limbs, _batch, threads) in shape_strategy()) {
        let n = 1usize << logn;
        let primes = generate_ntt_primes(20, 2 * n as u64, limbs + 2).unwrap();
        let (from, to) = primes.split_at(limbs);
        let conv = BasisConverter::new(
            RnsBasis::new(from.to_vec()).unwrap(),
            RnsBasis::new(to.to_vec()).unwrap(),
        )
        .unwrap();
        let src = random_rns(from, n, 7);

        // Independent sequential reference: one coefficient at a time
        // through the scalar converter.
        let mut expect = vec![vec![0u64; n]; to.len()];
        let mut out = vec![0u64; to.len()];
        for j in 0..n {
            conv.convert_coeff(&src.coeff_residues(j), &mut out);
            for (limb, &v) in expect.iter_mut().zip(&out) {
                limb[j] = v;
            }
        }

        let got = par::convert_poly(&conv, &src, threads);
        for (i, limb) in expect.iter().enumerate() {
            prop_assert_eq!(
                limb,
                got.limb(i).coeffs(),
                "conversion limb {} diverged at {} threads", i, threads
            );
        }
    }
}

/// The SET-C primes (N = 2^14): 15 chain primes alternating around 2^27 and
/// one special prime above 2^29, built the way `wd-ckks` builds them.
fn set_c_primes() -> (Vec<u64>, u64) {
    use wd_modmath::prime::{ntt_prime_above, ntt_prime_below};
    let two_n = 1 << 15;
    let (mut lo, mut hi) = (1u64 << 27, 1u64 << 27);
    let chain = (0..15)
        .map(|i| {
            if i % 2 == 0 {
                hi = ntt_prime_above(hi + 1, two_n).unwrap();
                hi
            } else {
                lo = ntt_prime_below(lo - 1, two_n).unwrap();
                lo
            }
        })
        .collect();
    (chain, ntt_prime_above((1 << 29) + 1, two_n).unwrap())
}

/// The limb-major conversion behind `par::try_convert_limbs_into` is
/// bit-identical to the scalar `convert_coeff` at the native ModUp/ModDown
/// shapes, below one slab block and at full SET-C degree, for 1–3 threads.
#[test]
fn base_conversion_matches_scalar_oracle_at_set_c_shapes() {
    let (chain, special) = set_c_primes();
    let rest = |k: usize| {
        let mut t = chain[k..].to_vec();
        t.push(special);
        t
    };
    let shapes = [
        // ModDown, K = 1: 29-bit source, 27-bit targets (y_j ≥ p_i).
        (vec![special], chain.clone()),
        // ModUp from α = 1, 3 and 13 digits.
        (vec![chain[0]], rest(1)),
        (chain[..3].to_vec(), rest(3)),
        (chain[..13].to_vec(), rest(13)),
    ];
    for (from, to) in &shapes {
        let conv = BasisConverter::new(
            RnsBasis::new(from.clone()).unwrap(),
            RnsBasis::new(to.clone()).unwrap(),
        )
        .unwrap();
        for n in [1usize << 6, 1 << 14] {
            // Edge residues 0, q−1, ⌊q/2⌋, ⌊q/2⌋+1 (the last two straddle a
            // flip of the overflow estimate v), then pseudo-random ones.
            let limbs: Vec<wd_polyring::Poly> = from
                .iter()
                .enumerate()
                .map(|(j, &q)| {
                    let edges = [0, q - 1, q / 2, q / 2 + 1];
                    let coeffs = (0..n)
                        .map(|k| match k {
                            0..=15 => edges[(k + k / 4 * j) % 4],
                            _ => (k as u64 * 2_654_435_761 + j as u64 * 40_503) % q,
                        })
                        .collect();
                    wd_polyring::Poly::from_coeffs(q, coeffs).unwrap()
                })
                .collect();
            let src = RnsPoly::from_limbs(limbs, wd_polyring::rns::Domain::Coeff).unwrap();
            let mut expect = RnsPoly::zero(to, n).unwrap();
            let mut col = vec![0u64; to.len()];
            for k in 0..n {
                conv.convert_coeff(&src.coeff_residues(k), &mut col);
                for (i, &c) in col.iter().enumerate() {
                    expect.limb_mut(i).coeffs_mut()[k] = c;
                }
            }
            let src_limbs: Vec<&wd_polyring::Poly> = src.limbs().collect();
            for threads in [1, 2, 3] {
                let mut got = RnsPoly::zero(to, n).unwrap();
                par::try_convert_limbs_into(&conv, &src_limbs, &mut got, threads).unwrap();
                assert_eq!(
                    got,
                    expect,
                    "|from| = {}, n = {n}, threads = {threads}",
                    from.len()
                );
            }
        }
    }
}
