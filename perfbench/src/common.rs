//! Pieces every workload shares: the seeded input generator, plain-text
//! expectations for the decrypt check, set-up timing, peak memory, and the
//! metric records the report is built from.

use std::error::Error;
use std::time::Instant;

use wd_ckks::cipher::{Ciphertext, Plaintext};
use wd_ckks::keys::{PublicKey, SecretKey};
use wd_ckks::{ops, CkksContext};
use wd_serve::{KeyCacheStats, ServeStats};

pub type Res<T> = Result<T, Box<dyn Error>>;

/// Set-ups per run: at least [`MIN_SETUPS`], more while they have taken
/// less than [`SETUP_BUDGET_S`] in total, at most [`MAX_SETUPS`].
/// `setup_s` is their median.
pub const MIN_SETUPS: usize = 3;
pub const MAX_SETUPS: usize = 9;
pub const SETUP_BUDGET_S: f64 = 3.0;

/// Non-zero slots per input vector.
pub const DATA_SLOTS: usize = 16;

/// Largest decrypt error accepted for a checked result.
pub const DECRYPT_TOL: f64 = 0.02;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises (1 for a single reading).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// splitmix64: a tiny, fully specified generator, so the same `--seed`
/// gives the same inputs on every host and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_BE0C_4A11_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-0.5, 0.5)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }

    /// `DATA_SLOTS` values followed by zeros up to `slots`.
    pub fn vector(&mut self, slots: usize) -> Vec<f64> {
        let mut v = vec![0.0; slots];
        for x in v.iter_mut().take(DATA_SLOTS) {
            *x = self.unit();
        }
        v
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A request sequence with the exact mix in every block of ten: `mix`
/// lists `(item, count)` pairs summing to 10, and each block is shuffled
/// by the seeded generator. Blocks keep the offered work per second
/// constant, so run-to-run spread comes from the system, not the draw.
pub fn stratified<T: Copy>(rng: &mut Rng, mix: &[(T, usize)], len: usize) -> Vec<T> {
    let block: Vec<T> = mix
        .iter()
        .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
        .collect();
    assert_eq!(block.len(), 10, "mix must describe a block of ten");
    let mut out = Vec::with_capacity(len + 10);
    while out.len() < len {
        let mut b = block.clone();
        rng.shuffle(&mut b);
        out.extend(b);
    }
    out.truncate(len);
    out
}

/// The operands one op draws on: ciphertexts `a`, `b`, a plaintext `p`,
/// and `a·p` at scale Δ² (the RESCALE operand), with their plain values.
pub struct Operands {
    pub a: Ciphertext,
    pub b: Ciphertext,
    pub p: Plaintext,
    pub ap: Ciphertext,
    pub va: Vec<f64>,
    pub vb: Vec<f64>,
    pub vp: Vec<f64>,
}

impl Operands {
    /// Encrypts fresh seeded operands; also returns the µs that
    /// encrypting `a` took (the `ckks.encrypt_us` sample).
    pub fn new(ctx: &CkksContext, pk: &PublicKey, rng: &mut Rng) -> Res<(Self, f64)> {
        let slots = ctx.params().slots();
        let (va, vb, vp) = (rng.vector(slots), rng.vector(slots), rng.vector(slots));
        let clock = Instant::now();
        let a = ctx.encrypt_values(&va, pk)?;
        let encrypt_us = clock.elapsed().as_secs_f64() * 1e6;
        let b = ctx.encrypt_values(&vb, pk)?;
        let p = ctx.encode(&vp)?;
        let ap = ops::pmult(&a, &p)?;
        let operands = Self {
            a,
            b,
            p,
            ap,
            va,
            vb,
            vp,
        };
        Ok((operands, encrypt_us))
    }
}

/// The per-layer numbers every set-up measures on its first context.
pub fn setup_metrics(keygen_s: f64, rotkeys_s: Option<f64>, encrypt_us: &[f64]) -> Vec<Metric> {
    let mut out = vec![Metric::new("ckks.keygen_s", keygen_s, "s", 1)];
    if let Some(s) = rotkeys_s {
        out.push(Metric::new("ckks.rotkeys_s", s, "s", 1));
    }
    let enc = crate::stats::median(encrypt_us).unwrap_or(0.0);
    out.push(Metric::new("ckks.encrypt_us", enc, "us", encrypt_us.len()));
    out
}

/// The serving layer's end-of-run counters as per-layer metrics.
pub fn server_metrics(cache: KeyCacheStats, stats: ServeStats) -> Vec<Metric> {
    let lookups = cache.hits + cache.misses;
    let hit_ratio = cache.hits as f64 / lookups.max(1) as f64;
    let submitted = stats.submitted as usize;
    vec![
        Metric::new(
            "serve.keycache_hit_ratio",
            hit_ratio,
            "ratio",
            lookups as usize,
        ),
        Metric::new("serve.rejected", stats.rejected as f64, "count", submitted),
        Metric::new("serve.shed", stats.shed as f64, "count", submitted),
    ]
}

/// Slot-vector arithmetic the decrypt check compares against.
pub mod plain {
    pub fn mul(a: &[f64], b: &[f64]) -> Vec<f64> {
        a.iter().zip(b).map(|(x, y)| x * y).collect()
    }

    pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
        a.iter().zip(b).map(|(x, y)| x + y).collect()
    }

    pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
        a.iter().zip(b).map(|(x, y)| x - y).collect()
    }

    /// Left rotation by `r` slots (HROTATE's direction).
    pub fn rot(a: &[f64], r: usize) -> Vec<f64> {
        let n = a.len();
        (0..n).map(|i| a[(i + r) % n]).collect()
    }

    pub fn scale(a: &[f64], c: f64) -> Vec<f64> {
        a.iter().map(|x| x * c).collect()
    }
}

/// Decrypts `ct` and checks its first slots against `want`.
pub fn decrypts_to(ctx: &CkksContext, sk: &SecretKey, ct: &Ciphertext, want: &[f64]) -> Res<()> {
    let got = ctx.decrypt_values(ct, sk)?;
    let checked = (2 * DATA_SLOTS).min(want.len());
    for i in 0..checked {
        let err = (got[i] - want[i]).abs();
        if err.is_nan() || err > DECRYPT_TOL {
            return Err(format!(
                "decrypt check: slot {i} is {} but {} was expected",
                got[i], want[i]
            )
            .into());
        }
    }
    Ok(())
}

/// Runs `setup` repeatedly (see [`MIN_SETUPS`]); returns the last result
/// and each duration in seconds. Earlier results are dropped before the
/// next set-up starts, so they never overlap in memory.
pub fn time_setups<T>(mut setup: impl FnMut() -> Res<T>) -> Res<(T, Vec<f64>)> {
    let mut secs: Vec<f64> = Vec::with_capacity(MAX_SETUPS);
    let mut last = None;
    while secs.len() < MIN_SETUPS
        || (secs.len() < MAX_SETUPS && secs.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("MIN_SETUPS > 0"), secs))
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Host threads the load generator and executors may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
