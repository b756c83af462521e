//! `eval-deep`: Table VI SET-C (N = 2^14, l = 14, K = 1) through
//! `BatchExecutor::auto(nproc)`, closed loop with a single caller. Each
//! round sends one batch of `nproc` same-kind ops per kind. Serve, graph
//! and net are bypassed.

use std::time::Instant;

use warpdrive_core::{BatchExecutor, BatchOp, EvalKeys, FaultPlan};
use wd_ckks::cipher::Ciphertext;
use wd_ckks::keys::{KeyPair, RotationKeys};
use wd_ckks::{ops, CkksContext, ParamSet};

use crate::common::{decrypts_to, plain, setup_metrics, Metric, Operands, Res, Rng};
use crate::stats::{self, Latencies, Tally};
use crate::{Measured, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    HMult,
    HRotate,
    Rescale,
    PMult,
    HAdd,
    AddPlain,
}

const KINDS: [Kind; 6] = [
    Kind::HMult,
    Kind::HRotate,
    Kind::Rescale,
    Kind::PMult,
    Kind::HAdd,
    Kind::AddPlain,
];

/// Counts and timings accumulated over rounds.
#[derive(Default)]
struct Accum {
    tally: Tally,
    kind_secs: [f64; KINDS.len()],
    kind_ops: [u64; KINDS.len()],
    /// The first served result per kind, for the decrypt check.
    sample: Vec<(Kind, usize, Ciphertext)>,
}

pub struct EvalDeep {
    ctx: CkksContext,
    kp: KeyPair,
    rot: RotationKeys,
    slots: Vec<Operands>,
    executor: BatchExecutor,
    /// `reference[kind][slot]`: the sequential fault-free result.
    reference: Vec<Vec<Ciphertext>>,
    setup_layers: Vec<Metric>,
}

impl EvalDeep {
    pub fn setup(seed: u64, nproc: usize) -> Res<Self> {
        let ctx = CkksContext::with_seed(ParamSet::set_c().build()?, seed)?;
        let t = Instant::now();
        let kp = ctx.keygen();
        let keygen_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let rot = ctx.gen_rotation_keys(&kp.secret, &[1], false);
        let rotkeys_s = t.elapsed().as_secs_f64();
        let mut rng = Rng::new(seed);
        let mut slots = Vec::with_capacity(nproc);
        let mut enc_us = Vec::with_capacity(nproc);
        for _ in 0..nproc {
            let (operands, us) = Operands::new(&ctx, &kp.public, &mut rng)?;
            slots.push(operands);
            enc_us.push(us);
        }
        let setup_layers = setup_metrics(keygen_s, Some(rotkeys_s), &enc_us);
        Ok(Self {
            ctx,
            kp,
            rot,
            slots,
            executor: BatchExecutor::auto(nproc).with_fault_plan(FaultPlan::disabled()),
            reference: Vec::new(),
            setup_layers,
        })
    }

    fn op(kind: Kind, s: &Operands) -> BatchOp<'_> {
        match kind {
            Kind::HMult => BatchOp::HMult(&s.a, &s.b),
            Kind::HRotate => BatchOp::HRotate(&s.a, 1),
            Kind::Rescale => BatchOp::Rescale(&s.ap),
            Kind::PMult => BatchOp::PMult(&s.a, &s.p),
            Kind::HAdd => BatchOp::HAdd(&s.a, &s.b),
            Kind::AddPlain => BatchOp::AddPlain(&s.a, &s.p),
        }
    }

    /// One closed-loop round: a batch of every kind, each result checked
    /// against the reference. Returns whether every op was correct.
    fn round(&self, acc: &mut Accum) -> bool {
        let keys = EvalKeys::with_relin(&self.kp.relin).and_rotations(&self.rot);
        let mut round_ok = true;
        for (k, &kind) in KINDS.iter().enumerate() {
            let batch: Vec<BatchOp<'_>> = self.slots.iter().map(|s| Self::op(kind, s)).collect();
            let t = Instant::now();
            let results = self.executor.execute(&self.ctx, keys, &batch);
            acc.kind_secs[k] += t.elapsed().as_secs_f64();
            for (i, r) in results.into_iter().enumerate() {
                match r {
                    Ok(ct) if ct == self.reference[k][i] => {
                        acc.tally.ok += 1;
                        acc.kind_ops[k] += 1;
                        if i == 0 && !acc.sample.iter().any(|(sk, _, _)| *sk == kind) {
                            acc.sample.push((kind, i, ct));
                        }
                    }
                    Ok(_) => {
                        acc.tally.mismatched += 1;
                        round_ok = false;
                    }
                    Err(_) => {
                        acc.tally.errored += 1;
                        round_ok = false;
                    }
                }
            }
        }
        round_ok
    }

    fn expected(kind: Kind, s: &Operands) -> Vec<f64> {
        match kind {
            Kind::HMult => plain::mul(&s.va, &s.vb),
            Kind::HRotate => plain::rot(&s.va, 1),
            Kind::Rescale | Kind::PMult => plain::mul(&s.va, &s.vp),
            Kind::HAdd => plain::add(&s.va, &s.vb),
            Kind::AddPlain => plain::add(&s.va, &s.vp),
        }
    }
}

impl Workload for EvalDeep {
    fn prepare(&mut self) -> Res<()> {
        let ctx = &self.ctx;
        ctx.set_threads(1);
        let mut reference = Vec::with_capacity(KINDS.len());
        for kind in KINDS {
            let mut row = Vec::with_capacity(self.slots.len());
            for s in &self.slots {
                let ct = match kind {
                    Kind::HMult => ops::hmult(ctx, &s.a, &s.b, &self.kp.relin)?,
                    Kind::HRotate => ops::hrotate(ctx, &s.a, 1, &self.rot)?,
                    Kind::Rescale => ops::rescale(ctx, &s.ap)?,
                    Kind::PMult => ops::pmult(&s.a, &s.p)?,
                    Kind::HAdd => ops::hadd(&s.a, &s.b)?,
                    Kind::AddPlain => ops::add_plain(&s.a, &s.p)?,
                };
                decrypts_to(ctx, &self.kp.secret, &ct, &Self::expected(kind, s))?;
                row.push(ct);
            }
            reference.push(row);
        }
        self.reference = reference;
        // One untimed round lets the executor's per-slot arenas and the
        // context's converter caches fill before anything is timed.
        if !self.round(&mut Accum::default()) {
            return Err("warm-up round differs from the sequential reference".into());
        }
        Ok(())
    }

    fn measure(&mut self, seconds: f64) -> Res<Measured> {
        let mut acc = Accum::default();
        let mut rounds = Latencies::default();
        // Per-round rates: the reported rates are their medians, so one
        // round slowed by the host does not move them.
        let (mut ops_rates, mut hmult_rates, mut hrotate_rates) =
            (Vec::new(), Vec::new(), Vec::new());
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let _round = wd_trace::span("bench", "eval.round");
            let before = (acc.tally.ok, acc.kind_secs, acc.kind_ops);
            let round_start = Instant::now();
            let ok = self.round(&mut acc);
            let secs = round_start.elapsed().as_secs_f64();
            if ok {
                rounds.ok(secs * 1e3);
            } else {
                rounds.failed();
            }
            let rate = |k: usize| {
                (acc.kind_ops[k] - before.2[k]) as f64 / (acc.kind_secs[k] - before.1[k]).max(1e-9)
            };
            ops_rates.push((acc.tally.ok - before.0) as f64 / secs);
            hmult_rates.push(rate(0));
            hrotate_rates.push(rate(1));
        }
        let wall = start.elapsed().as_secs_f64();
        // Untimed: a sample of the served results must also decrypt.
        let Accum {
            tally,
            kind_ops,
            sample,
            ..
        } = acc;
        for (kind, i, ct) in &sample {
            decrypts_to(
                &self.ctx,
                &self.kp.secret,
                ct,
                &Self::expected(*kind, &self.slots[*i]),
            )?;
        }
        let ops_per_s = stats::median(&ops_rates).unwrap_or(0.0);
        let n = rounds.len();
        let headline = vec![
            Metric::new("ops_per_s", ops_per_s, "1/s", tally.ok as usize),
            Metric::new(
                "hmult_per_s",
                stats::median(&hmult_rates).unwrap_or(0.0),
                "1/s",
                kind_ops[0] as usize,
            ),
            Metric::new(
                "hrotate_per_s",
                stats::median(&hrotate_rates).unwrap_or(0.0),
                "1/s",
                kind_ops[1] as usize,
            ),
            Metric::new(
                "round_ms_p50",
                rounds.percentile(50.0).unwrap_or(f64::INFINITY),
                "ms",
                n,
            ),
            Metric::new(
                "round_ms_p90",
                rounds.percentile(90.0).unwrap_or(f64::INFINITY),
                "ms",
                n,
            ),
            Metric::new(
                "failed_share",
                tally.failed_share(),
                "share",
                tally.attempted() as usize,
            ),
        ];
        Ok(Measured {
            tally,
            ops_per_s,
            ops_samples: tally.ok as usize,
            // Each round is its own segment.
            segment_p50s: rounds.samples().to_vec(),
            latency: rounds,
            headline,
            layers: Vec::new(),
            wall_s: wall,
        })
    }

    fn finish(&mut self) -> Res<Vec<Metric>> {
        Ok(self.setup_layers.clone())
    }

    fn sweep_keys(&self) -> (&CkksContext, &KeyPair) {
        (&self.ctx, &self.kp)
    }
}
