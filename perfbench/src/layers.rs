//! Per-layer measurement from outside the library: a direct sweep that
//! times each layer's public calls on one thread at the workload's
//! parameter set, and the counters and span totals a traced workload run
//! leaves in `wd-trace`. Modeled A100 latencies are printed beside the
//! measured CKKS rows; they are labelled as modeled and never reported as
//! a metric.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use warpdrive_core::{BatchExecutor, EvalKeys, FaultPlan, HomOp, OpShape, PerfEngine, PlannerKind};
use wd_ckks::cipher::Ciphertext;
use wd_ckks::keys::{KeyPair, KeySwitchKey};
use wd_ckks::keyswitch::{keyswitch, keyswitch_hoisted, HoistedDecomposition};
use wd_ckks::{ops, wire, CkksContext};
use wd_polyring::rns::Domain;
use wd_polyring::{NttVariant, Poly, RnsPoly};
use wd_trace::TraceData;

use crate::common::{Metric, Res, Rng};
use crate::program;
use crate::stats;

/// Wall-clock each sweep row aims to spend (µs), bounding its rep count.
const ROW_BUDGET_US: f64 = 300_000.0;

/// What the sweep measured.
pub struct Sweep {
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
    /// One-thread µs per executor op kind (the `batch/<kind>` span names),
    /// the numerator of `core.par_efficiency`.
    pub op_us: BTreeMap<&'static str, f64>,
    /// `graph.ops_per_wave` of one program run alone.
    pub ops_per_wave: f64,
}

/// Median µs of `f` over as many reps as fit [`ROW_BUDGET_US`]
/// (1..=200), after one untimed warm-up call that also sizes the rep
/// count. Returns `(median_us, reps)`.
fn timed(mut f: impl FnMut() -> Res<()>) -> Res<(f64, usize)> {
    let t = Instant::now();
    f()?;
    let est = t.elapsed().as_secs_f64() * 1e6;
    let reps = ((ROW_BUDGET_US / est.max(1.0)) as usize).clamp(1, 200);
    let mut us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f()?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok((stats::median(&us).expect("reps >= 1"), reps))
}

/// Sweep rows: the metrics and their table lines.
struct Rows {
    metrics: Vec<Metric>,
    lines: Vec<String>,
}

impl Rows {
    /// A timed kernel row: value, rep count and computed bytes touched
    /// (0 = not a memory-bound kernel; printed as `-`).
    fn kernel(&mut self, name: &str, value: f64, unit: &'static str, reps: usize, bytes: f64) {
        let bytes = if bytes > 0.0 {
            format!("{bytes:.0}")
        } else {
            "-".into()
        };
        self.lines.push(format!(
            "  {name:<36} {value:>14.3} {unit:<3} count={reps:<4} bytes={bytes}"
        ));
        self.metrics.push(Metric::new(name, value, unit, reps));
    }

    /// A single reading (a size or a count).
    fn value(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit, 1));
    }
}

/// One CKKS op of the sweep.
struct OpRow<'a> {
    /// The executor's span name for the op (`batch/<kind>`).
    kind: &'static str,
    /// The reported metric and the modeled op, for reported rows.
    metric: Option<(&'static str, HomOp)>,
    /// Compulsory bytes: operands and keys read, result written.
    bytes: f64,
    run: Box<dyn Fn() -> Result<Ciphertext, wd_ckks::WdError> + 'a>,
}

impl<'a> OpRow<'a> {
    fn new(
        kind: &'static str,
        metric: Option<(&'static str, HomOp)>,
        bytes: f64,
        run: impl Fn() -> Result<Ciphertext, wd_ckks::WdError> + 'a,
    ) -> Self {
        Self {
            kind,
            metric,
            bytes,
            run: Box::new(run),
        }
    }
}

/// Host bytes of one RNS polynomial (`u64` words).
fn poly_bytes(p: &RnsPoly) -> f64 {
    (p.limb_count() * p.degree() * 8) as f64
}

fn ct_bytes(c: &Ciphertext) -> f64 {
    poly_bytes(&c.c0) + poly_bytes(&c.c1)
}

fn key_bytes(k: &KeySwitchKey) -> f64 {
    k.digits
        .iter()
        .map(|d| poly_bytes(&d.b) + poly_bytes(&d.a))
        .sum()
}

fn random_poly(rng: &mut Rng, q: u64, n: usize) -> Res<Poly> {
    let coeffs = (0..n).map(|_| rng.next_u64() % q).collect();
    Ok(Poly::from_coeffs(q, coeffs)?)
}

/// Sweeps every layer's public calls on `ctx` (one thread), with `kp`'s
/// keys and freshly generated rotation keys for the program's steps.
pub fn sweep(ctx: &CkksContext, kp: &KeyPair, nproc: usize, seed: u64) -> Res<Sweep> {
    ctx.set_threads(1);
    let params = ctx.params();
    let (n, level) = (params.degree(), params.max_level());
    let nf = n as f64;
    let mut rng = Rng::new(seed ^ 0x1A7E);
    let mut rows = Rows {
        metrics: Vec::new(),
        lines: vec!["-- layer sweep (one thread; count = reps, bytes computed) --".to_string()],
    };

    // modmath: slab kernels on one limb.
    let q = params.q_chain()[0];
    let m = wd_modmath::Modulus::new(q);
    let a: Vec<u64> = (0..n).map(|_| rng.next_u64() % q).collect();
    let b: Vec<u64> = (0..n).map(|_| rng.next_u64() % q).collect();
    let mut out = vec![0u64; n];
    let (us, reps) = timed(|| {
        m.mul_slab_into(black_box(&a), black_box(&b), black_box(&mut out));
        Ok(())
    })?;
    rows.kernel(
        "modmath.mul_slab_ns_per_coeff",
        us * 1e3 / nf,
        "ns",
        reps,
        24.0 * nf,
    );
    let (us, reps) = timed(|| {
        m.mul_add_slab_assign(black_box(&mut out), black_box(&a), black_box(&b));
        Ok(())
    })?;
    rows.kernel(
        "modmath.mul_add_slab_ns_per_coeff",
        us * 1e3 / nf,
        "ns",
        reps,
        32.0 * nf,
    );

    // polyring: NTT/INTT on one limb; each of log2(N) stages reads and
    // writes every coefficient once.
    let table = &ctx.q_tables(level)[0];
    let ntt_bytes = 16.0 * nf * nf.log2();
    let mut data = a.clone();
    let (us, reps) = timed(|| {
        table.forward(black_box(&mut data));
        Ok(())
    })?;
    rows.kernel("polyring.ntt_fwd_us", us, "us", reps, ntt_bytes);
    let (us, reps) = timed(|| {
        table.inverse(black_box(&mut data));
        Ok(())
    })?;
    rows.kernel("polyring.ntt_inv_us", us, "us", reps, ntt_bytes);
    rows.value("polyring.ntt_bytes", ntt_bytes, "B");

    // Basis conversion at ModDown shape: the K special limbs onto Q_l.
    let p_chain = params.p_chain().to_vec();
    let q_now = params.q_at(level).to_vec();
    let conv = ctx.converter(&p_chain, &q_now);
    let src: Vec<Poly> = p_chain
        .iter()
        .map(|&p| random_poly(&mut rng, p, n))
        .collect::<Res<_>>()?;
    let src_refs: Vec<&Poly> = src.iter().collect();
    let mut ext = RnsPoly::zero(&q_now, n)?;
    let (us, reps) = timed(|| {
        Ok(wd_polyring::par::try_convert_limbs_into(
            &conv, &src_refs, &mut ext, 1,
        )?)
    })?;
    let bconv_bytes = 8.0 * nf * (p_chain.len() + q_now.len()) as f64;
    rows.kernel("polyring.bconv_us", us, "us", reps, bconv_bytes);

    let limbs: Vec<Poly> = q_now
        .iter()
        .map(|&p| random_poly(&mut rng, p, n))
        .collect::<Res<_>>()?;
    let coeff_poly = RnsPoly::from_limbs(limbs, Domain::Coeff)?;
    let g = ctx.encoder().rotation_galois_element(1);
    let (us, reps) = timed(|| {
        black_box(coeff_poly.automorphism(g));
        Ok(())
    })?;
    rows.kernel(
        "polyring.automorphism_us",
        us,
        "us",
        reps,
        16.0 * nf * q_now.len() as f64,
    );

    // ckks: the keyswitch phases, then each op at one thread. Bytes are the
    // compulsory traffic: operands and keys read, results written.
    let slots = params.slots();
    let limb_bytes = 8.0 * nf;
    let full_limbs = (q_now.len() + p_chain.len()) as f64;
    let relin_bytes = key_bytes(&kp.relin);
    let ct_a = ctx.encrypt_values(&rng.vector(slots), &kp.public)?;
    let ct_b = ctx.encrypt_values(&rng.vector(slots), &kp.public)?;
    let pt = ctx.encode(&rng.vector(slots))?;
    let d = ct_a.c1.clone();
    let (us, reps) = timed(|| {
        black_box(HoistedDecomposition::new(ctx, &d)?);
        Ok(())
    })?;
    let hoisted = HoistedDecomposition::new(ctx, &d)?;
    let digits_bytes = hoisted.dnum() as f64 * full_limbs * limb_bytes;
    rows.kernel(
        "ckks.modup_us",
        us,
        "us",
        reps,
        poly_bytes(&d) + digits_bytes,
    );
    let (us, reps) = timed(|| {
        black_box(keyswitch_hoisted(ctx, &hoisted, 1, &kp.relin)?);
        Ok(())
    })?;
    rows.kernel(
        "ckks.ip_moddown_us",
        us,
        "us",
        reps,
        digits_bytes + relin_bytes + 2.0 * poly_bytes(&d),
    );
    let (ks_us, reps) = timed(|| {
        black_box(keyswitch(ctx, &d, &kp.relin)?);
        Ok(())
    })?;
    rows.kernel(
        "ckks.keyswitch_us",
        ks_us,
        "us",
        reps,
        3.0 * poly_bytes(&d) + relin_bytes,
    );

    let rot = ctx.gen_rotation_keys(&kp.secret, &program::ROT_STEPS, false);
    let prod = ops::pmult(&ct_a, &pt)?;
    let (ct, pt_bytes) = (ct_bytes(&ct_a), poly_bytes(&pt.poly));
    let rot_bytes = key_bytes(rot.get(g).ok_or("rotation key for step 1")?);
    let op_rows = [
        OpRow::new(
            "hmult",
            Some(("ckks.hmult_us", HomOp::HMult)),
            3.0 * ct + relin_bytes,
            || ops::hmult(ctx, &ct_a, &ct_b, &kp.relin),
        ),
        OpRow::new(
            "hrotate",
            Some(("ckks.hrotate_us", HomOp::HRotate)),
            2.0 * ct + rot_bytes,
            || ops::hrotate(ctx, &ct_a, 1, &rot),
        ),
        OpRow::new(
            "rescale",
            Some(("ckks.rescale_us", HomOp::Rescale)),
            ct * (2.0 * q_now.len() as f64 - 1.0) / q_now.len() as f64,
            || ops::rescale(ctx, &prod),
        ),
        OpRow::new(
            "pmult",
            Some(("ckks.pmult_us", HomOp::PMult)),
            2.0 * ct + pt_bytes,
            || ops::pmult(&ct_a, &pt),
        ),
        OpRow::new(
            "hadd",
            Some(("ckks.hadd_us", HomOp::HAdd)),
            3.0 * ct,
            || ops::hadd(&ct_a, &ct_b),
        ),
        OpRow::new("hsub", None, 3.0 * ct, || ops::hsub(&ct_a, &ct_b)),
        OpRow::new("add_plain", None, 2.0 * ct + pt_bytes, || {
            ops::add_plain(&ct_a, &pt)
        }),
    ];
    let engine = PerfEngine::a100();
    let shape = OpShape::new(n, level, params.special_count());
    let modeled =
        |op: HomOp| engine.op_latency_us(op, shape, PlannerKind::PeKernel, NttVariant::WdFuse);
    let mut side_by_side = vec![format!(
        "-- CKKS at N=2^{}, l={level}: measured host (one thread) beside MODELED A100 (PE kernels, WD-FUSE; modeled, not a metric) --",
        n.trailing_zeros()
    )];
    let mut op_us = BTreeMap::new();
    for op_row in &op_rows {
        let (us, reps) = timed(|| {
            black_box((op_row.run)()?);
            Ok(())
        })?;
        op_us.insert(op_row.kind, us);
        if let Some((name, op)) = op_row.metric {
            rows.kernel(name, us, "us", reps, op_row.bytes);
            side_by_side.push(format!(
                "  {name:<24} measured {us:>14.1} us | modeled {:>10.2} us",
                modeled(op)
            ));
        }
    }
    side_by_side.push(format!(
        "  {:<24} measured {ks_us:>14.1} us | modeled {:>10.2} us",
        "ckks.keyswitch_us",
        modeled(HomOp::KeySwitch)
    ));
    let (us, reps) = timed(|| {
        black_box(ctx.decrypt(&ct_a, &kp.secret)?);
        Ok(())
    })?;
    rows.kernel("ckks.decrypt_us", us, "us", reps, ct + 2.0 * pt_bytes);

    let bytes = wire::ciphertext_to_bytes(&ct_a);
    let (us, reps) = timed(|| {
        black_box(wire::ciphertext_to_bytes(&ct_a));
        Ok(())
    })?;
    rows.kernel("ckks.wire_encode_us", us, "us", reps, bytes.len() as f64);
    let (us, reps) = timed(|| {
        black_box(wire::ciphertext_from_bytes(&bytes)?);
        Ok(())
    })?;
    rows.kernel("ckks.wire_decode_us", us, "us", reps, bytes.len() as f64);
    rows.value("ckks.ct_bytes", bytes.len() as f64, "B");

    // graph: compile, then execute the program through the executor.
    let (us, reps) = timed(|| {
        black_box(program::compile(params)?);
        Ok(())
    })?;
    rows.kernel("graph.compile_us", us, "us", reps, 0.0);
    let prog = program::compile(params)?;
    rows.value("graph.steps", prog.step_count() as f64, "count");
    rows.value("graph.waves", prog.wave_count() as f64, "count");
    let inputs: Vec<Ciphertext> = (0..program::INPUTS)
        .map(|_| ctx.encrypt_values(&rng.vector(slots), &kp.public))
        .collect::<Result<_, _>>()?;
    let ex = BatchExecutor::auto(nproc).with_fault_plan(FaultPlan::disabled());
    let keys = EvalKeys::with_relin(&kp.relin).and_rotations(&rot);
    let (us, reps) = timed(|| {
        black_box(prog.execute(ctx, keys, &inputs, &ex)?);
        Ok(())
    })?;
    rows.kernel("graph.exec_ms_p50", us / 1e3, "ms", reps, 0.0);
    // Inputs are wave-less, so every other step is one executed op.
    let ops_per_wave = (prog.step_count() - prog.input_count()) as f64 / prog.wave_count() as f64;
    ctx.set_threads(1);
    rows.lines.extend(side_by_side);
    Ok(Sweep {
        metrics: rows.metrics,
        lines: rows.lines,
        op_us,
        ops_per_wave,
    })
}

/// Per-layer metrics read from a traced workload run: arena counters,
/// executor batches and efficiency, graph waves and the serving layer's
/// spans, events and gauges. Fails if any fault machinery fired.
pub fn from_trace(data: &TraceData, sweep: &Sweep, nproc: usize, wall_s: f64) -> Res<Vec<Metric>> {
    for c in [
        "fault.injected",
        "fault.retries",
        "fault.degraded",
        "serve.net.decode_errors",
    ] {
        if data.counter(c) != 0 {
            return Err(format!("{c} read {} in a fault-free run", data.counter(c)).into());
        }
    }
    let mut out = Vec::new();
    let lease = data.counter("arena.lease");
    out.push(Metric::new(
        "polyring.arena_reuse_ratio",
        data.counter("arena.reuse") as f64 / lease.max(1) as f64,
        "ratio",
        lease as usize,
    ));
    out.push(Metric::new(
        "polyring.arena_fresh",
        data.counter("arena.fresh") as f64,
        "count",
        lease as usize,
    ));

    let batch_ms: Vec<f64> = data
        .spans
        .iter()
        .filter(|s| s.cat == "batch" && s.name == "execute")
        .map(|s| s.dur_us / 1e3)
        .collect();
    if let Some(p50) = stats::median(&batch_ms) {
        out.push(Metric::new("core.batch_ms_p50", p50, "ms", batch_ms.len()));
        // Sum of one-thread op times over the executor's wall time × budget.
        let one_thread_us: f64 = data
            .span_aggs
            .iter()
            .filter(|r| r.cat == "batch" && r.name != "execute")
            .map(|r| {
                r.agg.count as f64
                    * sweep
                        .op_us
                        .get(r.name.as_str())
                        .copied()
                        .unwrap_or(sweep.op_us["hadd"])
            })
            .sum();
        let batch_us = data
            .span_agg("batch", "execute")
            .map_or(0.0, |a| a.total_us);
        out.push(Metric::new(
            "core.par_efficiency",
            one_thread_us / (nproc as f64 * batch_us).max(1.0),
            "ratio",
            batch_ms.len(),
        ));
    }
    out.push(Metric::new(
        "core.sched_splits",
        data.counter("sched.splits") as f64,
        "count",
        1,
    ));

    let waves = data.counter("graph.exec.waves");
    let ops_per_wave = if waves > 0 {
        data.counter("graph.exec.ops") as f64 / waves as f64
    } else {
        sweep.ops_per_wave
    };
    out.push(Metric::new(
        "graph.ops_per_wave",
        ops_per_wave,
        "count",
        waves.max(1) as usize,
    ));

    let batches = data.events_named("serve", "batch");
    if !batches.is_empty() {
        let size_triggered = batches
            .iter()
            .filter(|e| e.field("trigger") == Some("size"))
            .count();
        out.push(Metric::new(
            "serve.size_trigger_share",
            size_triggered as f64 / batches.len() as f64,
            "share",
            batches.len(),
        ));
        let busy_us = data.span_agg("serve", "batch").map_or(0.0, |a| a.total_us);
        out.push(Metric::new(
            "serve.busy_share",
            // Both serving workloads run one worker per core.
            busy_us / (nproc as f64 * wall_s * 1e6),
            "share",
            batches.len(),
        ));
        let depth = data.gauge("serve.queue_depth").map_or(0, |g| g.max);
        out.push(Metric::new(
            "serve.queue_depth_max",
            depth as f64,
            "count",
            1,
        ));
    }
    Ok(out)
}
