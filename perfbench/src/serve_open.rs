//! `serve-open`: SET-A (N = 2^12, l = 2) behind an in-process `Server`
//! with two tenants, driven by one generator thread at fixed-rate,
//! open-loop arrivals. Three phases: `low` and `high` offered rates, then
//! a `burst` submitted at once into a queue large enough to hold it.
//! Latency is timed from each request's due time.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use warpdrive_core::{BatchExecutor, EvalKeys, FaultPlan};
use wd_ckks::cipher::Ciphertext;
use wd_ckks::keys::{KeyPair, RotationKeys};
use wd_ckks::{ops, CkksContext, ParamSet, WdError};
use wd_graph::CompiledProgram;
use wd_serve::{
    Request, ServeConfig, ServeKeys, ServeOp, Server, TenantConfig, TenantRegistry, Ticket,
};

use crate::common::{
    decrypts_to, plain, server_metrics, setup_metrics, stratified, Metric, Operands, Res, Rng,
};
use crate::program;
use crate::stats::{self, Latencies, OpenLoopTiming, Tally};
use crate::{Measured, Workload};

/// Offered rate of the `low` phase: a quarter to a third of the 47–63 req/s
/// burst rate this mix reaches on a 2-vCPU Xeon host at the commit that
/// added the benchmark (the lower end on a busy host).
const RATE_LOW: f64 = 15.0;
/// Offered rate of the `high` phase: about half to two thirds of it.
const RATE_HIGH: f64 = 30.0;
/// Requests per burst. A burst ends with one worker finishing the last
/// formed batch (up to eight 100-ms programs) while the other idles, so a
/// burst must be long beside that tail for its rate to repeat.
const BURST_REQS: usize = 100;
/// Requests in the untimed burst before the first measurement.
const WARMUP_REQS: usize = 20;
/// Fewest requests per phase over all cycles, so ten or more lie beyond
/// p90.
const MIN_PHASE_REQS: usize = 100;
/// Measurement cycles. Each runs a `low` segment, a `high` segment and a
/// burst, so a slow stretch of the host spreads over every phase instead
/// of spoiling one, and `burst_per_s` is the median of the cycles' bursts.
const CYCLES: usize = 5;

/// Requests per cycle in the `low` and `high` segments: `low` gets 55% of
/// `seconds`, `high` 15%, and the bursts take the rest.
fn segment_sizes(seconds: f64) -> (usize, usize) {
    let per_cycle = |rate: f64, share: f64| {
        ((rate * share * seconds / CYCLES as f64).round() as usize)
            .max(MIN_PHASE_REQS.div_ceil(CYCLES))
    };
    (per_cycle(RATE_LOW, 0.55), per_cycle(RATE_HIGH, 0.15))
}

const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
/// Input sets per tenant; requests cycle through them.
const POOL: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    HMult,
    HRotate,
    HAdd,
    Rescale,
    Program,
}

const KINDS: usize = 5;

/// Request mix by count in every block of ten. Sorted by latency at low
/// load, HAdd and Rescale fill the lowest 30%, HMult the next 40% and the
/// program the top 20%, so p50 and p90 each fall mid-way through one
/// kind's samples: near the edge of a kind, a little queueing on a busy
/// host would move a percentile onto the next, slower kind.
const MIX: [(Kind, usize); KINDS] = [
    (Kind::HMult, 4),
    (Kind::HRotate, 1),
    (Kind::HAdd, 2),
    (Kind::Rescale, 1),
    (Kind::Program, 2),
];

/// One pool entry: operands, program inputs and their plain values.
struct Inputs {
    ops: Operands,
    x: Vec<Ciphertext>,
    vx: Vec<Vec<f64>>,
    /// The sequential fault-free result per [`Kind`] (index = kind).
    reference: Vec<Ciphertext>,
}

struct Tenant {
    ctx: Arc<CkksContext>,
    kp: KeyPair,
    rot: RotationKeys,
    pool: Vec<Inputs>,
}

/// Where a request came from: tenant, pool entry and kind.
#[derive(Debug, Clone, Copy)]
struct Origin {
    tenant: usize,
    entry: usize,
    kind: Kind,
}

pub struct ServeOpen {
    server: Option<Server>,
    tenants: Vec<Tenant>,
    program: Arc<CompiledProgram>,
    rng: Rng,
    setup_layers: Vec<Metric>,
}

/// What one phase observed.
#[derive(Default)]
struct Phase {
    tally: Tally,
    latency: Latencies,
    lag_ms: Vec<f64>,
    waited_ms: Vec<f64>,
    batch_sizes: Vec<f64>,
    wall_s: f64,
    /// First served result per (tenant, kind), for the decrypt check.
    sample: Vec<(Origin, Ciphertext)>,
    /// Completed latencies per [`Kind`] (index = kind).
    by_kind: [Vec<f64>; KINDS],
}

impl Phase {
    /// Adds another segment of the same phase.
    fn absorb(&mut self, o: Phase) {
        self.tally.merge(&o.tally);
        self.latency.extend(&o.latency);
        self.lag_ms.extend(o.lag_ms);
        self.waited_ms.extend(o.waited_ms);
        self.batch_sizes.extend(o.batch_sizes);
        self.wall_s += o.wall_s;
        for (dst, src) in self.by_kind.iter_mut().zip(o.by_kind) {
            dst.extend(src);
        }
    }
}

impl ServeOpen {
    pub fn setup(seed: u64, nproc: usize) -> Res<Self> {
        let params = ParamSet::set_a().build()?;
        let program = Arc::new(program::compile(&params)?);
        let mut rng = Rng::new(seed);
        let mut registry = TenantRegistry::new(TenantConfig::default());
        let mut tenants = Vec::new();
        let mut setup_layers = Vec::new();
        for (t, id) in TENANTS.iter().enumerate() {
            let ctx = Arc::new(CkksContext::with_seed(
                params.clone(),
                seed ^ ((t as u64 + 1) << 32),
            )?);
            let clock = Instant::now();
            let kp = ctx.keygen();
            let keygen_s = clock.elapsed().as_secs_f64();
            let clock = Instant::now();
            let rot = ctx.gen_rotation_keys(&kp.secret, &program::ROT_STEPS, false);
            let rotkeys_s = clock.elapsed().as_secs_f64();
            let slots = params.slots();
            let mut pool = Vec::with_capacity(POOL);
            let mut enc_us = Vec::with_capacity(POOL);
            for _ in 0..POOL {
                let (operands, us) = Operands::new(&ctx, &kp.public, &mut rng)?;
                enc_us.push(us);
                let vx: Vec<Vec<f64>> = (0..program::INPUTS).map(|_| rng.vector(slots)).collect();
                let x = vx
                    .iter()
                    .map(|v| ctx.encrypt_values(v, &kp.public))
                    .collect::<Result<_, _>>()?;
                pool.push(Inputs {
                    ops: operands,
                    x,
                    vx,
                    reference: Vec::new(),
                });
            }
            if t == 0 {
                setup_layers = setup_metrics(keygen_s, Some(rotkeys_s), &enc_us);
            }
            let keys = ServeKeys::with_relin(kp.relin.clone()).and_rotations(rot.clone());
            registry.register(id, Arc::clone(&ctx), keys)?;
            tenants.push(Tenant { ctx, kp, rot, pool });
        }
        let config = ServeConfig {
            queue_capacity: 4096,
            // One sequential worker per core: independent batches overlap
            // without fine-grained limb-level joins, which stall whenever
            // the host preempts one of the two threads they wait on.
            workers: nproc,
            executor: BatchExecutor::sequential().with_fault_plan(FaultPlan::disabled()),
            ..ServeConfig::default()
        };
        Ok(Self {
            server: Some(Server::start_tenants(registry, config)),
            tenants,
            program,
            rng,
            setup_layers,
        })
    }

    fn request(&self, o: Origin) -> Request {
        let i = &self.tenants[o.tenant].pool[o.entry];
        match o.kind {
            Kind::HMult => Request::new(ServeOp::HMult(i.ops.a.clone(), i.ops.b.clone())),
            Kind::HRotate => Request::new(ServeOp::HRotate(i.ops.a.clone(), 1)),
            Kind::HAdd => Request::new(ServeOp::HAdd(i.ops.a.clone(), i.ops.b.clone())),
            Kind::Rescale => Request::new(ServeOp::Rescale(i.ops.ap.clone())),
            Kind::Program => {
                Request::bulk(ServeOp::Program(Arc::clone(&self.program), i.x.clone()))
            }
        }
    }

    fn expected(&self, o: Origin) -> Vec<f64> {
        let i = &self.tenants[o.tenant].pool[o.entry];
        match o.kind {
            Kind::HMult => plain::mul(&i.ops.va, &i.ops.vb),
            Kind::HRotate => plain::rot(&i.ops.va, 1),
            Kind::HAdd => plain::add(&i.ops.va, &i.ops.vb),
            Kind::Rescale => plain::mul(&i.ops.va, &i.ops.vp),
            Kind::Program => program::expected(&i.vx[0], &i.vx[1], &i.vx[2], &i.vx[3]),
        }
    }

    fn schedule(&mut self, len: usize) -> Vec<Origin> {
        let kinds = stratified(&mut self.rng, &MIX, len);
        kinds
            .into_iter()
            .map(|kind| Origin {
                tenant: self.rng.below(TENANTS.len()),
                entry: self.rng.below(POOL),
                kind,
            })
            .collect()
    }

    /// Sends `origins` open-loop: at `rate` per second, or all at once for
    /// `None`. A collector thread redeems tickets so the generator never
    /// blocks on a response.
    fn phase(&self, origins: &[Origin], rate: Option<f64>) -> Res<Phase> {
        let server = self.server.as_ref().ok_or("server already stopped")?;
        let requests: Vec<Request> = origins.iter().map(|&o| self.request(o)).collect();
        type Sent = (Origin, Instant, Instant, Result<Ticket, WdError>);
        let (tx, rx) = mpsc::channel::<Sent>();
        let start = Instant::now();
        let mut phase = std::thread::scope(|sc| {
            let collector = sc.spawn(move || {
                let mut ph = Phase::default();
                for (o, due, submitted, ticket) in rx {
                    let ticket = match ticket {
                        Ok(t) => t,
                        Err(
                            WdError::QueueFull { .. }
                            | WdError::TenantQuotaExceeded { .. }
                            | WdError::TenantCircuitOpen { .. },
                        ) => {
                            ph.tally.rejected += 1;
                            ph.latency.failed();
                            continue;
                        }
                        Err(_) => {
                            ph.tally.errored += 1;
                            ph.latency.failed();
                            continue;
                        }
                    };
                    let resp = ticket.wait();
                    let timing = OpenLoopTiming {
                        due,
                        submitted,
                        waited: Duration::from_micros(resp.waited_us),
                    };
                    ph.lag_ms.push(timing.lag().as_secs_f64() * 1e3);
                    ph.waited_ms.push(resp.waited_us as f64 / 1e3);
                    ph.batch_sizes.push(resp.batch_size as f64);
                    let want = &self.tenants[o.tenant].pool[o.entry].reference[o.kind as usize];
                    match resp.result {
                        Ok(ct) if ct == *want => {
                            ph.tally.ok += 1;
                            let ms = timing.latency().as_secs_f64() * 1e3;
                            ph.latency.ok(ms);
                            ph.by_kind[o.kind as usize].push(ms);
                            if !ph
                                .sample
                                .iter()
                                .any(|(s, _)| s.tenant == o.tenant && s.kind == o.kind)
                            {
                                ph.sample.push((o, ct));
                            }
                        }
                        Ok(_) => {
                            ph.tally.mismatched += 1;
                            ph.latency.failed();
                        }
                        Err(WdError::DeadlineExceeded { .. }) => {
                            ph.tally.shed += 1;
                            ph.latency.failed();
                        }
                        Err(_) => {
                            ph.tally.errored += 1;
                            ph.latency.failed();
                        }
                    }
                }
                ph
            });
            for (i, (req, &o)) in requests.into_iter().zip(origins).enumerate() {
                let due = match rate {
                    Some(r) => start + Duration::from_secs_f64(i as f64 / r),
                    None => start,
                };
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let ticket = {
                    let _span = wd_trace::span("bench", "serve.submit");
                    server.submit_as(TENANTS[o.tenant], req)
                };
                if tx.send((o, due, Instant::now(), ticket)).is_err() {
                    break;
                }
            }
            drop(tx);
            collector.join().expect("collector thread panicked")
        });
        phase.wall_s = start.elapsed().as_secs_f64();
        for (o, ct) in &phase.sample {
            let t = &self.tenants[o.tenant];
            decrypts_to(&t.ctx, &t.kp.secret, ct, &self.expected(*o))?;
        }
        Ok(phase)
    }
}

impl Workload for ServeOpen {
    fn prepare(&mut self) -> Res<()> {
        let sequential = BatchExecutor::sequential().with_fault_plan(FaultPlan::disabled());
        for tenant in &mut self.tenants {
            let ctx = &tenant.ctx;
            ctx.set_threads(1);
            let keys = EvalKeys::with_relin(&tenant.kp.relin).and_rotations(&tenant.rot);
            for i in &mut tenant.pool {
                let mut program_out = self.program.execute(ctx, keys, &i.x, &sequential)?;
                i.reference = vec![
                    ops::hmult(ctx, &i.ops.a, &i.ops.b, &tenant.kp.relin)?,
                    ops::hrotate(ctx, &i.ops.a, 1, &tenant.rot)?,
                    ops::hadd(&i.ops.a, &i.ops.b)?,
                    ops::rescale(ctx, &i.ops.ap)?,
                    program_out.pop().ok_or("program has no output")?,
                ];
            }
        }
        for (t, tenant) in self.tenants.iter().enumerate() {
            for (entry, i) in tenant.pool.iter().enumerate() {
                for (kind, _) in MIX {
                    let o = Origin {
                        tenant: t,
                        entry,
                        kind,
                    };
                    decrypts_to(
                        &tenant.ctx,
                        &tenant.kp.secret,
                        &i.reference[kind as usize],
                        &self.expected(o),
                    )?;
                }
            }
        }
        // An untimed burst lets the workers' arenas and the key cache fill
        // before anything is timed.
        let origins = self.schedule(WARMUP_REQS);
        if self.phase(&origins, None)?.tally.failed() > 0 {
            return Err("warm-up request differs from the sequential reference".into());
        }
        Ok(())
    }

    fn measure(&mut self, seconds: f64) -> Res<Measured> {
        let (n_low, n_high) = segment_sizes(seconds);
        let (mut low, mut high, mut burst) = (Phase::default(), Phase::default(), Phase::default());
        let mut burst_rates = Vec::with_capacity(CYCLES);
        let mut low_p50s = Vec::with_capacity(CYCLES);
        for _ in 0..CYCLES {
            let origins = self.schedule(n_low);
            let segment = self.phase(&origins, Some(RATE_LOW))?;
            low_p50s.push(segment.latency.percentile(50.0).unwrap_or(f64::INFINITY));
            low.absorb(segment);
            let origins = self.schedule(n_high);
            high.absorb(self.phase(&origins, Some(RATE_HIGH))?);
            let origins = self.schedule(BURST_REQS);
            let b = self.phase(&origins, None)?;
            burst_rates.push(b.tally.ok as f64 / b.wall_s);
            burst.absorb(b);
        }
        let mut tally = Tally::default();
        for p in [&low, &high, &burst] {
            tally.merge(&p.tally);
        }
        let burst_per_s = stats::median(&burst_rates).expect("CYCLES > 0");
        let pct = |l: &Latencies, p| l.percentile(p).unwrap_or(f64::INFINITY);
        let mut lag_ms: Vec<f64> = low.lag_ms.iter().chain(&high.lag_ms).copied().collect();
        lag_ms.sort_by(f64::total_cmp);
        let waited: Vec<f64> = [&low, &high, &burst]
            .iter()
            .flat_map(|p| p.waited_ms.iter().copied())
            .collect();
        let sizes: Vec<f64> = [&low, &high, &burst]
            .iter()
            .flat_map(|p| p.batch_sizes.iter().copied())
            .collect();
        let mut headline = vec![
            Metric::new(
                "req_ms_p50.low",
                pct(&low.latency, 50.0),
                "ms",
                low.latency.len(),
            ),
            Metric::new(
                "req_ms_p90.low",
                pct(&low.latency, 90.0),
                "ms",
                low.latency.len(),
            ),
            Metric::new(
                "req_ms_p50.high",
                pct(&high.latency, 50.0),
                "ms",
                high.latency.len(),
            ),
            Metric::new(
                "req_ms_p90.high",
                pct(&high.latency, 90.0),
                "ms",
                high.latency.len(),
            ),
            Metric::new("burst_per_s", burst_per_s, "1/s", burst.tally.ok as usize),
            Metric::new(
                "failed_share",
                tally.failed_share(),
                "share",
                tally.attempted() as usize,
            ),
            Metric::new("offered.low", RATE_LOW, "1/s", low.latency.len()),
            Metric::new("offered.high", RATE_HIGH, "1/s", high.latency.len()),
        ];
        for (kind, _) in MIX {
            let v = &low.by_kind[kind as usize];
            headline.push(Metric::new(
                format!("req_ms_p50.low.{kind:?}").to_lowercase(),
                stats::median(v).unwrap_or(0.0),
                "ms",
                v.len(),
            ));
        }
        let layers = vec![
            Metric::new(
                "serve.server_ms_p50",
                stats::median(&waited).unwrap_or(0.0),
                "ms",
                waited.len(),
            ),
            Metric::new(
                "serve.batch_size_mean",
                stats::mean(&sizes).unwrap_or(0.0),
                "count",
                sizes.len(),
            ),
            Metric::new(
                "gen.lag_ms_p90",
                stats::percentile(&lag_ms, 90.0).unwrap_or(0.0),
                "ms",
                lag_ms.len(),
            ),
        ];
        Ok(Measured {
            tally,
            ops_per_s: burst_per_s,
            ops_samples: burst.tally.ok as usize,
            latency: low.latency,
            segment_p50s: low_p50s,
            headline,
            layers,
            wall_s: low.wall_s + high.wall_s + burst.wall_s,
        })
    }

    fn finish(&mut self) -> Res<Vec<Metric>> {
        let mut out = self.setup_layers.clone();
        if let Some(server) = self.server.take() {
            let cache = server.tenants().cache_stats();
            out.extend(server_metrics(cache, server.shutdown()));
        }
        Ok(out)
    }

    fn sweep_keys(&self) -> (&CkksContext, &KeyPair) {
        (&self.tenants[0].ctx, &self.tenants[0].kp)
    }
}
