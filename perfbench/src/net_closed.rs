//! `net-closed`: SET-A behind a loopback `NetServer`, with one client
//! connection that is its own tenant and runs a closed loop over a
//! wire-dominated mix (40% HAdd, 30% HSub, 10% Rescale, 20% HMult).
//!
//! One connection keeps one request in flight, so the figures measure the
//! wire and serve path, not how a shared host schedules several client,
//! reader and worker threads on few cores, where a cheap op would wait
//! behind another connection's HMult.

use std::sync::Arc;
use std::time::{Duration, Instant};

use warpdrive_core::{BatchExecutor, FaultPlan};
use wd_ckks::cipher::Ciphertext;
use wd_ckks::keys::KeyPair;
use wd_ckks::{ops, CkksContext, ParamSet};
use wd_serve::wire::{self, WireResponse};
use wd_serve::{
    NetClient, NetConfig, NetServer, Request, ServeConfig, ServeKeys, ServeOp, Server,
    TenantConfig, TenantRegistry,
};

use crate::common::{
    decrypts_to, plain, server_metrics, setup_metrics, stratified, Metric, Operands, Res, Rng,
};
use crate::stats::{self, Latencies, Tally};
use crate::{Measured, Workload};

/// Input sets per tenant; requests cycle through them.
const POOL: usize = 4;

/// Client connections, each its own tenant and closed loop.
const CONNS: usize = 1;

/// `req_per_s` is the median completion rate over windows of this many
/// seconds, so a short stretch of host slowdown does not move it.
const WINDOW_S: f64 = 2.0;

/// Untimed closed loop per connection before the first measurement.
const WARMUP: Duration = Duration::from_secs(1);

/// Client socket timeout: a stuck call fails instead of hanging the run.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    HAdd,
    HSub,
    Rescale,
    HMult,
}

/// Request mix by count in every block of ten. Sorted by latency, HAdd
/// and HSub fill the lowest 70% and HMult the top 20%, so p50 and p90 each
/// fall inside one kind's samples: a percentile on the gap between two
/// kinds would jump with a few samples either side.
const MIX: [(Kind, usize); 4] = [
    (Kind::HAdd, 4),
    (Kind::HSub, 3),
    (Kind::Rescale, 1),
    (Kind::HMult, 2),
];

struct Inputs {
    ops: Operands,
    /// The sequential fault-free result per [`Kind`] (index = kind).
    reference: Vec<Ciphertext>,
}

struct Tenant {
    id: String,
    ctx: Arc<CkksContext>,
    kp: KeyPair,
    pool: Vec<Inputs>,
}

pub struct NetClosed {
    server: Option<Arc<Server>>,
    net: Option<NetServer>,
    clients: Vec<NetClient>,
    tenants: Vec<Tenant>,
    rng: Rng,
    setup_layers: Vec<Metric>,
}

/// What one connection's closed loop observed.
#[derive(Default)]
struct Conn {
    tally: Tally,
    overhead_ms: Vec<f64>,
    waited_ms: Vec<f64>,
    batch_sizes: Vec<f64>,
    req_bytes: Vec<f64>,
    resp_bytes: Vec<f64>,
    /// When each response arrived, with its latency (`+inf` if failed).
    done: Vec<(Instant, f64)>,
    sample: Vec<(usize, Kind, Ciphertext)>,
    /// Completed latencies per [`Kind`] (index = kind).
    by_kind: [Vec<f64>; 4],
}

impl NetClosed {
    pub fn setup(seed: u64, nproc: usize) -> Res<Self> {
        let params = ParamSet::set_a().build()?;
        let mut rng = Rng::new(seed);
        let mut registry = TenantRegistry::new(TenantConfig::default());
        let mut tenants = Vec::new();
        let mut setup_layers = Vec::new();
        for t in 0..CONNS {
            let id = format!("conn-{t}");
            let ctx = Arc::new(CkksContext::with_seed(
                params.clone(),
                seed ^ ((t as u64 + 1) << 32),
            )?);
            let clock = Instant::now();
            let kp = ctx.keygen();
            let keygen_s = clock.elapsed().as_secs_f64();
            let mut pool = Vec::with_capacity(POOL);
            let mut enc_us = Vec::with_capacity(POOL);
            for _ in 0..POOL {
                let (operands, us) = Operands::new(&ctx, &kp.public, &mut rng)?;
                enc_us.push(us);
                pool.push(Inputs {
                    ops: operands,
                    reference: Vec::new(),
                });
            }
            if t == 0 {
                setup_layers = setup_metrics(keygen_s, None, &enc_us);
            }
            registry.register(
                &id,
                Arc::clone(&ctx),
                ServeKeys::with_relin(kp.relin.clone()),
            )?;
            tenants.push(Tenant { id, ctx, kp, pool });
        }
        let config = ServeConfig {
            // One sequential worker per core: independent batches overlap
            // without fine-grained limb-level joins, which stall whenever
            // the host preempts one of the two threads they wait on.
            workers: nproc,
            executor: BatchExecutor::sequential().with_fault_plan(FaultPlan::disabled()),
            ..ServeConfig::default()
        };
        let server = Arc::new(Server::start_tenants(registry, config));
        let mut this = Self {
            server: Some(Arc::clone(&server)),
            net: None,
            clients: Vec::new(),
            tenants,
            rng,
            setup_layers,
        };
        // From here on `this` owns every thread, so an error stops them.
        let net = NetServer::start(server, NetConfig::default())?;
        let addr = net.local_addr();
        this.net = Some(net);
        for _ in 0..CONNS {
            this.clients
                .push(NetClient::connect_with(addr, Some(CLIENT_TIMEOUT))?);
        }
        Ok(this)
    }

    fn request(i: &Inputs, kind: Kind) -> Request {
        Request::new(match kind {
            Kind::HAdd => ServeOp::HAdd(i.ops.a.clone(), i.ops.b.clone()),
            Kind::HSub => ServeOp::HSub(i.ops.a.clone(), i.ops.b.clone()),
            Kind::Rescale => ServeOp::Rescale(i.ops.ap.clone()),
            Kind::HMult => ServeOp::HMult(i.ops.a.clone(), i.ops.b.clone()),
        })
    }

    fn expected(i: &Inputs, kind: Kind) -> Vec<f64> {
        match kind {
            Kind::HAdd => plain::add(&i.ops.va, &i.ops.vb),
            Kind::HSub => plain::sub(&i.ops.va, &i.ops.vb),
            Kind::Rescale => plain::mul(&i.ops.va, &i.ops.vp),
            Kind::HMult => plain::mul(&i.ops.va, &i.ops.vb),
        }
    }

    /// One connection's closed loop until `deadline`.
    fn drive(
        client: &mut NetClient,
        tenant: &Tenant,
        rng: &mut Rng,
        deadline: Instant,
    ) -> Res<Conn> {
        let mut conn = Conn::default();
        let mut kinds = Vec::new().into_iter();
        while Instant::now() < deadline {
            let kind = match kinds.next() {
                Some(k) => k,
                None => {
                    kinds = stratified(rng, &MIX, 10).into_iter();
                    continue;
                }
            };
            let entry = rng.below(POOL);
            let inputs = &tenant.pool[entry];
            let req = Self::request(inputs, kind);
            conn.req_bytes
                .push(wire::encode_request_as(0, Some(&tenant.id), &req)?.len() as f64);
            let start = Instant::now();
            let resp = {
                let _span = wd_trace::span("bench", "net.call");
                client.call(Some(&tenant.id), &req)
            };
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let resp = match resp {
                Ok(r) => r,
                Err(_) => {
                    conn.tally.errored += 1;
                    conn.done.push((Instant::now(), f64::INFINITY));
                    continue;
                }
            };
            conn.overhead_ms.push(ms - resp.waited_us as f64 / 1e3);
            conn.waited_ms.push(resp.waited_us as f64 / 1e3);
            conn.batch_sizes.push(resp.batch_size as f64);
            conn.resp_bytes
                .push(wire::encode_response(&resp)?.len() as f64);
            let WireResponse { result, .. } = resp;
            match result {
                Ok(ct) if ct == inputs.reference[kind as usize] => {
                    conn.tally.ok += 1;
                    conn.done.push((Instant::now(), ms));
                    conn.by_kind[kind as usize].push(ms);
                    if !conn.sample.iter().any(|(_, k, _)| *k == kind) {
                        conn.sample.push((entry, kind, ct));
                    }
                }
                Ok(_) => {
                    conn.tally.mismatched += 1;
                    conn.done.push((Instant::now(), f64::INFINITY));
                }
                Err(_) => {
                    conn.tally.errored += 1;
                    conn.done.push((Instant::now(), f64::INFINITY));
                }
            }
        }
        for (entry, kind, ct) in &conn.sample {
            let i = &tenant.pool[*entry];
            decrypts_to(
                &tenant.ctx,
                &tenant.kp.secret,
                ct,
                &Self::expected(i, *kind),
            )?;
        }
        Ok(conn)
    }
}

impl Workload for NetClosed {
    fn prepare(&mut self) -> Res<()> {
        for tenant in &mut self.tenants {
            let ctx = &tenant.ctx;
            ctx.set_threads(1);
            for i in &mut tenant.pool {
                i.reference = vec![
                    ops::hadd(&i.ops.a, &i.ops.b)?,
                    ops::hsub(&i.ops.a, &i.ops.b)?,
                    ops::rescale(ctx, &i.ops.ap)?,
                    ops::hmult(ctx, &i.ops.a, &i.ops.b, &tenant.kp.relin)?,
                ];
            }
            for i in &tenant.pool {
                for (kind, _) in MIX {
                    decrypts_to(
                        ctx,
                        &tenant.kp.secret,
                        &i.reference[kind as usize],
                        &Self::expected(i, kind),
                    )?;
                }
            }
        }
        // An untimed closed loop lets the server's arenas, the key cache
        // and the sockets' buffers fill before anything is timed.
        for (client, tenant) in self.clients.iter_mut().zip(&self.tenants) {
            let mut rng = Rng::new(self.rng.next_u64());
            let deadline = Instant::now() + WARMUP;
            if Self::drive(client, tenant, &mut rng, deadline)?
                .tally
                .failed()
                > 0
            {
                return Err("warm-up request differs from the sequential reference".into());
            }
        }
        Ok(())
    }

    fn measure(&mut self, seconds: f64) -> Res<Measured> {
        let mut rngs: Vec<Rng> = (0..self.clients.len())
            .map(|_| Rng::new(self.rng.next_u64()))
            .collect();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let tenants = &self.tenants;
        let conns: Vec<Res<Conn>> = std::thread::scope(|sc| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(tenants)
                .zip(rngs.iter_mut())
                .map(|((client, tenant), rng)| {
                    sc.spawn(move || {
                        Self::drive(client, tenant, rng, deadline).map_err(|e| e.to_string())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .expect("client thread panicked")
                        .map_err(Into::into)
                })
                .collect()
        });
        let wall = start.elapsed().as_secs_f64();
        let mut all = Conn::default();
        for c in conns {
            let c = c?;
            all.tally.merge(&c.tally);
            for (dst, src) in [
                (&mut all.overhead_ms, &c.overhead_ms),
                (&mut all.waited_ms, &c.waited_ms),
                (&mut all.batch_sizes, &c.batch_sizes),
                (&mut all.req_bytes, &c.req_bytes),
                (&mut all.resp_bytes, &c.resp_bytes),
            ] {
                dst.extend_from_slice(src);
            }
            all.done.extend_from_slice(&c.done);
            for (dst, src) in all.by_kind.iter_mut().zip(&c.by_kind) {
                dst.extend_from_slice(src);
            }
        }
        let windows = ((seconds / WINDOW_S) as usize).max(1);
        let mut per_window = vec![(Vec::<Instant>::new(), Latencies::default()); windows];
        let mut latency = Latencies::default();
        for &(t, ms) in &all.done {
            let w = (t.duration_since(start).as_secs_f64() / WINDOW_S) as usize;
            let window = per_window.get_mut(w);
            if ms.is_finite() {
                latency.ok(ms);
                if let Some((done, lat)) = window {
                    done.push(t);
                    lat.ok(ms);
                }
            } else {
                latency.failed();
                if let Some((_, lat)) = window {
                    lat.failed();
                }
            }
        }
        // A window's rate spans its first to its last completion, so it
        // keeps every digit instead of counting whole requests per window.
        let rates: Vec<f64> = per_window
            .iter_mut()
            .map(|(done, _)| {
                done.sort();
                match (done.first(), done.last()) {
                    (Some(a), Some(b)) if b > a => {
                        (done.len() - 1) as f64 / b.duration_since(*a).as_secs_f64()
                    }
                    _ => done.len() as f64 / WINDOW_S,
                }
            })
            .collect();
        let req_per_s = stats::median(&rates).expect("at least one window");
        let window_p50s: Vec<f64> = per_window
            .iter()
            .map(|(_, l)| l.percentile(50.0).unwrap_or(f64::INFINITY))
            .collect();
        let pct = |p| latency.percentile(p).unwrap_or(f64::INFINITY);
        let mut headline = vec![
            Metric::new("req_ms_p50", pct(50.0), "ms", latency.len()),
            Metric::new("req_ms_p90", pct(90.0), "ms", latency.len()),
            Metric::new("req_per_s", req_per_s, "1/s", all.tally.ok as usize),
            Metric::new(
                "failed_share",
                all.tally.failed_share(),
                "share",
                all.tally.attempted() as usize,
            ),
        ];
        for (kind, _) in MIX {
            let v = &all.by_kind[kind as usize];
            headline.push(Metric::new(
                format!("req_ms_p50.{kind:?}").to_lowercase(),
                stats::median(v).unwrap_or(0.0),
                "ms",
                v.len(),
            ));
        }
        let layers = vec![
            Metric::new(
                "serve.server_ms_p50",
                stats::median(&all.waited_ms).unwrap_or(0.0),
                "ms",
                all.waited_ms.len(),
            ),
            Metric::new(
                "serve.batch_size_mean",
                stats::mean(&all.batch_sizes).unwrap_or(0.0),
                "count",
                all.batch_sizes.len(),
            ),
            Metric::new(
                "net.overhead_ms_p50",
                stats::median(&all.overhead_ms).unwrap_or(0.0),
                "ms",
                all.overhead_ms.len(),
            ),
            Metric::new(
                "net.req_bytes",
                stats::mean(&all.req_bytes).unwrap_or(0.0),
                "B",
                all.req_bytes.len(),
            ),
            Metric::new(
                "net.resp_bytes",
                stats::mean(&all.resp_bytes).unwrap_or(0.0),
                "B",
                all.resp_bytes.len(),
            ),
        ];
        Ok(Measured {
            tally: all.tally,
            ops_per_s: req_per_s,
            ops_samples: all.tally.ok as usize,
            latency,
            segment_p50s: window_p50s,
            headline,
            layers,
            wall_s: wall,
        })
    }

    fn finish(&mut self) -> Res<Vec<Metric>> {
        let mut out = self.setup_layers.clone();
        self.clients.clear();
        if let Some(net) = self.net.take() {
            let stats = net.shutdown();
            if stats.decode_errors != 0 {
                return Err(format!(
                    "net.decode_errors read {} in a fault-free run",
                    stats.decode_errors
                )
                .into());
            }
            out.push(Metric::new(
                "net.decode_errors",
                stats.decode_errors as f64,
                "count",
                stats.frames as usize,
            ));
        }
        if let Some(server) = self.server.take() {
            let cache = server.tenants().cache_stats();
            out.extend(server_metrics(cache, server.drain()));
        }
        Ok(out)
    }

    fn sweep_keys(&self) -> (&CkksContext, &KeyPair) {
        (&self.tenants[0].ctx, &self.tenants[0].kp)
    }
}

impl Drop for NetClosed {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}
