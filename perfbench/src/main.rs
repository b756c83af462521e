//! Measured host benchmark of the WarpDrive reproduction stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <eval-deep|serve-open|net-closed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload reports the same end-to-end metrics, each from its own
//! headline numbers (printed under their own names in the table):
//!
//! | metric       | eval-deep           | serve-open                   | net-closed              |
//! |--------------|---------------------|------------------------------|-------------------------|
//! | `ops_per_s`  | median round ops/s  | median `burst_per_s`         | median 2-s-window req/s |
//! | `lat_ms_p50` | median round        | median of low-cycle medians  | median of window medians |
//! | `lat_ms_p90` | p90 of rounds       | p90 of low-phase requests    | p90 of all requests     |
//!
//! Medians over time segments keep a slow stretch of a shared host from
//! moving the result; the p90s pool every sample.
//!
//! Every run sets up the workload several times (`setup_s` is the median),
//! computes a sequential fault-free reference from the seeded inputs,
//! drives the real stack for `--seconds`, and checks every result against
//! the reference bit for bit (and a sample by decryption). `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the workload once
//! untraced and once traced, sweeps each layer's public calls on the
//! workload's parameter set, and reports the per-layer metrics. The last
//! stdout line is one JSON object; the lines before it are a readable
//! table with units and sample counts.

mod common;
mod eval_deep;
mod layers;
mod net_closed;
mod program;
mod serve_open;
mod stats;

use std::process::{Command, ExitCode};
use std::time::Instant;

use common::{Metric, Res};
use stats::{Latencies, Tally};
use wd_ckks::keys::KeyPair;
use wd_ckks::CkksContext;
use wd_trace::TraceLevel;

/// End-to-end metrics, reported by every workload (see `BENCHMARK.json`
/// and the mapping in the module docs).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("lat_ms_p50", "ms"),
    ("lat_ms_p90", "ms"),
];

/// Per-layer metrics, reported by every traced run. A layer a workload
/// bypasses reads 0 and is listed as bypassed in the table.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("modmath.mul_slab_ns_per_coeff", "ns"),
    ("modmath.mul_add_slab_ns_per_coeff", "ns"),
    ("polyring.ntt_fwd_us", "us"),
    ("polyring.ntt_inv_us", "us"),
    ("polyring.ntt_bytes", "B"),
    ("polyring.bconv_us", "us"),
    ("polyring.automorphism_us", "us"),
    ("polyring.arena_reuse_ratio", "ratio"),
    ("polyring.arena_fresh", "count"),
    ("ckks.modup_us", "us"),
    ("ckks.ip_moddown_us", "us"),
    ("ckks.keyswitch_us", "us"),
    ("ckks.hmult_us", "us"),
    ("ckks.hrotate_us", "us"),
    ("ckks.rescale_us", "us"),
    ("ckks.pmult_us", "us"),
    ("ckks.hadd_us", "us"),
    ("ckks.keygen_s", "s"),
    ("ckks.rotkeys_s", "s"),
    ("ckks.encrypt_us", "us"),
    ("ckks.decrypt_us", "us"),
    ("ckks.wire_encode_us", "us"),
    ("ckks.wire_decode_us", "us"),
    ("ckks.ct_bytes", "B"),
    ("core.batch_ms_p50", "ms"),
    ("core.par_efficiency", "ratio"),
    ("core.sched_splits", "count"),
    ("graph.compile_us", "us"),
    ("graph.exec_ms_p50", "ms"),
    ("graph.steps", "count"),
    ("graph.waves", "count"),
    ("graph.ops_per_wave", "count"),
    ("serve.server_ms_p50", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.size_trigger_share", "share"),
    ("serve.busy_share", "share"),
    ("serve.queue_depth_max", "count"),
    ("serve.keycache_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("gen.lag_ms_p90", "ms"),
    ("net.overhead_ms_p50", "ms"),
    ("net.req_bytes", "B"),
    ("net.resp_bytes", "B"),
    ("net.decode_errors", "count"),
    ("trace.overhead", "ratio"),
    ("failed_share", "share"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    /// The workload's own end-to-end numbers, under their own names.
    pub headline: Vec<Metric>,
    /// The [`END_TO_END`] values (`--trace 0`).
    pub e2e: Vec<Metric>,
    /// The [`PER_LAYER`] values this workload measured (`--trace 1`).
    pub layers: Vec<Metric>,
    /// Extra table lines (per-kernel rows, modeled-beside-measured rows).
    pub lines: Vec<String>,
}

/// One measurement pass over a prepared workload.
#[derive(Debug)]
pub struct Measured {
    pub tally: Tally,
    /// The workload's throughput: the `ops_per_s` end-to-end metric.
    pub ops_per_s: f64,
    /// Completed operations behind `ops_per_s`.
    pub ops_samples: usize,
    /// Every latency sample: `lat_ms_p90` and the tail rule use them all.
    pub latency: Latencies,
    /// The median of each time segment of the run (a round, a cycle, a
    /// window): `lat_ms_p50` is their median, so a slow stretch of the host
    /// moves at most the segments it covers.
    pub segment_p50s: Vec<f64>,
    /// The workload's own end-to-end numbers, under their own names.
    pub headline: Vec<Metric>,
    /// Per-layer numbers this pass observed from outside the server.
    pub layers: Vec<Metric>,
    pub wall_s: f64,
}

/// A workload the benchmark can set up, check and drive.
pub trait Workload {
    /// Computes the sequential fault-free reference (after set-up, not
    /// counted in `setup_s`).
    fn prepare(&mut self) -> Res<()>;
    /// Drives the workload for about `seconds`, checking every result.
    fn measure(&mut self, seconds: f64) -> Res<Measured>;
    /// Stops every thread the workload started; returns the per-layer
    /// numbers only available at the end (server counters, set-up timings).
    fn finish(&mut self) -> Res<Vec<Metric>>;
    /// The context and keys the layer sweep runs on.
    fn sweep_keys(&self) -> (&CkksContext, &KeyPair);
}

/// Sets the workload up several times ([`common::time_setups`]), prepares the reference,
/// measures untraced and, with `--trace 1`, traced plus the layer sweep.
fn run<W: Workload>(opts: &Opts, setup: impl FnMut() -> Res<W>) -> Res<Report> {
    let (mut w, setup_secs) = common::time_setups(setup)?;
    let setup_s = stats::median(&setup_secs).expect("at least one set-up");
    let t = Instant::now();
    w.prepare()?;
    let reference_s = t.elapsed().as_secs_f64();
    let untraced = match w.measure(opts.seconds) {
        Ok(m) => m,
        Err(e) => {
            let _ = w.finish();
            return Err(e);
        }
    };
    let mut report = Report {
        tally: untraced.tally,
        headline: vec![Metric::new("setup_s", setup_s, "s", setup_secs.len())],
        ..Report::default()
    };
    report.headline.extend(untraced.headline.iter().cloned());
    let each: Vec<String> = setup_secs.iter().map(|s| format!("{s:.3}")).collect();
    report.lines.push(format!(
        "  set-ups took [{}] s; the sequential reference {reference_s:.2} s (outside setup_s)",
        each.join(", ")
    ));
    if !opts.trace {
        w.finish()?;
        let lat = &untraced.latency;
        let pct = |p| lat.percentile(p).unwrap_or(f64::INFINITY);
        report.e2e = vec![
            Metric::new("setup_s", setup_s, "s", setup_secs.len()),
            Metric::new("peak_rss_mb", common::peak_rss_mb()?, "MB", 1),
            Metric::new("ops_per_s", untraced.ops_per_s, "1/s", untraced.ops_samples),
            Metric::new(
                "lat_ms_p50",
                stats::median(&untraced.segment_p50s).unwrap_or(f64::INFINITY),
                "ms",
                lat.len(),
            ),
            Metric::new("lat_ms_p90", pct(90.0), "ms", lat.len()),
        ];
        if let Some((p, v)) = lat.tail() {
            report.lines.push(format!(
                "  tail rule: p{p} = {v:.3} ms is the highest percentile with >= 10 of {} samples beyond",
                lat.len()
            ));
        } else {
            report.lines.push(format!(
                "  tail rule: {} samples leave no percentile with >= 10 beyond; lat_ms_p90 is nearest-rank",
                lat.len()
            ));
        }
        return Ok(report);
    }

    wd_trace::reset();
    wd_trace::set_level(TraceLevel::Full);
    let traced = w.measure(opts.seconds);
    let data = wd_trace::snapshot();
    wd_trace::set_level(TraceLevel::Off);
    let finished = w.finish();
    let traced = traced?;
    let mut layers = finished?;
    report.tally.merge(&traced.tally);
    let (ctx, kp) = w.sweep_keys();
    let sweep = layers::sweep(ctx, kp, common::nproc(), opts.seed)?;
    layers.extend(layers::from_trace(
        &data,
        &sweep,
        common::nproc(),
        traced.wall_s,
    )?);
    layers.extend(traced.layers);
    layers.push(Metric::new(
        "trace.overhead",
        untraced.ops_per_s / traced.ops_per_s,
        "ratio",
        2,
    ));
    layers.push(Metric::new(
        "failed_share",
        report.tally.failed_share(),
        "share",
        report.tally.attempted() as usize,
    ));
    layers.extend(sweep.metrics);
    report.lines.extend(sweep.lines);
    report.layers = layers;
    Ok(report)
}

fn parse_args() -> Res<Opts> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>()?),
            "--seconds" => seconds = Some(value.parse::<f64>()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}").into()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}").into()),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}").into());
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Clears every inherited `WD_*` knob before any library code reads one,
/// so the workload runs exactly the configuration it builds itself.
/// Returns what was cleared, for the record.
fn pin_environment() -> Vec<String> {
    let seen: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("WD_"))
        .collect();
    for (k, _) in &seen {
        // Single-threaded here: no library thread has started yet.
        std::env::remove_var(k);
    }
    seen.into_iter().map(|(k, v)| format!("{k}={v}")).collect()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    // JSON has no infinity; a failure-dominated percentile reads as the
    // largest finite double.
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

/// Orders `measured` by `names`, filling a name the workload did not
/// measure with 0 and noting it as bypassed.
fn select(
    names: &[(&str, &'static str)],
    measured: &[Metric],
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    for m in measured {
        assert!(
            names.iter().any(|(n, _)| *n == m.name),
            "metric {} is not declared",
            m.name
        );
    }
    names
        .iter()
        .map(
            |&(name, unit)| match measured.iter().find(|m| m.name == name) {
                Some(m) => {
                    assert_eq!(m.unit, unit, "unit of {name}");
                    m.clone()
                }
                None => {
                    notes.push(name.to_string());
                    Metric::new(name, 0.0, unit, 0)
                }
            },
        )
        .collect()
}

fn print_rows(title: &str, rows: &[Metric]) {
    println!("-- {title} --");
    for m in rows {
        println!(
            "  {:<36} {:>16.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn main() -> ExitCode {
    let cleared = pin_environment();
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = common::nproc();
    println!(
        "# host nproc={nproc} cpu={} rustc={} commit={} seed={} workload={} seconds={} trace={} cleared_env=[{}]",
        json_str(&cpu_model()),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        opts.seed,
        opts.workload,
        opts.seconds,
        u8::from(opts.trace),
        cleared.join(" "),
    );
    let result = match opts.workload.as_str() {
        "eval-deep" => run(&opts, || eval_deep::EvalDeep::setup(opts.seed, nproc)),
        "serve-open" => run(&opts, || serve_open::ServeOpen::setup(opts.seed, nproc)),
        "net-closed" => run(&opts, || net_closed::NetClosed::setup(opts.seed, nproc)),
        w => Err(format!("unknown workload {w:?} (eval-deep, serve-open, net-closed)").into()),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            return ExitCode::from(2);
        }
    };

    let mut bypassed = Vec::new();
    print_rows(&format!("{} end-to-end", opts.workload), &report.headline);
    for line in &report.lines {
        println!("{line}");
    }
    let metrics = if opts.trace {
        let rows = select(&PER_LAYER, &report.layers, &mut bypassed);
        print_rows("per-layer (traced run)", &rows);
        if !bypassed.is_empty() {
            println!(
                "  bypassed on this workload (reported as 0): {}",
                bypassed.join(", ")
            );
        }
        rows
    } else {
        let rows = select(&END_TO_END, &report.e2e, &mut bypassed);
        assert!(bypassed.is_empty(), "every end-to-end metric is measured");
        print_rows("end-to-end (BENCHMARK.json names)", &rows);
        rows
    };

    let correct = report.tally.failed() == 0 && report.tally.attempted() > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.attempted(),
        report.tally.failed(),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let declared = text.matches("\"name\"").count();
        // Three workloads plus every metric.
        assert_eq!(declared, 3 + END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn json_numbers_stay_finite() {
        assert_eq!(json_num(1.5), "1.5");
        assert!(json_num(f64::INFINITY).parse::<f64>().unwrap().is_finite());
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
