//! The repository benchmark: client-observed latency and throughput of the
//! AEON reproduction on three workloads, plus a traced run that splits the
//! time by layer.  See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload <game-cluster|social-zipf|bank-migrate> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines go to stdout first; the last line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

mod layers;
mod measure;
mod workloads;

use layers::{counter_metrics, ownership_resolve, sample_queue_max, wire_codec, Counters};
use measure::{
    cpu_windows, median_f64, metric, nearest_rank, phase_windows, quantile_any, quiet_windows,
    steal_share, LoopOutcome, Metric, Phase, Sample, Tracer, Window,
};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use workloads::{BankMigrate, Check, Driven, GameCluster, SocialZipf, Workload};

/// Deployments set up per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Untimed load before the measured phase.
const WARMUP: Duration = Duration::from_secs(1);

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_options() -> Result<Options, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must lie in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Everything one run produced.
struct RunResult {
    /// `(build, deploy, warm)` seconds of each setup.
    setups: Vec<[f64; 3]>,
    /// Requests and migrations of every phase.
    attempted: u64,
    failed: u64,
    /// The measured phase.
    driven: Driven,
    checks: Vec<Check>,
    /// One-second windows of the measured phase with the host's CPU steal.
    windows: Vec<Window>,
    /// The first request error of each phase and the first migration error.
    errors: Vec<String>,
    /// Per-layer metrics measured inside the run (traced run only).
    layers: Vec<Metric>,
}

fn run<W: Workload>(w: &W, opts: &Options, tracer: &Tracer) -> aeon_types::Result<RunResult> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        let root = tracer.next_id();
        let start = tracer.now();
        let (backend, build) = tracer.time("setup.build", root, || w.build());
        let backend = backend?;
        let (world, deploy) = tracer.time("setup.deploy", root, || w.deploy(&backend));
        let world = world?;
        let (warmed, warm) = tracer.time("setup.warm", root, || w.warm(&backend, &world));
        warmed?;
        tracer.record_with_id(root, "setup", 0, 0, start, tracer.now(), 1);
        setups.push([build, deploy, warm]);
        if i + 1 < SETUPS {
            backend.shutdown();
        } else {
            kept = Some((backend, world));
        }
    }
    let (backend, world) = kept.expect("at least one setup");
    let certified: Vec<(String, String)> = aeon_analyzer::certified_readonly(&w.classes())
        .into_iter()
        .map(|m| (m.class, m.method))
        .collect();

    let untraced = Tracer::new(false);
    let mut tally = W::Tally::default();
    let warmup = Phase {
        length: WARMUP,
        tracer: &untraced,
        certified: &certified,
    };
    let warm = w.drive(&backend, &world, &warmup, 1, &mut tally);

    let executed_before = backend.executed_per_server();
    let before = Counters::read(&backend);
    let measured = Phase {
        length: Duration::from_secs_f64(opts.seconds),
        tracer,
        certified: &certified,
    };
    let stop = AtomicBool::new(false);
    let (queued_max, windows, driven) = std::thread::scope(|scope| {
        let sampler = opts
            .trace
            .then(|| scope.spawn(|| sample_queue_max(&backend, &stop)));
        let windows = scope.spawn(|| cpu_windows(tracer, &stop));
        let driven = w.drive(&backend, &world, &measured, 2, &mut tally);
        stop.store(true, Ordering::Relaxed);
        let max = sampler.map_or(0, |s| s.join().expect("sampler does not panic"));
        let windows = windows.join().expect("window sampler does not panic");
        (max, windows, driven)
    });
    let after = Counters::read(&backend);
    let executed_after = backend.executed_per_server();

    let mut checks = w.check(&backend, &world, &tally)?;
    let contexts = backend.contexts_per_server();
    let executed: Vec<u64> = executed_after
        .iter()
        .zip(&executed_before)
        .map(|(a, b)| a - b)
        .collect();
    checks.push(Check {
        name: "topology",
        ok: contexts.iter().all(|n| *n > 0) && executed.iter().all(|n| *n > 0),
        detail: format!(
            "contexts per server {contexts:?}, events executed per server {executed:?}"
        ),
    });

    let mut layers = Vec::new();
    if opts.trace {
        layers = counter_metrics(
            &before,
            &after,
            driven.phases().map(|p| p.attempted).sum(),
            driven.phases().map(|p| p.certified_reads).sum(),
            queued_max,
            driven.migrations.len() as u64,
        );
        let (cold_ms, warm_us) =
            ownership_resolve(backend.deployment(), &w.targets(&world), tracer)?;
        layers.push(metric("ownership.resolve_cold_ms", cold_ms, "ms"));
        layers.push(metric("ownership.resolve_warm_us", warm_us, "us"));
        let (op, reply) = w.typical(&world);
        let (encode_ns, decode_ns) = wire_codec(&op, &reply, tracer)?;
        layers.push(metric("wire.encode_ns", encode_ns, "ns"));
        layers.push(metric("wire.decode_ns", decode_ns, "ns"));
    }
    backend.shutdown();

    let phases = || warm.phases().chain(driven.phases());
    let migrations = || warm.migrations.iter().chain(&driven.migrations);
    let migration_errors: Vec<&String> = migrations().filter_map(|m| m.error.as_ref()).collect();
    let errors = phases()
        .filter_map(|p| p.first_error.as_ref())
        .chain(migration_errors.first().copied())
        .cloned()
        .collect();
    Ok(RunResult {
        setups,
        attempted: phases().map(|p| p.attempted).sum::<u64>() + migrations().count() as u64,
        failed: phases().map(|p| p.failed).sum::<u64>() + migration_errors.len() as u64,
        errors,
        windows,
        driven,
        checks,
        layers,
    })
}

/// Sorted latencies (ns) of the samples `keep` selects.
fn latencies(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Vec<u64> {
    let mut v: Vec<u64> = samples
        .iter()
        .filter(|s| keep(s))
        .map(|s| s.latency_ns)
        .collect();
    v.sort_unstable();
    v
}

/// Completions per second: completed requests over the time from the
/// phase start to the last completion.
fn throughput(load: &LoopOutcome) -> f64 {
    let last = load
        .samples
        .iter()
        .map(|s| s.done_ns)
        .max()
        .unwrap_or(load.start_ns);
    load.samples.len() as f64 / ((last - load.start_ns) as f64 / 1e9).max(f64::MIN_POSITIVE)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Prints an exact percentile line with its sample count; `None` when
/// fewer than ten samples lie beyond it.
fn percentile_line(name: &str, sorted: &[u64], q: f64) -> Option<f64> {
    match nearest_rank(sorted, q) {
        Some((v, beyond)) if beyond >= 10 => {
            println!(
                "  {name:<16} {:>12.4} ms   (n={}, {beyond} beyond)",
                ms(v),
                sorted.len()
            );
            Some(ms(v))
        }
        _ => {
            println!(
                "  {name:<16} {:>12}      (n={}: fewer than 10 samples beyond)",
                "n/a",
                sorted.len()
            );
            None
        }
    }
}

fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("peak_rss_mb: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "peak_rss_mb: no VmHWM in /proc/self/status".to_string())
}

/// The samples and completion rate of `load`, counted over its quiet
/// windows (see [`quiet_windows`]) or over the whole phase.
fn counted(label: &str, load: &LoopOutcome, windows: &[Window]) -> (Vec<Sample>, f64) {
    let inside = phase_windows(windows, load);
    let Some(quiet) = quiet_windows(&inside) else {
        println!(
            "host: {label}: hypervisor took {:.1}% of the CPU time; no window stole more than the quieter half, so the whole phase counts",
            steal_share(&inside) * 100.0
        );
        return (load.samples.clone(), throughput(load));
    };
    println!(
        "host: {label}: hypervisor took {:.1}% of the CPU time, {:.1}% during the {} quietest of its {} one-second windows",
        steal_share(&inside) * 100.0,
        steal_share(&quiet) * 100.0,
        quiet.len(),
        inside.len()
    );
    let in_quiet = |s: &&Sample| quiet.iter().any(|w| w.contains(s.done_ns));
    let kept: Vec<Sample> = load.samples.iter().filter(in_quiet).copied().collect();
    let seconds: f64 = quiet.iter().map(Window::seconds).sum();
    let rate = kept.len() as f64 / seconds;
    (kept, rate)
}

/// End-to-end metrics of an untraced run, and the human-readable report
/// of those that apply to only some workloads.  Request metrics are taken
/// over the quieter half of each phase's one-second windows (the whole
/// phase when no window steals more than that half).
fn end_to_end(result: &RunResult) -> Result<Vec<Metric>, String> {
    let driven = &result.driven;
    let (samples, tput) = counted("measured phase", &driven.load, &result.windows);
    let capacity = driven
        .capacity
        .as_ref()
        .map(|c| counted("closed-loop phase", c, &result.windows).1);
    if samples.is_empty() {
        return Err("no request completed in the measured phase".into());
    }
    println!("end-to-end (client-observed, in-order waits; latency from submit or due time):");
    println!(
        "  {:<16} {tput:>12.2} ops/s ({}{:.2} ops/s over the whole phase)",
        "throughput_ops_s",
        if driven.capacity.is_some() {
            "open loop: the offered rate; "
        } else {
            ""
        },
        throughput(&driven.load)
    );
    if let Some(rate) = capacity {
        println!(
            "  {:<16} {rate:>12.2} ops/s (closed loop of the same mix; not gated)",
            "capacity_ops_s"
        );
    }
    let all = latencies(&samples, |_| true);
    percentile_line("p50_ms", &all, 0.50);
    percentile_line("p99_ms", &all, 0.99);
    let reads = latencies(&samples, |s| s.read);
    let writes = latencies(&samples, |s| !s.read);
    if !reads.is_empty() && !writes.is_empty() {
        percentile_line("read_p99_ms", &reads, 0.99);
        percentile_line("write_p99_ms", &writes, 0.99);
    }
    let error_rate = result.failed as f64 / result.attempted.max(1) as f64;
    println!(
        "  {:<16} {error_rate:>12.6}      ({} failed of {} attempted)",
        "error_rate", result.failed, result.attempted
    );
    let setup_totals: Vec<f64> = result.setups.iter().map(|s| s.iter().sum()).collect();
    let setup = median_f64(&setup_totals);
    println!(
        "  {:<16} {setup:>12.4} s    (median of {} setups: {setup_totals:.3?})",
        "setup_s",
        setup_totals.len()
    );
    // Includes the per-request samples this process keeps, which grow with
    // throughput, so it is reported but not gated.
    let rss = peak_rss_mb()?;
    println!("  {:<16} {rss:>12.1} MB", "peak_rss_mb");
    if !driven.migrations.is_empty() {
        let times = {
            let mut t: Vec<u64> = driven.migrations.iter().map(|m| m.ns).collect();
            t.sort_unstable();
            t
        };
        percentile_line("migrate_p50_ms", &times, 0.50);
        if times.len() >= 100 {
            percentile_line("migrate_p90_ms", &times, 0.90);
        } else {
            println!(
                "  {:<16} {:>12}      (n={}: a run needs at least 100 migrations)",
                "migrate_p90_ms",
                "n/a",
                times.len()
            );
        }
    }
    Ok(vec![
        metric("throughput_ops_s", tput, "ops/s"),
        metric("setup_s", setup, "s"),
    ])
}

/// Per-layer metrics of a traced run: span timings, counter deltas, and
/// the traced-versus-untraced comparison of the alternating slices.
fn per_layer(result: &RunResult, tracer: &Tracer) -> Vec<Metric> {
    let us = |sorted: &[u64], q| quantile_any(sorted, q) as f64 / 1e3;
    let submit = tracer.durations("api.submit");
    let wait = tracer.durations("api.wait");
    let driven = &result.driven;
    let load = &driven.load;
    let mut out = vec![
        metric("api.submit_p50_us", us(&submit, 0.5), "us"),
        metric("api.submit_p99_us", us(&submit, 0.99), "us"),
        metric("api.wait_p50_us", us(&wait, 0.5), "us"),
    ];
    out.extend(result.layers.iter().copied());
    let migrations = &driven.migrations;
    let failed = migrations.iter().filter(|m| m.error.is_some()).count();
    out.push(metric(
        "migrate.fail_ratio",
        if migrations.is_empty() {
            0.0
        } else {
            failed as f64 / migrations.len() as f64
        },
        "ratio",
    ));
    let mut bytes: Vec<u64> = migrations.iter().map(|m| m.bytes).collect();
    bytes.sort_unstable();
    out.push(metric(
        "migrate.bytes_p50",
        quantile_any(&bytes, 0.5) as f64,
        "B",
    ));
    for (name, span) in [
        ("setup.build_s", "setup.build"),
        ("setup.deploy_s", "setup.deploy"),
        ("setup.warm_s", "setup.warm"),
    ] {
        let secs: Vec<f64> = tracer
            .durations(span)
            .iter()
            .map(|ns| *ns as f64 / 1e9)
            .collect();
        out.push(metric(name, median_f64(&secs), "s"));
    }
    let mut late = load.late_ns.clone();
    late.sort_unstable();
    out.push(metric(
        "gen.late_p99_ms",
        ms(quantile_any(&late, 0.99)),
        "ms",
    ));
    out.push(metric(
        "gen.samples",
        driven.phases().map(|p| p.samples.len()).sum::<usize>() as f64,
        "count",
    ));
    // Both kinds of slice cover half of the phase, so their completion
    // counts compare as rates.
    let rated = driven.closed_phase();
    let within = |traced: bool| {
        rated
            .samples
            .iter()
            .filter(|s| s.traced == traced && s.done_ns < rated.end_ns)
            .count()
    };
    out.push(metric(
        "trace.overhead_ratio",
        within(false) as f64 / within(true).max(1) as f64,
        "ratio",
    ));
    let p50_plain = quantile_any(&latencies(&load.samples, |s| !s.traced), 0.5) as f64;
    let p50_traced = quantile_any(&latencies(&load.samples, |s| s.traced), 0.5) as f64;
    out.push(metric(
        "trace.p50_ratio",
        p50_traced / p50_plain.max(1.0),
        "ratio",
    ));
    println!("per-layer (traced run; spans written to the trace file):");
    for m in &out {
        println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    out
}

fn trace_path(opts: &Options) -> std::path::PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    std::path::Path::new(&target)
        .join("perfbench-traces")
        .join(format!("{}-seed{}.jsonl", opts.workload, opts.seed))
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main_inner() -> Result<(), String> {
    let opts = parse_options()?;
    let tracer = Tracer::new(opts.trace);
    let seed = opts.seed;
    let result = match opts.workload.as_str() {
        "game-cluster" => run(&GameCluster { seed }, &opts, &tracer),
        "social-zipf" => run(&SocialZipf { seed }, &opts, &tracer),
        "bank-migrate" => run(&BankMigrate { seed }, &opts, &tracer),
        other => return Err(format!("unknown workload {other}")),
    }
    .map_err(|e| format!("{} failed: {e}", opts.workload))?;
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {workers})",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );
    let correct = result.checks.iter().all(|c| c.ok);
    for c in &result.checks {
        println!(
            "check {:<20} {}  {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    for e in &result.errors {
        println!("error: {e}");
    }
    let metrics = if opts.trace {
        let path = trace_path(&opts);
        let spans = tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("trace: {spans} spans in {}", path.display());
        per_layer(&result, &tracer)
    } else {
        end_to_end(&result)?
    };
    if metrics.iter().any(|m| !m.value.is_finite()) {
        return Err("a metric is not a finite number".into());
    }
    println!(
        "{}",
        json_line(correct, result.attempted, result.failed, &metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
