//! Per-layer numbers: counter deltas read from the deployment over a
//! measured phase, and timings of direct calls into the ownership and
//! wire layers.

use crate::measure::{median_f64, metric, Metric, Op, Tracer};
use aeon_api::Deployment;
use aeon_cluster::{Cluster, ClusterMessage, EventDescriptor};
use aeon_net::WireMessage;
use aeon_ownership::{DominatorMode, DominatorResolver};
use aeon_runtime::{AeonRuntime, ExecutorStats};
use aeon_types::{
    ClientId, ContextId, EventId, LatencyHistogram, NetworkStatsSnapshot, Result, ServerId, Value,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// The two live backends the workloads run on.  Load always goes through
/// `&dyn Deployment`; the concrete type is kept for counters the trait does
/// not expose.
pub enum Backend {
    Runtime(AeonRuntime),
    Cluster(Cluster),
}

impl Backend {
    pub fn deployment(&self) -> &dyn Deployment {
        match self {
            Backend::Runtime(r) => r,
            Backend::Cluster(c) => c,
        }
    }

    /// Events executed per server since the deployment started.
    pub fn executed_per_server(&self) -> Vec<u64> {
        match self {
            Backend::Runtime(r) => r
                .server_info()
                .values()
                .map(|i| i.events_executed)
                .collect(),
            Backend::Cluster(c) => c.events_executed().into_values().collect(),
        }
    }

    /// Contexts hosted per server.
    pub fn contexts_per_server(&self) -> Vec<usize> {
        let d = self.deployment();
        d.servers()
            .into_iter()
            .map(|s| d.contexts_on(s).len())
            .collect()
    }

    fn install_wait_retries(&self) -> u64 {
        match self {
            Backend::Runtime(_) => 0,
            Backend::Cluster(c) => c.install_wait_retries().values().sum(),
        }
    }

    pub fn shutdown(self) {
        self.deployment().shutdown();
    }
}

/// Counters read before and after a measured phase.
pub struct Counters {
    executor: ExecutorStats,
    network: Option<NetworkStatsSnapshot>,
    exec_latency: LatencyHistogram,
    executed: Vec<u64>,
    install_waits: u64,
}

impl Counters {
    pub fn read(backend: &Backend) -> Self {
        let d = backend.deployment();
        let mut exec_latency = LatencyHistogram::new();
        for m in d.server_metrics() {
            exec_latency.merge(&m.latency);
        }
        Self {
            executor: d.executor_stats().unwrap_or_default(),
            network: d.network_stats(),
            exec_latency,
            executed: backend.executed_per_server(),
            install_waits: backend.install_wait_retries(),
        }
    }
}

/// The histogram of the samples recorded between `before` and `after`
/// (the worker-side execution slice of a phase).
fn histogram_delta(before: &LatencyHistogram, after: &LatencyHistogram) -> LatencyHistogram {
    let mut delta = *after;
    delta.count = delta.count.saturating_sub(before.count);
    delta.total_micros = delta.total_micros.saturating_sub(before.total_micros);
    for (d, b) in delta.buckets.iter_mut().zip(before.buckets.iter()) {
        *d = d.saturating_sub(*b);
    }
    delta
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Layer metrics from the counter deltas over a phase in which the client
/// submitted `events` requests, `certified_reads` of them certified reads.
pub fn counter_metrics(
    before: &Counters,
    after: &Counters,
    events: u64,
    certified_reads: u64,
    queued_max: u64,
    migrations: u64,
) -> Vec<Metric> {
    let (b, a) = (&before.executor, &after.executor);
    let kevents = events as f64 / 1000.0;
    let executed: Vec<u64> = after
        .executed
        .iter()
        .zip(before.executed.iter().chain(std::iter::repeat(&0)))
        .map(|(a, b)| a - b)
        .collect();
    let total_executed: u64 = executed.iter().sum();
    let busiest = executed.iter().copied().max().unwrap_or(0);
    let (msgs, bytes, dropped) = match (before.network, after.network) {
        (Some(nb), Some(na)) => (
            (na.local_messages + na.remote_messages) - (nb.local_messages + nb.remote_messages),
            na.bytes_sent - nb.bytes_sent,
            (na.dropped_messages + na.frames_dropped) - (nb.dropped_messages + nb.frames_dropped),
        ),
        _ => (0, 0, 0),
    };
    let exec = histogram_delta(&before.exec_latency, &after.exec_latency);
    vec![
        metric(
            "executor.spill_per_kevent",
            ratio((a.spill_spawned - b.spill_spawned) as f64, kevents),
            "1/kevent",
        ),
        metric(
            "executor.batched_ratio",
            ratio(
                (a.batched - b.batched) as f64,
                (a.completed - b.completed) as f64,
            ),
            "ratio",
        ),
        metric(
            "executor.fast_path_ratio",
            ratio((a.fast_path - b.fast_path) as f64, certified_reads as f64),
            "ratio",
        ),
        metric("executor.queued_max", queued_max as f64, "count"),
        metric("executor.panics", (a.panics - b.panics) as f64, "count"),
        metric("server.exec_p50_us", exec.percentile(0.5) as f64, "us"),
        metric("server.exec_p99_us", exec.percentile(0.99) as f64, "us"),
        metric(
            "server.busiest_share",
            ratio(busiest as f64, total_executed as f64),
            "ratio",
        ),
        metric(
            "net.msgs_per_event",
            ratio(msgs as f64, events as f64),
            "1/event",
        ),
        metric(
            "net.bytes_per_event",
            ratio(bytes as f64, events as f64),
            "B/event",
        ),
        metric("net.dropped", dropped as f64, "count"),
        metric(
            "cluster.install_wait_per_migration",
            ratio(
                (after.install_waits - before.install_waits) as f64,
                migrations as f64,
            ),
            "1/migration",
        ),
    ]
}

/// Samples the executor queue depth until `stop` is set; returns the maximum.
pub fn sample_queue_max(backend: &Backend, stop: &AtomicBool) -> u64 {
    let mut max = 0;
    while !stop.load(Ordering::Relaxed) {
        if let Some(stats) = backend.deployment().executor_stats() {
            max = max.max(stats.queued);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    max
}

/// Resolves the dominator of every target with a fresh resolver over the
/// deployment's ownership graph (cold), then once more from its cache
/// (warm).  Returns `(cold total ms, warm µs per target)`.
pub fn ownership_resolve(
    deployment: &dyn Deployment,
    targets: &[ContextId],
    tracer: &Tracer,
) -> Result<(f64, f64)> {
    let graph = deployment.ownership_graph();
    let resolver = DominatorResolver::new(DominatorMode::default());
    let pass = |name: &'static str| -> Result<f64> {
        let root = tracer.next_id();
        let start = tracer.now();
        for target in targets {
            let t0 = tracer.now();
            black_box(resolver.dominator(&graph, *target)?);
            tracer.record("ownership.resolve", root, 0, t0, tracer.now(), 1);
        }
        let end = tracer.now();
        tracer.record_with_id(root, name, 0, 0, start, end, targets.len() as u64);
        Ok((end - start) as f64)
    };
    let cold_ns = pass("ownership.resolve_cold")?;
    let warm_ns = pass("ownership.resolve_warm")?;
    Ok((cold_ns / 1e6, warm_ns / 1e3 / targets.len().max(1) as f64))
}

/// Times `encode_wire` / `decode_wire` of the Exec and Done messages one
/// request of the workload produces.  Returns ns per message for each.
pub fn wire_codec(op: &Op, reply: &Value, tracer: &Tracer) -> Result<(f64, f64)> {
    const BATCH: u64 = 2_000;
    const BATCHES: usize = 5;
    let messages = [
        ClusterMessage::Exec {
            event: EventDescriptor {
                id: EventId::new(1 << 40),
                client: Some(ClientId::new(7)),
                corr: 1 << 33,
                target: op.target,
                method: op.method.to_string(),
                args: op.args.clone(),
                mode: op.mode(),
            },
            sequencer: Some((ServerId::new(1), op.target)),
        },
        ClusterMessage::Done {
            corr: 1 << 33,
            event: EventId::new(1 << 40),
            result: Ok(reply.clone()),
            sub_events: Vec::new(),
        },
    ];
    let frames: Vec<Vec<u8>> = messages
        .iter()
        .map(WireMessage::encode_wire)
        .collect::<Result<_>>()?;
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    for _ in 0..BATCHES {
        let (res, secs) = tracer.time("wire.encode", 0, || -> Result<()> {
            for _ in 0..BATCH {
                for m in &messages {
                    black_box(black_box(m).encode_wire()?);
                }
            }
            Ok(())
        });
        res?;
        encode.push(secs * 1e9 / (BATCH * messages.len() as u64) as f64);
        let (res, secs) = tracer.time("wire.decode", 0, || -> Result<()> {
            for _ in 0..BATCH {
                for f in &frames {
                    black_box(ClusterMessage::decode_wire(black_box(f))?);
                }
            }
            Ok(())
        });
        res?;
        decode.push(secs * 1e9 / (BATCH * frames.len() as u64) as f64);
    }
    Ok((median_f64(&encode), median_f64(&decode)))
}
