//! Figure 6b: TPC-C latency vs throughput at 8 servers, obtained by sweeping
//! the offered load.

use aeon_apps::TpccWorkloadConfig;
use aeon_bench::{cell, header, run_tpcc};
use aeon_sim::SystemKind;

fn main() {
    header(&[
        "system",
        "offered_tps",
        "throughput_tps",
        "mean_latency_ms",
        "p99_latency_ms",
    ]);
    for system in SystemKind::ALL {
        for load in [50.0, 100.0, 150.0, 200.0, 300.0, 400.0, 600.0] {
            let config = TpccWorkloadConfig {
                servers: 8,
                request_rate: load,
                ..TpccWorkloadConfig::default()
            };
            let (metrics, horizon) = run_tpcc(system, &config);
            println!(
                "{system}\t{load}\t{}\t{}\t{}",
                cell(metrics.throughput(Some(horizon))),
                cell(metrics.mean_latency_ms()),
                cell(metrics.latency_percentile_ms(0.99)),
            );
        }
    }
}
