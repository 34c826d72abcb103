//! Figure 5b: game application latency vs throughput at 8 servers, obtained
//! by sweeping the offered load.

use aeon_apps::GameWorkloadConfig;
use aeon_bench::{cell, header, run_game};
use aeon_sim::SystemKind;

fn main() {
    header(&[
        "system",
        "offered_rps",
        "throughput_rps",
        "mean_latency_ms",
        "p99_latency_ms",
    ]);
    for system in SystemKind::ALL {
        for load in [
            2_000.0, 4_000.0, 6_000.0, 8_000.0, 10_000.0, 12_000.0, 14_000.0, 16_000.0,
        ] {
            let config = GameWorkloadConfig {
                servers: 8,
                request_rate: load,
                ..GameWorkloadConfig::default()
            };
            let (metrics, horizon) = run_game(system, &config);
            println!(
                "{system}\t{load}\t{}\t{}\t{}",
                cell(metrics.throughput(Some(horizon))),
                cell(metrics.mean_latency_ms()),
                cell(metrics.latency_percentile_ms(0.99)),
            );
        }
    }
}
