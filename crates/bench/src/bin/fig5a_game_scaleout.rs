//! Figure 5a: game application scale-out — throughput (events/s) as the
//! number of servers grows, for every system.

use aeon_apps::GameWorkloadConfig;
use aeon_bench::{cell, header, run_game};
use aeon_sim::SystemKind;

fn main() {
    header(&[
        "servers",
        "EventWave",
        "Orleans",
        "Orleans*",
        "AEON_SO",
        "AEON",
    ]);
    for servers in [2usize, 4, 8, 12, 16] {
        let config = GameWorkloadConfig::for_servers(servers);
        let mut row = vec![servers.to_string()];
        for system in SystemKind::ALL {
            let (metrics, horizon) = run_game(system, &config);
            row.push(cell(metrics.throughput(Some(horizon))));
        }
        println!("{}", row.join("\t"));
    }
}
