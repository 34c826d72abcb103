//! Figure 6a: TPC-C scale-out — throughput (transactions/s) as the number of
//! servers grows (one district per server), for every system.

use aeon_apps::TpccWorkloadConfig;
use aeon_bench::{cell, header, run_tpcc};
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
        let config = TpccWorkloadConfig::for_servers(servers);
        let mut row = vec![servers.to_string()];
        for system in SystemKind::ALL {
            let (metrics, horizon) = run_tpcc(system, &config);
            row.push(cell(metrics.throughput(Some(horizon))));
        }
        println!("{}", row.join("\t"));
    }
}
