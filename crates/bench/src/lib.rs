//! Shared helpers for the benchmark harness binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation (§6); see EXPERIMENTS.md at the workspace root for the mapping
//! and the recorded outputs.

use aeon_api::Session;
use aeon_apps::game::{deploy_game, game_class_graph};
use aeon_apps::social::social_class_graph;
use aeon_apps::tpcc::{deploy_tpcc, run_payment, tpcc_class_graph};
use aeon_apps::{
    deploy_social, generate_plan, run_social_stream, GameWorkload, GameWorkloadConfig,
    SocialConfig, TpccWorkload, TpccWorkloadConfig,
};
use aeon_runtime::AeonRuntime;
use aeon_sim::{Metrics, SimDeployment, Simulator, SystemKind};
use aeon_types::{args, Result, SimDuration, SimTime};

/// Prints a table header row.
pub fn header(columns: &[&str]) {
    println!("{}", columns.join("\t"));
}

/// Formats a float with two decimals for table cells.
pub fn cell(value: f64) -> String {
    format!("{value:.2}")
}

/// Runs the game workload for one system/server-count pair and returns the
/// metrics together with the experiment horizon.
pub fn run_game(system: SystemKind, config: &GameWorkloadConfig) -> (Metrics, SimTime) {
    let mut workload = GameWorkload::generate(system, config);
    let metrics = Simulator::new().run(&mut workload.cluster, &workload.requests);
    (metrics, SimTime::ZERO + config.duration)
}

/// Runs the TPC-C workload for one system/server-count pair.
pub fn run_tpcc(system: SystemKind, config: &TpccWorkloadConfig) -> (Metrics, SimTime) {
    let mut workload = TpccWorkload::generate(system, config);
    let metrics = Simulator::new().run(&mut workload.cluster, &workload.requests);
    (metrics, SimTime::ZERO + config.duration)
}

/// The backend knob of the fig9 driver: `--backend runtime|cluster|sim` on
/// the command line or the `AEON_BACKEND` environment variable.  The
/// selected backend is built through
/// the config-driven `aeon::deploy` entry point, so the elasticity bench
/// exercises every execution substrate.
///
/// # Panics
///
/// Panics on an unparseable backend name: a figure-generating driver must
/// not silently fall back to measuring the wrong backend.
pub fn backend_knob() -> Option<aeon::Backend> {
    fn parse(value: &str) -> aeon::Backend {
        value
            .parse()
            .unwrap_or_else(|e| panic!("invalid backend knob: {e}"))
    }
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if arg == "--backend" {
            return argv.next().map(|v| parse(&v));
        }
        if let Some(v) = arg.strip_prefix("--backend=") {
            return Some(parse(v));
        }
    }
    std::env::var("AEON_BACKEND").ok().map(|v| parse(&v))
}

/// The result of a live (non-simulated) run against a real backend.
#[derive(Debug, Clone, Copy)]
pub struct LiveReport {
    /// Resident executor workers used by the run.
    pub pool_size: usize,
    /// Events completed.
    pub events: usize,
    /// Events per wall-clock second.
    pub throughput: f64,
    /// Median event latency in microseconds.
    pub p50_micros: u64,
    /// 99th-percentile event latency in microseconds.
    pub p99_micros: u64,
}

fn live_report(runtime: &AeonRuntime, pool_size: usize, events: usize, secs: f64) -> LiveReport {
    let latency = runtime.stats().latency_summary();
    LiveReport {
        pool_size,
        events,
        throughput: events as f64 / secs.max(f64::MIN_POSITIVE),
        p50_micros: latency.p50_micros,
        p99_micros: latency.p99_micros,
    }
}

/// Measures the game workload on a live `AeonRuntime` with a sharded
/// worker pool of `pool_size` resident workers: `rooms` rooms × 4 players
/// mine gold concurrently (`events_per_player` each).
///
/// # Errors
///
/// Propagates deployment and event submission failures.
pub fn live_game_run(
    pool_size: usize,
    rooms: usize,
    events_per_player: usize,
) -> Result<LiveReport> {
    let runtime = AeonRuntime::builder()
        .servers(rooms.max(1))
        .worker_threads(pool_size)
        .class_graph(game_class_graph())
        .build()?;
    let players_per_room = 4;
    let world = deploy_game(&runtime, rooms, players_per_room)?;
    let session = runtime.client();
    let started = std::time::Instant::now();
    let mut handles = Vec::new();
    for _ in 0..events_per_player {
        for room in &world.players {
            for player in room {
                handles.push(Session::submit_event(
                    &session,
                    *player,
                    "get_gold",
                    args![1],
                )?);
            }
        }
    }
    let events = handles.len();
    for handle in handles {
        handle.wait()?;
    }
    let secs = started.elapsed().as_secs_f64();
    let report = live_report(&runtime, pool_size, events, secs);
    runtime.shutdown();
    Ok(report)
}

/// Measures the TPC-C Payment workload on a live `AeonRuntime` with a
/// sharded worker pool of `pool_size` resident workers: `clients`
/// client threads each issue `payments_per_client` Payment transactions.
///
/// # Errors
///
/// Propagates deployment and transaction failures.
pub fn live_tpcc_run(
    pool_size: usize,
    districts: usize,
    clients: usize,
    payments_per_client: usize,
) -> Result<LiveReport> {
    let runtime = AeonRuntime::builder()
        .servers(districts.max(1))
        .worker_threads(pool_size)
        .class_graph(tpcc_class_graph())
        .build()?;
    let world = deploy_tpcc(&runtime, districts, 4)?;
    let started = std::time::Instant::now();
    std::thread::scope(|scope| -> Result<()> {
        let mut joins = Vec::new();
        for client in 0..clients {
            let session = runtime.client();
            let world = &world;
            joins.push(scope.spawn(move || -> Result<()> {
                for payment in 0..payments_per_client {
                    let district = (client + payment) % world.districts.len();
                    let customer = payment % world.customers[district].len();
                    run_payment(&session, world, district, customer, 1)?;
                }
                Ok(())
            }));
        }
        for join in joins {
            join.join().expect("client thread does not panic")?;
        }
        Ok(())
    })?;
    let secs = started.elapsed().as_secs_f64();
    // A Payment is three events (warehouse, district, customer).
    let events = clients * payments_per_client * 3;
    let report = live_report(&runtime, pool_size, events, secs);
    runtime.shutdown();
    Ok(report)
}

/// Outcome of a virtual-time run on the contention-mode
/// [`SimDeployment`]: real contextclass code executed inline, latency and
/// throughput accounted against the simulator's lock/CPU timelines.
#[derive(Debug, Clone, Copy)]
pub struct SimReport {
    /// Events completed.
    pub events: u64,
    /// Events per *virtual* second (events / makespan).
    pub virtual_ops_per_sec: f64,
    /// Mean virtual event latency in microseconds.
    pub mean_latency_micros: u64,
    /// Virtual makespan of the measured stream in microseconds.
    pub virtual_micros: u64,
}

/// Shared knobs of the virtual-time drivers below.
#[derive(Debug, Clone, Copy)]
pub struct SimRunConfig {
    /// Simulated servers.
    pub servers: usize,
    /// Cores per simulated server.
    pub cores: usize,
    /// Per-event CPU service demand.
    pub service: SimDuration,
    /// One network hop (client↔server and server↔server).
    pub hop: SimDuration,
    /// Open-loop inter-arrival gap of the request stream.
    pub arrival_interval: SimDuration,
}

impl Default for SimRunConfig {
    fn default() -> Self {
        SimRunConfig {
            servers: 4,
            cores: 2,
            service: SimDuration::from_micros(100),
            hop: SimDuration::from_micros(50),
            arrival_interval: SimDuration::from_micros(25),
        }
    }
}

impl SimRunConfig {
    fn build(&self, classes: aeon_ownership::ClassGraph) -> Result<SimDeployment> {
        SimDeployment::builder()
            .servers(self.servers)
            .contention(self.cores)
            .service_time(self.service)
            .network_hop(self.hop)
            .arrival_interval(self.arrival_interval)
            .class_graph(classes)
            .build()
    }

    fn report(&self, sim: &SimDeployment) -> SimReport {
        SimReport {
            events: sim.events_completed(),
            virtual_ops_per_sec: sim.virtual_throughput(),
            mean_latency_micros: sim.mean_virtual_latency().as_micros(),
            virtual_micros: sim.virtual_now().as_micros(),
        }
    }
}

/// Runs the fig5 game driver under virtual time: the same
/// [`deploy_game`]/`get_gold` loop as [`live_game_run`], but on the
/// contention-mode simulator, so server/core counts can be swept without
/// real hardware.
///
/// # Errors
///
/// Propagates deployment and event failures.
pub fn sim_game_run(
    config: &SimRunConfig,
    rooms: usize,
    events_per_player: usize,
) -> Result<SimReport> {
    let sim = config.build(game_class_graph())?;
    let world = deploy_game(&sim, rooms, 4)?;
    let session = sim.client();
    sim.reset_virtual_time();
    for _ in 0..events_per_player {
        for room in &world.players {
            for player in room {
                session.call(*player, "get_gold", args![1])?;
            }
        }
    }
    Ok(config.report(&sim))
}

/// Runs the fig6 TPC-C Payment driver under virtual time.
///
/// # Errors
///
/// Propagates deployment and transaction failures.
pub fn sim_tpcc_run(config: &SimRunConfig, districts: usize, payments: usize) -> Result<SimReport> {
    let sim = config.build(tpcc_class_graph())?;
    let world = deploy_tpcc(&sim, districts, 4)?;
    let session = sim.client();
    sim.reset_virtual_time();
    for payment in 0..payments {
        let district = payment % world.districts.len();
        let customer = payment % world.customers[district].len();
        run_payment(&session, &world, district, customer, 1)?;
    }
    Ok(config.report(&sim))
}

/// Runs the Zipfian social driver under virtual time: deploys the seeded
/// social graph, then replays a deterministic skewed request stream and
/// accounts it against the simulated sequencer/CPU timelines (the fig7
/// hot-dominator shape).
///
/// # Errors
///
/// Propagates deployment and event failures.
pub fn sim_social_run(
    config: &SimRunConfig,
    social: &SocialConfig,
    events: usize,
) -> Result<SimReport> {
    let sim = config.build(social_class_graph())?;
    let world = deploy_social(&sim, social)?;
    let session = sim.client();
    sim.reset_virtual_time();
    let ops = generate_plan(social).request_stream(events, social.seed ^ 0xf167);
    run_social_stream(&session, &world, &ops)?;
    Ok(config.report(&sim))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_helpers_produce_metrics() {
        let config = GameWorkloadConfig {
            servers: 2,
            request_rate: 200.0,
            duration: aeon_types::SimDuration::from_secs(1),
            ..GameWorkloadConfig::default()
        };
        let (metrics, horizon) = run_game(SystemKind::Aeon, &config);
        assert!(metrics.count() > 0);
        assert!(metrics.throughput(Some(horizon)) > 0.0);
        assert_eq!(cell(1.234), "1.23");
    }

    #[test]
    fn virtual_time_drivers_account_real_executions() {
        let config = SimRunConfig {
            servers: 2,
            cores: 2,
            ..SimRunConfig::default()
        };
        let game = sim_game_run(&config, 2, 4).unwrap();
        assert_eq!(game.events, 2 * 4 * 4);
        assert!(game.virtual_micros > 0);
        assert!(game.virtual_ops_per_sec > 0.0);

        let tpcc = sim_tpcc_run(&config, 2, 8).unwrap();
        assert_eq!(tpcc.events, 8 * 3);
        assert!(tpcc.mean_latency_micros > 0);

        let social = SocialConfig {
            regions: 2,
            users: 16,
            ..SocialConfig::default()
        };
        let report = sim_social_run(&config, &social, 64).unwrap();
        assert_eq!(report.events, 64);
        assert!(report.virtual_ops_per_sec > 0.0);
    }

    #[test]
    fn skew_concentrates_virtual_time_on_hot_dominators() {
        // The same stream size under heavier Zipf skew funnels more events
        // through the celebrity dominators, so the virtual makespan and
        // mean latency cannot improve relative to the uniform stream.
        let config = SimRunConfig {
            servers: 4,
            cores: 1,
            arrival_interval: SimDuration::ZERO,
            ..SimRunConfig::default()
        };
        let base = SocialConfig {
            regions: 2,
            users: 32,
            ..SocialConfig::default()
        };
        let uniform = SocialConfig {
            zipf_s: 0.0,
            ..base.clone()
        };
        let skewed = SocialConfig {
            zipf_s: 1.4,
            ..base
        };
        let flat = sim_social_run(&config, &uniform, 256).unwrap();
        let hot = sim_social_run(&config, &skewed, 256).unwrap();
        assert_eq!(flat.events, hot.events);
        assert!(
            hot.virtual_micros >= flat.virtual_micros,
            "skewed makespan {} < uniform makespan {}",
            hot.virtual_micros,
            flat.virtual_micros
        );
    }
}
