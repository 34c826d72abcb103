//! Checker-driven chaos suite: the paper's strict-serializability claim,
//! verified against *real* cluster executions under fault injection.
//!
//! A randomized concurrent bank workload (transfers + read-only audits)
//! hammers a multi-server cluster while the chaos driver injects
//! coordinated snapshots, snapshot restores, context migrations, a server
//! crash recovered from the last checkpoint, and scale-out — all mid-run.
//! Every event span and context access is recorded through the deployment's
//! history sink (`aeon_checker::HistoryRecorder`), and the recorded history
//! must pass `check_strict_serializability`.
//!
//! The suite also proves its own teeth: with the test-only
//! `ClusterBuilder::torn_snapshot_for_tests` toggle (reverting
//! `snapshot_context` to the legacy member-at-a-time capture), the same
//! workload produces a snapshot event whose member reads interleave with a
//! transfer — a conflict cycle the checker rejects.
//!
//! The same seeded client driver, with fault injection off, backs the
//! fault-free bank runs on the runtime and the channel cluster: transfers
//! with synchronous and `async` deposit legs race read-only audits, and
//! every run must conserve money, let no audit observe a torn transfer, and
//! record a history the checker orders completely.
//!
//! Runs are seeded (`AEON_CHAOS_SEED`) so failures are reproducible; CI
//! runs this file in release mode under a timeout.

use aeon::prelude::*;
use aeon_apps::bank::{
    bank_class_graph, captured_account_total, deploy_bank, register_bank_factories, BankWorld,
    BankWorldConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const DEFAULT_SEED: u64 = 20260729;
/// Transfers/audits submitted by each client thread per run.
const OPS_PER_CLIENT: usize = 150;
const CLIENTS: usize = 4;

fn chaos_seed() -> u64 {
    std::env::var("AEON_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

fn chaos_config() -> BankWorldConfig {
    BankWorldConfig {
        branches: 4,
        accounts_per_branch: 3,
        shared_pairs: 1,
        shared_accounts: 1,
        initial_balance: 100,
    }
}

/// The operation mix a client thread draws from.
#[derive(Debug, Clone, Copy)]
struct Mix {
    /// One operation in `audit_one_in` is a read-only `Bank::audit`.
    audit_one_in: u32,
    /// Share of transfers, in percent, that use `transfer_async`.
    async_percent: u32,
}

/// The chaos runs' mix: synchronous transfers and occasional audits.
const CHAOS_MIX: Mix = Mix {
    audit_one_in: 12,
    async_percent: 0,
};

/// What one client thread observed.
#[derive(Debug, Default)]
struct ClientLog {
    transfers: usize,
    async_transfers: usize,
    /// Totals returned by the audits that succeeded.
    audit_totals: Vec<i64>,
    failed: usize,
}

impl ClientLog {
    fn submitted(&self) -> usize {
        self.transfers + self.async_transfers + self.audit_totals.len() + self.failed
    }
}

/// Spawns the client threads: each submits a seeded random stream of
/// transfers and audits drawn from `mix`, counting failures instead of
/// stopping on them, and pausing while the driver performs a crash.
fn spawn_clients(
    deployment: &dyn Deployment,
    world: &BankWorld,
    seed: u64,
    mix: Mix,
    stop: &Arc<AtomicBool>,
    pause: &Arc<AtomicBool>,
) -> Vec<thread::JoinHandle<ClientLog>> {
    (0..CLIENTS)
        .map(|c| {
            let session = deployment.session();
            let world = world.clone();
            let stop = Arc::clone(stop);
            let pause = Arc::clone(pause);
            thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ ((c as u64 + 1) << 32));
                let mut log = ClientLog::default();
                while log.submitted() < OPS_PER_CLIENT && !stop.load(Ordering::SeqCst) {
                    if pause.load(Ordering::SeqCst) {
                        thread::sleep(Duration::from_millis(2));
                        continue;
                    }
                    let b = rng.gen_range(0..world.branches.len());
                    let accounts = &world.accounts_of[b];
                    let from = accounts[rng.gen_range(0..accounts.len())];
                    let to = accounts[rng.gen_range(0..accounts.len())];
                    let amount = rng.gen_range(1..10i64);
                    // Errors are expected under fault injection (crashed
                    // members, in-flight migrations); the order-level check
                    // at the end is what matters there.
                    if rng.gen_range(0..mix.audit_one_in) == 0 {
                        match session
                            .submit_readonly_event(world.bank, "audit", args![])
                            .and_then(|h| h.wait())
                        {
                            Ok(total) => log
                                .audit_totals
                                .push(total.as_i64().expect("audit returns an integer")),
                            Err(_) => log.failed += 1,
                        }
                    } else {
                        // No draw without async transfers, so the chaos
                        // runs keep their seeded schedules.
                        let asynchronous =
                            mix.async_percent > 0 && rng.gen_range(0..100) < mix.async_percent;
                        let method = if asynchronous {
                            "transfer_async"
                        } else {
                            "transfer"
                        };
                        match session
                            .submit_event(world.branches[b], method, args![from, to, amount])
                            .and_then(|h| h.wait())
                        {
                            Ok(_) if asynchronous => log.async_transfers += 1,
                            Ok(_) => log.transfers += 1,
                            Err(_) => log.failed += 1,
                        }
                    }
                }
                log
            })
        })
        .collect()
}

/// Crashes one server and recovers the cluster from `checkpoint`: the lost
/// contexts are re-hosted from the checkpointed state (a `Null` state for
/// contexts the snapshot skipped), then the whole subtree is rewound to the
/// checkpoint so the recovered system is a consistent cut — which keeps the
/// conservation invariant intact for later snapshots.
fn crash_and_recover(cluster: &Cluster, checkpoint: &Snapshot, pause: &Arc<AtomicBool>) {
    pause.store(true, Ordering::SeqCst);
    // Clients are synchronous; once they observe the pause flag their last
    // event has completed, so this drain leaves (almost) nothing in flight.
    thread::sleep(Duration::from_millis(300));
    let servers = cluster.servers();
    if servers.len() < 2 {
        pause.store(false, Ordering::SeqCst);
        return;
    }
    // Never crash the server hosting the bank root's sequencer-bearing
    // subtree entry point is fine too, but picking the last server keeps
    // the choice deterministic.
    let victim = *servers.last().unwrap();
    let survivor = servers[0];
    let lost = cluster.contexts_on(victim);
    cluster.crash_server(victim).unwrap();
    for context in lost {
        let state = checkpoint
            .get(context)
            .map(|e| e.state.clone())
            .unwrap_or(Value::Null);
        cluster
            .restore_context(context, &state, survivor)
            .expect("re-hosting a checkpointed context succeeds");
    }
    cluster
        .restore_snapshot(checkpoint)
        .expect("rewinding to the checkpoint succeeds");
    // Scale back out so later migrations have somewhere to go.
    let _ = cluster.add_server();
    pause.store(false, Ordering::SeqCst);
}

/// One full chaos run; returns the recorded history.
fn run_chaos(seed: u64, torn: bool, transport: ClusterTransport) -> History {
    let cluster = Cluster::builder()
        .servers(3)
        .class_graph(bank_class_graph())
        .transport(transport)
        .torn_snapshot_for_tests(torn)
        .build()
        .unwrap();
    register_bank_factories(&cluster);
    let recorder = HistoryRecorder::new();
    cluster.install_history_sink(Arc::new(recorder.clone()));
    let config = chaos_config();
    let world = deploy_bank(&cluster, &config).unwrap();
    let expected = world.expected_total(&config);

    let stop = Arc::new(AtomicBool::new(false));
    let pause = Arc::new(AtomicBool::new(false));
    let clients = spawn_clients(&cluster, &world, seed, CHAOS_MIX, &stop, &pause);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut checkpoint: Option<Snapshot> = None;
    let mut crashed = false;
    while clients.iter().any(|c| !c.is_finished()) {
        thread::sleep(Duration::from_millis(20));
        let action = if torn { 0 } else { rng.gen_range(0..8) };
        match action {
            // Coordinated snapshot mid-load: in freeze mode the captured
            // cut must conserve the total balance — the crash-consistency
            // claim itself.  (Snapshots may fail transiently when they race
            // a migration; that is fine, consistency of successful cuts is
            // what is asserted.)
            0..=3 => {
                if let Ok(snapshot) = cluster.snapshot_context(world.bank) {
                    if !torn && !crashed {
                        assert_eq!(
                            captured_account_total(&snapshot),
                            expected,
                            "frozen snapshot cut is torn (seed {seed})"
                        );
                    }
                    checkpoint = Some(snapshot);
                }
            }
            // Rewind the live system to the last checkpoint mid-load.
            4 => {
                if let Some(snapshot) = &checkpoint {
                    let _ = cluster.restore_snapshot(snapshot);
                }
            }
            // Migrate a random account to a random server.
            5 | 6 => {
                let account = world.accounts[rng.gen_range(0..world.accounts.len())];
                let servers = cluster.servers();
                let target = servers[rng.gen_range(0..servers.len())];
                let _ = cluster.migrate_context(account, target);
            }
            // Crash a server once and recover it from the checkpoint.
            _ => {
                if !crashed {
                    if let Some(snapshot) = checkpoint.clone() {
                        crash_and_recover(&cluster, &snapshot, &pause);
                        crashed = true;
                    }
                }
            }
        }
    }
    stop.store(true, Ordering::SeqCst);
    let submitted: usize = clients
        .into_iter()
        .map(|c| c.join().unwrap().submitted())
        .sum();
    assert_eq!(submitted, CLIENTS * OPS_PER_CLIENT);
    cluster.shutdown();
    recorder.history()
}

#[test]
fn chaos_cluster_history_is_strictly_serializable() {
    let seed = chaos_seed();
    for round in 0..2u64 {
        let history = run_chaos(seed.wrapping_add(round), false, ClusterTransport::default());
        assert!(
            history.operation_count() >= 1_000,
            "expected a >=1k-op history, got {} (seed {seed}, round {round})",
            history.operation_count()
        );
        if let Err(violation) = check_strict_serializability(&history) {
            panic!("seed {seed} round {round}: {violation}");
        }
    }
}

/// The same chaos workload over the real wire path: every inter-server hop
/// crosses the TCP loopback transport, so the serializability guarantee the
/// static analyzer certifies at deploy time is exercised end to end on the
/// transport a production cluster would use.
#[test]
fn chaos_cluster_history_is_strictly_serializable_over_tcp_loopback() {
    let seed = chaos_seed().wrapping_add(0x7c9);
    let history = run_chaos(seed, false, ClusterTransport::TcpLoopback);
    assert!(
        history.operation_count() >= 1_000,
        "expected a >=1k-op history, got {} (seed {seed})",
        history.operation_count()
    );
    if let Err(violation) = check_strict_serializability(&history) {
        panic!("tcp-loopback seed {seed}: {violation}");
    }
}

// ---------------------------------------------------------------------------
// Fault-free bank runs on the runtime and the channel cluster
// ---------------------------------------------------------------------------

/// The live backends the fault-free bank runs cover.
const LIVE_BACKENDS: [Backend; 2] = [Backend::Runtime, Backend::Cluster];

/// A fresh four-server deployment of `backend` with the bank deployed,
/// each branch's exclusive subtree moved to its own server (shared
/// accounts stay put), and a recorder installed once setup is done.
fn deploy_recorded_bank(
    backend: Backend,
    config: &BankWorldConfig,
) -> (Box<dyn Deployment>, BankWorld, HistoryRecorder) {
    let deployment = aeon::deploy(DeployConfig {
        servers: 4,
        class_graph: Some(bank_class_graph()),
        ..DeployConfig::new(backend)
    })
    .unwrap();
    register_bank_factories(&*deployment);
    let world = deploy_bank(&*deployment, config).unwrap();
    let servers = deployment.servers();
    for (b, branch) in world.branches.iter().enumerate() {
        let server = servers[b % servers.len()];
        let exclusive = &world.accounts_of[b][..config.accounts_per_branch];
        for context in std::iter::once(branch).chain(exclusive) {
            deployment.migrate_context(*context, server).unwrap();
        }
    }
    let recorder = HistoryRecorder::new();
    deployment.install_history_sink(Arc::new(recorder.clone()));
    (deployment, world, recorder)
}

/// Runs the seeded clients with `mix` to completion, with no fault
/// injection, then asserts that no event failed, every audit and the final
/// audit saw the expected total, and the checker orders every recorded
/// event.  Returns the client logs.
fn run_fault_free_bank(
    backend: Backend,
    config: &BankWorldConfig,
    mix: Mix,
    seed: u64,
) -> Vec<ClientLog> {
    let (deployment, world, recorder) = deploy_recorded_bank(backend, config);
    let expected = world.expected_total(config);
    let stop = Arc::new(AtomicBool::new(false));
    let pause = Arc::new(AtomicBool::new(false));
    let logs: Vec<ClientLog> = spawn_clients(&*deployment, &world, seed, mix, &stop, &pause)
        .into_iter()
        .map(|c| c.join().unwrap())
        .collect();
    let history = recorder.history();
    let final_total = deployment
        .session()
        .call_readonly(world.bank, "audit", args![])
        .unwrap();
    deployment.shutdown();

    let label = format!("{backend} backend, seed {seed}");
    assert_eq!(logs.iter().map(|l| l.failed).sum::<usize>(), 0, "{label}");
    for log in &logs {
        assert_eq!(log.submitted(), OPS_PER_CLIENT, "{label}");
        for total in &log.audit_totals {
            assert_eq!(
                *total, expected,
                "{label}: an audit observed a torn transfer"
            );
        }
    }
    assert_eq!(
        final_total,
        Value::from(expected),
        "{label}: money is conserved"
    );
    match check_strict_serializability(&history) {
        Ok(order) => assert_eq!(
            order.order.len(),
            history.event_count(),
            "{label}: the serial order covers every recorded event"
        ),
        Err(violation) => panic!("{label}: {violation}"),
    }
    logs
}

#[test]
fn concurrent_bank_run_is_strictly_serializable_and_conserves_money() {
    let mix = Mix {
        audit_one_in: 7,
        async_percent: 40,
    };
    for backend in LIVE_BACKENDS {
        let logs = run_fault_free_bank(backend, &chaos_config(), mix, chaos_seed());
        assert!(logs
            .iter()
            .all(|l| l.transfers > 0 && l.async_transfers > 0));
        assert!(logs.iter().any(|l| !l.audit_totals.is_empty()));
    }
}

/// Without shared accounts every branch is its own dominator, so events on
/// different branches run fully in parallel; the checker must still find a
/// serial order.
#[test]
fn single_ownership_bank_is_also_serializable() {
    let config = BankWorldConfig {
        shared_pairs: 0,
        ..chaos_config()
    };
    let mix = Mix {
        audit_one_in: 9,
        async_percent: 20,
    };
    for backend in LIVE_BACKENDS {
        let logs = run_fault_free_bank(backend, &config, mix, chaos_seed() ^ 0x51);
        assert!(logs.iter().any(|l| l.async_transfers > 0));
    }
}

/// Audits running concurrently with transfers must never observe a
/// partially applied transfer: that would break the total the audit
/// returns *and* show up as a precedence cycle.
#[test]
fn deployment_audit_is_consistent_under_concurrent_transfers() {
    let mix = Mix {
        audit_one_in: 3,
        async_percent: 50,
    };
    for backend in LIVE_BACKENDS {
        let logs = run_fault_free_bank(backend, &chaos_config(), mix, chaos_seed() ^ 0xa0d);
        let audits: usize = logs.iter().map(|l| l.audit_totals.len()).sum();
        assert!(
            audits >= OPS_PER_CLIENT,
            "{backend}: only {audits} audits ran"
        );
        assert!(logs.iter().any(|l| l.async_transfers > 0));
    }
}

#[test]
fn concurrent_increments_on_one_register_never_lose_updates() {
    const THREADS: usize = 8;
    const INCREMENTS: usize = 50;
    let config = chaos_config();
    for backend in LIVE_BACKENDS {
        let (deployment, world, recorder) = deploy_recorded_bank(backend, &config);
        let account = world.accounts[0];
        thread::scope(|scope| {
            for _ in 0..THREADS {
                let session = deployment.session();
                scope.spawn(move || {
                    for _ in 0..INCREMENTS {
                        session.call(account, "add", args![1i64]).unwrap();
                    }
                });
            }
        });
        let history = recorder.history();
        let balance = deployment
            .session()
            .call_readonly(account, "read", args![])
            .unwrap();
        deployment.shutdown();
        let adds = (THREADS * INCREMENTS) as i64;
        assert_eq!(
            balance,
            Value::from(config.initial_balance + adds),
            "{backend}"
        );
        assert_eq!(history.operation_count() as i64, adds, "{backend}");
        assert_eq!(history.operations[&account].len() as i64, adds, "{backend}");
        check_strict_serializability(&history)
            .unwrap_or_else(|violation| panic!("{backend}: {violation}"));
    }
}

#[test]
fn torn_member_at_a_time_snapshot_is_caught_by_the_checker() {
    let seed = chaos_seed().wrapping_add(0x7021);
    for attempt in 0..3u64 {
        let history = run_chaos(
            seed.wrapping_add(attempt),
            true,
            ClusterTransport::default(),
        );
        if check_strict_serializability(&history).is_err() {
            return;
        }
    }
    panic!("the member-at-a-time snapshot mode was never caught by the checker");
}

/// Satellite regression: a snapshot whose member's owner node crashed
/// mid-freeze must fail with a clean error and leave no stranded locks on
/// the surviving members.
#[test]
fn crashed_member_mid_freeze_fails_cleanly_and_thaws_survivors() {
    let cluster = Cluster::builder()
        .servers(3)
        .class_graph(bank_class_graph())
        .build()
        .unwrap();
    register_bank_factories(&cluster);
    let config = BankWorldConfig {
        branches: 3,
        accounts_per_branch: 2,
        shared_pairs: 0,
        shared_accounts: 0,
        initial_balance: 50,
    };
    let world = deploy_bank(&cluster, &config).unwrap();
    // Ownership co-location puts the whole tree next to the root; spread a
    // couple of members so the freeze really spans servers.
    let root_server = cluster.placement_of(world.bank).unwrap();
    let victim = cluster
        .servers()
        .into_iter()
        .find(|s| *s != root_server)
        .unwrap();
    cluster.migrate_context(world.accounts[0], victim).unwrap();
    cluster.migrate_context(world.accounts[1], victim).unwrap();
    let lost = cluster.contexts_on(victim);
    assert!(!lost.is_empty());
    cluster.crash_server(victim).unwrap();

    let err = cluster.snapshot_context(world.bank).unwrap_err();
    assert!(
        matches!(err, AeonError::SnapshotFailed { context, .. } if context == world.bank),
        "expected a clean SnapshotFailed, got: {err}"
    );

    // No stranded locks: every surviving member still accepts events.
    let session = cluster.client();
    for account in &world.accounts {
        if cluster.placement_of(*account).unwrap() == victim {
            continue;
        }
        assert_eq!(
            session
                .submit_event(*account, "add", args![1i64])
                .unwrap()
                .wait()
                .unwrap(),
            Value::from(51i64),
            "surviving account {account} is still usable after the failed freeze"
        );
    }

    // After re-hosting the lost members, the coordinated snapshot succeeds
    // and sees every account.
    for context in lost {
        cluster
            .restore_context(context, &Value::Null, root_server)
            .unwrap();
    }
    let snapshot = cluster.snapshot_context(world.bank).unwrap();
    let accounts_captured = snapshot
        .entries()
        .filter(|(_, e)| e.class == "Account")
        .count();
    assert_eq!(accounts_captured, world.accounts.len());
    cluster.shutdown();
}

/// Drives transfers + certified read-only bursts while the main thread
/// takes coordinated snapshots, and returns the recorded history plus the
/// number of completed fast-path-eligible reads.
///
/// The certified fast path (`Account::read` is `ro` with a `calls []`
/// summary) skips dominator sequencing, so a burst of fast reads racing a
/// snapshot freeze is the adversarial case for the certification argument:
/// frozen cuts must still conserve the total balance and the full history
/// must stay strictly serializable.
fn fast_path_mid_snapshot_scenario(deployment: &dyn Deployment, seed: u64) -> (History, usize) {
    let recorder = HistoryRecorder::new();
    deployment.install_history_sink(Arc::new(recorder.clone()));
    let config = chaos_config();
    let world = deploy_bank(deployment, &config).unwrap();
    let expected = world.expected_total(&config);
    let stop = Arc::new(AtomicBool::new(false));

    let reads = thread::scope(|scope| {
        // Writers keep the accounts hot with conflicting transfers.
        let mut writers = Vec::new();
        for c in 0..2u64 {
            let session = deployment.session();
            let world = world.clone();
            let stop = Arc::clone(&stop);
            writers.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (c + 1));
                while !stop.load(Ordering::SeqCst) {
                    let b = rng.gen_range(0..world.branches.len());
                    let accounts = &world.accounts_of[b];
                    let from = accounts[rng.gen_range(0..accounts.len())];
                    let to = accounts[rng.gen_range(0..accounts.len())];
                    let _ = session
                        .submit_event(world.branches[b], "transfer", args![from, to, 1i64])
                        .and_then(|h| h.wait());
                }
            }));
        }
        // Readers hammer the certified read-only fast path.
        let mut readers = Vec::new();
        for c in 0..2u64 {
            let session = deployment.session();
            let world = world.clone();
            let stop = Arc::clone(&stop);
            readers.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ ((c + 1) << 16));
                let mut reads = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    let account = world.accounts[rng.gen_range(0..world.accounts.len())];
                    if session
                        .submit_readonly_event(account, "read", args![])
                        .and_then(|h| h.wait())
                        .is_ok()
                    {
                        reads += 1;
                    }
                }
                reads
            }));
        }
        // Coordinated snapshots mid-burst: every successful frozen cut must
        // conserve the total balance despite the unsequenced fast reads.
        let mut cuts = 0;
        while cuts < 6 {
            if let Ok(snapshot) = deployment.snapshot_context(world.bank) {
                assert_eq!(
                    captured_account_total(&snapshot),
                    expected,
                    "frozen cut torn under fast-path reads (seed {seed})"
                );
                cuts += 1;
            }
            thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::SeqCst);
        for writer in writers {
            writer.join().unwrap();
        }
        readers.into_iter().map(|r| r.join().unwrap()).sum()
    });
    (recorder.history(), reads)
}

#[test]
fn readonly_fast_path_burst_mid_snapshot_stays_strictly_serializable() {
    let seed = chaos_seed().wrapping_add(0x4e0);

    // Cluster leg (Channel transport): fast reads route as pre-sequenced
    // Exec messages straight to the target's server.
    let cluster = Cluster::builder()
        .servers(3)
        .class_graph(bank_class_graph())
        .build()
        .unwrap();
    register_bank_factories(&cluster);
    let (history, reads) = fast_path_mid_snapshot_scenario(&cluster, seed);
    assert!(
        cluster.fast_path_events() >= reads as u64,
        "every certified read takes the fast path ({} events, {reads} reads)",
        cluster.fast_path_events()
    );
    cluster.shutdown();
    assert!(history.operation_count() > 200);
    if let Err(violation) = check_strict_serializability(&history) {
        panic!("cluster fast-path burst, seed {seed}: {violation}");
    }

    // Runtime leg: fast reads run under a shared object lock without
    // dominator sequencing or exclusive activation.
    let runtime = AeonRuntime::builder()
        .servers(2)
        .class_graph(bank_class_graph())
        .build()
        .unwrap();
    let (history, reads) = fast_path_mid_snapshot_scenario(&runtime, seed ^ 0xa5);
    assert!(
        runtime.executor_stats().fast_path >= reads as u64,
        "every certified read takes the fast path ({} events, {reads} reads)",
        runtime.executor_stats().fast_path
    );
    runtime.shutdown();
    assert!(history.operation_count() > 200);
    if let Err(violation) = check_strict_serializability(&history) {
        panic!("runtime fast-path burst, seed {seed}: {violation}");
    }
}

// ---------------------------------------------------------------------------
// Hot-dominator migration under Zipfian load (the social workload)
// ---------------------------------------------------------------------------

/// Zipf-skewed social traffic hammers the celebrity users while the driver
/// live-migrates their dominators (regions, celebrities, celebrity feeds)
/// between servers.  Migration moves exactly the contexts whose sequencers
/// order most of the traffic, so any window where a sequencer's event
/// stream escapes its lock shows up as a precedence cycle.
fn run_social_migration_chaos(deployment: &dyn Deployment, seed: u64) -> History {
    use aeon_apps::social::{deploy_social, generate_plan, register_social_factories, SocialOp};

    register_social_factories(deployment);
    let recorder = HistoryRecorder::new();
    deployment.install_history_sink(Arc::new(recorder.clone()));
    let config = aeon_apps::SocialConfig {
        regions: 2,
        users: 24,
        chain_depth: 6,
        follows_per_user: 3,
        zipf_s: 1.3,
        feed_capacity: 8,
        seed,
    };
    let world = deploy_social(deployment, &config).unwrap();
    let plan = generate_plan(&config);
    let ops_per_client = 120usize;

    thread::scope(|scope| {
        let mut clients = Vec::new();
        for c in 0..CLIENTS {
            let session = deployment.session();
            let ops = plan.request_stream(ops_per_client, seed ^ ((c as u64 + 1) << 16));
            let world = &world;
            clients.push(scope.spawn(move || {
                let mut applied = 0usize;
                for op in &ops {
                    // Events racing a migration may fail transiently; the
                    // serializability of what *did* execute is the claim.
                    let outcome = match *op {
                        SocialOp::Post { user, payload } => {
                            session.call(world.users[user as usize], "post", args![payload])
                        }
                        SocialOp::Timeline { user } => {
                            session.call_readonly(world.users[user as usize], "timeline", args![])
                        }
                        SocialOp::FeedLen { user } => {
                            session.call_readonly(world.feeds[user as usize], "len", args![])
                        }
                    };
                    applied += usize::from(outcome.is_ok());
                }
                applied
            }));
        }

        // The chaos driver: keep migrating hot dominators while clients run.
        let hot = world.hot_dominators(4);
        let servers = deployment.servers();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut migrations = 0usize;
        while clients.iter().any(|c| !c.is_finished()) {
            thread::sleep(Duration::from_millis(5));
            let target = hot[rng.gen_range(0..hot.len())];
            let to = servers[rng.gen_range(0..servers.len())];
            migrations += usize::from(deployment.migrate_context(target, to).is_ok());
        }

        let applied: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
        assert!(
            applied >= CLIENTS * ops_per_client / 2,
            "too few events survived migration chaos: {applied}"
        );
        assert!(migrations > 0, "the driver never migrated a hot dominator");
    });
    recorder.history()
}

#[test]
fn social_hot_dominator_migration_is_strictly_serializable() {
    let seed = chaos_seed();

    let runtime = AeonRuntime::builder()
        .servers(3)
        .class_graph(aeon_apps::social::social_class_graph())
        .build()
        .unwrap();
    let history = run_social_migration_chaos(&runtime, seed);
    runtime.shutdown();
    assert!(
        history.operation_count() >= 500,
        "expected a >=500-op history, got {} (seed {seed})",
        history.operation_count()
    );
    if let Err(violation) = check_strict_serializability(&history) {
        panic!("runtime social migration chaos, seed {seed}: {violation}");
    }

    let cluster = Cluster::builder()
        .servers(3)
        .class_graph(aeon_apps::social::social_class_graph())
        .build()
        .unwrap();
    let history = run_social_migration_chaos(&cluster, seed ^ 0x50c1a1);
    cluster.shutdown();
    assert!(
        history.operation_count() >= 500,
        "expected a >=500-op history, got {} (seed {seed})",
        history.operation_count()
    );
    if let Err(violation) = check_strict_serializability(&history) {
        panic!("cluster social migration chaos, seed {seed}: {violation}");
    }
}

/// Backend sanity for the recording surface itself: the deterministic
/// simulator records serial histories by construction, and the recorder's
/// adapter sees snapshot captures as reads and restores as writes.
#[test]
fn sim_backend_records_serial_histories_with_snapshot_events() {
    let sim = SimDeployment::builder()
        .servers(2)
        .class_graph(bank_class_graph())
        .build()
        .unwrap();
    let recorder = HistoryRecorder::new();
    Deployment::install_history_sink(&sim, Arc::new(recorder.clone()));
    let config = chaos_config();
    let world = deploy_bank(&sim, &config).unwrap();
    let session = Deployment::session(&sim);
    for i in 0..20i64 {
        let b = (i as usize) % world.branches.len();
        let accounts = &world.accounts_of[b];
        session
            .call(
                world.branches[b],
                "transfer",
                args![accounts[0], accounts[1], 1i64],
            )
            .unwrap();
    }
    let snapshot = sim.snapshot_context(world.bank).unwrap();
    sim.restore_snapshot(&snapshot).unwrap();
    let history = recorder.history();
    assert!(history.operation_count() > 60);
    check_strict_serializability(&history).expect("the inline engine is serial by construction");
    sim.shutdown();
}
