//! Checking the paper's §4 claim on a live run: a concurrent bank-transfer
//! workload is recorded and its history is verified to be strictly
//! serializable, alongside the value-level invariant that money is
//! conserved.
//!
//! The bank is `aeon_apps::bank`, deployed through `aeon::deploy` on the
//! in-process runtime and on the message-passing cluster.  The application
//! is not instrumented: the recorder is installed as the deployment's
//! history sink, and the backend reports every event span and context
//! access to it.
//!
//! Run with `cargo run --example serializability_audit`.

use aeon::prelude::*;
use aeon_apps::bank::{bank_class_graph, deploy_bank, BankWorldConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::thread;

const CLIENTS: u64 = 6;
const OPS_PER_CLIENT: usize = 40;
/// Every `AUDIT_EVERY`-th operation of a client is a read-only audit.
const AUDIT_EVERY: usize = 8;
/// Share of transfers, in percent, whose deposit leg is `async`.
const ASYNC_PERCENT: u32 = 30;

fn audit(backend: Backend) -> Result<()> {
    let deployment = deploy(DeployConfig {
        servers: 4,
        class_graph: Some(bank_class_graph()),
        ..DeployConfig::new(backend)
    })?;
    let config = BankWorldConfig {
        branches: 4,
        accounts_per_branch: 3,
        shared_pairs: 3, // multi-ownership: every neighbouring pair shares
        shared_accounts: 1,
        initial_balance: 100,
    };
    let world = deploy_bank(&*deployment, &config)?;
    let recorder = HistoryRecorder::new();
    deployment.install_history_sink(Arc::new(recorder.clone()));

    // Each client returns (transfers, audits) that completed.
    let counts = thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let session = deployment.session();
                let world = &world;
                scope.spawn(move || -> Result<(u64, u64)> {
                    let mut rng = StdRng::seed_from_u64(42 + c);
                    let (mut transfers, mut audits) = (0, 0);
                    for op in 0..OPS_PER_CLIENT {
                        if op % AUDIT_EVERY == 0 {
                            session.call_readonly(world.bank, "audit", args![])?;
                            audits += 1;
                            continue;
                        }
                        let b = rng.gen_range(0..world.branches.len());
                        let accounts = &world.accounts_of[b];
                        let from = accounts[rng.gen_range(0..accounts.len())];
                        let to = accounts[rng.gen_range(0..accounts.len())];
                        let method = if rng.gen_range(0..100) < ASYNC_PERCENT {
                            "transfer_async"
                        } else {
                            "transfer"
                        };
                        let amount = rng.gen_range(1..20i64);
                        session.call(world.branches[b], method, args![from, to, amount])?;
                        transfers += 1;
                    }
                    Ok((transfers, audits))
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>>>()
    })?;
    let history = recorder.history();
    let final_total = deployment
        .session()
        .call_readonly(world.bank, "audit", args![])?;
    deployment.shutdown();

    let expected_total = world.expected_total(&config);
    println!("[{backend}]");
    println!(
        "transfers executed : {}",
        counts.iter().map(|c| c.0).sum::<u64>()
    );
    println!(
        "read-only audits   : {}",
        counts.iter().map(|c| c.1).sum::<u64>()
    );
    println!("events recorded    : {}", history.event_count());
    println!("operations recorded: {}", history.operation_count());
    println!("expected total     : {expected_total}");
    println!("observed total     : {final_total}");
    let serializability = check_strict_serializability(&history);
    match &serializability {
        Ok(order) => println!(
            "strictly serializable: yes (equivalent serial order over {} events)",
            order.order.len()
        ),
        Err(violation) => println!("strictly serializable: NO — {violation}"),
    }
    assert!(
        serializability.is_ok() && final_total == Value::from(expected_total),
        "the {backend} backend must produce correct executions"
    );
    Ok(())
}

fn main() -> Result<()> {
    audit(Backend::Runtime)?;
    audit(Backend::Cluster)
}
