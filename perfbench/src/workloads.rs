//! The three workloads: deployment, load shape and output checks.
//!
//! Each reuses the `aeon_apps` deployer and generator of its application
//! and drives it through the public `Deployment` / `Session` API.  Every
//! input (social graph, request streams, target sequences) is drawn from
//! the run's seed.

use crate::layers::Backend;
use crate::measure::{closed_loop, open_loop, LoopOutcome, Op, Phase, Tracer};
use aeon_api::{ContextObject, Deployment};
use aeon_apps::bank::{
    bank_class_graph, deploy_bank, register_bank_factories, BankWorld, BankWorldConfig,
};
use aeon_apps::game::{deploy_game, game_class_graph, GameWorld, Player, Room};
use aeon_apps::social::{deploy_social, social_class_graph, SocialConfig, SocialOp, SocialWorld};
use aeon_cluster::{Cluster, ClusterTransport};
use aeon_ownership::ClassGraph;
use aeon_runtime::{AeonRuntime, KvContext};
use aeon_types::{args, AeonError, ContextId, Result, ServerId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Servers of every deployment.
const SERVERS: usize = 4;
/// Outstanding requests of the closed-loop client.
const WINDOW: usize = 32;

/// One call of `migrate_context`.
pub struct Migration {
    pub ns: u64,
    pub bytes: u64,
    pub error: Option<String>,
}

/// What one load phase of a workload produced.
pub struct Driven {
    /// The requests whose latency and completion rate are reported.
    pub load: LoopOutcome,
    /// For a workload whose `load` is an open loop, whose completion rate is
    /// the offered rate whatever the program does: a closed loop over the
    /// same request mix, whose completion rate is the program's capacity.
    pub capacity: Option<LoopOutcome>,
    pub migrations: Vec<Migration>,
}

impl Driven {
    /// The closed-loop phase, whose completion rate moves with the cost of
    /// a request.
    pub fn closed_phase(&self) -> &LoopOutcome {
        self.capacity.as_ref().unwrap_or(&self.load)
    }

    /// Both request phases.
    pub fn phases(&self) -> impl Iterator<Item = &LoopOutcome> {
        std::iter::once(&self.load).chain(&self.capacity)
    }
}

/// The outcome of one output check.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    fn new(name: &'static str, ok: bool, detail: String) -> Self {
        Self { name, ok, detail }
    }
}

pub trait Workload: Sync {
    type World: Sync;
    /// What the replies tell the output checks, accumulated over all phases.
    type Tally: Default + Send;

    fn classes(&self) -> ClassGraph;
    /// Starts the backend (including the analyzer's enforcement pass).
    fn build(&self) -> Result<Backend>;
    fn deploy(&self, backend: &Backend) -> Result<Self::World>;
    /// Brings the deployment to its measured shape: spreads contexts over
    /// the servers, or fills caches the requests rely on.
    fn warm(&self, backend: &Backend, world: &Self::World) -> Result<()>;
    /// Runs one load phase on request stream `stream` of the run.
    fn drive(
        &self,
        backend: &Backend,
        world: &Self::World,
        phase: &Phase<'_>,
        stream: u64,
        tally: &mut Self::Tally,
    ) -> Driven;
    fn check(
        &self,
        backend: &Backend,
        world: &Self::World,
        tally: &Self::Tally,
    ) -> Result<Vec<Check>>;
    /// Contexts whose dominators requests resolve.
    fn targets(&self, world: &Self::World) -> Vec<ContextId>;
    /// A typical request and its reply, for the wire-codec timing.
    fn typical(&self, world: &Self::World) -> (Op, Value);
}

/// Seed of request stream `stream` of a run seeded with `seed`.
fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream)
}

/// Moves every context of `members` to `server`.
fn move_all(deployment: &dyn Deployment, members: &[ContextId], server: ServerId) -> Result<()> {
    for context in members {
        deployment.migrate_context(*context, server)?;
    }
    Ok(())
}

fn reply_i64(reply: &Result<Value>) -> Option<i64> {
    reply.as_ref().ok().and_then(Value::as_i64)
}

// ---------------------------------------------------------------------------
// game-cluster
// ---------------------------------------------------------------------------

/// The §6.2 game on a 4-server TCP-loopback cluster, one room subtree per
/// server, closed loop of 90% `Player::get_gold` and 10% `Room::nr_players`.
pub struct GameCluster {
    pub seed: u64,
}

const ROOMS: usize = 8;
const PLAYERS_PER_ROOM: usize = 4;
const MINE_GOLD: i64 = 1_000_000;
const READ_TAG: u32 = 1 << 31;

pub struct GameState {
    game: GameWorld,
    /// Players and their mines, flattened in room order.
    players: Vec<ContextId>,
    mines: Vec<ContextId>,
}

#[derive(Default)]
pub struct GameTally {
    /// Acknowledged `get_gold` successes per player.
    gold: Vec<u64>,
    /// `nr_players` replies other than the room's player count.
    bad_reads: u64,
}

fn register_game_factories(deployment: &dyn Deployment) {
    deployment.register_class_factory(
        "Room",
        Arc::new(|state: &Value| {
            let mut room = Room::default();
            ContextObject::restore(&mut room, state);
            Box::new(room) as Box<dyn ContextObject>
        }),
    );
    deployment.register_class_factory(
        "Player",
        Arc::new(|state: &Value| {
            let mut player = Player::default();
            ContextObject::restore(&mut player, state);
            Box::new(player) as Box<dyn ContextObject>
        }),
    );
    deployment.register_class_factory(
        "Item",
        Arc::new(|state: &Value| {
            let mut item = KvContext::new("Item");
            ContextObject::restore(&mut item, state);
            Box::new(item) as Box<dyn ContextObject>
        }),
    );
}

impl Workload for GameCluster {
    type World = GameState;
    type Tally = GameTally;

    fn classes(&self) -> ClassGraph {
        game_class_graph()
    }

    fn build(&self) -> Result<Backend> {
        Ok(Backend::Cluster(
            Cluster::builder()
                .servers(SERVERS)
                .transport(ClusterTransport::TcpLoopback)
                .class_graph(game_class_graph())
                .build()?,
        ))
    }

    fn deploy(&self, backend: &Backend) -> Result<GameState> {
        let d = backend.deployment();
        register_game_factories(d);
        let game = deploy_game(d, ROOMS, PLAYERS_PER_ROOM)?;
        let graph = d.ownership_graph();
        let players: Vec<ContextId> = game.players.iter().flatten().copied().collect();
        let mut mines = Vec::with_capacity(players.len());
        for (room, room_players) in game.players.iter().enumerate() {
            for player in room_players {
                // A player owns its private mine and its room's shared treasure.
                let mine = graph
                    .children(*player)?
                    .iter()
                    .copied()
                    .find(|c| *c != game.treasures[room])
                    .ok_or_else(|| AeonError::app("player without a mine"))?;
                mines.push(mine);
            }
        }
        Ok(GameState {
            game,
            players,
            mines,
        })
    }

    /// `deploy_game` places every context next to the building; moving room
    /// `i`'s subtree to server `i mod 4` gives the topology the config names.
    fn warm(&self, backend: &Backend, world: &GameState) -> Result<()> {
        let d = backend.deployment();
        let servers = d.servers();
        for (i, room) in world.game.rooms.iter().enumerate() {
            let mut members = vec![*room, world.game.treasures[i]];
            let first = i * PLAYERS_PER_ROOM;
            members.extend_from_slice(&world.players[first..first + PLAYERS_PER_ROOM]);
            members.extend_from_slice(&world.mines[first..first + PLAYERS_PER_ROOM]);
            move_all(d, &members, servers[i % servers.len()])?;
        }
        Ok(())
    }

    fn drive(
        &self,
        backend: &Backend,
        world: &GameState,
        phase: &Phase<'_>,
        stream: u64,
        tally: &mut GameTally,
    ) -> Driven {
        tally.gold.resize(world.players.len(), 0);
        let session = backend.deployment().session();
        let mut rng = StdRng::seed_from_u64(stream_seed(self.seed, stream));
        let next = || {
            if rng.gen_range(0..10u32) == 0 {
                let room = rng.gen_range(0..ROOMS);
                Op {
                    target: world.game.rooms[room],
                    class: "Room",
                    method: "nr_players",
                    args: args![],
                    read: true,
                    tag: READ_TAG | room as u32,
                }
            } else {
                let player = rng.gen_range(0..world.players.len());
                Op {
                    target: world.players[player],
                    class: "Player",
                    method: "get_gold",
                    args: args![1i64],
                    read: false,
                    tag: player as u32,
                }
            }
        };
        let on_reply = |tag: u32, reply: &Result<Value>| {
            if tag & READ_TAG != 0 {
                if reply_i64(reply).is_some_and(|n| n != PLAYERS_PER_ROOM as i64) {
                    tally.bad_reads += 1;
                }
            } else if matches!(reply, Ok(Value::Bool(true))) {
                tally.gold[tag as usize] += 1;
            }
        };
        Driven {
            load: closed_loop(session.as_ref(), WINDOW, phase, next, on_reply),
            capacity: None,
            migrations: Vec::new(),
        }
    }

    fn check(&self, backend: &Backend, world: &GameState, tally: &GameTally) -> Result<Vec<Check>> {
        let session = backend.deployment().session();
        let gold = |item: ContextId| -> Result<i64> {
            session
                .call_readonly(item, "get", args!["gold"])?
                .as_i64()
                .ok_or_else(|| AeonError::app("gold is not an integer"))
        };
        let mut treasures_ok = true;
        let mut mines_ok = true;
        let mut acknowledged = 0;
        for (room, treasure) in world.game.treasures.iter().enumerate() {
            let first = room * PLAYERS_PER_ROOM;
            let successes: u64 = tally.gold[first..first + PLAYERS_PER_ROOM].iter().sum();
            acknowledged += successes;
            treasures_ok &= gold(*treasure)? == successes as i64;
        }
        for (i, mine) in world.mines.iter().enumerate() {
            mines_ok &= gold(*mine)? + tally.gold[i] as i64 == MINE_GOLD;
        }
        Ok(vec![
            Check::new(
                "game.treasures",
                treasures_ok,
                format!("each treasure holds its room's acknowledged get_gold successes ({acknowledged} in all)"),
            ),
            Check::new(
                "game.mines",
                mines_ok,
                format!("each mine plus its player's successes equals {MINE_GOLD}"),
            ),
            Check::new(
                "game.nr_players",
                tally.bad_reads == 0,
                format!("{} nr_players replies differ from {PLAYERS_PER_ROOM}", tally.bad_reads),
            ),
        ])
    }

    fn targets(&self, world: &GameState) -> Vec<ContextId> {
        let mut targets = world.players.clone();
        targets.extend_from_slice(&world.game.rooms);
        targets
    }

    fn typical(&self, world: &GameState) -> (Op, Value) {
        let op = Op {
            target: world.players[0],
            class: "Player",
            method: "get_gold",
            args: args![1i64],
            read: false,
            tag: 0,
        };
        (op, Value::Bool(true))
    }
}

// ---------------------------------------------------------------------------
// social-zipf
// ---------------------------------------------------------------------------

/// The Region/User/Feed graph on the in-process runtime over
/// `request_stream`'s 60% post / 30% timeline / 10% len: the first half of
/// a phase is an open loop at a fixed rate, the second a closed loop of the
/// same mix that measures capacity.
pub struct SocialZipf {
    pub seed: u64,
}

/// Offered load of the open loop (requests per second), frozen when the
/// benchmark was defined.  A closed loop of 32 outstanding requests
/// completed 117k-136k requests/s on a 2-core host, but at a third of that
/// the open loop (whose sender and reply threads share the cores) fell
/// behind in one run of four and built a backlog of hundreds of
/// milliseconds; this rate keeps clear of that edge.
const SOCIAL_RATE: f64 = 10_000.0;
const SOCIAL_USERS: usize = 240;
const FEED_CAPACITY: usize = 8;
const POST_TAG: u32 = 1 << 30;
const LEN_TAG: u32 = 1 << 29;
/// Requests the closed loop draws from `request_stream` at a time.
const SOCIAL_CHUNK: usize = 1 << 16;
/// Offset of the closed-loop streams from the open-loop ones.
const CAPACITY_STREAMS: u64 = 1 << 32;

#[derive(Default)]
pub struct SocialTally {
    posts: u64,
    /// `post` / `len` replies above the feed capacity.
    overfull: u64,
}

impl SocialTally {
    fn record(&mut self, tag: u32, reply: &Result<Value>) {
        if tag & (POST_TAG | LEN_TAG) != 0
            && reply_i64(reply).is_some_and(|n| n > FEED_CAPACITY as i64)
        {
            self.overfull += 1;
        }
        if tag & POST_TAG != 0 && reply.is_ok() {
            self.posts += 1;
        }
    }
}

impl SocialZipf {
    fn config(&self) -> SocialConfig {
        SocialConfig {
            regions: SERVERS,
            users: SOCIAL_USERS,
            chain_depth: 8,
            follows_per_user: 5,
            zipf_s: 1.1,
            feed_capacity: FEED_CAPACITY,
            seed: self.seed,
        }
    }

    fn runtime(backend: &Backend) -> &AeonRuntime {
        match backend {
            Backend::Runtime(r) => r,
            Backend::Cluster(_) => unreachable!("social-zipf runs on the runtime"),
        }
    }
}

fn social_op(world: &SocialWorld, op: SocialOp) -> Op {
    match op {
        SocialOp::Post { user, payload } => Op {
            target: world.users[user as usize],
            class: "User",
            method: "post",
            args: args![payload],
            read: false,
            tag: POST_TAG,
        },
        SocialOp::Timeline { user } => Op {
            target: world.users[user as usize],
            class: "User",
            method: "timeline",
            args: args![],
            read: true,
            tag: 0,
        },
        SocialOp::FeedLen { user } => Op {
            target: world.feeds[user as usize],
            class: "Feed",
            method: "len",
            args: args![],
            read: true,
            tag: LEN_TAG,
        },
    }
}

impl Workload for SocialZipf {
    type World = SocialWorld;
    type Tally = SocialTally;

    fn classes(&self) -> ClassGraph {
        social_class_graph()
    }

    fn build(&self) -> Result<Backend> {
        Ok(Backend::Runtime(
            AeonRuntime::builder()
                .servers(SERVERS)
                .class_graph(social_class_graph())
                .build()?,
        ))
    }

    fn deploy(&self, backend: &Backend) -> Result<SocialWorld> {
        deploy_social(backend.deployment(), &self.config())
    }

    /// Resolves every request target's dominator once, filling the
    /// runtime's dominator cache before the first measured request.
    fn warm(&self, backend: &Backend, world: &SocialWorld) -> Result<()> {
        let runtime = Self::runtime(backend);
        for target in world.users.iter().chain(&world.feeds) {
            runtime.dominator_of(*target)?;
        }
        Ok(())
    }

    fn drive(
        &self,
        backend: &Backend,
        world: &SocialWorld,
        phase: &Phase<'_>,
        stream: u64,
        tally: &mut SocialTally,
    ) -> Driven {
        let session = backend.deployment().session();
        let half = Phase {
            length: phase.length / 2,
            ..*phase
        };
        let events = (SOCIAL_RATE * half.length.as_secs_f64()).ceil() as usize + 1;
        let requests = world
            .plan
            .request_stream(events, stream_seed(self.seed, stream));
        let ops = requests.into_iter().map(|op| social_op(world, op));
        let load = open_loop(session.as_ref(), SOCIAL_RATE, &half, ops, |tag, reply| {
            tally.record(tag, reply)
        });
        // The closed loop needs as many requests as the program completes,
        // so it draws them from seeded chunks of the stream as it goes.
        let mut chunks = StdRng::seed_from_u64(stream_seed(self.seed, CAPACITY_STREAMS + stream));
        let mut pending = Vec::new().into_iter();
        let next = || loop {
            if let Some(op) = pending.next() {
                return social_op(world, op);
            }
            pending = world
                .plan
                .request_stream(SOCIAL_CHUNK, chunks.gen())
                .into_iter();
        };
        let capacity = closed_loop(session.as_ref(), WINDOW, &half, next, |tag, reply| {
            tally.record(tag, reply)
        });
        Driven {
            load,
            capacity: Some(capacity),
            migrations: Vec::new(),
        }
    }

    fn check(
        &self,
        backend: &Backend,
        world: &SocialWorld,
        tally: &SocialTally,
    ) -> Result<Vec<Check>> {
        let session = backend.deployment().session();
        let mut posts = 0i64;
        for user in &world.users {
            posts += session
                .call_readonly(*user, "post_count", args![])?
                .as_i64()
                .ok_or_else(|| AeonError::app("post_count is not an integer"))?;
        }
        let mut longest = 0i64;
        for feed in &world.feeds {
            longest = longest.max(
                session
                    .call_readonly(*feed, "len", args![])?
                    .as_i64()
                    .ok_or_else(|| AeonError::app("len is not an integer"))?,
            );
        }
        Ok(vec![
            Check::new(
                "social.post_count",
                posts == tally.posts as i64,
                format!(
                    "sum of post_count {posts} equals {} acknowledged posts",
                    tally.posts
                ),
            ),
            Check::new(
                "social.feed_capacity",
                longest <= FEED_CAPACITY as i64 && tally.overfull == 0,
                format!(
                    "longest feed {longest}, {} replies above capacity {FEED_CAPACITY}",
                    tally.overfull
                ),
            ),
        ])
    }

    fn targets(&self, world: &SocialWorld) -> Vec<ContextId> {
        world.users.iter().chain(&world.feeds).copied().collect()
    }

    fn typical(&self, world: &SocialWorld) -> (Op, Value) {
        let op = social_op(
            world,
            SocialOp::Post {
                user: 0,
                payload: 1 << 20,
            },
        );
        (op, Value::from(FEED_CAPACITY as i64))
    }
}

// ---------------------------------------------------------------------------
// bank-migrate
// ---------------------------------------------------------------------------

/// `deploy_bank` on a 4-server channel cluster, closed loop of
/// `Branch::transfer`, with a second thread migrating one account every
/// ~50 ms.
pub struct BankMigrate {
    pub seed: u64,
}

const MIGRATE_EVERY: Duration = Duration::from_millis(50);
/// Offset of the migration target streams from the request streams.
const MIGRATION_STREAMS: u64 = 1 << 16;

impl BankMigrate {
    fn config() -> BankWorldConfig {
        BankWorldConfig {
            branches: 8,
            accounts_per_branch: 16,
            shared_pairs: 4,
            shared_accounts: 2,
            initial_balance: 1_000,
        }
    }
}

/// Migrates one account every [`MIGRATE_EVERY`] until `stop` is set, to the
/// servers in round-robin order (skipping the account's current one).
fn migrator(
    deployment: &dyn Deployment,
    accounts: &[ContextId],
    seed: u64,
    tracer: &Tracer,
    stop: &AtomicBool,
) -> Vec<Migration> {
    let servers = deployment.servers();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut turn = 0usize;
    let mut done = Vec::new();
    let root = tracer.next_id();
    let started = tracer.now();
    while !stop.load(Ordering::Relaxed) {
        let account = accounts[rng.gen_range(0..accounts.len())];
        let current = deployment.placement_of(account).ok();
        turn += 1;
        let mut to = servers[turn % servers.len()];
        if Some(to) == current {
            turn += 1;
            to = servers[turn % servers.len()];
        }
        let start = tracer.now();
        let result = deployment.migrate_context(account, to);
        let end = tracer.now();
        let bytes = *result.as_ref().unwrap_or(&0);
        tracer.record("migrate", root, 0, start, end, bytes);
        done.push(Migration {
            ns: end - start,
            bytes,
            error: result.err().map(|e| e.to_string()),
        });
        std::thread::sleep(MIGRATE_EVERY);
    }
    tracer.record_with_id(
        root,
        "migrator",
        0,
        0,
        started,
        tracer.now(),
        done.len() as u64,
    );
    done
}

impl Workload for BankMigrate {
    type World = BankWorld;
    type Tally = ();

    fn classes(&self) -> ClassGraph {
        bank_class_graph()
    }

    fn build(&self) -> Result<Backend> {
        Ok(Backend::Cluster(
            Cluster::builder()
                .servers(SERVERS)
                .class_graph(bank_class_graph())
                .build()?,
        ))
    }

    fn deploy(&self, backend: &Backend) -> Result<BankWorld> {
        register_bank_factories(backend.deployment());
        deploy_bank(backend.deployment(), &Self::config())
    }

    /// `deploy_bank` places the whole bank on one server; branch `i` and the
    /// accounts it owns first move to server `i mod 4`.
    fn warm(&self, backend: &Backend, world: &BankWorld) -> Result<()> {
        let d = backend.deployment();
        let servers = d.servers();
        let mut placed = std::collections::BTreeSet::new();
        for (i, branch) in world.branches.iter().enumerate() {
            let mut members = vec![*branch];
            members.extend(world.accounts_of[i].iter().filter(|a| placed.insert(**a)));
            move_all(d, &members, servers[i % servers.len()])?;
        }
        Ok(())
    }

    fn drive(
        &self,
        backend: &Backend,
        world: &BankWorld,
        phase: &Phase<'_>,
        stream: u64,
        _tally: &mut (),
    ) -> Driven {
        let d = backend.deployment();
        let session = d.session();
        let mut rng = StdRng::seed_from_u64(stream_seed(self.seed, stream));
        let next = || {
            let branch = rng.gen_range(0..world.branches.len());
            let accounts = &world.accounts_of[branch];
            let from = rng.gen_range(0..accounts.len());
            let to = (from + rng.gen_range(1..accounts.len())) % accounts.len();
            Op {
                target: world.branches[branch],
                class: "Branch",
                method: "transfer",
                args: args![accounts[from], accounts[to], rng.gen_range(1..10i64)],
                read: false,
                tag: 0,
            }
        };
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let migrations = scope.spawn(|| {
                migrator(
                    d,
                    &world.accounts,
                    stream_seed(self.seed, MIGRATION_STREAMS + stream),
                    phase.tracer,
                    &stop,
                )
            });
            let load = closed_loop(session.as_ref(), WINDOW, phase, next, |_, _| {});
            stop.store(true, Ordering::Relaxed);
            Driven {
                load,
                capacity: None,
                migrations: migrations.join().expect("migrator does not panic"),
            }
        })
    }

    fn check(&self, backend: &Backend, world: &BankWorld, _tally: &()) -> Result<Vec<Check>> {
        let session = backend.deployment().session();
        let audit = session
            .call_readonly(world.bank, "audit", args![])?
            .as_i64()
            .ok_or_else(|| AeonError::app("audit is not an integer"))?;
        let expected = world.expected_total(&Self::config());
        Ok(vec![Check::new(
            "bank.audit",
            audit == expected,
            format!("Bank::audit {audit} equals expected total {expected}"),
        )])
    }

    fn targets(&self, world: &BankWorld) -> Vec<ContextId> {
        world.branches.clone()
    }

    fn typical(&self, world: &BankWorld) -> (Op, Value) {
        let accounts = &world.accounts_of[0];
        let op = Op {
            target: world.branches[0],
            class: "Branch",
            method: "transfer",
            args: args![accounts[0], accounts[1], 5i64],
            read: false,
            tag: 0,
        };
        (op, Value::Null)
    }
}
