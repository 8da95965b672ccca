//! Scheduler conformance suite: the micro-shard scheduler, driven
//! through adversarial completion orders (heterogeneous worker delays,
//! tiny chunks, a 2 ms steal deadline), must stay **bit-identical** to
//! the single-process search under kill/restart, across accel, joint
//! (whole-candidate and `joint_unit` shards) and pareto modes.
//! Scheduling may only change wall time and counters, never one bit of
//! the trajectory.

use naas::service::{BatchEvalService, ServiceConfig, ServiceServer};
use naas::{
    accel_search_init, AccelSearchConfig, CoSearchEngine, DistributedCoordinator,
    MappingSearchConfig,
};
use naas_cost::CostModel;
use naas_engine::scenario;
use naas_ir::Network;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

/// Spawns an in-process TCP worker — the exact serving stack behind
/// `naas-search worker` — with an injected per-candidate evaluation
/// delay (microseconds, serialized), and returns its address.
fn spawn_worker(threads: usize, eval_delay_us: u64) -> SocketAddr {
    let service = BatchEvalService::new(ServiceConfig {
        threads,
        mapping: MappingSearchConfig::quick(7),
        eval_delay_us,
    })
    .expect("no cache file to load");
    let server = Arc::new(ServiceServer::start(Arc::new(service)));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let _ = server.serve_listener(listener);
    });
    addr
}

/// A worker that answers `fail_after` requests, then "crashes" (drops
/// its listener and every connection mid-call) and is immediately
/// "restarted": a fresh serving stack — cold cache, new process state —
/// rebinds the same address and serves indefinitely.
fn spawn_restartable_worker(fail_after: usize) -> SocketAddr {
    let service = BatchEvalService::new(ServiceConfig {
        threads: 1,
        mapping: MappingSearchConfig::quick(7),
        eval_delay_us: 0,
    })
    .expect("no cache file to load");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut answered = 0usize;
        'crash: for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let mut reader = BufReader::new(match stream.try_clone() {
                Ok(clone) => clone,
                Err(_) => break,
            });
            let mut writer = stream;
            loop {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                if answered >= fail_after {
                    break 'crash;
                }
                answered += 1;
                let response = service.respond(line.trim_end());
                if writeln!(writer, "{response}")
                    .and_then(|_| writer.flush())
                    .is_err()
                {
                    break;
                }
            }
        }
        drop(listener);
        drop(service);
        let listener = loop {
            match TcpListener::bind(addr) {
                Ok(listener) => break listener,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        };
        let fresh = BatchEvalService::new(ServiceConfig {
            threads: 1,
            mapping: MappingSearchConfig::quick(7),
            eval_delay_us: 0,
        })
        .expect("no cache file to load");
        let server = Arc::new(ServiceServer::start(Arc::new(fresh)));
        let _ = server.serve_listener(listener);
    });
    addr
}

fn scenario_fixture() -> (naas_engine::Scenario, Vec<Network>) {
    let scenario = scenario::find("cifar-eyeriss").expect("registered scenario");
    let job = scenario.resolve().expect("scenario resolves");
    (scenario, job.networks)
}

fn search_cfg(seed: u64) -> AccelSearchConfig {
    let mut cfg = AccelSearchConfig::quick(seed);
    cfg.mapping = MappingSearchConfig::quick(7);
    cfg.threads = 1;
    cfg
}

/// Runs the search to completion and returns the *full* final state —
/// the RNG-equivalence currency: two states are `==` only if the
/// optimizer distributions, decoded populations, histories, archives
/// and iteration counters all match, i.e. the RNG streams were
/// consumed identically. `cache_stats` is zeroed first: re-issued
/// duplicate shards legitimately count their memo lookups twice, and
/// the paper's invariant is about the trajectory, not the memo hit
/// rate.
fn run_local_state(cfg: &AccelSearchConfig, networks: &[Network]) -> naas::AccelSearchState {
    let scenario = scenario::find("cifar-eyeriss").unwrap();
    let job = scenario.resolve().unwrap();
    let engine = CoSearchEngine::new(cfg.threads);
    let model = CostModel::new();
    let mut state = accel_search_init(&job.constraint, cfg, &[]);
    while naas::accel_search_step(&engine, &model, networks, &mut state) {}
    state.cache_stats = Default::default();
    state
}

/// [`run_local_state`] over a coordinator.
fn run_distributed_state(
    cfg: &AccelSearchConfig,
    networks: &[Network],
    coordinator: &mut DistributedCoordinator,
) -> naas::AccelSearchState {
    let scenario = scenario::find("cifar-eyeriss").unwrap();
    let job = scenario.resolve().unwrap();
    let engine = CoSearchEngine::new(cfg.threads);
    let model = CostModel::new();
    let mut state = accel_search_init(&job.constraint, cfg, &[]);
    while coordinator.step(&engine, &model, networks, &mut state) {}
    state.cache_stats = Default::default();
    state
}

/// Connects a coordinator over `addrs` with the aggressive scheduling
/// the conformance suite uses to force adversarial interleavings (tiny
/// chunks, 2 ms steal deadline).
fn adversarial_coordinator(
    addrs: &[String],
    scenario: &naas_engine::Scenario,
) -> DistributedCoordinator {
    let mut coordinator =
        DistributedCoordinator::connect(addrs, scenario).expect("fleet reachable");
    coordinator.set_microshards(5);
    coordinator.set_steal_deadline(std::time::Duration::from_millis(2));
    coordinator
}

/// Permutation-fuzzed bit-identity: heterogeneous per-worker delays
/// drive the scheduler through adversarial completion orders — queue
/// self-scheduling, steals, speculative re-issue — across seeds, and
/// the *full final state* must equal the single-process one in every
/// ordering. Equal states mean equal RNG streams.
#[test]
fn overlap_search_is_bit_identical_across_adversarial_orders() {
    let (scenario, networks) = scenario_fixture();
    for (seed, delays) in [
        (211u64, [0u64, 2_000]),
        (223, [2_000, 0]),
        (227, [900, 300]),
    ] {
        let cfg = search_cfg(seed);
        let local = run_local_state(&cfg, &networks);

        let addrs = vec![
            spawn_worker(1, delays[0]).to_string(),
            spawn_worker(1, delays[1]).to_string(),
        ];
        let mut coordinator = adversarial_coordinator(&addrs, &scenario);
        let distributed = run_distributed_state(&cfg, &networks, &mut coordinator);

        assert_eq!(
            distributed, local,
            "seed {seed}, delays {delays:?}: scheduling must not change one bit of the state"
        );
    }
}

/// A 20 ms/candidate straggler next to an idle fast worker: the
/// micro-shard barrier must match the single-process state, and the
/// fast worker must actually speculate — re-issue the straggler's
/// overdue shards past the steal deadline — so the first-answer-wins
/// path is exercised, not vacuously skipped.
#[test]
fn overlap_against_a_straggler_matches_barrier_and_actually_speculates() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(229);
    let local = run_local_state(&cfg, &networks);

    let addrs = vec![
        spawn_worker(1, 20_000).to_string(),
        spawn_worker(1, 0).to_string(),
    ];
    let mut coordinator = adversarial_coordinator(&addrs, &scenario);
    let distributed = run_distributed_state(&cfg, &networks, &mut coordinator);

    assert_eq!(
        distributed, local,
        "a straggler fleet must be bit-identical to the single-process search"
    );
    let stats = coordinator.scheduler_stats();
    assert!(
        stats.speculations > 0,
        "a 20 ms/candidate straggler against a 2 ms deadline must be re-issued, got {stats:?}"
    );
}

/// Kill/restart under the adversarial schedule: a worker crashing
/// mid-run — its in-flight shards re-routed to the survivor — and
/// rejoining later must leave the trajectory untouched.
#[test]
fn overlap_survives_kill_restart_with_balanced_rollback_accounting() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(233);
    assert!(
        cfg.iterations >= 3,
        "the kill/restart timeline needs ≥3 generations"
    );
    let local = run_local_state(&cfg, &networks);

    let addrs = vec![
        spawn_restartable_worker(2).to_string(),
        spawn_worker(1, 0).to_string(),
    ];
    let mut coordinator = adversarial_coordinator(&addrs, &scenario);
    let distributed = run_distributed_state(&cfg, &networks, &mut coordinator);

    assert_eq!(
        distributed, local,
        "kill/restart under adversarial scheduling must be bit-identical"
    );
    assert_eq!(
        coordinator.live_workers(),
        2,
        "the restarted worker must be re-admitted"
    );
}

/// Pareto mode under adversarial scheduling: the serialized front —
/// the byte-identity currency of the multi-objective acceptance
/// criterion — must match the single-process front exactly.
#[test]
fn overlap_pareto_front_stays_byte_identical() {
    let (scenario, networks) = scenario_fixture();
    let mut cfg = search_cfg(263);
    cfg.objectives = naas::ObjectivePolicy::Pareto;
    let local = run_local_state(&cfg, &networks);

    let addrs = vec![
        spawn_worker(1, 1_500).to_string(),
        spawn_worker(1, 0).to_string(),
    ];
    let mut coordinator = adversarial_coordinator(&addrs, &scenario);
    let distributed = run_distributed_state(&cfg, &networks, &mut coordinator);

    let front = |state: &naas::AccelSearchState| {
        serde_json::to_string(state.archive().expect("pareto mode keeps an archive"))
            .expect("archive serializes")
    };
    assert_eq!(
        front(&distributed),
        front(&local),
        "scheduling must not reorder a single archive fold"
    );
    assert_eq!(distributed, local, "full pareto state must match");
}

/// A joint population below the fleet size (2 candidates on 3
/// workers): generations shard below candidate granularity
/// (`joint_unit` wire mode — one (candidate, layer shape) unit per wave
/// slot, merged by unit index), and the matched (accelerator, subnet,
/// accuracy, EDP) result is bit-identical to the single-process joint
/// search, down to the memo hit/miss counts. `joint_units > 0` proves
/// the sub-candidate path actually carried the run.
#[test]
fn overlap_joint_unit_sharding_matches_single_process() {
    let model = CostModel::new();
    let accuracy = naas_nas::AccuracyModel::default();
    let envelope = naas_accel::ResourceConstraint::from_design(&naas_accel::baselines::eyeriss());
    let mut cfg = naas::JointConfig::quick(269);
    cfg.accel.population = 2;
    cfg.accel.mapping = MappingSearchConfig::quick(7);
    cfg.accel.threads = 1;

    let local_engine = CoSearchEngine::new(1);
    let mut state = naas::joint_search_init(&envelope, &cfg);
    while naas::joint_search_step(&local_engine, &model, &accuracy, &mut state) {}
    let local = state.into_result().expect("joint search finds a pair");

    let addrs = vec![
        spawn_worker(1, 800).to_string(),
        spawn_worker(1, 0).to_string(),
        spawn_worker(1, 0).to_string(),
    ];
    let mut coordinator = DistributedCoordinator::connect_joint(&addrs).expect("fleet reachable");
    let engine = CoSearchEngine::new(1);
    let mut state = naas::joint_search_init(&envelope, &cfg);
    while coordinator.step_joint(&engine, &model, &accuracy, &mut state) {}
    let distributed = state.into_result().expect("joint search finds a pair");

    assert_eq!(
        distributed, local,
        "joint_unit sharding must be bit-identical to the single-process joint search"
    );
    let stats = coordinator.scheduler_stats();
    assert!(
        stats.joint_units > 0,
        "the sub-candidate path must have merged units, got {stats:?}"
    );
    // The coordinator's per-candidate layer memos are consulted in the
    // single-process order, so even the memo counters match.
    assert_eq!(
        coordinator.fleet_cache_stats(&engine),
        local_engine.cache_stats()
    );
}

/// `joint_unit` sharding through worker death (2 candidates on 3
/// workers): a unit wave losing its worker mid-flight re-routes through
/// the shared pool (or the local fallback) and the joint result still
/// matches the uninterrupted single-process run.
#[test]
fn overlap_joint_units_survive_kill_and_restart() {
    let model = CostModel::new();
    let accuracy = naas_nas::AccuracyModel::default();
    let envelope = naas_accel::ResourceConstraint::from_design(&naas_accel::baselines::eyeriss());
    let mut cfg = naas::JointConfig::quick(271);
    cfg.accel.population = 2;
    cfg.accel.mapping = MappingSearchConfig::quick(7);
    cfg.accel.threads = 1;

    let engine = CoSearchEngine::new(1);
    let mut state = naas::joint_search_init(&envelope, &cfg);
    while naas::joint_search_step(&engine, &model, &accuracy, &mut state) {}
    let local = state.into_result().expect("joint search finds a pair");

    let addrs = vec![
        spawn_restartable_worker(3).to_string(),
        spawn_worker(1, 0).to_string(),
        spawn_worker(1, 0).to_string(),
    ];
    let mut coordinator = DistributedCoordinator::connect_joint(&addrs).expect("fleet reachable");
    let engine = CoSearchEngine::new(1);
    let mut state = naas::joint_search_init(&envelope, &cfg);
    while coordinator.step_joint(&engine, &model, &accuracy, &mut state) {}
    let distributed = state.into_result().expect("joint search finds a pair");

    assert_eq!(
        distributed, local,
        "worker death during a unit wave must not change the joint result"
    );
    assert!(
        coordinator.scheduler_stats().joint_units > 0,
        "the surviving fleet must still merge units"
    );
}
