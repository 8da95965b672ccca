//! Distributed sharded search: a coordinator fanning generations over
//! remote TCP workers must reproduce the single-process search
//! bit-for-bit — with a healthy fleet, with a worker dying
//! mid-generation, and with the whole fleet gone (local fallback).

use naas::service::{BatchEvalService, ServiceConfig, ServiceServer};
use naas::{
    accel_search_init, AccelSearchConfig, CoSearchEngine, DistributedCoordinator,
    MappingSearchConfig,
};
use naas_cost::CostModel;
use naas_engine::scenario;
use naas_ir::Network;
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

/// Spawns an in-process TCP worker — the exact serving stack behind
/// `naas-search worker` — and returns its address. The worker thread is
/// detached; it dies with the test process.
fn spawn_worker(threads: usize) -> SocketAddr {
    spawn_slow_worker(threads, 0)
}

/// [`spawn_worker`] with an injected per-candidate evaluation delay
/// (microseconds, serialized across requests) — the deterministic
/// stand-in for an underpowered machine in a heterogeneous fleet.
fn spawn_slow_worker(threads: usize, eval_delay_us: u64) -> SocketAddr {
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

/// A worker that answers `fail_after` requests normally, then drops every
/// connection mid-call — the deterministic stand-in for a machine dying
/// mid-generation.
fn spawn_flaky_worker(fail_after: usize) -> SocketAddr {
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
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let mut reader = BufReader::new(match stream.try_clone() {
                Ok(clone) => clone,
                Err(_) => break,
            });
            let mut writer = stream;
            loop {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break, // connection closed by peer
                    Ok(_) => {}
                }
                if answered >= fail_after {
                    return; // dies: connection drops mid-call, listener too
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
    });
    addr
}

/// A worker whose process is healthy but whose every shard request is
/// answered with an orderly error response — the contained-panic /
/// rejected-request shape. It answers the `hello` handshake properly
/// (it *is* a compatible build; only its evaluations are poisoned).
fn spawn_rejecting_worker() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
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
                let request = serde_json::from_str::<Value>(line.trim_end()).ok();
                let id = request
                    .as_ref()
                    .and_then(|v| v.get("id").cloned())
                    .unwrap_or(Value::Null);
                let is_hello = request
                    .as_ref()
                    .and_then(|v| v.get("cmd"))
                    .and_then(Value::as_str)
                    == Some("hello");
                let response = if is_hello {
                    naas_engine::service::ok_line(
                        &id,
                        serde_json::parse_str(&format!(
                            r#"{{"protocol": {}, "capabilities": ["evaluate_shard"]}}"#,
                            naas_engine::PROTOCOL_VERSION
                        ))
                        .unwrap(),
                    )
                } else {
                    naas_engine::service::error_line(&id, "injected rejection")
                };
                if writeln!(writer, "{response}")
                    .and_then(|_| writer.flush())
                    .is_err()
                {
                    break;
                }
            }
        }
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

fn run_local(cfg: &AccelSearchConfig, networks: &[Network]) -> naas::AccelSearchResult {
    let scenario = scenario::find("cifar-eyeriss").unwrap();
    let job = scenario.resolve().unwrap();
    let engine = CoSearchEngine::new(cfg.threads);
    let model = CostModel::new();
    let mut state = accel_search_init(&job.constraint, cfg, &[]);
    while naas::accel_search_step(&engine, &model, networks, &mut state) {}
    state.into_result().expect("search finds a design")
}

fn run_distributed(
    cfg: &AccelSearchConfig,
    networks: &[Network],
    coordinator: &mut DistributedCoordinator,
) -> naas::AccelSearchResult {
    let scenario = scenario::find("cifar-eyeriss").unwrap();
    let job = scenario.resolve().unwrap();
    let engine = CoSearchEngine::new(cfg.threads);
    let model = CostModel::new();
    let mut state = accel_search_init(&job.constraint, cfg, &[]);
    while coordinator.step(&engine, &model, networks, &mut state) {}
    state.into_result().expect("search finds a design")
}

/// Best design, history and evaluation counts must agree exactly —
/// sharding only relocates pure-function evaluations. (`cache_stats` is
/// excluded: speculation and re-issues run some lookups twice.)
fn assert_bit_identical(
    distributed: &naas::AccelSearchResult,
    local: &naas::AccelSearchResult,
    context: &str,
) {
    assert_eq!(
        distributed.best.accelerator, local.best.accelerator,
        "{context}: best design differs"
    );
    assert_eq!(
        distributed.best.reward, local.best.reward,
        "{context}: best reward differs"
    );
    assert_eq!(
        distributed.best.per_network, local.best.per_network,
        "{context}: per-network costs differ"
    );
    assert_eq!(
        distributed.history, local.history,
        "{context}: history differs"
    );
    assert_eq!(
        distributed.evaluations, local.evaluations,
        "{context}: evaluation counts differ"
    );
}

/// The acceptance criterion: a two-worker sharded run is bit-identical
/// to the single-process run on the same scenario.
#[test]
fn two_worker_search_is_bit_identical_to_single_process() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(41);
    let local = run_local(&cfg, &networks);

    let addrs = vec![spawn_worker(1).to_string(), spawn_worker(1).to_string()];
    let mut coordinator =
        DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");
    assert_eq!(coordinator.live_workers(), 2);
    assert_eq!(coordinator.plan().workers, addrs);
    let distributed = run_distributed(&cfg, &networks, &mut coordinator);

    assert_bit_identical(&distributed, &local, "two healthy workers");
    assert_eq!(coordinator.live_workers(), 2, "no worker was lost");
}

/// A worker that dies mid-run: its shard is re-issued to the survivor
/// and the final result still matches the no-failure run exactly.
#[test]
fn dead_worker_shard_is_reissued_with_identical_results() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(43);
    let local = run_local(&cfg, &networks);

    // The flaky worker answers the connect handshake and one shard
    // (generation 0), then drops the connection mid-generation-1; the
    // healthy worker absorbs its shard. Its listener is gone for good,
    // so every rejoin re-dial is refused and it stays dead.
    let addrs = vec![
        spawn_flaky_worker(2).to_string(),
        spawn_worker(1).to_string(),
    ];
    let mut coordinator =
        DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");
    let distributed = run_distributed(&cfg, &networks, &mut coordinator);

    assert_bit_identical(&distributed, &local, "worker died mid-run");
    assert_eq!(
        coordinator.live_workers(),
        1,
        "the flaky worker must be marked dead"
    );
}

/// An orderly error *response* is a request failure, not a worker
/// death: the shard lands on the local fallback, the result is still
/// bit-identical, and — crucially — the rejecting worker stays alive
/// (one poisoned request must not destroy the fleet).
#[test]
fn rejected_shard_goes_local_without_killing_the_worker() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(61);
    let local = run_local(&cfg, &networks);

    let addrs = vec![
        spawn_rejecting_worker().to_string(),
        spawn_worker(1).to_string(),
    ];
    let mut coordinator =
        DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");
    let distributed = run_distributed(&cfg, &networks, &mut coordinator);

    assert_bit_identical(&distributed, &local, "worker rejecting every shard");
    assert_eq!(
        coordinator.live_workers(),
        2,
        "an orderly error response must not mark the worker dead"
    );
}

/// The whole fleet dying mid-run falls back to coordinator-local
/// evaluation — the search still converges to the identical result.
#[test]
fn total_fleet_loss_falls_back_to_local_evaluation() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(47);
    let local = run_local(&cfg, &networks);

    // One answered request is the handshake itself: the fleet's only
    // worker dies on its very first shard.
    let addrs = vec![spawn_flaky_worker(1).to_string()];
    let mut coordinator =
        DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");
    let distributed = run_distributed(&cfg, &networks, &mut coordinator);

    assert_bit_identical(&distributed, &local, "entire fleet lost");
    assert_eq!(coordinator.live_workers(), 0);
}

/// `search_step` over the wire: a thin client can drive a whole search
/// remotely by round-tripping the serialized state, and the trajectory
/// matches the in-process one exactly.
#[test]
fn remote_search_step_reproduces_local_trajectory() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(53);
    let local = run_local(&cfg, &networks);

    let job = scenario.resolve().unwrap();
    let mut state = accel_search_init(&job.constraint, &cfg, &[]);
    let mut worker = naas_engine::RemoteWorker::new(spawn_worker(1).to_string());
    let scenario_value = serde_json::to_value(&scenario);
    loop {
        let reply = worker
            .call(
                "search_step",
                vec![
                    ("scenario".to_string(), scenario_value.clone()),
                    ("state".to_string(), serde_json::to_value(&state)),
                ],
            )
            .expect("remote step succeeds");
        let advanced = reply.get("advanced") == Some(&Value::Bool(true));
        state = serde_json::from_value(reply.get("state").expect("reply carries state"))
            .expect("state round-trips");
        if !advanced {
            panic!("remote step refused before the budget was exhausted");
        }
        if reply.get("done") == Some(&Value::Bool(true)) {
            break;
        }
    }
    let remote = state.into_result().expect("search finds a design");
    assert_eq!(remote.best.accelerator, local.best.accelerator);
    assert_eq!(remote.best.reward, local.best.reward);
    assert_eq!(remote.history, local.history);
    assert_eq!(remote.evaluations, local.evaluations);
}

/// Memos die with their candidate: every hit of an accelerator search is
/// a repeated layer shape inside one candidate, and a candidate is
/// evaluated whole on one worker. So the fleet-summed memo counters a
/// distributed search records equal the single-process search's hits,
/// misses and (zero) entries exactly — no reuse is lost by never relaying
/// or keeping mapping results.
#[test]
fn fleet_cache_stats_match_the_single_process_search() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(59);
    let job = scenario.resolve().unwrap();
    let model = CostModel::new();

    let local_engine = CoSearchEngine::new(cfg.threads);
    let mut local = accel_search_init(&job.constraint, &cfg, &[]);
    while naas::accel_search_step(&local_engine, &model, &networks, &mut local) {}

    let addrs = vec![spawn_worker(1).to_string(), spawn_worker(1).to_string()];
    let mut coordinator =
        DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");
    // No shard may run twice: a duplicate evaluation counts its lookups
    // again on the second worker.
    coordinator.set_steal_deadline(std::time::Duration::from_secs(600));
    let engine = CoSearchEngine::new(1);
    let mut fleet = accel_search_init(&job.constraint, &cfg, &[]);
    while coordinator.step(&engine, &model, &networks, &mut fleet) {}

    let sched = coordinator.scheduler_stats();
    assert_eq!((sched.reissues, sched.speculations), (0, 0), "{sched:?}");
    assert_eq!(
        engine.cache_stats(),
        naas_engine::CacheStats::default(),
        "the coordinator evaluated nothing itself"
    );
    assert!(
        local.cache_stats.hits > 0,
        "the fixture must exercise reuse"
    );
    assert_eq!(fleet.cache_stats, local.cache_stats);
    assert_eq!(fleet.cache_stats, coordinator.fleet_cache_stats(&engine));
}

/// A worker that answers `fail_after` requests, then "crashes" (drops
/// its listener and every connection mid-call) and is immediately
/// "restarted": a fresh serving stack — cold cache, new process state —
/// rebinds the same address and serves indefinitely. The deterministic
/// stand-in for `kill <worker-pid> && naas-search worker --port <same>`.
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
        // Phase 1: serve until the crash point.
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
                    Ok(0) | Err(_) => break, // connection closed by peer
                    Ok(_) => {}
                }
                if answered >= fail_after {
                    break 'crash; // dies mid-call: connection + listener drop
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

        // Phase 2: the restart. A brand-new serving stack rebinds the
        // same port (retry while the OS releases it) and serves for the
        // rest of the test.
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

/// The rejoin acceptance criterion: a worker killed mid-run and
/// restarted on the same address is re-dialed at the next generation
/// boundary, re-admitted into the shard plan, and the final result is
/// still bit-identical to the uninterrupted single-process run.
#[test]
fn killed_and_restarted_worker_rejoins_with_identical_results() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(67);
    assert!(
        cfg.iterations >= 3,
        "the timeline below needs ≥3 generations"
    );
    let local = run_local(&cfg, &networks);

    // Timeline: the restartable worker answers the handshake + its
    // generation-0 shard, crashes receiving its generation-1 shard
    // (which is re-issued to the healthy worker), restarts immediately,
    // and is re-dialed at the generation-2 boundary (death + 1).
    let addrs = vec![
        spawn_restartable_worker(2).to_string(),
        spawn_worker(1).to_string(),
    ];
    let mut coordinator =
        DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");
    let distributed = run_distributed(&cfg, &networks, &mut coordinator);

    assert_bit_identical(&distributed, &local, "worker killed and restarted");
    assert_eq!(
        coordinator.live_workers(),
        2,
        "the restarted worker must be re-admitted within one generation"
    );
}

/// Distributed joint search: each candidate's whole NAS evolution runs
/// on a worker, and the matched (accelerator, subnet, accuracy, EDP)
/// tuple is bit-identical to the single-process joint search.
#[test]
fn distributed_joint_search_matches_single_process() {
    let model = CostModel::new();
    let accuracy = naas_nas::AccuracyModel::default();
    let envelope = naas_accel::ResourceConstraint::from_design(&naas_accel::baselines::eyeriss());
    let mut cfg = naas::JointConfig::quick(29);
    cfg.accel.mapping = MappingSearchConfig::quick(7);
    cfg.accel.threads = 1;

    // Single-process reference trajectory.
    let engine = CoSearchEngine::new(1);
    let mut state = naas::joint_search_init(&envelope, &cfg);
    while naas::joint_search_step(&engine, &model, &accuracy, &mut state) {}
    let local = state.into_result().expect("joint search finds a pair");

    // The same trajectory with every NAS evolution sharded over two
    // workers (no scenario: the joint workload is the NAS space).
    let addrs = vec![spawn_worker(1).to_string(), spawn_worker(1).to_string()];
    let mut coordinator = DistributedCoordinator::connect_joint(&addrs).expect("fleet reachable");
    let engine = CoSearchEngine::new(1);
    let mut state = naas::joint_search_init(&envelope, &cfg);
    while coordinator.step_joint(&engine, &model, &accuracy, &mut state) {}
    let distributed = state.into_result().expect("joint search finds a pair");

    assert_eq!(
        distributed, local,
        "distributed joint search must be bit-identical"
    );
    assert_eq!(coordinator.live_workers(), 2);
}

/// Joint search over a degraded fleet: a worker dying mid-run loses
/// nothing — its shard of NAS evolutions is re-issued and the result
/// still matches the uninterrupted single-process run.
#[test]
fn distributed_joint_search_survives_worker_death() {
    let model = CostModel::new();
    let accuracy = naas_nas::AccuracyModel::default();
    let envelope = naas_accel::ResourceConstraint::from_design(&naas_accel::baselines::eyeriss());
    let mut cfg = naas::JointConfig::quick(31);
    cfg.accel.mapping = MappingSearchConfig::quick(7);
    cfg.accel.threads = 1;

    let engine = CoSearchEngine::new(1);
    let mut state = naas::joint_search_init(&envelope, &cfg);
    while naas::joint_search_step(&engine, &model, &accuracy, &mut state) {}
    let local = state.into_result().expect("joint search finds a pair");

    // Handshake + one shard, then death; the healthy worker (and the
    // local fallback, if it comes to that) absorbs the rest.
    let addrs = vec![
        spawn_flaky_worker(2).to_string(),
        spawn_worker(1).to_string(),
    ];
    let mut coordinator = DistributedCoordinator::connect_joint(&addrs).expect("fleet reachable");
    let engine = CoSearchEngine::new(1);
    let mut state = naas::joint_search_init(&envelope, &cfg);
    while coordinator.step_joint(&engine, &model, &accuracy, &mut state) {}
    let distributed = state.into_result().expect("joint search finds a pair");

    assert_eq!(
        distributed, local,
        "worker death must not change the joint result"
    );
}

/// Joint `search_step` over the wire: a thin client round-trips a
/// serialized `JointSearchState` with `joint: true` and reproduces the
/// in-process joint trajectory exactly.
#[test]
fn remote_joint_search_step_reproduces_local_trajectory() {
    let model = CostModel::new();
    let accuracy = naas_nas::AccuracyModel::default();
    let envelope = naas_accel::ResourceConstraint::from_design(&naas_accel::baselines::eyeriss());
    let mut cfg = naas::JointConfig::quick(37);
    cfg.accel.mapping = MappingSearchConfig::quick(7);
    cfg.accel.threads = 1;

    let engine = CoSearchEngine::new(1);
    let mut state = naas::joint_search_init(&envelope, &cfg);
    while naas::joint_search_step(&engine, &model, &accuracy, &mut state) {}
    let local = state.into_result().expect("joint search finds a pair");

    let mut state = naas::joint_search_init(&envelope, &cfg);
    let mut worker = naas_engine::RemoteWorker::new(spawn_worker(1).to_string());
    loop {
        let reply = worker
            .call(
                "search_step",
                vec![
                    ("joint".to_string(), Value::Bool(true)),
                    ("state".to_string(), serde_json::to_value(&state)),
                    ("accuracy".to_string(), serde_json::to_value(&accuracy)),
                ],
            )
            .expect("remote joint step succeeds");
        assert_eq!(
            reply.get("advanced"),
            Some(&Value::Bool(true)),
            "remote step refused before the budget was exhausted"
        );
        state = serde_json::from_value(reply.get("state").expect("reply carries state"))
            .expect("joint state round-trips");
        if reply.get("done") == Some(&Value::Bool(true)) {
            break;
        }
    }
    let remote = state.into_result().expect("joint search finds a pair");
    assert_eq!(remote, local);
}

/// Permutation fuzzing of the merge path: heterogeneous per-worker
/// delays plus an aggressive steal deadline drive the scheduler through
/// adversarial completion orders — steals, re-splits, speculative
/// re-issues and duplicate late replies — across several seeds. The
/// merged result must stay byte-identical to the single-process run in
/// every ordering, because micro-shards are contiguous candidate ranges
/// merged by position, never by arrival.
#[test]
fn adversarial_completion_orders_stay_bit_identical() {
    let (scenario, networks) = scenario_fixture();
    for (seed, delays) in [(71u64, [0u64, 2_000]), (73, [2_000, 0]), (79, [900, 300])] {
        let cfg = search_cfg(seed);
        let local = run_local(&cfg, &networks);

        let addrs = vec![
            spawn_slow_worker(1, delays[0]).to_string(),
            spawn_slow_worker(1, delays[1]).to_string(),
        ];
        let mut coordinator =
            DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");
        coordinator.set_microshards(5);
        coordinator.set_steal_deadline(std::time::Duration::from_millis(2));
        let distributed = run_distributed(&cfg, &networks, &mut coordinator);

        assert_bit_identical(
            &distributed,
            &local,
            &format!("seed {seed}, delays {delays:?}"),
        );
        assert!(
            coordinator.scheduler_stats().microshards > 0,
            "the dynamic scheduler actually ran"
        );
    }
}

/// Speculative re-issue end-to-end: a worker an order of magnitude
/// slower than its peer, under a tiny steal deadline, forces in-flight
/// shards past the deadline — the fast worker re-issues them, wins, and
/// the loser's late answer is dropped as a counted duplicate instead of
/// a protocol error. The run stays bit-identical throughout.
#[test]
fn speculative_reissue_tolerates_duplicate_late_replies() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(83);
    let local = run_local(&cfg, &networks);

    let addrs = vec![
        spawn_slow_worker(1, 20_000).to_string(),
        spawn_worker(1).to_string(),
    ];
    let mut coordinator =
        DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");
    coordinator.set_microshards(6);
    coordinator.set_steal_deadline(std::time::Duration::from_millis(2));
    let distributed = run_distributed(&cfg, &networks, &mut coordinator);

    assert_bit_identical(&distributed, &local, "10× straggler with speculation");
    let stats = coordinator.scheduler_stats();
    assert!(
        stats.speculations > 0,
        "a 20 ms/candidate straggler against a 2 ms deadline must trigger \
         speculative re-issue, got {stats:?}"
    );
    assert!(
        stats.duplicate_replies > 0,
        "the losing copy's late reply must be dropped and counted, got {stats:?}"
    );
    assert_eq!(
        coordinator.live_workers(),
        2,
        "slow is not dead: both workers survive the run"
    );
}

/// The handshake end-to-end: a real worker advertises the joint
/// capability, and a version-mismatched client is refused cleanly.
#[test]
fn worker_handshake_advertises_capabilities_end_to_end() {
    let addr = spawn_worker(1).to_string();
    let mut worker = naas_engine::RemoteWorker::new(&addr);
    worker.enable_handshake("handshake-test");
    worker
        .connect()
        .expect("handshake succeeds between same builds");
    assert!(worker.has_capability("joint"));
    assert!(worker.has_capability("evaluate_shard"));
    assert!(worker.has_capability("metrics"));

    // A client stating a wrong version is refused with an orderly error
    // (the server side of the mismatch check).
    let mut raw = naas_engine::RemoteWorker::new(&addr);
    let err = raw
        .call("hello", vec![("protocol".to_string(), Value::U64(9999))])
        .unwrap_err();
    assert!(err.to_string().contains("protocol mismatch"), "got: {err}");
}

/// A worker that answers the handshake as a fully compatible build but
/// poisons every `evaluate_shard` result with objective values no
/// honest cost model can produce (negative energy) — the deterministic
/// stand-in for a corrupted or hostile machine. The coordinator must
/// reject the reply at the deserialization seam, mark the worker dead
/// and re-issue the shard; the poison must never reach the reward
/// aggregation as a panic.
fn spawn_poison_worker() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
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
                let request = serde_json::from_str::<Value>(line.trim_end()).ok();
                let id = request
                    .as_ref()
                    .and_then(|v| v.get("id").cloned())
                    .unwrap_or(Value::Null);
                let cmd = request
                    .as_ref()
                    .and_then(|v| v.get("cmd"))
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string();
                let response = match cmd.as_str() {
                    "hello" => naas_engine::service::ok_line(
                        &id,
                        serde_json::parse_str(&format!(
                            r#"{{"protocol": {}, "capabilities": ["evaluate_shard"]}}"#,
                            naas_engine::PROTOCOL_VERSION
                        ))
                        .unwrap(),
                    ),
                    "evaluate_shard" => {
                        let count = request
                            .as_ref()
                            .and_then(|v| v.get("candidates"))
                            .and_then(Value::as_array)
                            .map(|c| c.len())
                            .unwrap_or(0);
                        let poison = r#"{"reward": 1.0, "per_network": [], "objectives": {"latency_cycles": 1000, "energy_nj": -5.0, "area_um2": 1.0e6, "accuracy": 0.0}}"#;
                        let results: Vec<String> = vec![poison.to_string(); count];
                        naas_engine::service::ok_line(
                            &id,
                            serde_json::parse_str(&format!(
                                r#"{{"results": [{}]}}"#,
                                results.join(", ")
                            ))
                            .unwrap(),
                        )
                    }
                    _ => naas_engine::service::error_line(&id, "unsupported by poison worker"),
                };
                if writeln!(writer, "{response}")
                    .and_then(|_| writer.flush())
                    .is_err()
                {
                    break;
                }
            }
        }
    });
    addr
}

/// The trust-boundary regression (ISSUE 8): a worker whose replies carry
/// well-formed JSON but physically impossible objective values is a
/// *shard error* — worker marked dead, shard re-issued, run bit-identical
/// — never a coordinator panic.
#[test]
fn poisoned_objectives_are_a_shard_error_not_a_panic() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(89);
    let local = run_local(&cfg, &networks);

    let addrs = vec![
        spawn_poison_worker().to_string(),
        spawn_worker(1).to_string(),
    ];
    let mut coordinator =
        DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");
    let distributed = run_distributed(&cfg, &networks, &mut coordinator);

    assert_bit_identical(&distributed, &local, "worker replying poisoned objectives");
    assert_eq!(
        coordinator.live_workers(),
        1,
        "a worker replying invalid objective values must be marked dead"
    );
}

/// Runs the search to completion and returns the final state — archive
/// included — instead of folding it into a result.
fn run_local_state(cfg: &AccelSearchConfig, networks: &[Network]) -> naas::AccelSearchState {
    let scenario = scenario::find("cifar-eyeriss").unwrap();
    let job = scenario.resolve().unwrap();
    let engine = CoSearchEngine::new(cfg.threads);
    let model = CostModel::new();
    let mut state = accel_search_init(&job.constraint, cfg, &[]);
    while naas::accel_search_step(&engine, &model, networks, &mut state) {}
    state
}

/// The serialized bytes of a state's Pareto front — the byte-identity
/// currency of the distributed acceptance criterion.
fn front_bytes(state: &naas::AccelSearchState) -> String {
    serde_json::to_string(state.archive().expect("pareto mode keeps an archive"))
        .expect("archive serializes")
}

/// The multi-objective acceptance criterion: in `--objectives pareto`
/// mode, a two-worker run under adversarial completion orders (steals,
/// re-splits, speculative re-issues, duplicate late replies) produces a
/// serialized front *byte-identical* to the single-process run — the
/// archive folds offers in candidate order, never arrival order.
#[test]
fn pareto_front_stays_byte_identical_across_adversarial_orders() {
    let (scenario, networks) = scenario_fixture();
    for (seed, delays) in [(101u64, [0u64, 2_000]), (103, [1_500, 0])] {
        let mut cfg = search_cfg(seed);
        cfg.objectives = naas::ObjectivePolicy::Pareto;
        let local = run_local_state(&cfg, &networks);

        let addrs = vec![
            spawn_slow_worker(1, delays[0]).to_string(),
            spawn_slow_worker(1, delays[1]).to_string(),
        ];
        let mut coordinator =
            DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");
        coordinator.set_microshards(5);
        coordinator.set_steal_deadline(std::time::Duration::from_millis(2));

        let job = scenario.resolve().unwrap();
        let engine = CoSearchEngine::new(cfg.threads);
        let model = CostModel::new();
        let mut state = accel_search_init(&job.constraint, &cfg, &[]);
        while coordinator.step(&engine, &model, &networks, &mut state) {}

        assert_eq!(
            front_bytes(&state),
            front_bytes(&local),
            "seed {seed}, delays {delays:?}: serialized fronts must be byte-identical"
        );
        let local_result = local.into_result().expect("search finds a design");
        let distributed_result = state.into_result().expect("search finds a design");
        assert_bit_identical(
            &distributed_result,
            &local_result,
            &format!("pareto mode, seed {seed}, delays {delays:?}"),
        );
    }
}

/// Pareto mode through the full failure gauntlet: a worker killed
/// mid-run and restarted on the same address, *plus* a mid-run
/// checkpoint round-trip of the search state (serialize → deserialize →
/// continue). The resumed, degraded run's front is still byte-identical
/// to the uninterrupted single-process front — the archive lives inside
/// the checkpointed state and folds deterministically.
#[test]
fn pareto_front_survives_kill_restart_and_checkpoint_resume() {
    let (scenario, networks) = scenario_fixture();
    let mut cfg = search_cfg(107);
    cfg.objectives = naas::ObjectivePolicy::Pareto;
    assert!(
        cfg.iterations >= 3,
        "the timeline below needs ≥3 generations"
    );
    let local = run_local_state(&cfg, &networks);

    let addrs = vec![
        spawn_restartable_worker(2).to_string(),
        spawn_worker(1).to_string(),
    ];
    let mut coordinator =
        DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");

    let job = scenario.resolve().unwrap();
    let engine = CoSearchEngine::new(cfg.threads);
    let model = CostModel::new();
    let mut state = accel_search_init(&job.constraint, &cfg, &[]);

    // Generation 0 lands, then the state takes a checkpoint round-trip —
    // exactly what `naas-search resume` replays from disk.
    assert!(coordinator.step(&engine, &model, &networks, &mut state));
    let checkpoint = serde_json::to_string(&state).expect("state serializes");
    let mut state: naas::AccelSearchState =
        serde_json::from_str(&checkpoint).expect("state deserializes");
    while coordinator.step(&engine, &model, &networks, &mut state) {}

    assert_eq!(
        front_bytes(&state),
        front_bytes(&local),
        "kill/restart + checkpoint resume: serialized fronts must be byte-identical"
    );
    assert_eq!(
        coordinator.live_workers(),
        2,
        "the restarted worker must be re-admitted"
    );
}

/// Mixed-version fleet protection: yesterday's build speaks protocol 2
/// (its shard results carry no `objectives`), and the v3 handshake must
/// reject it as `Incompatible` before a single shard is exchanged — a
/// v2 worker silently admitted would poison the byte-identity of every
/// merged generation.
#[test]
fn v2_worker_is_rejected_as_incompatible() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        let mut reader = BufReader::new(match stream.try_clone() {
            Ok(clone) => clone,
            Err(_) => return,
        });
        let mut writer = stream;
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            return;
        }
        let id = serde_json::from_str::<Value>(line.trim_end())
            .ok()
            .and_then(|v| v.get("id").cloned())
            .unwrap_or(Value::Null);
        let reply = naas_engine::service::ok_line(
            &id,
            serde_json::parse_str(r#"{"protocol": 2, "capabilities": ["evaluate_shard"]}"#)
                .unwrap(),
        );
        let _ = writeln!(writer, "{reply}").and_then(|_| writer.flush());
    });

    let mut worker = naas_engine::RemoteWorker::new(&addr);
    worker.enable_handshake("v3-client");
    let err = worker.connect().expect_err("v2 worker must be refused");
    assert!(
        matches!(err, naas_engine::RemoteError::Incompatible(_)),
        "got {err}"
    );
    assert!(err.to_string().contains("protocol 2"), "got {err}");
    assert!(
        !worker.is_connected(),
        "mismatch must not leave a connection"
    );
}

/// A worker built before cache gossip was removed: a real serving stack
/// whose `evaluate_shard` replies still carry a `cache_delta` (here, a
/// snapshot-shaped object with one entry) and no `cache_stats` — the
/// stand-in for a fleet that upgrades its coordinator before its
/// workers.
fn spawn_legacy_gossip_worker() -> SocketAddr {
    let service = BatchEvalService::new(ServiceConfig {
        threads: 1,
        mapping: MappingSearchConfig::quick(7),
        eval_delay_us: 0,
    })
    .expect("no cache file to load");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
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
                let mut response: Value =
                    serde_json::from_str(&service.respond(line.trim_end())).unwrap();
                if let Value::Object(fields) = &mut response {
                    for (key, value) in fields.iter_mut() {
                        let Value::Object(result) = value else {
                            continue;
                        };
                        if key != "result" || !result.iter().any(|(k, _)| k == "results") {
                            continue;
                        }
                        result.retain(|(k, _)| k != "cache_stats");
                        let delta = serde_json::parse_str(
                            r#"{"entries": [[7, {"batch": 1, "in_channels": 8}, null]]}"#,
                        )
                        .unwrap();
                        result.push(("cache_delta".to_string(), delta));
                    }
                }
                let response = serde_json::to_string(&response).unwrap();
                if writeln!(writer, "{response}")
                    .and_then(|_| writer.flush())
                    .is_err()
                {
                    break;
                }
            }
        }
    });
    addr
}

/// Removing gossip was an additive change within protocol 4: a reply
/// that still carries `cache_delta` parses (the field is ignored), so a
/// legacy worker stays a healthy fleet member and the search stays
/// bit-identical. It reports no cache counters, so the fleet total
/// holds only the up-to-date worker's.
#[test]
fn legacy_worker_reply_with_cache_delta_still_parses() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(97);
    let local = run_local(&cfg, &networks);

    let addrs = vec![
        spawn_legacy_gossip_worker().to_string(),
        spawn_worker(1).to_string(),
    ];
    let mut coordinator =
        DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");
    let distributed = run_distributed(&cfg, &networks, &mut coordinator);

    assert_bit_identical(&distributed, &local, "legacy gossiping worker");
    assert_eq!(
        coordinator.live_workers(),
        2,
        "a `cache_delta` field must not be a protocol violation"
    );
    assert_eq!(coordinator.scheduler_stats().reissues, 0);
    let fleet = distributed.cache_stats;
    assert!(fleet.hits + fleet.misses > 0, "the new worker reports");
    assert!(
        fleet.hits + fleet.misses < local.cache_stats.hits + local.cache_stats.misses,
        "the legacy worker's lookups are not reported: {fleet:?} vs {:?}",
        local.cache_stats
    );
}

/// Scheduler-flag validation is a parse-time contract: the exact
/// refusals the CLI prints for a zero steal deadline, for the removed
/// static plan (`--microshards 0`) and for more micro-shards than
/// candidates are pinned here, so `naas_search` keeps rejecting these
/// before any worker is dialed.
#[test]
fn scheduler_flag_validation_rejects_degenerate_plans() {
    let err = naas::validate_scheduler_flags(Some(6), 0, 10)
        .expect_err("a zero steal deadline must be refused");
    assert!(
        err.contains("--steal-deadline must be at least 1 ms"),
        "got {err}"
    );
    assert!(
        err.contains("speculatively duplicate all work"),
        "the refusal must say why: got {err}"
    );

    let err = naas::validate_scheduler_flags(Some(0), 500, 10)
        .expect_err("the removed static plan must be refused");
    assert!(
        err.contains("--microshards 0") && err.contains("static") && err.contains("removed"),
        "the refusal must say the static plan was removed: got {err}"
    );

    let err = naas::validate_scheduler_flags(Some(11), 500, 10)
        .expect_err("more micro-shards than candidates must be refused");
    assert!(
        err.contains("--microshards 11 exceeds the population size 10"),
        "got {err}"
    );
    assert!(err.contains("at most one per candidate"), "got {err}");

    // The boundary cases stay legal: unset shards (the default), the
    // minimum deadline, and exactly one shard per candidate.
    naas::validate_scheduler_flags(None, 1, 1).expect("defaults are valid");
    naas::validate_scheduler_flags(Some(10), 500, 10).expect("one shard per candidate is valid");
}
