//! The multi-tenant search gateway: concurrent jobs multiplexed onto one
//! shared engine/fleet must each produce results **byte-identical** to
//! running the same submission alone — at any interleaving, under
//! weighted-fair scheduling, per-tenant quotas, admission rejection, a
//! deliberately skewed fleet, and a worker killed and restarted mid-run.

use naas::service::{BatchEvalService, ServiceConfig, ServiceServer};
use naas::{
    AccelSearchConfig, DistributedCoordinator, GatewayConfig, GatewayService, JointConfig,
    MappingSearchConfig, SharedCoordinator,
};
use naas_engine::telemetry::metrics;
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};

/// Gateway telemetry (gauges, per-tenant counters) is process-global;
/// tests asserting on it must not overlap with other gateways mutating
/// it. Every test in this binary takes this lock.
static METRICS_LOCK: Mutex<()> = Mutex::new(());

fn inner_service(threads: usize, eval_delay_us: u64) -> Arc<BatchEvalService> {
    Arc::new(
        BatchEvalService::new(ServiceConfig {
            threads,
            mapping: MappingSearchConfig::quick(7),
            eval_delay_us,
        })
        .expect("no cache file to load"),
    )
}

fn local_gateway(config: GatewayConfig) -> GatewayService {
    GatewayService::start(inner_service(2, 0), None, config)
}

fn parse(line: &str) -> Value {
    serde_json::from_str(line).expect("response is valid JSON")
}

fn result_of(line: &str) -> Value {
    let v = parse(line);
    assert_eq!(
        v.get("ok"),
        Some(&Value::Bool(true)),
        "expected success: {line}"
    );
    v.get("result").cloned().expect("ok response has a result")
}

/// A small, fast accel search config (matches the distributed suite's
/// budget so generations clear in tens of milliseconds).
fn accel_cfg(seed: u64) -> AccelSearchConfig {
    let mut cfg = AccelSearchConfig::quick(seed);
    cfg.mapping = MappingSearchConfig::quick(7);
    cfg.threads = 1;
    cfg
}

/// A trimmed joint config: enough generations to exercise the
/// checkpointed step-loop without dominating suite wall-clock.
fn joint_cfg(seed: u64) -> JointConfig {
    let mut cfg = JointConfig::quick(seed);
    cfg.accel = accel_cfg(seed);
    cfg.accel.population = 4;
    cfg.accel.iterations = 2;
    cfg.nas.population = 4;
    cfg
}

fn submit_line(id: u64, tenant: &str, weight: u64, kind: &str, config_json: &str) -> String {
    format!(
        r#"{{"id":{id},"cmd":"job_submit","scenario":"cifar-eyeriss","tenant":"{tenant}","weight":{weight},"kind":"{kind}","config":{config_json}}}"#
    )
}

/// Submits one job and returns its id.
fn submit(gw: &GatewayService, line: &str) -> u64 {
    result_of(&gw.respond(line))
        .get("job_id")
        .and_then(Value::as_u64)
        .expect("submit answers a job id")
}

/// The raw `job_result` response line for a finished job, with a fixed
/// request id so lines are comparable byte-for-byte across gateways.
fn result_line(gw: &GatewayService, job_id: u64) -> String {
    let line = gw.respond(&format!(
        r#"{{"id":"result","cmd":"job_result","job_id":{job_id}}}"#
    ));
    assert_eq!(
        parse(&line).get("ok"),
        Some(&Value::Bool(true)),
        "job {job_id} must finish with a result: {line}"
    );
    line
}

/// Runs one submission alone on a fresh gateway — the byte-identity
/// reference for every multi-tenant assertion below.
fn solo_result(line: &str) -> String {
    let gw = local_gateway(GatewayConfig {
        executors: 1,
        ..GatewayConfig::default()
    });
    let job_id = submit(&gw, line);
    gw.wait_idle();
    result_line(&gw, job_id)
}

/// The acceptance fixture: one accel job and one joint job running
/// concurrently on one shared engine. Their `job_result` payloads —
/// design card, reward/front, and the complete serialized final search
/// state — must be byte-identical to each job's solo run, across
/// adversarially permuted interleavings (executor counts, submission
/// orders, weights).
#[test]
fn concurrent_accel_and_joint_jobs_are_byte_identical_to_solo_runs() {
    let _guard = METRICS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let accel = submit_line(
        1,
        "acme",
        1,
        "accel",
        &serde_json::to_string(&accel_cfg(41)).unwrap(),
    );
    let joint = submit_line(
        1,
        "globex",
        1,
        "joint",
        &serde_json::to_string(&joint_cfg(29)).unwrap(),
    );
    let solo_accel = solo_result(&accel);
    let solo_joint = solo_result(&joint);

    // Interleaving permutations: submission order × executor count ×
    // weights. The weight skew makes the scheduler issue generations in
    // a different order in each configuration.
    let permutations: &[(&str, usize, &[&str])] = &[
        ("accel first, one executor", 1, &[]),
        ("joint first, three executors", 3, &["joint_first"]),
        (
            "weighted accel, two executors",
            2,
            &["joint_first", "reweight"],
        ),
    ];
    for (label, executors, flags) in permutations {
        let gw = local_gateway(GatewayConfig {
            executors: *executors,
            ..GatewayConfig::default()
        });
        let (first, second) = if flags.contains(&"joint_first") {
            (&joint, &accel)
        } else {
            (&accel, &joint)
        };
        let first = if flags.contains(&"reweight") {
            first.replace(r#""weight":1"#, r#""weight":3"#)
        } else {
            first.clone()
        };
        let first_id = submit(&gw, &first);
        let second_id = submit(&gw, second);
        gw.wait_idle();
        let (accel_id, joint_id) = if flags.contains(&"joint_first") {
            (second_id, first_id)
        } else {
            (first_id, second_id)
        };
        assert_eq!(
            result_line(&gw, accel_id),
            solo_accel,
            "{label}: accel job result differs from its solo run"
        );
        assert_eq!(
            result_line(&gw, joint_id),
            solo_joint,
            "{label}: joint job result differs from its solo run"
        );
    }
}

/// Scheduler stress (the producer side of the Batcher/scheduler
/// concurrency satellite): N producer threads submit M jobs each with
/// seeded pseudo-random pacing. Every job must run to `done` with its
/// full generation count — nothing dropped, nothing run twice — and the
/// per-tenant accounting must balance exactly at shutdown: generation
/// counters equal to jobs × iterations per tenant, running/queued
/// gauges back to zero.
#[test]
fn producer_stress_accounts_every_generation_and_balances_to_zero() {
    let _guard = METRICS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    const PRODUCERS: usize = 3;
    const JOBS_PER_PRODUCER: usize = 3;
    const ITERATIONS: usize = 2;

    let before_submitted = metrics().gateway.jobs_submitted.get();
    let before_generations = metrics().gateway.job_generations.get();
    let tenant_before: Vec<u64> = (0..PRODUCERS)
        .map(|p| {
            metrics()
                .gateway
                .tenant_generations
                .get(&format!("stress-{p}"))
                .get()
        })
        .collect();

    let gw = Arc::new(local_gateway(GatewayConfig {
        executors: 2,
        tenant_quota: 1,
        max_jobs: PRODUCERS * JOBS_PER_PRODUCER,
    }));
    let job_ids: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|producer| {
                let gw = Arc::clone(&gw);
                scope.spawn(move || {
                    // Deterministic xorshift pacing, distinct per producer.
                    let mut rng = 0x9e3779b97f4a7c15u64 ^ (producer as u64 + 1);
                    let mut ids = Vec::new();
                    for j in 0..JOBS_PER_PRODUCER {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        std::thread::sleep(std::time::Duration::from_micros(rng % 500));
                        let mut cfg = accel_cfg(100 + (producer * JOBS_PER_PRODUCER + j) as u64);
                        cfg.population = 4;
                        cfg.iterations = ITERATIONS;
                        let line = submit_line(
                            1,
                            &format!("stress-{producer}"),
                            1 + (j as u64 % 2),
                            "accel",
                            &serde_json::to_string(&cfg).unwrap(),
                        );
                        ids.push(submit(&gw, &line));
                    }
                    ids
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(job_ids.len(), PRODUCERS * JOBS_PER_PRODUCER);
    // Ids are unique: no submission was lost or double-admitted.
    let mut sorted = job_ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), job_ids.len(), "duplicate job ids");

    gw.wait_idle();
    for &job_id in &job_ids {
        let status = result_of(&gw.respond(&format!(
            r#"{{"id":1,"cmd":"job_status","job_id":{job_id}}}"#
        )));
        assert_eq!(
            status.get("status"),
            Some(&Value::Str("done".to_string())),
            "job {job_id}: {status:?}"
        );
        assert_eq!(
            status.get("generation").and_then(Value::as_u64),
            Some(ITERATIONS as u64),
            "job {job_id} must run exactly its configured generations"
        );
    }

    // The books balance: every submission and generation is accounted
    // for, per tenant, and nothing is left running or queued.
    assert_eq!(
        metrics().gateway.jobs_submitted.get() - before_submitted,
        (PRODUCERS * JOBS_PER_PRODUCER) as u64
    );
    assert_eq!(
        metrics().gateway.job_generations.get() - before_generations,
        (PRODUCERS * JOBS_PER_PRODUCER * ITERATIONS) as u64
    );
    for (p, before) in tenant_before.iter().enumerate() {
        assert_eq!(
            metrics()
                .gateway
                .tenant_generations
                .get(&format!("stress-{p}"))
                .get()
                - before,
            (JOBS_PER_PRODUCER * ITERATIONS) as u64,
            "tenant stress-{p} generation accounting"
        );
    }
    assert_eq!(metrics().gateway.jobs_running.get(), 0);
    assert_eq!(metrics().gateway.jobs_queued.get(), 0);
}

/// Spawns an in-process TCP worker (the serving stack behind
/// `naas-search worker`), optionally with an injected per-candidate
/// evaluation delay — the deterministic stand-in for a slow machine.
fn spawn_slow_worker(threads: usize, eval_delay_us: u64) -> SocketAddr {
    let server = Arc::new(ServiceServer::start(inner_service(threads, eval_delay_us)));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let _ = server.serve_listener(listener);
    });
    addr
}

/// A worker that answers `fail_after` requests, then "crashes" (drops
/// its listener and every connection mid-call) and is immediately
/// "restarted" as a fresh serving stack on the same address — the
/// deterministic `kill && restart` of the chaos drill.
fn spawn_restartable_worker(fail_after: usize) -> SocketAddr {
    let service = inner_service(1, 0);
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

        // The restart: a brand-new serving stack rebinds the same port.
        let listener = loop {
            match TcpListener::bind(addr) {
                Ok(listener) => break listener,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        };
        let server = Arc::new(ServiceServer::start(inner_service(1, 0)));
        let _ = server.serve_listener(listener);
    });
    addr
}

/// The chaos e2e: two concurrent gateway jobs sharded over a two-worker
/// fleet where one worker runs with an injected evaluation-delay skew
/// and the other is killed mid-run and restarted on the same address.
/// Both jobs' results must still be byte-identical to their solo runs
/// on a local (fleet-less) gateway, the restarted worker must be
/// re-admitted, and the re-issue machinery must have fired.
#[test]
fn chaos_fleet_jobs_are_byte_identical_despite_skew_and_worker_restart() {
    let _guard = METRICS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let job_a = submit_line(
        1,
        "acme",
        1,
        "accel",
        &serde_json::to_string(&accel_cfg(67)).unwrap(),
    );
    let job_b = submit_line(
        1,
        "globex",
        2,
        "accel",
        &serde_json::to_string(&accel_cfg(71)).unwrap(),
    );
    let solo_a = solo_result(&job_a);
    let solo_b = solo_result(&job_b);

    // Fleet: one deliberately slow worker (evaluation-delay skew) and
    // one that crashes after the handshake + two answered shards, then
    // restarts on the same address.
    let addrs = vec![
        spawn_slow_worker(1, 300).to_string(),
        spawn_restartable_worker(3).to_string(),
    ];
    let coordinator = DistributedCoordinator::connect_fleet(&addrs).expect("fleet reachable");
    let fleet = SharedCoordinator::new(coordinator);
    let gw = GatewayService::start(
        inner_service(2, 0),
        Some(fleet.clone()),
        GatewayConfig {
            executors: 2,
            ..GatewayConfig::default()
        },
    );
    let id_a = submit(&gw, &job_a);
    let id_b = submit(&gw, &job_b);
    gw.wait_idle();

    assert_eq!(
        result_line(&gw, id_a),
        solo_a,
        "chaos fleet: job A differs from its solo run"
    );
    assert_eq!(
        result_line(&gw, id_b),
        solo_b,
        "chaos fleet: job B differs from its solo run"
    );
    // The chaos actually happened and was absorbed: the killed worker's
    // in-flight work was re-issued, and the restart was re-admitted at
    // a generation boundary.
    let stats = fleet.scheduler_stats();
    assert!(
        stats.reissues > 0,
        "the crashed worker's shard must have been re-issued: {stats:?}"
    );
    assert_eq!(
        fleet.live_workers(),
        2,
        "the restarted worker must be re-admitted"
    );
}

/// The gateway behind the generic server plumbing: a
/// `ServiceServer<GatewayService>` serving TCP answers the handshake
/// with the `jobs` capability, runs a submitted job, streams its
/// events, and serves base commands — over the very stream/batcher path
/// `naas-search gateway --port` uses.
#[test]
fn gateway_serves_jobs_over_tcp_through_the_shared_server_plumbing() {
    let _guard = METRICS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let gw = Arc::new(local_gateway(GatewayConfig {
        executors: 1,
        ..GatewayConfig::default()
    }));
    let server = Arc::new(ServiceServer::start(Arc::clone(&gw)));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = server.serve_listener(listener);
        });
    }

    let mut client = naas_engine::RemoteWorker::new(addr.to_string());
    let hello = client.call("hello", Vec::new()).expect("handshake");
    let caps = hello
        .get("capabilities")
        .and_then(Value::as_array)
        .expect("hello lists capabilities");
    assert!(caps.contains(&Value::Str("jobs".to_string())));

    let mut cfg = accel_cfg(83);
    cfg.population = 4;
    cfg.iterations = 2;
    let submitted = client
        .call(
            "job_submit",
            vec![
                (
                    "scenario".to_string(),
                    Value::Str("cifar-eyeriss".to_string()),
                ),
                ("tenant".to_string(), Value::Str("tcp".to_string())),
                ("config".to_string(), serde_json::to_value(&cfg)),
            ],
        )
        .expect("submit over TCP");
    let job_id = submitted
        .get("job_id")
        .and_then(Value::as_u64)
        .expect("job id");
    gw.wait_idle();

    let events = client
        .call(
            "job_events",
            vec![("job_id".to_string(), Value::U64(job_id))],
        )
        .expect("events over TCP");
    let list = events.get("events").and_then(Value::as_array).unwrap();
    // Two generations plus the terminal lifecycle event.
    assert_eq!(list.len(), 3, "events: {events:?}");
    assert_eq!(events.get("done"), Some(&Value::Bool(true)));

    let result = client
        .call(
            "job_result",
            vec![("job_id".to_string(), Value::U64(job_id))],
        )
        .expect("result over TCP");
    assert_eq!(result.get("kind"), Some(&Value::Str("accel".to_string())));

    // Base command fall-through on the same connection.
    let stats = client.call("cache_stats", Vec::new()).expect("cache_stats");
    assert!(stats.get("hits").is_some());
}

/// Two tenants' jobs interleave their generations on one shared,
/// skewed fleet (one straggler, tiny chunks, a 2 ms steal deadline).
/// Every result must still be byte-identical to its solo run, and
/// `job_events` cursor paging must reassemble the exact event stream of
/// each finished job.
#[test]
fn overlapped_tenants_stay_byte_identical_and_events_page_across_rollbacks() {
    let _guard = METRICS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let job_a = submit_line(
        1,
        "acme",
        1,
        "accel",
        &serde_json::to_string(&accel_cfg(173)).unwrap(),
    );
    let job_b = submit_line(
        1,
        "globex",
        2,
        "accel",
        &serde_json::to_string(&accel_cfg(179)).unwrap(),
    );
    let solo_a = solo_result(&job_a);
    let solo_b = solo_result(&job_b);

    // A skewed fleet (one straggler) forces steals and re-issues while
    // the tenants' generations interleave.
    let addrs = vec![
        spawn_slow_worker(1, 20_000).to_string(),
        spawn_slow_worker(1, 0).to_string(),
    ];
    let coordinator = DistributedCoordinator::connect_fleet(&addrs).expect("fleet reachable");
    let fleet = SharedCoordinator::new(coordinator);
    fleet.configure(Some(5), Some(std::time::Duration::from_millis(2)));
    let gw = GatewayService::start(
        inner_service(2, 0),
        Some(fleet.clone()),
        GatewayConfig {
            executors: 2,
            ..GatewayConfig::default()
        },
    );
    let id_a = submit(&gw, &job_a);
    let id_b = submit(&gw, &job_b);
    gw.wait_idle();

    assert_eq!(
        result_line(&gw, id_a),
        solo_a,
        "shared fleet: tenant acme differs from its solo run"
    );
    assert_eq!(
        result_line(&gw, id_b),
        solo_b,
        "shared fleet: tenant globex differs from its solo run"
    );

    // Cursor paging: for every cursor position, `since=k` must return
    // exactly the suffix of the single-shot stream, with a stable
    // `next` and terminal `done`.
    for id in [id_a, id_b] {
        let full = result_of(&gw.respond(&format!(
            r#"{{"id":"ev","cmd":"job_events","job_id":{id}}}"#
        )));
        let all = full
            .get("events")
            .and_then(Value::as_array)
            .expect("events array")
            .to_vec();
        assert!(!all.is_empty(), "a finished job has events: {full:?}");
        for k in 0..=all.len() {
            let page = result_of(&gw.respond(&format!(
                r#"{{"id":"ev","cmd":"job_events","job_id":{id},"since":{k}}}"#
            )));
            let events = page
                .get("events")
                .and_then(Value::as_array)
                .expect("events array");
            assert_eq!(
                events,
                &all[k..],
                "page at cursor {k} must be the exact suffix"
            );
            assert_eq!(
                page.get("next"),
                Some(&Value::U64(all.len() as u64)),
                "the cursor always advances to the stream head"
            );
            assert_eq!(
                page.get("done"),
                Some(&Value::Bool(true)),
                "a finished job's pages are terminal"
            );
        }
    }
}
