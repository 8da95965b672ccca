//! End-to-end checks of the `naas-search` binary: option validation and
//! resuming checkpoints written by older builds.

use naas::service::{BatchEvalService, ServiceConfig, ServiceServer};
use naas::{accel_search_init, AccelSearchConfig, AccelSearchState, CoSearchEngine};
use naas::{MappingSearchConfig, ShardPlan};
use naas_cost::CostModel;
use naas_engine::{checkpoint, scenario};
use serde::Value;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::Arc;

fn naas_search(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_naas-search"))
        .args(args)
        .output()
        .expect("naas-search runs")
}

fn assert_refused(args: &[&str], needles: &[&str]) {
    let out = naas_search(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} must exit non-zero");
    for needle in needles {
        assert!(
            stderr.contains(needle),
            "{args:?}: stderr must name {needle}: {stderr}"
        );
    }
}

/// An option no command reads is refused, not silently dropped: the
/// retired `--overlap`, `--cache-cap` and `--cache-file`, a typo of a
/// real flag, and a real flag given to a command that does not take it. `--microshards 0`, which once
/// selected the static plan, is refused with a message saying so.
#[test]
fn unknown_options_exit_non_zero_and_name_the_flag() {
    assert_refused(
        &[
            "run",
            "cifar-eyeriss",
            "--preset",
            "smoke",
            "--overlap",
            "on",
        ],
        &["--overlap"],
    );
    assert_refused(
        &["run", "cifar-eyeriss", "--microshard", "3"],
        &["--microshard"],
    );
    assert_refused(&["gateway", "--checkpoint", "x.ckpt"], &["--checkpoint"]);
    // The retired memo-cache options, on every command that took them.
    assert_refused(
        &[
            "run",
            "cifar-eyeriss",
            "--preset",
            "smoke",
            "--cache-cap",
            "5",
        ],
        &["--cache-cap"],
    );
    assert_refused(
        &["resume", "x.ckpt", "--cache-file", "x"],
        &["--cache-file"],
    );
    for command in ["serve", "worker", "gateway"] {
        assert_refused(&[command, "--cache-cap", "5"], &["--cache-cap"]);
        assert_refused(&[command, "--cache-file", "x"], &["--cache-file"]);
    }
    assert_refused(
        &[
            "run",
            "cifar-eyeriss",
            "--preset",
            "smoke",
            "--microshards",
            "0",
        ],
        &["--microshards 0", "static", "removed"],
    );
}

/// Spawns an in-process TCP worker (the serving stack behind
/// `naas-search worker`) and returns its address.
fn spawn_worker() -> String {
    let service = BatchEvalService::new(ServiceConfig {
        threads: 1,
        mapping: MappingSearchConfig::quick(7),
        eval_delay_us: 0,
    })
    .expect("no cache file to load");
    let server = Arc::new(ServiceServer::start(Arc::new(service)));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("bound socket").to_string();
    std::thread::spawn(move || {
        let _ = server.serve_listener(listener);
    });
    addr
}

fn field(object: &Value, key: &str) -> Value {
    object.get(key).cloned().unwrap_or(Value::Null)
}

/// A checkpoint from a build that had the static plan and generation
/// overlap (`"microshards": 0, "overlap": true` in its shard plan)
/// resumes over its recorded fleet on the default scheduler, and the
/// finished state is byte-identical to an uninterrupted run.
#[test]
fn old_static_overlap_checkpoint_resumes_byte_identical_over_a_fleet() {
    let scenario = scenario::find("cifar-eyeriss").expect("registered scenario");
    let job = scenario.resolve().expect("scenario resolves");
    let mut cfg = AccelSearchConfig::quick(31);
    cfg.population = 4;
    cfg.iterations = 3;
    cfg.mapping = MappingSearchConfig::quick(7);
    cfg.threads = 1;
    let engine = CoSearchEngine::new(1);
    let model = CostModel::new();

    let mut expected = accel_search_init(&job.constraint, &cfg, &[]);
    let mut interrupted = expected.clone();
    while naas::accel_search_step(&engine, &model, &job.networks, &mut expected) {}
    assert!(naas::accel_search_step(
        &engine,
        &model,
        &job.networks,
        &mut interrupted
    ));

    let workers = vec![spawn_worker(), spawn_worker()];
    let old_plan = Value::Object(vec![
        ("workers".to_string(), serde_json::to_value(&workers)),
        ("microshards".to_string(), Value::U64(0)),
        ("steal_deadline_ms".to_string(), Value::U64(500)),
        ("overlap".to_string(), Value::Bool(true)),
    ]);
    let snapshot = Value::Object(vec![
        ("scenario".to_string(), serde_json::to_value(&scenario)),
        ("state".to_string(), serde_json::to_value(&interrupted)),
        ("shards".to_string(), old_plan),
    ]);
    let path: PathBuf =
        std::env::temp_dir().join(format!("naas-cli-old-plan-{}.ckpt", std::process::id()));
    checkpoint::save(&path, &snapshot).expect("checkpoint written");

    let out = naas_search(&["resume", path.to_str().expect("utf-8 temp path")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "resume failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("re-dialed recorded shard plan"), "{stdout}");

    // `resume` keeps checkpointing to the file it came from, so the
    // file now holds the finished state and the plan it ran on.
    let finished: Value = checkpoint::load(&path).expect("final checkpoint");
    std::fs::remove_file(&path).ok();
    let mut resumed: AccelSearchState =
        serde_json::from_value(&field(&finished, "state")).expect("state parses");
    let plan: ShardPlan = serde_json::from_value(&field(&finished, "shards")).expect("plan parses");
    assert_eq!(plan.workers, workers);
    assert_eq!(
        plan.microshards,
        Some(naas::distributed::DEFAULT_MICROSHARDS),
        "the removed static plan resumes on the default scheduler"
    );
    assert_eq!(field(&field(&finished, "shards"), "overlap"), Value::Null);

    // Fleet cache counters are the workers', not the local engine's.
    resumed.cache_stats = Default::default();
    expected.cache_stats = Default::default();
    assert_eq!(
        serde_json::to_string(&resumed).expect("state serializes"),
        serde_json::to_string(&expected).expect("state serializes"),
        "the resumed run must be byte-identical to the uninterrupted one"
    );
}
