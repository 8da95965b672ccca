//! In-process TCP services: worker fleets and the gateway, each served
//! by the program's own `ServiceServer` on an ephemeral loopback port,
//! plus the benchmark-owned wrapper that times every request a worker
//! answers.

use crate::host::thread_cpu_ns;
use crate::trace::Tracer;
use naas::service::{BatchEvalService, ServiceConfig, ServiceServer, WireService};
use naas_engine::service::{ParseFailure, Request};
use naas_engine::{CheckpointError, RemoteWorker};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a stopped server may take to release its last thread.
const STOP_TIMEOUT: Duration = Duration::from_secs(20);

/// What the worker-side wrapper measured.
#[derive(Debug, Default, Clone)]
pub struct ServiceStats {
    /// Requests answered (all commands).
    pub requests: u64,
    /// Bytes of every reply line.
    pub reply_bytes: u64,
    /// Wall seconds of each `evaluate_shard` request.
    pub shard_secs: Vec<f64>,
    /// On-CPU seconds of the answering thread over `evaluate_shard`
    /// requests.
    pub shard_cpu_s: f64,
}

/// A [`BatchEvalService`] whose requests are timed when a tracer is
/// attached; without one it only forwards.
pub struct TimedService {
    inner: BatchEvalService,
    tracer: Option<Arc<Tracer>>,
    /// The generation the accel search loop is on, stamped on worker
    /// spans (0 under the gateway, whose shards do not say which job
    /// they belong to).
    trace_id: Arc<AtomicU64>,
    stats: Mutex<ServiceStats>,
}

impl TimedService {
    /// What has been measured so far.
    pub fn stats(&self) -> ServiceStats {
        self.stats
            .lock()
            .expect("stats lock poisoned by a panicking request")
            .clone()
    }

    /// The wrapped service.
    pub fn inner(&self) -> &BatchEvalService {
        &self.inner
    }
}

impl WireService for TimedService {
    fn answer(&self, parsed: &Result<Request, ParseFailure>) -> String {
        let Some(tracer) = &self.tracer else {
            return self.inner.answer(parsed);
        };
        let cmd = parsed.as_ref().map_or("unparsed", |r| r.cmd.as_str());
        let open = tracer.start(
            format!("service.{cmd}"),
            self.trace_id.load(Ordering::Relaxed),
            None,
        );
        let cpu0 = thread_cpu_ns();
        let started = Instant::now();
        let reply = self.inner.answer(parsed);
        let secs = started.elapsed().as_secs_f64();
        let cpu = thread_cpu_ns().saturating_sub(cpu0) as f64 * 1e-9;
        tracer.end(open);
        let mut stats = self
            .stats
            .lock()
            .expect("stats lock poisoned by a panicking request");
        stats.requests += 1;
        stats.reply_bytes += reply.len() as u64 + 1;
        if cmd == "evaluate_shard" {
            stats.shard_secs.push(secs);
            stats.shard_cpu_s += cpu;
        }
        reply
    }

    fn threads(&self) -> usize {
        self.inner.threads()
    }

    fn persist_cache(&self) -> Result<(), CheckpointError> {
        self.inner.persist_cache()
    }
}

/// A service listening on a loopback port.
pub struct Served<S: WireService> {
    /// `host:port`.
    pub addr: String,
    /// The served service.
    pub service: Arc<S>,
    listener: JoinHandle<std::io::Result<bool>>,
}

/// Serves `service` on an ephemeral loopback port.
pub fn serve<S: WireService>(service: Arc<S>) -> Result<Served<S>, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let server = Arc::new(ServiceServer::start(Arc::clone(&service)));
    let listener = std::thread::spawn(move || server.serve_listener(listener));
    Ok(Served {
        addr,
        service,
        listener,
    })
}

impl<S: WireService> Served<S> {
    /// Sends `shutdown`, joins the listener and waits until every server
    /// thread has released the service. Close every client connection
    /// first: connection threads end only when their peer hangs up.
    pub fn stop(self) -> Result<(), String> {
        let mut client = RemoteWorker::new(self.addr.clone());
        client
            .call("shutdown", Vec::new())
            .map_err(|e| format!("shutdown of {}: {e}", self.addr))?;
        drop(client);
        match self.listener.join() {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => return Err(format!("listener of {}: {e}", self.addr)),
            Err(_) => return Err(format!("listener of {} panicked", self.addr)),
        }
        let deadline = Instant::now() + STOP_TIMEOUT;
        while Arc::strong_count(&self.service) > 1 {
            if Instant::now() > deadline {
                return Err(format!("server threads of {} did not stop", self.addr));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }
}

/// Starts one single-threaded worker: the serving stack behind
/// `naas-search worker`, wrapped in a [`TimedService`].
pub fn spawn_worker(
    tracer: Option<Arc<Tracer>>,
    trace_id: Arc<AtomicU64>,
) -> Result<Served<TimedService>, String> {
    let inner = BatchEvalService::new(ServiceConfig {
        threads: 1,
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("worker service: {e}"))?;
    serve(Arc::new(TimedService {
        inner,
        tracer,
        trace_id,
        stats: Mutex::new(ServiceStats::default()),
    }))
}

/// Stops every server, reporting the first failure.
pub fn stop_all<S: WireService>(servers: Vec<Served<S>>) -> Result<(), String> {
    let mut first = Ok(());
    for server in servers {
        let outcome = server.stop();
        if first.is_ok() {
            first = outcome;
        }
    }
    first
}
