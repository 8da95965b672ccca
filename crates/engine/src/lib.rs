//! # naas-engine — search orchestration for the NAAS co-search
//!
//! The shared execution substrate under every search loop in this
//! repository (`naas::accel_search`, `naas::joint`, the baselines, and
//! the `naas-bench` experiment drivers):
//!
//! * [`pool`] — a work-stealing parallel evaluator returning results in
//!   job order, so every caller is deterministic by construction at any
//!   thread count (`0` = all cores);
//! * [`cache`] — a content-addressed memo, [`cache::LayerKey`] →
//!   inner-search result, that lives exactly as long as one candidate
//!   evaluation, plus the engine-wide hit/miss totals it folds into;
//! * [`mod@fingerprint`] — stable content hashes and the content-derived
//!   seeding rule that makes memoization sound (a memoized result is a
//!   pure function of its key);
//! * [`checkpoint`] — atomic JSON save/load of serializable search
//!   state, restoring searches bit-exactly after interruption;
//! * [`scenario`] — declaratively registered evaluation workloads
//!   resolved into networks + resource envelopes;
//! * [`service`] — the JSON-lines wire protocol and the coalescing
//!   request [`Batcher`] under the batch-evaluation service mode
//!   (`naas-search serve`);
//! * [`remote`] — the client side of the same wire protocol: a blocking
//!   JSONL RPC handle on a remote worker process, under the distributed
//!   search coordinator (`naas-search run --workers`);
//! * [`telemetry`] — passive fleet observability: a process-global
//!   registry of atomic counters/gauges/histograms with a serializable
//!   snapshot (the `metrics` service command), and a structured JSONL
//!   event log behind the human-readable stderr messages.
//!
//! The engine deliberately knows nothing about *what* is being searched:
//! it moves job indices, hashes serialized content, and stores opaque
//! values. The co-search semantics (encodings, rewards, optimizers) stay
//! in `naas`, which keeps the dependency arrow pointing one way and lets
//! the same machinery drive mapping searches, NAS evolutions and
//! batch-evaluation services alike.
//!
//! ```
//! use naas_engine::prelude::*;
//!
//! // Order-preserving parallel evaluation; each job owns a short-lived
//! // memo and folds its counts into the shared totals when it ends.
//! let totals = MemoCounters::default();
//! let jobs: Vec<u64> = (0..32).collect();
//! let results = parallel_map(0, &jobs, |_idx, &job| {
//!     let mut memo: MemoCache<u64> = MemoCache::new();
//!     let mut sum = 0;
//!     for c in [8, 16, 8, 8] {
//!         let layer = naas_ir::ConvSpec::conv2d("l", c, c, (8, 8), (3, 3), 1, 1).unwrap();
//!         sum += *memo.get_or_compute(LayerKey::of(&layer), || job * c);
//!     }
//!     totals.record(&memo);
//!     sum
//! });
//! assert_eq!(results[1], 40);
//! assert!((totals.stats().hit_rate() - 0.5).abs() < 1e-12);
//! ```

pub mod cache;
pub mod checkpoint;
pub mod fingerprint;
pub mod pool;
pub mod remote;
pub mod scenario;
pub mod service;
pub mod telemetry;

pub use cache::{CacheStats, LayerKey, MemoCache, MemoCounters};
pub use checkpoint::{CheckpointError, CheckpointPolicy};
pub use fingerprint::{derive_seed, fingerprint};
pub use pool::{parallel_map, resolve_threads};
pub use remote::{RemoteError, RemoteWorker};
pub use scenario::{EvalJob, NetworkSpec, Scenario, ScenarioError};
pub use service::{Batcher, ParseFailure, Request, PROTOCOL_VERSION};
pub use telemetry::{EventLog, Level, Metrics, MetricsSnapshot};

/// Convenience re-exports for engine users.
pub mod prelude {
    pub use crate::cache::{CacheStats, LayerKey, MemoCache, MemoCounters};
    pub use crate::checkpoint::CheckpointPolicy;
    pub use crate::fingerprint::{derive_seed, fingerprint};
    pub use crate::pool::{parallel_map, resolve_threads};
    pub use crate::scenario::{EvalJob, NetworkSpec, Scenario};
    pub use crate::telemetry::{events, metrics, Level, MetricsSnapshot};
}
