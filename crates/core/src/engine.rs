//! The co-search's handle on the `naas-engine` subsystem.
//!
//! A [`CoSearchEngine`] bundles what every search loop in this crate
//! draws on: a resolved worker count for the work-stealing evaluator,
//! and the hit/miss totals of the mapping memos its evaluations retire.
//! The memos themselves are not shared: each candidate evaluation owns a
//! [`MappingMemo`] that dies with it (see `naas_engine::cache`), so one
//! engine can back many searches — or a resident service — at flat
//! memory.
//!
//! Memoization is *sound* because values are content-addressed: the
//! inner mapping search for a layer is seeded from the design and layer
//! fingerprints (see `naas_engine::fingerprint`), never from slot,
//! generation or thread indices — so a memo hit returns exactly what a
//! fresh search would have computed.

use crate::mapping_search::MappingSearchResult;
use naas_engine::{CacheStats, MemoCache, MemoCounters};

/// One candidate evaluation's memo: layer shape → mapping-search
/// outcome on that candidate's design (`None` marks an un-mappable
/// layer, which is just as valuable to remember).
pub type MappingMemo = MemoCache<Option<MappingSearchResult>>;

/// Shared execution context for co-searches: worker pool size plus the
/// engine's memo totals.
pub struct CoSearchEngine {
    threads: usize,
    memos: MemoCounters,
}

impl CoSearchEngine {
    /// Creates an engine with `threads` workers (`0` = all cores) and
    /// zeroed memo totals.
    pub fn new(threads: usize) -> Self {
        CoSearchEngine {
            threads: naas_engine::resolve_threads(threads),
            memos: MemoCounters::default(),
        }
    }

    /// A single-threaded engine (useful for tests and baselines).
    pub fn single_threaded() -> Self {
        CoSearchEngine::new(1)
    }

    /// Resolved worker count (never 0).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The totals every finished [`MappingMemo`] of this engine is
    /// recorded into.
    pub fn cache(&self) -> &MemoCounters {
        &self.memos
    }

    /// Memo hit/miss totals (`entries` is 0: no memo outlives its
    /// candidate).
    pub fn cache_stats(&self) -> CacheStats {
        self.memos.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_resolution() {
        assert!(CoSearchEngine::new(0).threads() >= 1);
        assert_eq!(CoSearchEngine::new(3).threads(), 3);
        assert_eq!(CoSearchEngine::single_threaded().threads(), 1);
    }

    #[test]
    fn fresh_engine_has_empty_cache() {
        let engine = CoSearchEngine::single_threaded();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }
}
