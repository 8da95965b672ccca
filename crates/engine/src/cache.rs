//! Content-addressed memoization of per-layer search results, scoped
//! to one candidate evaluation.
//!
//! A [`MemoCache`] maps a [`LayerKey`] — the shape identity of a
//! convolution workload — to a search result. Two layers with equal keys
//! have identical cost under every `(accelerator, mapping)` pair, so
//! while one candidate design is being evaluated, every repeat of a
//! layer shape inside its networks (or inside the subnets of its NAS
//! evolution) reuses the first mapping search.
//!
//! The memo lives exactly as long as the evaluation that owns it. The
//! only reuse a NAAS search has is a layer shape repeating *inside* one
//! candidate: a hit never crossed a candidate boundary on any benchmark
//! workload, so a process-wide table only held memory. Dropping each
//! memo with its candidate keeps a resident `serve`/`worker` process at
//! flat memory without any cap or eviction policy. Its hit/miss counts
//! are folded into a long-lived [`MemoCounters`] when the evaluation
//! ends, which is what checkpoints, reports and the `cache_stats`
//! command read.
//!
//! Correctness requires the memoized value to be a pure function of the
//! key for the owning design. The engine achieves that by deriving
//! inner-search seeds from content ([`crate::fingerprint::derive_seed`])
//! — never from slot or generation indices.

use crate::fingerprint::fnv1a;
use naas_ir::ConvSpec;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Hashable identity of a convolution workload: two layers with equal
/// keys have identical cost under every `(accelerator, mapping)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LayerKey {
    batch: u64,
    in_channels: u64,
    out_channels: u64,
    in_y: u64,
    in_x: u64,
    kernel_r: u64,
    kernel_s: u64,
    stride: u64,
    padding: u64,
    groups: u64,
}

impl LayerKey {
    /// Extracts the shape key of a layer (name and kind are cost-neutral
    /// labels and are excluded).
    pub fn of(layer: &ConvSpec) -> Self {
        LayerKey {
            batch: layer.batch(),
            in_channels: layer.in_channels(),
            out_channels: layer.out_channels(),
            in_y: layer.in_y(),
            in_x: layer.in_x(),
            kernel_r: layer.kernel_r(),
            kernel_s: layer.kernel_s(),
            stride: layer.stride(),
            padding: layer.padding(),
            groups: layer.groups(),
        }
    }

    /// A stable 64-bit digest of the shape, used for seed derivation.
    pub fn fingerprint(&self) -> u64 {
        let fields = [
            self.batch,
            self.in_channels,
            self.out_channels,
            self.in_y,
            self.in_x,
            self.kernel_r,
            self.kernel_s,
            self.stride,
            self.padding,
            self.groups,
        ];
        let mut bytes = [0u8; 80];
        for (i, f) in fields.iter().enumerate() {
            bytes[i * 8..(i + 1) * 8].copy_from_slice(&f.to_le_bytes());
        }
        fnv1a(&bytes)
    }
}

/// Memo occupancy and effectiveness counters; serialized into
/// checkpoints and experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from a memo.
    pub hits: u64,
    /// Lookups that ran the computation.
    pub misses: u64,
    /// Entries resident in memos that are still alive. Counters read
    /// between evaluations (an engine's, a worker's) report 0: every
    /// memo dies with its candidate.
    pub entries: u64,
}

impl CacheStats {
    /// Fraction of lookups served from a memo, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A plain memo table from layer shape to a search result, owned by one
/// candidate evaluation (see the module docs).
///
/// # Examples
///
/// ```
/// use naas_engine::{LayerKey, MemoCache, MemoCounters};
///
/// let layer = naas_ir::ConvSpec::conv2d("l", 8, 8, (8, 8), (3, 3), 1, 1).unwrap();
/// let key = LayerKey::of(&layer);
///
/// let totals = MemoCounters::default();
/// let mut memo: MemoCache<u64> = MemoCache::new();
/// assert_eq!(*memo.get_or_compute(key, || 42), 42);
/// assert_eq!(*memo.get_or_compute(key, || unreachable!("served from the memo")), 42);
/// totals.record(&memo);
/// drop(memo); // the candidate is done; its entries go with it
///
/// let stats = totals.stats();
/// assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 0));
/// ```
#[derive(Debug, Clone)]
pub struct MemoCache<V> {
    map: HashMap<LayerKey, V>,
    hits: u64,
    misses: u64,
}

impl<V> Default for MemoCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> MemoCache<V> {
    /// Creates an empty memo.
    pub fn new() -> Self {
        MemoCache {
            map: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Returns the memoized value for `key`, running `compute` and
    /// inserting its result on miss.
    pub fn get_or_compute(&mut self, key: LayerKey, compute: impl FnOnce() -> V) -> &V {
        match self.map.entry(key) {
            std::collections::hash_map::Entry::Occupied(entry) => {
                self.hits += 1;
                entry.into_mut()
            }
            std::collections::hash_map::Entry::Vacant(entry) => {
                self.misses += 1;
                entry.insert(compute())
            }
        }
    }

    /// `true` if `key` is memoized (not counted as a lookup).
    pub fn contains(&self, key: &LayerKey) -> bool {
        self.map.contains_key(key)
    }

    /// This memo's counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.map.len() as u64,
        }
    }
}

/// Lifetime hit/miss totals of every memo an engine has retired:
/// shareable across threads, holding no entries.
#[derive(Debug, Default)]
pub struct MemoCounters {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MemoCounters {
    /// Adds a finished memo's hits and misses to the totals.
    pub fn record<V>(&self, memo: &MemoCache<V>) {
        self.hits.fetch_add(memo.hits, Ordering::Relaxed);
        self.misses.fetch_add(memo.misses, Ordering::Relaxed);
    }

    /// The totals so far (`entries` is always 0: no memo is resident
    /// here).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naas_ir::models;

    fn key(c: u64, k: u64) -> LayerKey {
        LayerKey {
            batch: 1,
            in_channels: c,
            out_channels: k,
            in_y: 8,
            in_x: 8,
            kernel_r: 3,
            kernel_s: 3,
            stride: 1,
            padding: 1,
            groups: 1,
        }
    }

    #[test]
    fn hit_does_not_recompute() {
        let mut memo: MemoCache<u64> = MemoCache::new();
        assert_eq!(*memo.get_or_compute(key(8, 8), || 42), 42);
        assert_eq!(
            *memo.get_or_compute(key(8, 8), || panic!("must not recompute")),
            42
        );
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert!(memo.contains(&key(8, 8)));
        assert!(!memo.contains(&key(8, 9)));
        // `contains` is not a lookup.
        assert_eq!(memo.stats().hits + memo.stats().misses, 2);

        let totals = MemoCounters::default();
        totals.record(&memo);
        totals.record(&memo);
        assert_eq!(
            totals.stats(),
            CacheStats {
                hits: 2,
                misses: 2,
                entries: 0
            }
        );
    }

    #[test]
    fn same_shape_same_key_distinct_fingerprints() {
        assert_eq!(key(4, 4), key(4, 4));
        assert_ne!(key(4, 4).fingerprint(), key(4, 5).fingerprint());
    }

    #[test]
    fn same_shape_same_key_different_name() {
        let a = ConvSpec::conv2d("a", 64, 64, (56, 56), (3, 3), 1, 1).unwrap();
        let b = ConvSpec::conv2d("b", 64, 64, (56, 56), (3, 3), 1, 1).unwrap();
        assert_eq!(LayerKey::of(&a), LayerKey::of(&b));
    }

    #[test]
    fn different_stride_different_key() {
        let a = ConvSpec::conv2d("a", 64, 64, (56, 56), (3, 3), 1, 1).unwrap();
        let b = ConvSpec::conv2d("b", 64, 64, (56, 56), (3, 3), 2, 1).unwrap();
        assert_ne!(LayerKey::of(&a), LayerKey::of(&b));
    }

    #[test]
    fn cache_hits_do_not_recompute() {
        // A repeat of a layer shape under another name is a hit.
        let l = ConvSpec::conv2d("a", 8, 8, (8, 8), (3, 3), 1, 1).unwrap();
        let repeat = ConvSpec::conv2d("b", 8, 8, (8, 8), (3, 3), 1, 1).unwrap();
        let mut memo: MemoCache<u32> = MemoCache::new();
        memo.get_or_compute(LayerKey::of(&l), || 1);
        let v = *memo.get_or_compute(LayerKey::of(&repeat), || panic!("must not recompute"));
        assert_eq!(v, 1);
    }

    #[test]
    fn resnet_dedupes_substantially() {
        let net = models::resnet50(224);
        let mut memo: MemoCache<u32> = MemoCache::new();
        for l in net.layers() {
            memo.get_or_compute(LayerKey::of(l), || 0);
        }
        let stats = memo.stats();
        assert_eq!(stats.misses, stats.entries);
        assert!(
            stats.entries as usize * 2 < net.len(),
            "expected ≥2× dedup: {} shapes for {} layers",
            stats.entries,
            net.len()
        );
    }
}
