//! Operation statistics for the storage hierarchy.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Atomic counters backing one cache tier's statistics.
#[derive(Debug, Default)]
pub(crate) struct TierCounters {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub insertions: AtomicU64,
    pub evictions: AtomicU64,
    pub bytes_read: AtomicU64,
    pub bytes_written: AtomicU64,
}

impl TierCounters {
    pub fn snapshot(&self, used_bytes: u64, pinned_bytes: u64, entries: u64) -> TierStats {
        TierStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            used_bytes,
            pinned_bytes,
            entries,
        }
    }
}

/// Point-in-time statistics of a cache tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Lookups served from this tier.
    pub hits: u64,
    /// Lookups that fell through to the next tier.
    pub misses: u64,
    /// Entries inserted (including promotions).
    pub insertions: u64,
    /// Entries evicted under capacity pressure.
    pub evictions: u64,
    /// Bytes served from this tier.
    pub bytes_read: u64,
    /// Bytes written into this tier.
    pub bytes_written: u64,
    /// Current resident bytes.
    pub used_bytes: u64,
    /// Bytes held by pinned (non-evictable) entries.
    pub pinned_bytes: u64,
    /// Current resident entries.
    pub entries: u64,
}

impl TierStats {
    /// Hit ratio in `[0, 1]`; `None` when no lookups happened.
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

/// Atomic counters for shared storage.
#[derive(Debug, Default)]
pub(crate) struct SharedCounters {
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub deletes: AtomicU64,
    pub bytes_read: AtomicU64,
    pub bytes_written: AtomicU64,
}

impl SharedCounters {
    pub fn snapshot(&self, charged: Duration) -> SharedStats {
        SharedStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            charged_latency: charged,
        }
    }
}

/// Point-in-time statistics of the shared storage layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedStats {
    /// Read operations (whole-object or range).
    pub reads: u64,
    /// Object creations.
    pub writes: u64,
    /// Object deletions.
    pub deletes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Accumulated virtual latency charged by the latency model.
    pub charged_latency: Duration,
}

/// Hit/miss counters of one access pattern's verified lookups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatternCounters {
    /// Lookups served by a verified RAM entry.
    pub hits: u64,
    /// Lookups that fell through to a chunk read.
    pub misses: u64,
}

/// Point-in-time statistics of the RAM tier's *verified* entries: the
/// blocks a read has checksummed, which a block read is served from as a
/// decoded-block cache would serve it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodedCacheStats {
    /// Verified lookups served from RAM (no chunk read, no checksum), all
    /// patterns combined.
    pub hits: u64,
    /// Verified lookups that fell through to a chunk read, all patterns
    /// combined.
    pub misses: u64,
    /// Point/batch-lookup traffic.
    pub point: PatternCounters,
    /// Range-scan traffic.
    pub scan: PatternCounters,
    /// Background-maintenance traffic (merge, groom).
    pub maintenance: PatternCounters,
    /// Blocks that became verified (admitted).
    pub insertions: u64,
    /// Verified blocks evicted under capacity pressure.
    pub evictions: u64,
    /// Always 0: the tier admits every block it does not bypass (those
    /// count under `bypassed_inserts`). No counter stands behind this
    /// field; it exists only because `benchmark/src/sut.rs` reads it
    /// (ROADMAP direction 5, dead probes).
    pub admission_rejected: u64,
    /// Blocks promoted into the protected segment by a point lookup's
    /// re-reference.
    pub promotions: u64,
    /// Blocks demoted from protected back to probation (segment cap).
    pub demotions: u64,
    /// Verifications that admitted nothing: maintenance traffic and
    /// blocks larger than a shard.
    pub bypassed_inserts: u64,
    /// Currently resident verified blocks.
    pub entries: u64,
    /// Raw-block bytes of resident verified blocks.
    pub used_bytes: u64,
    /// Verified bytes resident in the probation segment.
    pub probation_bytes: u64,
    /// Bytes resident in the protected segment (all verified).
    pub protected_bytes: u64,
    /// Cumulative raw-block bytes a read verified and decoded (admitted or
    /// not) — approximates total bytes parsed.
    pub decoded_bytes: u64,
}

impl DecodedCacheStats {
    /// Hit ratio in `[0, 1]` over all patterns; `None` when no lookups
    /// happened.
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

/// Combined statistics across the full hierarchy.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageStats {
    /// The RAM tier as a chunk tier: `hits` / `misses` count the RAM
    /// lookups of `read_chunk`, verified entries or not; the byte and
    /// entry figures cover every resident chunk.
    pub mem: TierStats,
    /// SSD tier.
    pub ssd: TierStats,
    /// Shared storage.
    pub shared: SharedStats,
    /// The RAM tier's verified entries: a block read's verified lookups per
    /// access pattern, and the verified blocks resident.
    pub decoded: DecodedCacheStats,
    /// Total `read_chunk` calls: every block read that misses a verified
    /// entry, plus raw chunk reads (run headers), whichever tier served
    /// them. `chunk_reads + decoded.hits` is one count per block access —
    /// the per-operation cost metric the read-path benchmarks and tests
    /// track.
    pub chunk_reads: u64,
    /// Virtual latency charged by the SSD tier.
    pub ssd_charged_latency: Duration,
    /// Shared-storage operations re-attempted after a transient failure.
    pub retries: u64,
    /// Operations that kept failing transiently until the retry budget ran
    /// out (the error then propagated to the caller).
    pub retries_exhausted: u64,
    /// `retries`, broken down per op class (indexed by
    /// [`OpClass::index`](crate::OpClass::index): block fetch / manifest /
    /// delta / GC) so breaker behavior is attributable.
    pub retries_by_class: [u64; 4],
    /// `retries_exhausted`, broken down per op class.
    pub retries_exhausted_by_class: [u64; 4],
    /// Retry sleeps clamped by a query deadline: the remaining budget was
    /// shorter than the next backoff step, so the operation returned
    /// `DeadlineExceeded` instead of sleeping past the deadline.
    pub deadline_aborted_retries: u64,
    /// Operations abandoned at a cooperative cancellation checkpoint inside
    /// the retry loop.
    pub cancelled_retries: u64,
    /// GC delete attempts that exhausted retries; the object name is parked
    /// in the leaked-object registry for the janitor to re-attempt.
    pub gc_delete_failures: u64,
    /// Leaked objects currently awaiting janitor re-delete.
    pub gc_leaked_outstanding: u64,
    /// Leaked objects the janitor successfully re-deleted (or found already
    /// gone).
    pub gc_leaked_reclaimed: u64,
    /// Circuit-breaker state per op class (0 = closed, 1 = open,
    /// 2 = half-open).
    pub breaker_state: [u8; 4],
    /// Cumulative breaker state transitions per op class.
    pub breaker_transitions: [u64; 4],
    /// Operations rejected fast by an open breaker, per op class.
    pub breaker_rejections: [u64; 4],
    /// Chunks re-fetched from shared storage after a checksum mismatch, to
    /// distinguish in-transit bit flips from at-rest corruption.
    pub corruption_refetches: u64,
    /// Chunks fetched ahead of demand
    /// ([`TieredStorage::prefetch_objects`](crate::TieredStorage::prefetch_objects):
    /// batched shared-storage reads staged into the cache tiers). Each is
    /// later a prefetch hit, wasted, or still outstanding.
    pub blocks_prefetched: u64,
    /// `read_chunk` calls served by a chunk that prefetch staged (the
    /// readahead paid off).
    pub prefetch_hits: u64,
    /// Staged chunks that never served a read — wasted IO: aged out of the
    /// prefetch tracking window, staged again after an eviction, or fetched
    /// again by a demand miss.
    pub prefetch_wasted: u64,
}

/// A cheap sample of the storage counters a per-query trace attributes by
/// delta: probe once before the operation, once after, and subtract.
/// Unlike [`StorageStats`] this reads four atomics and takes no locks, so
/// it is safe on the query hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceProbe {
    /// Total `read_chunk` calls (block reads through the tiers).
    pub chunk_reads: u64,
    /// Verified RAM hits across all access patterns.
    pub cache_hits: u64,
    /// Cumulative bytes block reads verified and decoded.
    pub decoded_bytes: u64,
    /// Shared-storage operations re-attempted after transient failures.
    pub retries: u64,
}

impl TraceProbe {
    /// Counter deltas since `earlier` (saturating: counters only grow, but
    /// a probe pair straddling a concurrent reset must not wrap).
    pub fn since(&self, earlier: &TraceProbe) -> TraceProbe {
        TraceProbe {
            chunk_reads: self.chunk_reads.saturating_sub(earlier.chunk_reads),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            decoded_bytes: self.decoded_bytes.saturating_sub(earlier.decoded_bytes),
            retries: self.retries.saturating_sub(earlier.retries),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio() {
        let mut s = TierStats::default();
        assert_eq!(s.hit_ratio(), None);
        s.hits = 3;
        s.misses = 1;
        assert_eq!(s.hit_ratio(), Some(0.75));
    }

    #[test]
    fn counters_snapshot() {
        let c = TierCounters::default();
        c.hits.fetch_add(5, Ordering::Relaxed);
        c.bytes_read.fetch_add(100, Ordering::Relaxed);
        let s = c.snapshot(10, 2, 1);
        assert_eq!(s.hits, 5);
        assert_eq!(s.bytes_read, 100);
        assert_eq!(s.used_bytes, 10);
        assert_eq!(s.pinned_bytes, 2);
    }
}
