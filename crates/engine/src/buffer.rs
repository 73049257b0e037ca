//! Buffer pool with pluggable eviction.
//!
//! The disk backend routes every page touch through this pool; hits are
//! charged at buffered-page cost, misses at cold-read cost. The paper's
//! metrics catalog names **cache hit rate** as the metric for systems that
//! prefetch or cache (Table 3), and notes that eviction-based policies
//! (LRU, FIFO) underperform predictive caching — the pool exposes both
//! eviction policies so `ids-opt`'s predictive prefetchers have a baseline
//! to beat.

use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ids_obs::metrics::{metrics, Counter};

use crate::page::PageId;

/// Eviction policy for the buffer pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used page.
    Lru,
    /// Evict the oldest-loaded page.
    Fifo,
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Page requests served from the pool.
    pub hits: u64,
    /// Page requests that required a cold read.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
}

impl BufferPoolStats {
    /// Hit rate in `[0, 1]`; zero when no requests were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct PoolInner {
    /// Resident pages.
    frames: HashSet<PageId>,
    /// Recency / insertion order, front = next eviction victim.
    order: VecDeque<PageId>,
}

/// Per-pool counters, owned by the pool but *attached* to the creating
/// thread's `ids-obs` registry so its snapshots (`engine.buffer.hits`
/// etc.) sum every live pool while `BufferPool::stats()` keeps returning
/// this pool's own numbers.
#[derive(Debug)]
struct PoolCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

impl PoolCounters {
    fn new() -> PoolCounters {
        let c = PoolCounters {
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            evictions: Arc::new(Counter::new()),
        };
        let reg = metrics();
        reg.attach_counter("engine.buffer.hits", &c.hits);
        reg.attach_counter("engine.buffer.misses", &c.misses);
        reg.attach_counter("engine.buffer.evictions", &c.evictions);
        c
    }
}

/// A fixed-capacity page cache.
///
/// ```
/// use ids_engine::{BufferPool, EvictionPolicy, PageId};
///
/// let pool = BufferPool::new(2, EvictionPolicy::Lru);
/// let a = PageId { table: 0, page_no: 0 };
/// let b = PageId { table: 0, page_no: 1 };
/// let c = PageId { table: 0, page_no: 2 };
/// assert!(!pool.touch(a)); // miss
/// assert!(!pool.touch(b)); // miss
/// assert!(pool.touch(a));  // hit
/// assert!(!pool.touch(c)); // miss, evicts b (LRU)
/// assert!(!pool.touch(b)); // miss again
/// ```
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    policy: EvictionPolicy,
    inner: Mutex<PoolInner>,
    counters: PoolCounters,
}

impl Drop for BufferPool {
    /// Folds this pool's counts into the registry's owned counters so
    /// totals survive the pool itself (the attached instances die with
    /// the `Arc`s; without this, a dropped pool's traffic would vanish
    /// from end-of-run snapshots). The registry is the *dropping*
    /// thread's: a pool built, driven and dropped by one driver keeps
    /// its counts there; one dropped on another thread leaves them on
    /// that thread.
    fn drop(&mut self) {
        let reg = metrics();
        reg.counter("engine.buffer.hits")
            .add(self.counters.hits.get());
        reg.counter("engine.buffer.misses")
            .add(self.counters.misses.get());
        reg.counter("engine.buffer.evictions")
            .add(self.counters.evictions.get());
    }
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` pages.
    pub fn new(capacity: usize, policy: EvictionPolicy) -> BufferPool {
        BufferPool {
            capacity: capacity.max(1),
            policy,
            inner: Mutex::new(PoolInner {
                frames: HashSet::with_capacity(capacity),
                order: VecDeque::with_capacity(capacity),
            }),
            counters: PoolCounters::new(),
        }
    }

    /// No update of `frames`/`order` can panic half-way, so a lock
    /// poisoned by a panicking holder still guards valid data: recover it.
    fn lock(&self) -> MutexGuard<'_, PoolInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Page capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Touches a page: returns `true` on a hit, `false` on a miss (the
    /// page is then loaded, evicting if necessary).
    pub fn touch(&self, id: PageId) -> bool {
        let mut inner = self.lock();
        if inner.frames.contains(&id) {
            self.counters.hits.inc();
            if self.policy == EvictionPolicy::Lru {
                // Move to the back of the recency queue.
                if let Some(pos) = inner.order.iter().position(|&p| p == id) {
                    inner.order.remove(pos);
                    inner.order.push_back(id);
                }
            }
            return true;
        }
        self.counters.misses.inc();
        if inner.frames.len() >= self.capacity {
            if let Some(victim) = inner.order.pop_front() {
                inner.frames.remove(&victim);
                self.counters.evictions.inc();
            }
        }
        inner.frames.insert(id);
        inner.order.push_back(id);
        false
    }

    /// Touches a contiguous run of pages, returning `(hits, misses)`.
    pub fn touch_range(&self, table: u32, pages: std::ops::Range<usize>) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for page_no in pages {
            let id = PageId {
                table,
                page_no: page_no as u32,
            };
            if self.touch(id) {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        (hits, misses)
    }

    /// `true` if the page is currently resident (does not count as a touch).
    pub fn contains(&self, id: PageId) -> bool {
        self.lock().frames.contains(&id)
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.lock().frames.len()
    }

    /// Cumulative statistics for *this* pool (the registry's
    /// `engine.buffer.*` metrics sum all pools attached to it).
    pub fn stats(&self) -> BufferPoolStats {
        BufferPoolStats {
            hits: self.counters.hits.get(),
            misses: self.counters.misses.get(),
            evictions: self.counters.evictions.get(),
        }
    }

    /// Drops all pages and zeroes the statistics.
    pub fn reset(&self) {
        let mut inner = self.lock();
        inner.frames.clear();
        inner.order.clear();
        self.counters.hits.reset();
        self.counters.misses.reset();
        self.counters.evictions.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u32) -> PageId {
        PageId {
            table: 0,
            page_no: n,
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let pool = BufferPool::new(2, EvictionPolicy::Lru);
        pool.touch(pid(0));
        pool.touch(pid(1));
        pool.touch(pid(0)); // 0 is now most recent
        pool.touch(pid(2)); // evicts 1
        assert!(pool.contains(pid(0)));
        assert!(!pool.contains(pid(1)));
        assert!(pool.contains(pid(2)));
    }

    #[test]
    fn fifo_evicts_oldest_insert() {
        let pool = BufferPool::new(2, EvictionPolicy::Fifo);
        pool.touch(pid(0));
        pool.touch(pid(1));
        pool.touch(pid(0)); // hit, but FIFO order unchanged
        pool.touch(pid(2)); // evicts 0 (oldest insert)
        assert!(!pool.contains(pid(0)));
        assert!(pool.contains(pid(1)));
        assert!(pool.contains(pid(2)));
    }

    #[test]
    fn stats_track_hits_misses_evictions() {
        let pool = BufferPool::new(2, EvictionPolicy::Lru);
        pool.touch(pid(0));
        pool.touch(pid(0));
        pool.touch(pid(1));
        pool.touch(pid(2));
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
        assert_eq!(s.evictions, 1);
        assert!((s.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn touch_range_counts() {
        let pool = BufferPool::new(10, EvictionPolicy::Lru);
        let (h, m) = pool.touch_range(0, 0..4);
        assert_eq!((h, m), (0, 4));
        let (h, m) = pool.touch_range(0, 2..6);
        assert_eq!((h, m), (2, 2));
    }

    #[test]
    fn resident_never_exceeds_capacity() {
        let pool = BufferPool::new(3, EvictionPolicy::Lru);
        for i in 0..100 {
            pool.touch(pid(i));
            assert!(pool.resident() <= 3);
        }
    }

    #[test]
    fn reset_clears_everything() {
        let pool = BufferPool::new(2, EvictionPolicy::Lru);
        pool.touch(pid(0));
        pool.reset();
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.stats(), BufferPoolStats::default());
    }

    #[test]
    fn hit_rate_with_no_traffic_is_zero() {
        let pool = BufferPool::new(2, EvictionPolicy::Lru);
        assert_eq!(pool.stats().hit_rate(), 0.0);
    }

    #[test]
    fn pages_from_different_tables_do_not_collide() {
        let pool = BufferPool::new(4, EvictionPolicy::Lru);
        pool.touch(PageId {
            table: 1,
            page_no: 0,
        });
        pool.touch(PageId {
            table: 2,
            page_no: 0,
        });
        assert_eq!(pool.resident(), 2);
    }
}
