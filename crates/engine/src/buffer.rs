//! Buffer pool with pluggable eviction.
//!
//! The disk backend routes every page touch through this pool; hits are
//! charged at buffered-page cost, misses at cold-read cost. The paper's
//! metrics catalog names **cache hit rate** as the metric for systems that
//! prefetch or cache (Table 3), and notes that eviction-based policies
//! (LRU, FIFO) underperform predictive caching — the pool exposes both
//! eviction policies so `ids-opt`'s predictive prefetchers have a baseline
//! to beat.

use std::ops::Range;
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

/// No frame: an end of the recency list, or an index slot with no page.
const NIL: u32 = u32::MAX;

/// One resident page and its links in the recency list.
#[derive(Debug, Clone, Copy)]
struct Frame {
    page: PageId,
    prev: u32,
    next: u32,
}

/// Resident pages in at most `capacity` frames, doubly linked in victim
/// order: `head` is the next victim, `tail` the most recently used (LRU)
/// or loaded (FIFO) page. Every hit, miss and eviction is O(1).
#[derive(Debug)]
struct PoolInner {
    frames: Vec<Frame>,
    head: u32,
    tail: u32,
    /// `index[table][page_no]` is the page's frame, or [`NIL`]. Table ids
    /// are dense (`Database::register`) and a table's index grows to the
    /// largest page touched, which its `Pager` bounds.
    index: Vec<Vec<u32>>,
}

impl PoolInner {
    fn unlink(&mut self, f: u32) {
        let Frame { prev, next, .. } = self.frames[f as usize];
        match prev {
            NIL => self.head = next,
            p => self.frames[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.frames[n as usize].prev = prev,
        }
    }

    fn push_tail(&mut self, f: u32) {
        let frame = &mut self.frames[f as usize];
        frame.prev = self.tail;
        frame.next = NIL;
        match self.tail {
            NIL => self.head = f,
            t => self.frames[t as usize].next = f,
        }
        self.tail = f;
    }
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

    /// Adds these counts to the registry's owned counters, so registry
    /// totals keep them once the attached counters are zeroed or dropped
    /// (the attached instances die with the `Arc`s). The registry is the
    /// *calling* thread's: a pool built, driven and reset or dropped by
    /// one driver keeps its counts there; one reset or dropped on another
    /// thread leaves them on that thread.
    fn fold_into_registry(&self) {
        let reg = metrics();
        reg.counter("engine.buffer.hits").add(self.hits.get());
        reg.counter("engine.buffer.misses").add(self.misses.get());
        reg.counter("engine.buffer.evictions")
            .add(self.evictions.get());
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
    /// totals survive the pool itself.
    fn drop(&mut self) {
        self.counters.fold_into_registry();
    }
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` pages.
    pub fn new(capacity: usize, policy: EvictionPolicy) -> BufferPool {
        let capacity = capacity.clamp(1, NIL as usize);
        BufferPool {
            capacity,
            policy,
            inner: Mutex::new(PoolInner {
                frames: Vec::with_capacity(capacity),
                head: NIL,
                tail: NIL,
                index: Vec::new(),
            }),
            counters: PoolCounters::new(),
        }
    }

    /// No update of the frames, links or index can panic half-way, so a
    /// lock poisoned by a panicking holder still guards valid data:
    /// recover it.
    fn lock(&self) -> MutexGuard<'_, PoolInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Touches a page: returns `true` on a hit, `false` on a miss (the
    /// page is then loaded, evicting if necessary).
    pub fn touch(&self, id: PageId) -> bool {
        let page_no = id.page_no as usize;
        self.touch_range(id.table, page_no..page_no + 1).0 == 1
    }

    /// Touches a contiguous run of pages in order, returning
    /// `(hits, misses)`. One lock and one add per counter per call.
    pub fn touch_range(&self, table: u32, pages: Range<usize>) -> (u64, u64) {
        let (mut hits, mut misses, mut evictions) = (0, 0, 0);
        let mut guard = self.lock();
        let inner = &mut *guard;
        let t = table as usize;
        if inner.index.len() <= t {
            inner.index.resize_with(t + 1, Vec::new);
        }
        // Taken out for the run so a victim from another table can still
        // be cleared in `inner.index`.
        let mut index = std::mem::take(&mut inner.index[t]);
        if index.len() < pages.end {
            index.resize(pages.end, NIL);
        }
        for page_no in pages {
            let f = index[page_no];
            if f != NIL {
                hits += 1;
                if self.policy == EvictionPolicy::Lru {
                    inner.unlink(f);
                    inner.push_tail(f);
                }
                continue;
            }
            misses += 1;
            let page = PageId {
                table,
                page_no: page_no as u32,
            };
            let f = if inner.frames.len() < self.capacity {
                inner.frames.push(Frame {
                    page,
                    prev: NIL,
                    next: NIL,
                });
                (inner.frames.len() - 1) as u32
            } else {
                let victim = inner.head;
                inner.unlink(victim);
                evictions += 1;
                let old = std::mem::replace(&mut inner.frames[victim as usize].page, page);
                let old_index = if old.table == table {
                    &mut index
                } else {
                    &mut inner.index[old.table as usize]
                };
                old_index[old.page_no as usize] = NIL;
                victim
            };
            inner.push_tail(f);
            index[page_no] = f;
        }
        inner.index[t] = index;
        self.counters.hits.add(hits);
        self.counters.misses.add(misses);
        self.counters.evictions.add(evictions);
        (hits, misses)
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.lock().frames.len()
    }

    /// Cumulative statistics for *this* pool since its last
    /// [`reset`](Self::reset) (the registry's `engine.buffer.*` metrics
    /// sum all pools attached to it, and keep what a reset zeroes).
    pub fn stats(&self) -> BufferPoolStats {
        BufferPoolStats {
            hits: self.counters.hits.get(),
            misses: self.counters.misses.get(),
            evictions: self.counters.evictions.get(),
        }
    }

    /// Drops all pages and zeroes this pool's statistics, after folding
    /// them into the registry's totals as [`Drop`] does.
    pub fn reset(&self) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        for frame in inner.frames.drain(..) {
            inner.index[frame.page.table as usize][frame.page.page_no as usize] = NIL;
        }
        inner.head = NIL;
        inner.tail = NIL;
        self.counters.fold_into_registry();
        self.counters.hits.reset();
        self.counters.misses.reset();
        self.counters.evictions.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_simclock::rng::check;
    use std::collections::{HashSet, VecDeque};

    /// The pool before its frame array: a resident set and a recency
    /// queue, with an O(capacity) scan per LRU hit. The pool must match
    /// it call for call.
    struct Reference {
        capacity: usize,
        policy: EvictionPolicy,
        frames: HashSet<PageId>,
        /// Front = next eviction victim.
        order: VecDeque<PageId>,
        stats: BufferPoolStats,
    }

    impl Reference {
        fn new(capacity: usize, policy: EvictionPolicy) -> Reference {
            Reference {
                capacity: capacity.max(1),
                policy,
                frames: HashSet::new(),
                order: VecDeque::new(),
                stats: BufferPoolStats::default(),
            }
        }

        fn touch(&mut self, id: PageId) -> bool {
            if self.frames.contains(&id) {
                self.stats.hits += 1;
                if self.policy == EvictionPolicy::Lru {
                    if let Some(pos) = self.order.iter().position(|&p| p == id) {
                        self.order.remove(pos);
                        self.order.push_back(id);
                    }
                }
                return true;
            }
            self.stats.misses += 1;
            if self.frames.len() >= self.capacity {
                if let Some(victim) = self.order.pop_front() {
                    self.frames.remove(&victim);
                    self.stats.evictions += 1;
                }
            }
            self.frames.insert(id);
            self.order.push_back(id);
            false
        }

        fn touch_range(&mut self, table: u32, pages: Range<usize>) -> (u64, u64) {
            let (mut hits, mut misses) = (0, 0);
            for page_no in pages {
                let hit = self.touch(PageId {
                    table,
                    page_no: page_no as u32,
                });
                if hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
            (hits, misses)
        }

        fn reset(&mut self) {
            self.frames.clear();
            self.order.clear();
            self.stats = BufferPoolStats::default();
        }
    }

    impl BufferPool {
        /// `true` if the page is resident (does not count as a touch).
        fn contains(&self, id: PageId) -> bool {
            let inner = self.lock();
            inner
                .index
                .get(id.table as usize)
                .and_then(|pages| pages.get(id.page_no as usize))
                .is_some_and(|&f| f != NIL)
        }

        /// Resident pages in victim order, walked head to tail.
        fn victim_order(&self) -> Vec<PageId> {
            let inner = self.lock();
            let mut pages = Vec::with_capacity(inner.frames.len());
            let mut f = inner.head;
            while f != NIL {
                pages.push(inner.frames[f as usize].page);
                f = inner.frames[f as usize].next;
            }
            pages
        }
    }

    #[test]
    fn the_pool_matches_its_reference_model_call_for_call() {
        check("buffer_pool_reference", 0..300, |rng| {
            let tables = rng.uniform_usize(1, 6) as u32;
            let capacity = rng.uniform_usize(1, 301);
            let policy = if rng.chance(0.5) {
                EvictionPolicy::Lru
            } else {
                EvictionPolicy::Fifo
            };
            // Pages per table, from well inside to well beyond capacity.
            let pages = rng.uniform_usize(1, 2 * capacity + 3);
            let pool = BufferPool::new(capacity, policy);
            let mut model = Reference::new(capacity, policy);
            for step in 0..rng.uniform_usize(1, 120) {
                let table = rng.uniform_usize(0, tables as usize) as u32;
                let start = rng.uniform_usize(0, pages);
                let (got, want) = match rng.uniform_usize(0, 16) {
                    0 => {
                        pool.reset();
                        model.reset();
                        ((0, 0), (0, 0))
                    }
                    1..=7 => {
                        let id = PageId {
                            table,
                            page_no: start as u32,
                        };
                        let hit = |h: bool| (u64::from(h), u64::from(!h));
                        (hit(pool.touch(id)), hit(model.touch(id)))
                    }
                    _ => {
                        let end = rng.uniform_usize(start, pages + 1);
                        (
                            pool.touch_range(table, start..end),
                            model.touch_range(table, start..end),
                        )
                    }
                };
                assert_eq!(got, want, "step {step}: (hits, misses)");
                assert_eq!(pool.stats(), model.stats, "step {step}: stats");
                assert_eq!(pool.resident(), model.frames.len(), "step {step}");
                let order: Vec<PageId> = model.order.iter().copied().collect();
                assert_eq!(pool.victim_order(), order, "step {step}: victim order");
                for &id in &order {
                    assert!(pool.contains(id), "step {step}: {id:?} resident");
                }
                let probe = PageId {
                    table: rng.uniform_usize(0, tables as usize) as u32,
                    page_no: rng.uniform_usize(0, pages) as u32,
                };
                assert_eq!(pool.contains(probe), model.frames.contains(&probe));
            }
        });
    }

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
