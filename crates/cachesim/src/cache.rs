//! A set-associative LRU cache model.
//!
//! Iteration-reordering transformations are "used extensively … for
//! optimizing data locality" (§1); this model is the measuring instrument:
//! feed it the memory-access trace of a nest before and after a
//! transformation and compare miss counts.

use std::collections::VecDeque;
use std::fmt;

/// Cache geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line (block) size in bytes.
    pub line_bytes: usize,
    /// Ways per set (1 = direct-mapped; `size/line` = fully associative).
    pub associativity: usize,
}

impl CacheConfig {
    /// A small L1-like default: 32 KiB, 64-byte lines, 8-way.
    pub fn l1() -> CacheConfig {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 64,
            associativity: 8,
        }
    }

    /// A larger L2-like default: 512 KiB, 64-byte lines, 8-way.
    pub fn l2() -> CacheConfig {
        CacheConfig {
            size_bytes: 512 * 1024,
            line_bytes: 64,
            associativity: 8,
        }
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero sizes, capacity not a
    /// multiple of `line × ways`).
    pub fn num_sets(&self) -> usize {
        assert!(self.size_bytes > 0 && self.line_bytes > 0 && self.associativity > 0);
        let lines = self.size_bytes / self.line_bytes;
        assert_eq!(
            lines * self.line_bytes,
            self.size_bytes,
            "capacity not line-aligned"
        );
        assert_eq!(lines % self.associativity, 0, "lines not divisible by ways");
        lines / self.associativity
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]` (0 when no accesses).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} misses ({:.2}%)",
            self.accesses,
            self.misses,
            100.0 * self.miss_ratio()
        )
    }
}

/// A set-associative LRU cache.
///
/// # Examples
///
/// ```
/// use irlt_cachesim::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig { size_bytes: 128, line_bytes: 32, associativity: 2 });
/// assert!(!c.access(0));   // cold miss
/// assert!(c.access(8));    // same line
/// assert_eq!(c.stats().misses, 1);
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<VecDeque<u64>>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (see [`CacheConfig::num_sets`]).
    pub fn new(config: CacheConfig) -> Cache {
        let sets = vec![VecDeque::with_capacity(config.associativity); config.num_sets()];
        Cache {
            config,
            sets,
            stats: CacheStats::default(),
        }
    }

    /// The geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses one byte address; returns `true` on hit. Reads and writes
    /// behave identically (write-allocate, no write-back modelling —
    /// miss counts are what locality studies compare).
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.config.line_bytes as u64;
        let set_idx = (line % self.sets.len() as u64) as usize;
        let set = &mut self.sets[set_idx];
        self.stats.accesses += 1;
        if set.front() == Some(&line) {
            // Already most recently used: the LRU order is unchanged.
            self.stats.hits += 1;
            true
        } else if let Some(pos) = set.iter().position(|&t| t == line) {
            set.remove(pos);
            set.push_front(line);
            self.stats.hits += 1;
            true
        } else {
            if set.len() == self.config.associativity {
                set.pop_back();
            }
            set.push_front(line);
            self.stats.misses += 1;
            false
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears contents and counters.
    pub fn reset(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 lines of 16 bytes, 2-way → 2 sets.
        Cache::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            associativity: 2,
        })
    }

    #[test]
    fn geometry() {
        assert_eq!(tiny().config().num_sets(), 2);
        assert_eq!(CacheConfig::l1().num_sets(), 64);
    }

    #[test]
    #[should_panic(expected = "ways")]
    fn inconsistent_geometry_rejected() {
        Cache::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            associativity: 3,
        });
    }

    #[test]
    fn spatial_locality_hits_within_line() {
        let mut c = tiny();
        assert!(!c.access(0));
        for b in 1..16 {
            assert!(c.access(b), "byte {b} shares the line");
        }
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().accesses, 16);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds lines with even line numbers (line % 2 == 0):
        // lines 0, 2, 4 → addresses 0, 32, 64.
        c.access(0); // line 0
        c.access(32); // line 2
        c.access(0); // touch line 0 again → line 2 is now LRU
        c.access(64); // line 4 evicts line 2
        assert!(c.access(0), "line 0 retained");
        assert!(!c.access(32), "line 2 was evicted");
    }

    #[test]
    fn temporal_reuse_after_capacity_exceeded() {
        let mut c = tiny();
        // Stream 8 distinct lines (> capacity 4), then re-touch the first.
        for k in 0..8u64 {
            c.access(k * 16);
        }
        assert!(!c.access(0), "line 0 evicted by the stream");
    }

    #[test]
    fn miss_ratio_and_display() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        let s = c.stats();
        assert_eq!(s.miss_ratio(), 0.5);
        assert!(s.to_string().contains("50.00%"));
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.access(0);
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(!c.access(0), "cold again after reset");
    }
}
