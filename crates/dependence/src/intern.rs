//! Fingerprint-keyed interning: one `Arc` per distinct structure.
//!
//! The shared legality cache sees the same shapes and mapped dependence
//! sets over and over — 87.5% of probes hit in BENCH_5 — so storing an
//! owned copy per cache entry wastes memory, and *comparing* by value
//! (or by rendered string) wastes time. The interner gives every
//! distinct value a small dense `u32` id and a shared [`Arc`]:
//! equal ids ⟺ equal values, so the cache key shrinks to a few
//! machine words and cross-nest hits share storage.
//!
//! # Bucket discipline
//!
//! This mirrors the dedup index in [`crate::DepSet`]
//! (`index: HashMap<u64, Vec<u32>>`): values are bucketed by their
//! 128-bit structural fingerprint, and **every** bucket hit is verified
//! with an exact `==` comparison before an id is reused. A fingerprint
//! collision therefore costs one extra comparison (observable in
//! [`InternerStats::collision_misses`]) but can never alias two distinct
//! values to one id. See [`crate::fingerprint`] for why 128 bits.
//!
//! # Id stability
//!
//! Ids are dense indices into an append-only slab and are **stable for
//! the interner's lifetime** — they are never recycled, because callers
//! (the incremental legality engine) hold ids inside live search states
//! and a recycled id would silently alias two different states. The
//! pool's growth is bounded by the number of *distinct* structures
//! seen, which the generational cache eviction already bounds in
//! practice; lifecycle management beyond that is the sharded-cache
//! follow-up's problem (ROADMAP item 1).

use std::collections::HashMap;
use std::sync::Arc;

use crate::fingerprint::Fingerprint128;

/// The result of interning: a dense id plus the shared storage.
///
/// `id` equality is value equality (for values from the same interner).
#[derive(Clone, Debug)]
pub struct Interned<T> {
    /// Dense, stable, per-interner id; equal ids ⟺ equal values.
    pub id: u32,
    /// The canonical shared copy.
    pub value: Arc<T>,
}

/// Counters describing an interner's behavior (all monotonic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InternerStats {
    /// Distinct values in the pool.
    pub len: u64,
    /// Interning requests that found an existing entry.
    pub hits: u64,
    /// Exact-equality comparisons run on fingerprint-bucket candidates.
    pub verifies: u64,
    /// Verifies that *failed*: two distinct values shared a fingerprint
    /// bucket. Expected ≈ 0; growth here means the fingerprint is weak.
    pub collision_misses: u64,
}

/// An append-only pool of distinct values keyed by structural
/// fingerprint with exact-equality verification.
///
/// ```
/// use irlt_dependence::intern::Interner;
/// use irlt_dependence::{DepSet, DepVector};
///
/// let mut pool: Interner<DepSet> = Interner::new();
/// let mut a = DepSet::new();
/// a.insert(DepVector::distances(&[1, 0])).unwrap();
/// let first = pool.intern(a.clone());
/// let again = pool.intern(a);
/// assert_eq!(first.id, again.id);
/// assert!(std::sync::Arc::ptr_eq(&first.value, &again.value));
/// assert_eq!(pool.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct Interner<T> {
    buckets: HashMap<u128, Vec<u32>>,
    slab: Vec<Arc<T>>,
    hits: u64,
    verifies: u64,
    collision_misses: u64,
}

impl<T> Default for Interner<T> {
    fn default() -> Interner<T> {
        Interner::new()
    }
}

impl<T> Interner<T> {
    /// An empty pool.
    pub fn new() -> Interner<T> {
        Interner {
            buckets: HashMap::new(),
            slab: Vec::new(),
            hits: 0,
            verifies: 0,
            collision_misses: 0,
        }
    }

    /// Number of distinct values interned.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// The canonical copy for an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    pub fn get(&self, id: u32) -> &Arc<T> {
        &self.slab[id as usize]
    }

    /// Monotonic behavior counters.
    pub fn stats(&self) -> InternerStats {
        InternerStats {
            len: self.slab.len() as u64,
            hits: self.hits,
            verifies: self.verifies,
            collision_misses: self.collision_misses,
        }
    }
}

impl<T: Eq + Fingerprint128> Interner<T> {
    /// Interns an owned value (no clone on the miss path).
    pub fn intern(&mut self, value: T) -> Interned<T> {
        let fp = value.fingerprint128();
        match self.find(fp, &value) {
            Some(found) => found,
            None => self.insert_new(fp, Arc::new(value)),
        }
    }

    /// Interns a value already behind an `Arc` (no copy either way; on a
    /// hit the canonical earlier `Arc` wins and `value` is dropped).
    pub fn intern_arc(&mut self, value: Arc<T>) -> Interned<T> {
        let fp = value.fingerprint128();
        match self.find(fp, &value) {
            Some(found) => found,
            None => self.insert_new(fp, value),
        }
    }

    /// Interns by reference: probes the pool without building an owned
    /// copy, and clones `value` only when it is genuinely new. The hit
    /// path performs **no allocation** — the property the shared
    /// legality cache's probe path asserts with a counting allocator.
    pub fn intern_ref(&mut self, value: &T) -> Interned<T>
    where
        T: Clone,
    {
        let fp = value.fingerprint128();
        match self.find(fp, value) {
            Some(found) => found,
            None => self.insert_new(fp, Arc::new(value.clone())),
        }
    }

    /// The bucket-scan core, with the fingerprint supplied by the caller.
    ///
    /// Exposed (doc-hidden) so tests can *force* a bucket collision —
    /// two distinct values filed under one fingerprint — and watch the
    /// exact-equality verify rescue them into distinct ids. Production
    /// callers must pass `value.fingerprint128()`.
    #[doc(hidden)]
    pub fn intern_arc_with_fingerprint(&mut self, fp: u128, value: Arc<T>) -> Interned<T> {
        match self.find(fp, &value) {
            Some(found) => found,
            None => self.insert_new(fp, value),
        }
    }

    /// Scans the fingerprint bucket, verifying every candidate with an
    /// exact `==` before reusing its id. Allocation-free.
    fn find(&mut self, fp: u128, value: &T) -> Option<Interned<T>> {
        let ids = self.buckets.get(&fp)?;
        for &id in ids.iter() {
            self.verifies += 1;
            if *self.slab[id as usize] == *value {
                self.hits += 1;
                return Some(Interned {
                    id,
                    value: Arc::clone(&self.slab[id as usize]),
                });
            }
            self.collision_misses += 1;
        }
        None
    }

    fn insert_new(&mut self, fp: u128, value: Arc<T>) -> Interned<T> {
        let id = u32::try_from(self.slab.len()).expect("interner overflow (> 4G distinct values)");
        self.buckets.entry(fp).or_default().push(id);
        self.slab.push(Arc::clone(&value));
        Interned { id, value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DepSet, DepVector};

    fn set(rows: &[&[i64]]) -> DepSet {
        let mut s = DepSet::new();
        for r in rows {
            s.insert(DepVector::distances(r)).unwrap();
        }
        s
    }

    #[test]
    fn dedups_and_shares_storage() {
        let mut pool = Interner::new();
        let a = pool.intern(set(&[&[1, 0], &[0, 1]]));
        let b = pool.intern(set(&[&[1, 0], &[0, 1]]));
        let c = pool.intern(set(&[&[1, 1]]));
        assert_eq!(a.id, b.id);
        assert!(Arc::ptr_eq(&a.value, &b.value));
        assert_ne!(a.id, c.id);
        assert_eq!(pool.len(), 2);
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.collision_misses, 0);
    }

    #[test]
    fn forced_fingerprint_collision_is_rescued_by_exact_equality() {
        // File two *different* sets under the same fingerprint: the
        // verify must fail, the pool must keep both as distinct ids, and
        // the collision must be visible in the stats.
        let mut pool = Interner::new();
        let x = set(&[&[1, 0]]);
        let y = set(&[&[0, 1]]);
        assert_ne!(x, y);
        let fp = 0xdead_beef_u128;
        let ix = pool.intern_arc_with_fingerprint(fp, Arc::new(x.clone()));
        let iy = pool.intern_arc_with_fingerprint(fp, Arc::new(y.clone()));
        assert_ne!(ix.id, iy.id, "collision must not alias distinct values");
        assert_eq!(*ix.value, x);
        assert_eq!(*iy.value, y);
        let s = pool.stats();
        assert_eq!(s.len, 2);
        assert_eq!(s.hits, 0);
        assert_eq!(s.verifies, 1);
        assert_eq!(s.collision_misses, 1);

        // Re-interning either value under the colliding fingerprint
        // still finds its exact match (two verifies: miss then hit).
        let iy2 = pool.intern_arc_with_fingerprint(fp, Arc::new(y));
        assert_eq!(iy2.id, iy.id);
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.verifies, 3);
        assert_eq!(s.collision_misses, 2);
    }

    #[test]
    fn get_returns_canonical_arc() {
        let mut pool = Interner::new();
        let a = pool.intern(set(&[&[2]]));
        assert!(Arc::ptr_eq(pool.get(a.id), &a.value));
    }
}
