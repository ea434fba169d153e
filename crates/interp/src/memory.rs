//! Array memory for loop-nest execution.
//!
//! Arrays are sparse maps from integer subscript tuples to `i64` values.
//! A [`Memory`] can be *procedurally initialized*: reading a never-written
//! cell yields a deterministic pseudo-random value derived from the array
//! name and subscripts. Two executions that read the same logical cells
//! therefore see the same initial data without declaring array shapes —
//! exactly what differential testing of a transformed nest needs.

use irlt_ir::Symbol;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A single array's storage.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ArrayStore {
    cells: BTreeMap<Vec<i64>, i64>,
}

impl ArrayStore {
    /// Number of materialized cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if no cell was ever touched.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates over materialized `(subscripts, value)` pairs in
    /// lexicographic subscript order.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<i64>, &i64)> {
        self.cells.iter()
    }
}

/// A run's working copy of one array: the cells of an [`ArrayStore`]
/// rehashed for constant-time access, and folded back into the ordered
/// store when the run ends.
pub(crate) struct WorkingStore {
    cells: HashMap<Vec<i64>, i64, BuildHasherDefault<CellHasher>>,
}

impl WorkingStore {
    pub(crate) fn new(store: ArrayStore) -> WorkingStore {
        WorkingStore {
            cells: store.cells.into_iter().collect(),
        }
    }

    pub(crate) fn finish(self) -> ArrayStore {
        ArrayStore {
            cells: self.cells.into_iter().collect(),
        }
    }

    /// Reads a cell of the array `name`, materializing it under `policy`.
    pub(crate) fn read(&mut self, policy: InitPolicy, name: &Symbol, indices: &[i64]) -> i64 {
        if let Some(&v) = self.cells.get(indices) {
            return v;
        }
        let v = policy.initial(name, indices);
        self.cells.insert(indices.to_vec(), v);
        v
    }

    /// Writes a cell; the key is copied only when the cell is new.
    pub(crate) fn write(&mut self, indices: &[i64], value: i64) {
        match self.cells.get_mut(indices) {
            Some(cell) => *cell = value,
            None => {
                self.cells.insert(indices.to_vec(), value);
            }
        }
    }
}

/// A multiply-rotate hash over whole words, as rustc's `FxHasher`:
/// subscript tuples are a few small integers, so one multiply per word
/// spreads them well enough, far cheaper than SipHash. The low bits of a
/// product see only the low bits of its operands, so `finish` rotates the
/// well-mixed high bits down to where the table takes its bucket index;
/// otherwise strided subscripts such as `a(1024*i)` would all share one
/// bucket.
#[derive(Default)]
pub(crate) struct CellHasher(u64);

impl CellHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for CellHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.add(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }

    fn write_usize(&mut self, word: usize) {
        self.add(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// How reads of untouched cells behave.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InitPolicy {
    /// Untouched cells read as zero.
    Zero,
    /// Untouched cells read as a deterministic hash of `(array, indices)`,
    /// materialized on first read (so later reads agree).
    Procedural {
        /// Seed mixed into the hash.
        seed: u64,
    },
}

impl InitPolicy {
    /// The value an untouched cell reads as.
    fn initial(self, array: &Symbol, indices: &[i64]) -> i64 {
        match self {
            InitPolicy::Zero => 0,
            InitPolicy::Procedural { seed } => {
                let h = cell_hash(seed, array, indices);
                // Keep values small so products in matmul-style kernels
                // stay far from overflow.
                (h % 201) as i64 - 100
            }
        }
    }
}

/// The full memory state: one [`ArrayStore`] per array name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Memory {
    arrays: BTreeMap<Symbol, ArrayStore>,
    policy: Option<InitPolicy>,
}

impl Memory {
    /// Empty memory with zero-default reads.
    pub fn new() -> Memory {
        Memory {
            arrays: BTreeMap::new(),
            policy: Some(InitPolicy::Zero),
        }
    }

    /// Empty memory whose untouched cells read as deterministic
    /// pseudo-random values.
    ///
    /// # Examples
    ///
    /// ```
    /// use irlt_interp::Memory;
    ///
    /// let mut m = Memory::procedural(42);
    /// let v1 = m.read(&"A".into(), &[3, 4]);
    /// let v2 = m.read(&"A".into(), &[3, 4]);
    /// assert_eq!(v1, v2); // first read materializes the cell
    /// ```
    pub fn procedural(seed: u64) -> Memory {
        Memory {
            arrays: BTreeMap::new(),
            policy: Some(InitPolicy::Procedural { seed }),
        }
    }

    /// Reads a cell (materializing it under the procedural policy).
    pub fn read(&mut self, array: &Symbol, indices: &[i64]) -> i64 {
        let policy = self.policy();
        let store = self.arrays.entry(array.clone()).or_default();
        if let Some(&v) = store.cells.get(indices) {
            return v;
        }
        let v = policy.initial(array, indices);
        store.cells.insert(indices.to_vec(), v);
        v
    }

    /// Writes a cell.
    pub fn write(&mut self, array: &Symbol, indices: &[i64], value: i64) {
        self.arrays
            .entry(array.clone())
            .or_default()
            .cells
            .insert(indices.to_vec(), value);
    }

    /// Pre-sets a cell (alias of [`Memory::write`], reads better in test
    /// setup).
    pub fn set(&mut self, array: impl Into<Symbol>, indices: &[i64], value: i64) {
        self.write(&array.into(), indices, value);
    }

    /// Looks up a cell without materializing it.
    pub fn get(&self, array: &Symbol, indices: &[i64]) -> Option<i64> {
        self.arrays
            .get(array)
            .and_then(|s| s.cells.get(indices))
            .copied()
    }

    /// The store for one array, if touched.
    pub fn array(&self, name: &Symbol) -> Option<&ArrayStore> {
        self.arrays.get(name)
    }

    /// How untouched cells read.
    pub(crate) fn policy(&self) -> InitPolicy {
        self.policy.unwrap_or(InitPolicy::Zero)
    }

    /// Moves the store of `name` out (empty if never touched), so a run
    /// can index its arrays densely; [`Memory::put_store`] returns it.
    pub(crate) fn take_store(&mut self, name: &Symbol) -> ArrayStore {
        self.arrays.remove(name).unwrap_or_default()
    }

    /// Returns a store taken by [`Memory::take_store`]. Every access
    /// materializes a cell, so an empty store is one nothing touched and
    /// stays absent, as it would have been.
    pub(crate) fn put_store(&mut self, name: Symbol, store: ArrayStore) {
        if !store.is_empty() {
            self.arrays.insert(name, store);
        }
    }

    /// Iterates over `(array, store)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Symbol, &ArrayStore)> {
        self.arrays.iter()
    }

    /// Compares the *written-reachable* state of two memories: every cell
    /// materialized in either must hold the same value in both (cells only
    /// one side materialized are compared against the other's policy
    /// default). Returns the first mismatch.
    pub fn first_difference(&self, other: &Memory) -> Option<CellDiff> {
        let mut a = self.clone();
        let mut b = other.clone();
        let mut keys: Vec<(Symbol, Vec<i64>)> = Vec::new();
        for (name, store) in a.arrays.iter().chain(b.arrays.iter()) {
            for (idx, _) in store.iter() {
                let key = (name.clone(), idx.clone());
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
        }
        for (name, idx) in keys {
            let va = a.read(&name, &idx);
            let vb = b.read(&name, &idx);
            if va != vb {
                return Some(CellDiff {
                    array: name,
                    indices: idx,
                    left: va,
                    right: vb,
                });
            }
        }
        None
    }
}

/// A mismatching cell found by [`Memory::first_difference`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellDiff {
    /// Array name.
    pub array: Symbol,
    /// Subscripts.
    pub indices: Vec<i64>,
    /// Value on the left memory.
    pub left: i64,
    /// Value on the right memory.
    pub right: i64,
}

impl fmt::Display for CellDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({:?}): {} != {}",
            self.array, self.indices, self.left, self.right
        )
    }
}

/// Deterministic 64-bit hash of a cell identity (FNV-1a flavored — no
/// external dependency, stable across runs and platforms).
fn cell_hash(seed: u64, array: &Symbol, indices: &[i64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for b in array.as_str().bytes() {
        eat(b);
    }
    for &i in indices {
        for b in i.to_le_bytes() {
            eat(b);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::new(s)
    }

    #[test]
    fn zero_policy_reads_zero() {
        let mut m = Memory::new();
        assert_eq!(m.read(&sym("A"), &[1, 2]), 0);
        m.write(&sym("A"), &[1, 2], 7);
        assert_eq!(m.read(&sym("A"), &[1, 2]), 7);
        assert_eq!(m.get(&sym("A"), &[0, 0]), None);
    }

    #[test]
    fn procedural_policy_is_deterministic() {
        let mut m1 = Memory::procedural(1);
        let mut m2 = Memory::procedural(1);
        for i in 0..20 {
            assert_eq!(m1.read(&sym("X"), &[i]), m2.read(&sym("X"), &[i]));
        }
        let mut m3 = Memory::procedural(2);
        let same: usize = (0..20)
            .filter(|&i| m1.read(&sym("X"), &[i]) == m3.read(&sym("X"), &[i]))
            .count();
        assert!(same < 20, "different seeds should differ somewhere");
    }

    #[test]
    fn procedural_values_bounded() {
        let mut m = Memory::procedural(7);
        for i in 0..100 {
            let v = m.read(&sym("B"), &[i, -i]);
            assert!((-100..=100).contains(&v));
        }
    }

    #[test]
    fn first_difference_detects_and_reports() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.set("A", &[1], 5);
        b.set("A", &[1], 5);
        assert_eq!(a.first_difference(&b), None);
        b.set("A", &[2], 9);
        let d = a.first_difference(&b).unwrap();
        assert_eq!(d.indices, vec![2]);
        assert_eq!((d.left, d.right), (0, 9));
        assert!(d.to_string().contains("A([2])"));
    }

    #[test]
    fn first_difference_respects_procedural_defaults() {
        // One side materialized a cell by reading it; the other never
        // touched it. Same seed ⇒ no difference.
        let mut a = Memory::procedural(3);
        let b = Memory::procedural(3);
        let _ = a.read(&sym("A"), &[5]);
        assert_eq!(a.first_difference(&b), None);
    }

    #[test]
    fn strided_subscripts_spread_over_buckets() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<CellHasher>::default();
        for stride in [1i64, 2, 64, 1024, 1 << 20] {
            let buckets: std::collections::BTreeSet<u64> = (0..1024i64)
                .map(|i| build.hash_one(vec![stride * i, 7]) & 1023)
                .collect();
            assert!(
                buckets.len() > 512,
                "stride {stride}: {} buckets",
                buckets.len()
            );
        }
    }

    #[test]
    fn working_store_round_trips_in_order() {
        let mut m = Memory::new();
        m.set("A", &[2, 0], 1);
        m.set("A", &[1, 9], 2);
        let mut w = WorkingStore::new(m.take_store(&sym("A")));
        w.write(&[0, 5], 3);
        assert_eq!(w.read(InitPolicy::Zero, &sym("A"), &[1, 9]), 2);
        assert_eq!(w.read(InitPolicy::Zero, &sym("A"), &[7, 7]), 0);
        m.put_store(sym("A"), w.finish());
        let cells: Vec<(Vec<i64>, i64)> = m
            .array(&sym("A"))
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        assert_eq!(
            cells,
            vec![
                (vec![0, 5], 3),
                (vec![1, 9], 2),
                (vec![2, 0], 1),
                (vec![7, 7], 0)
            ]
        );
        // An untouched array leaves no empty store behind.
        let w = WorkingStore::new(m.take_store(&sym("B")));
        m.put_store(sym("B"), w.finish());
        assert!(m.array(&sym("B")).is_none());
    }

    #[test]
    fn store_iteration_ordered() {
        let mut m = Memory::new();
        m.set("A", &[2, 0], 1);
        m.set("A", &[1, 9], 2);
        let idxs: Vec<Vec<i64>> = m
            .array(&sym("A"))
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(idxs, vec![vec![1, 9], vec![2, 0]]);
        assert_eq!(m.array(&sym("A")).unwrap().len(), 2);
    }
}
