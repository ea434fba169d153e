//! The coverage map: telemetry buckets as fuzzing feedback.
//!
//! Classic coverage-guided fuzzers instrument branch edges; this
//! workspace already carries a richer signal for free. Every legality
//! decision, dependence-mapping fan-out, oracle adjudication, and
//! beam-search depth lights a named telemetry counter or histogram
//! bucket (see `irlt-obs`). The set of bucket *names* an input lights
//! is a structural abstraction of which code paths and which paper
//! cases (Table 1 templates × Table 2 rows × rejection taxonomy) the
//! input exercised — exactly what a fuzzer wants to maximize.
//!
//! [`CoverageMap`] interns bucket names into stable small integer ids
//! (first-seen order) and tracks which ids have been lit in a bitset.
//! An input is *interesting* when absorbing its per-case telemetry
//! [`Report`] sets at least one previously-unset bit.
//!
//! Only deterministic namespaces participate. Stats and spans are
//! timing-dependent and excluded by [`Report::coverage_keys`] already;
//! on top of that, [`is_coverage_bucket`] restricts to the four
//! namespaces whose bucket names are pure functions of the input:
//!
//! * `search/depth.N/*` — per-depth beam statistics,
//! * `legality/reject/*` — the rejection taxonomy,
//! * `legality/oracle/*` — cross-engine adjudication outcomes,
//! * `depmap/*` — dependence-mapping counters and per-template
//!   fan-out histograms (`depmap/fanout/Block[4]`, …),
//! * `fuzz/*` — the chain-survival frontier the campaign driver
//!   records itself (`fuzz/chain/len[k]`, `fuzz/chain/step/Block[d]`,
//!   `fuzz/mapped/vectors[2^k]`): how deep a sequence stayed legal and
//!   how far its mapped dependence set grew. The generators cap random
//!   sequences at 3 steps, so the depth ≥ 4 buckets form a long tail
//!   only mutation lineages reach — the gradient that separates guided
//!   from random campaigns.
//!
//! Cache counters (`legality/cache/*`, `legality/prune/*`) are
//! deliberately out: hit/miss patterns depend on evaluation order
//! across a campaign, not on the single input under test.

use irlt_obs::Report;
use std::collections::BTreeMap;

/// Telemetry namespaces whose bucket names deterministically reflect
/// the structure of a single fuzz input.
pub const COVERAGE_PREFIXES: &[&str] = &[
    "search/depth.",
    "legality/reject/",
    "legality/oracle/",
    "depmap/",
    "fuzz/",
];

/// Whether a [`Report::coverage_keys`] entry participates in fuzzing
/// coverage (deterministic per-input namespaces only).
pub fn is_coverage_bucket(key: &str) -> bool {
    COVERAGE_PREFIXES.iter().any(|p| key.starts_with(p))
}

/// The coverage buckets one per-case report lights, in report order.
pub fn coverage_buckets(report: &Report) -> Vec<String> {
    report
        .coverage_keys()
        .into_iter()
        .filter(|k| is_coverage_bucket(k))
        .collect()
}

/// Interned bucket ids plus a lit bitset — the campaign's global
/// coverage state.
///
/// ```
/// use irlt_fuzz::coverage::CoverageMap;
/// use irlt_obs::Telemetry;
///
/// let tel = Telemetry::enabled();
/// tel.incr("legality/reject/precondition");
/// tel.incr("legality/cache/hits"); // excluded: order-dependent namespace
/// let mut map = CoverageMap::new();
/// let new = map.absorb(&tel.report());
/// assert_eq!(new, ["legality/reject/precondition"]);
/// assert_eq!(map.covered(), 1);
/// // Absorbing the same report again lights nothing new.
/// assert!(map.absorb(&tel.report()).is_empty());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CoverageMap {
    /// Bucket name → stable id, in first-seen order.
    ids: BTreeMap<String, usize>,
    /// Lit bits, indexed by id.
    bits: Vec<u64>,
}

impl CoverageMap {
    /// An empty map: no ids interned, nothing lit.
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    fn set(&mut self, id: usize) -> bool {
        let (word, bit) = (id / 64, id % 64);
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let fresh = self.bits[word] & (1 << bit) == 0;
        self.bits[word] |= 1 << bit;
        fresh
    }

    /// Whether `key` has been lit.
    pub fn contains(&self, key: &str) -> bool {
        match self.ids.get(key) {
            Some(&id) => self.bits[id / 64] & (1 << (id % 64)) != 0,
            None => false,
        }
    }

    /// Interns and lights every coverage bucket in `report`; returns
    /// the buckets that were not lit before (the "new coverage" that
    /// makes an input worth keeping).
    pub fn absorb(&mut self, report: &Report) -> Vec<String> {
        let mut new = Vec::new();
        for key in coverage_buckets(report) {
            let next = self.ids.len();
            let id = *self.ids.entry(key.clone()).or_insert(next);
            if self.set(id) {
                new.push(key);
            }
        }
        new
    }

    /// The buckets `report` would newly light, without recording them.
    /// This is the shrinking predicate's read-only probe: a smaller
    /// input is only an acceptable replacement if it still lights
    /// everything its parent was kept for.
    pub fn delta(&self, report: &Report) -> Vec<String> {
        coverage_buckets(report)
            .into_iter()
            .filter(|k| !self.contains(k))
            .collect()
    }

    /// Number of lit buckets (bitset popcount).
    pub fn covered(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// All lit bucket names, sorted.
    pub fn buckets(&self) -> Vec<&str> {
        self.ids
            .iter()
            .filter(|(_, &id)| self.bits[id / 64] & (1 << (id % 64)) != 0)
            .map(|(k, _)| k.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irlt_obs::Telemetry;

    #[test]
    fn filters_to_deterministic_namespaces() {
        assert!(is_coverage_bucket("legality/reject/codegen"));
        assert!(is_coverage_bucket("depmap/fanout/Block[4]"));
        assert!(is_coverage_bucket("search/depth.2/legal"));
        assert!(is_coverage_bucket("legality/oracle/agree"));
        assert!(is_coverage_bucket("fuzz/chain/len[4]"));
        assert!(!is_coverage_bucket("legality/cache/hits"));
        assert!(!is_coverage_bucket("search/beam_width"));
        assert!(!is_coverage_bucket("cachesim/misses"));
    }

    #[test]
    fn absorb_is_monotone_and_delta_is_readonly() {
        let tel = Telemetry::enabled();
        tel.incr("depmap/vectors_mapped");
        tel.record("depmap/fanout/Block", 2);
        tel.incr("legality/cache/hits"); // excluded namespace
        let report = tel.report();

        let mut map = CoverageMap::new();
        assert_eq!(
            map.delta(&report),
            ["depmap/vectors_mapped", "depmap/fanout/Block[2]"]
        );
        assert_eq!(map.covered(), 0, "delta must not record");

        let new = map.absorb(&report);
        assert_eq!(new.len(), 2);
        assert_eq!(map.covered(), 2);
        assert!(map.contains("depmap/vectors_mapped"));
        assert!(!map.contains("legality/cache/hits"));
        assert!(map.absorb(&report).is_empty());
        assert_eq!(map.buckets().len(), 2);
    }

    #[test]
    fn bitset_grows_past_one_word() {
        let mut map = CoverageMap::new();
        for k in 0..130u32 {
            let tel = Telemetry::enabled();
            tel.incr(&format!("depmap/bucket.{k}"));
            assert_eq!(map.absorb(&tel.report()).len(), 1);
        }
        assert_eq!(map.covered(), 130);
    }
}
