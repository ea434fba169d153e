//! The layer replay: re-runs each job's beam search from the public
//! layer calls, one call at a time, so the traced run can split the
//! search into its parts and name the row a change moves.
//!
//! The replay rebuilds the beam of `irlt_opt::search` (expand every
//! frontier state by every catalog move, score the legal children, keep
//! the best `beam` of distinct shape) and times each layer call it
//! makes: `MoveCatalog::moves`, `SeqState::extend`, the score call, the
//! copies of a legal child's shape and sequence that the search keeps
//! as its candidate, and the shape fingerprint of the dedup. Each job is searched twice, back
//! to back: first by `irlt_opt::search` as `run_batch` runs it on one
//! worker (timed whole, telemetry off), then by the replay. Each of the
//! two keeps its own legality cache across the jobs, in order, so both
//! see the same hits and misses; the cache's own counters tell them
//! apart.
//!
//! [`Replay::explained_share`] is the sum of the timed calls over the
//! search time. What the calls leave unexplained is the search's own
//! bookkeeping (the beam sort, dropping states and candidates); a run
//! whose share falls outside [`RECONCILE_TOLERANCE`] is not reconciled.

use crate::batch::{catalog_of, goal_of, identity_score, locality_goal};
use crate::gen::{GenJob, GoalKind};
use crate::metrics::Metrics;
use crate::stats::{mean, ratio};
use irlt_core::{ExtendError, SeqState, SharedLegalityCache, Template, TransformSeq};
use irlt_dependence::{analyze_dependences, Fingerprint128};
use irlt_ir::LoopNest;
use irlt_opt::{search, SearchConfig};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// `opt.search.explained_share` must lie within this distance of 1.
pub const RECONCILE_TOLERANCE: f64 = 0.25;

/// The per-template miss-cost rows, one per template kind the catalogs
/// generate.
const KIND_ROWS: [&str; 5] = [
    "core.extend.miss_us.unimodular",
    "core.extend.miss_us.reverse_permute",
    "core.extend.miss_us.parallelize",
    "core.extend.miss_us.block",
    "core.extend.miss_us.coalesce",
];

fn kind_row(t: &Template) -> Option<&'static str> {
    match t {
        Template::Unimodular { .. } => Some(KIND_ROWS[0]),
        Template::ReversePermute { .. } => Some(KIND_ROWS[1]),
        Template::Parallelize { .. } => Some(KIND_ROWS[2]),
        Template::Block { .. } => Some(KIND_ROWS[3]),
        Template::Coalesce { .. } => Some(KIND_ROWS[4]),
        _ => None,
    }
}

/// Call counts and summed call times of one replay, in microseconds.
#[derive(Debug, Default)]
pub struct Replay {
    /// Jobs replayed.
    pub jobs: usize,
    /// Summed wall of the jobs' searches, in milliseconds.
    search_ms: f64,
    /// `MoveCatalog::moves` calls, candidate copies and shape
    /// fingerprints.
    moves_us: f64,
    candidate_us: f64,
    fingerprint_us: f64,
    /// `analyze_dependences` time and the dependence vectors found.
    analyze_us: f64,
    vectors: f64,
    /// Extensions that missed, and hit, the shared cache.
    miss_us: Vec<f64>,
    hit_us: Vec<f64>,
    /// Miss-path extension times per template kind, by row name.
    miss_by_kind: BTreeMap<&'static str, Vec<f64>>,
    /// Extensions that reached the legality test (the search's
    /// `explored`), and those found legal.
    pub explored: u64,
    pub legal: u64,
    /// Score calls of legal children (with the apply a locality score
    /// needs), and those whose shape was a duplicate.
    score_us: Vec<f64>,
    pub deduped: u64,
    /// Score calls of the identity sequence, one per job.
    root_score_us: f64,
    /// One cache-simulator trial of each winner, in milliseconds.
    cachesim_ms: Vec<f64>,
}

impl Replay {
    /// Summed time of every timed layer call, in milliseconds.
    pub fn calls_ms(&self) -> f64 {
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        let extend = sum(&self.miss_us) + sum(&self.hit_us);
        let score = sum(&self.score_us) + self.root_score_us;
        let beam = self.moves_us + self.candidate_us + self.fingerprint_us;
        (extend + score + beam) / 1e3
    }

    /// The share of the search time that the timed calls account for.
    pub fn explained_share(&self) -> f64 {
        ratio(self.calls_ms(), self.search_ms)
    }

    /// Records the rows the replay measures.
    pub fn record(&self, m: &mut Metrics) {
        let jobs = self.jobs as f64;
        let calls = (self.miss_us.len() + self.hit_us.len()) as f64;
        m.set("dependence.analyze.us_per_nest", self.analyze_us / jobs);
        m.set("dependence.vectors_per_nest", self.vectors / jobs);
        m.set("core.extend.calls", calls / jobs);
        m.set("core.extend.legal_ratio", ratio(self.legal as f64, calls));
        m.set("core.extend.miss_us", mean(&self.miss_us));
        m.set("core.extend.hit_us", mean(&self.hit_us));
        for row in KIND_ROWS {
            m.set(row, self.miss_by_kind.get(row).map_or(0.0, |v| mean(v)));
        }
        m.set("opt.score.us_per_call", mean(&self.score_us));
        m.set("cachesim.score.ms_per_call", mean(&self.cachesim_ms));
        m.set("opt.explored_per_job", self.explored as f64 / jobs);
        m.set(
            "opt.legal_ratio",
            ratio(self.legal as f64, self.explored as f64),
        );
        m.set(
            "opt.dedup_ratio",
            ratio(self.deduped as f64, self.score_us.len() as f64),
        );
    }
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// A beam entry: a legal state and its score.
struct Node {
    state: SeqState,
    score: f64,
}

/// Searches and replays `jobs` in order.
pub fn replay(jobs: &[&GenJob]) -> Result<Replay, String> {
    let mut r = Replay {
        jobs: jobs.len(),
        ..Replay::default()
    };
    let (searched, replayed) = (SharedLegalityCache::new(), SharedLegalityCache::new());
    for (owner, job) in jobs.iter().enumerate() {
        let nest = irlt_ir::parse_nest(&job.text).map_err(|e| format!("{}: {e}", job.name))?;
        let t = Instant::now();
        let deps = analyze_dependences(&nest);
        r.analyze_us += us_since(t);
        r.vectors += deps.len() as f64;
        let config = SearchConfig {
            catalog: catalog_of(job),
            max_steps: job.max_steps,
            beam_width: job.beam,
            shared: Some(searched.clone()),
            owner: owner as u64,
            ..SearchConfig::default()
        };
        let t = Instant::now();
        let winner = search(&nest, &deps, &goal_of(job), &config).best.seq;
        r.search_ms += us_since(t) / 1e3;
        let best = replay_search(&mut r, job, &nest, &deps, &replayed, owner as u64);
        if best.to_string() != winner.to_string() {
            return Err(format!(
                "{}: the replay found {best}, the search {winner}",
                job.name
            ));
        }
        let out = winner
            .apply(&nest)
            .map_err(|e| format!("{}: winner does not apply: {e}", job.name))?;
        r.cachesim_ms.extend(time_cachesim(job, &out));
    }
    Ok(r)
}

/// One job's beam search, as `irlt_opt::search` runs it in `run_batch`
/// (incremental engine, pruning on, one thread); returns the best
/// sequence found.
fn replay_search(
    r: &mut Replay,
    job: &GenJob,
    nest: &LoopNest,
    deps: &irlt_dependence::DepSet,
    cache: &SharedLegalityCache,
    owner: u64,
) -> TransformSeq {
    let goal = goal_of(job);
    let catalog = catalog_of(job);
    let score = |state: &SeqState| match job.goal {
        GoalKind::Locality => state
            .seq()
            .apply(nest)
            .ok()
            .and_then(|out| goal.score(&out)),
        _ => goal.score(state.shape()),
    };
    let root = SeqState::root(nest, deps)
        .with_pruning(true)
        .with_shared(cache.clone(), owner);
    let t = Instant::now();
    let root_score = identity_score(&goal, nest).unwrap_or(f64::NEG_INFINITY);
    r.root_score_us += us_since(t);
    let mut best = (root.seq().clone(), root_score);
    let mut frontier = vec![Node {
        state: root,
        score: root_score,
    }];
    let mut seen: HashSet<u128> = HashSet::new();
    for _ in 0..job.max_steps {
        let mut next = Vec::new();
        for node in &frontier {
            let t = Instant::now();
            let moves = catalog.moves(node.state.shape().depth());
            r.moves_us += us_since(t);
            for m in moves {
                let row = kind_row(&m);
                let hits = cache.stats().hits;
                let t = Instant::now();
                let child = node.state.extend(m);
                let us = us_since(t);
                let child = match child {
                    Err(ExtendError::Sequence(_)) => continue,
                    Err(ExtendError::Illegal(_)) => None,
                    Ok(child) => Some(child),
                };
                r.explored += 1;
                if cache.stats().hits > hits {
                    r.hit_us.push(us);
                } else {
                    r.miss_us.push(us);
                    if let Some(row) = row {
                        r.miss_by_kind.entry(row).or_default().push(us);
                    }
                }
                let Some(child) = child else { continue };
                r.legal += 1;
                let t = Instant::now();
                std::hint::black_box((child.shape().clone(), child.seq().clone()));
                r.candidate_us += us_since(t);
                let t = Instant::now();
                let s = score(&child);
                let us = us_since(t);
                let Some(s) = s else { continue };
                r.score_us.push(us);
                let t = Instant::now();
                let fingerprint = child.shape().fingerprint128();
                r.fingerprint_us += us_since(t);
                if !seen.insert(fingerprint) {
                    r.deduped += 1;
                    continue;
                }
                if s > best.1 {
                    best = (child.seq().clone(), s);
                }
                next.push(Node {
                    state: child,
                    score: s,
                });
            }
        }
        next.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite scores"));
        next.truncate(job.beam);
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    best.0
}

/// One cache-simulator trial of `out` at the job's trial bounds, in
/// milliseconds: the job's own goal on `batch-locality`, the same probe
/// geometry elsewhere, so the layer's per-call cost is known on every
/// workload. `None` when the trial gives no score (a nest that runs no
/// iteration at those bounds).
fn time_cachesim(job: &GenJob, out: &LoopNest) -> Option<f64> {
    let probe = locality_goal(job);
    let t = Instant::now();
    let s = probe.score(out);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    s.map(|_| ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_finds_the_searchs_winners() {
        let (deep, locality) = (crate::gen::batch_deep(1), crate::gen::batch_locality(1));
        let jobs: Vec<&GenJob> = deep.iter().take(4).chain(locality.last()).collect();
        let r = replay(&jobs).expect("every replayed winner equals the search's");
        assert!(r.explored >= r.legal && r.legal > 0, "{r:?}");
        assert!(!r.hit_us.is_empty() && !r.miss_us.is_empty(), "{r:?}");
        assert!(r.explained_share() > 0.0);
    }
}
