//! Seeded workload generators.
//!
//! Everything the optimizer sees is produced here as `.nest` source
//! text (batch workloads) or `irlt-serve/v1` request lines (the serve
//! workload). The seed only moves loop-bound offsets, which shapes
//! repeat and the serve arrival schedule; the family mix, goals and
//! search settings are fixed per workload so that the cost of one run
//! barely depends on the seed.

use irlt_harness::Rng;

/// The goal a generated job asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GoalKind {
    /// `Goal::OuterParallel` (`"outer"` on the wire).
    Outer,
    /// `Goal::InnerParallel` (`"inner"` on the wire).
    Inner,
    /// `Goal::Locality` with `MoveCatalog::locality()`.
    Locality,
}

/// One generated optimization job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenJob {
    /// Unique within one workload; the serve request id.
    pub name: String,
    /// The nest in `.nest` source form.
    pub text: String,
    /// Optimization goal.
    pub goal: GoalKind,
    /// Search depth.
    pub max_steps: usize,
    /// Beam width.
    pub beam: usize,
    /// Parameter bindings for trial executions (cache simulation).
    pub trial: Vec<(&'static str, i64)>,
    /// Parameter binding sets for the referee's equivalence checks, all
    /// small so every winner is executed quickly: fixed bounds, at which
    /// a loop whose bound offset is large runs no iteration, and the same
    /// bounds raised by the offsets, at which every source loop runs. The
    /// referee leaves a set unchecked where two or more source loops are
    /// empty (`referee::empty_loops`).
    pub checks: Vec<Vec<(&'static str, i64)>>,
    /// Arrays the body touches and their rank.
    pub arrays: Vec<(&'static str, usize)>,
}

/// `base` plus `k`, rendered as the parser prints it.
fn plus(base: &str, k: i64) -> String {
    match (base.parse::<i64>(), k) {
        (Ok(v), _) => (v + k).to_string(),
        (Err(_), 0) => base.to_string(),
        (Err(_), k) if k > 0 => format!("{base} + {k}"),
        (Err(_), k) => format!("{base} - {}", -k),
    }
}

/// Offsets `(a, b)` raise the first loop's lower bound by `a` and lower
/// the second loop's upper bound by `b`: a new shape (and cache key)
/// for almost the same work.
fn family_text(family: &str, (a, b): (i64, i64)) -> String {
    let ((li, ui), (lj, uj)) = ((a, 0), (0, -b));
    let i = |lo: &str, hi: &str| format!("{}, {}", plus(lo, li), plus(hi, ui));
    let j = |lo: &str, hi: &str| format!("{}, {}", plus(lo, lj), plus(hi, uj));
    match family {
        "stencil5" => format!(
            "do i = {}\n do j = {}\n  a(i, j) = (a(i, j) + a(i - 1, j) + a(i, j - 1) + a(i + 1, j) + a(i, j + 1)) / 5\n enddo\nenddo",
            i("2", "n - 1"),
            j("2", "n - 1")
        ),
        "matmul" => format!(
            "do i = {}\n do j = {}\n  do k = 1, n\n   c(i, j) = c(i, j) + a(i, k) * b(k, j)\n  enddo\n enddo\nenddo",
            i("1", "n"),
            j("1", "n")
        ),
        "recurrence" => format!(
            "do i = {}\n do j = {}\n  a(i, j) = a(i - 1, j) + b(i, j)\n enddo\nenddo",
            i("2", "n"),
            j("1", "m")
        ),
        "rect4" => format!(
            "do i = {}\n do j = 1, n\n  do k = {}\n   do l = 1, m\n    a(i, j, k, l) = a(i - 1, j, k, l) + b(i, j, k, l)\n   enddo\n  enddo\n enddo\nenddo",
            i("2", "n"),
            j("1", "m")
        ),
        "sor" => format!(
            "do t = 1, s\n do i = {}\n  do j = {}\n   a(i, j) = (a(i - 1, j) + a(i + 1, j) + a(i, j - 1) + a(i, j + 1)) / 4\n  enddo\n enddo\nenddo",
            i("2", "n - 1"),
            j("2", "n - 1")
        ),
        "elementwise" => format!(
            "do i = {}\n do j = {}\n  a(i, j) = b(i, j) * 2\n enddo\nenddo",
            i("1", "n"),
            j("1", "m")
        ),
        "transpose" => format!(
            "do i = {}\n do j = {}\n  b(j, i) = a(i, j)\n enddo\nenddo",
            i("1", "n"),
            j("1", "n")
        ),
        "colsum" => format!(
            "do i = {}\n do j = {}\n  r(j, i) = r(j, i - 1) + a(i, j)\n enddo\nenddo",
            i("2", "n"),
            j("1", "n")
        ),
        other => unreachable!("unknown family {other}"),
    }
}

fn arrays_of(family: &str) -> Vec<(&'static str, usize)> {
    match family {
        "matmul" => vec![("a", 2), ("b", 2), ("c", 2)],
        "rect4" => vec![("a", 4), ("b", 4)],
        "stencil5" | "sor" => vec![("a", 2)],
        "colsum" => vec![("a", 2), ("r", 2)],
        _ => vec![("a", 2), ("b", 2)],
    }
}

fn job(
    name: String,
    family: &'static str,
    (a, b): (i64, i64),
    goal: GoalKind,
    (max_steps, beam): (usize, usize),
) -> GenJob {
    // The 4-deep nest runs at smaller bounds: its trials and checks
    // cost the fourth power of them.
    let (trial_n, check_n) = if family == "rect4" { (8, 4) } else { (16, 7) };
    let mut raises = vec![0, a.max(b)];
    raises.dedup();
    GenJob {
        name,
        text: family_text(family, (a, b)),
        goal,
        max_steps,
        beam,
        trial: vec![("n", trial_n), ("m", trial_n), ("s", 2)],
        checks: raises
            .iter()
            .map(|raise| vec![("n", check_n + raise), ("m", check_n - 1 + raise), ("s", 2)])
            .collect(),
        arrays: arrays_of(family),
    }
}

/// Families of `batch-deep`, in the order jobs cycle through them.
pub const DEEP_FAMILIES: [&str; 6] = [
    "stencil5",
    "matmul",
    "recurrence",
    "rect4",
    "sor",
    "elementwise",
];

/// Jobs in one `batch-deep` pass. Odd, so that the median job latency
/// falls inside one job's samples rather than on the edge between two.
pub const DEEP_JOBS: usize = 63;

/// `batch-deep`: [`DEEP_JOBS`] nests cycling through [`DEEP_FAMILIES`].
/// In every family the second half of its jobs repeats a shape of the
/// first half, so about half the jobs repeat a shape; goals alternate
/// per family round so that every family meets both goals. The order is
/// fixed so that the pool's tail, which sets the batch time, does not
/// depend on the seed.
pub fn batch_deep(seed: u64) -> Vec<GenJob> {
    let mut rng = Rng::new(seed ^ 0xdee9);
    let mut per_family: Vec<Vec<(i64, i64)>> = vec![Vec::new(); DEEP_FAMILIES.len()];
    let mut jobs = Vec::with_capacity(DEEP_JOBS);
    for k in 0..DEEP_JOBS {
        let f = k % DEEP_FAMILIES.len();
        let round = k / DEEP_FAMILIES.len();
        let count = (DEEP_JOBS - f).div_ceil(DEEP_FAMILIES.len());
        let seen = &mut per_family[f];
        let offsets = if round < count.div_ceil(2) {
            // Distinct within the family: redraw until new.
            loop {
                let o = (rng.range_i64(0, 2), rng.range_i64(0, 2));
                if !seen.contains(&o) {
                    seen.push(o);
                    break o;
                }
            }
        } else {
            seen[rng.index(seen.len())]
        };
        let goal = if round.is_multiple_of(2) {
            GoalKind::Outer
        } else {
            GoalKind::Inner
        };
        let family = DEEP_FAMILIES[f];
        jobs.push(job(
            format!("deep-{k:02}-{family}"),
            family,
            offsets,
            goal,
            (5, 16),
        ));
    }
    jobs
}

/// Renames whole identifiers of `text` through `map`, all at once.
fn rename(text: &str, map: &[(&str, &str)]) -> String {
    let mut out = String::with_capacity(text.len());
    let mut word = String::new();
    let flush = |word: &mut String, out: &mut String| {
        let new = map.iter().find(|(old, _)| *old == word.as_str());
        out.push_str(new.map_or(word.as_str(), |(_, new)| new));
        word.clear();
    };
    for ch in text.chars() {
        if ch.is_ascii_alphabetic() {
            word.push(ch);
        } else {
            flush(&mut word, &mut out);
            out.push(ch);
        }
    }
    flush(&mut word, &mut out);
    out
}

/// `batch-locality`: 9 locality jobs, two per family (one at depth 1,
/// one at depth 2) and a depth-1 elementwise kernel, so that the median
/// job latency falls inside one job's samples. A cache-simulated score depends on every bound
/// and array offset, so here the seed only renames loop variables and
/// arrays: the text differs across seeds, the simulated work does not.
pub fn batch_locality(seed: u64) -> Vec<GenJob> {
    let mut rng = Rng::new(seed ^ 0x10ca);
    let families = ["matmul", "transpose", "colsum", "stencil5"];
    let vars = ["i", "j", "k", "p", "q", "u", "v", "w"];
    let arrays = ["a", "b", "c", "r", "d", "e", "f", "g"];
    let mut jobs = Vec::new();
    // The depth-2 matmul searches a beam of one: at a beam of four its
    // cache-simulated trials (n³ accesses each) would take three
    // quarters of a pass, and that one job's pass-to-pass variation
    // would set the pass time.
    let kernels = families
        .iter()
        .flat_map(|f| {
            let deep = if *f == "matmul" { (2, 1) } else { (2, 4) };
            [(*f, (1, 6)), (*f, deep)]
        })
        .chain([("elementwise", (1, 6))]);
    for (id, (family, settings)) in kernels.enumerate() {
        let mut g = job(
            format!("loc-{id}-{family}"),
            family,
            (0, 0),
            GoalKind::Locality,
            settings,
        );
        let (v, a) = (rng.permutation(vars.len()), rng.permutation(arrays.len()));
        let map: Vec<(&str, &str)> = (0..3)
            .map(|k| (vars[k], vars[v[k]]))
            .chain((0..4).map(|k| (arrays[k], arrays[a[k]])))
            .collect();
        g.text = rename(&g.text, &map);
        for (name, _) in &mut g.arrays {
            *name = map
                .iter()
                .find(|(old, _)| old == name)
                .map_or(*name, |m| m.1);
        }
        jobs.push(g);
    }
    jobs
}

/// One request of the serve schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from the start of the rung, in microseconds.
    pub due_us: u64,
    /// Index into [`ServeTraffic::jobs`].
    pub job: usize,
}

/// The serve workload's inputs: the distinct jobs and, per rung, an
/// arrival schedule over them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeTraffic {
    /// Every distinct job the schedule refers to; the first `warm` (the
    /// repeated shallow shapes, then the deep pool) are what the warm-up
    /// sends once before measuring.
    pub jobs: Vec<GenJob>,
    /// Length of the warm-up prefix of `jobs`.
    pub warm: usize,
    /// One schedule per rate, in rung order.
    pub rungs: Vec<Vec<Arrival>>,
}

/// Families the serve traffic draws from (the cheap-to-serve subset of
/// `batch-deep`'s families plus the depth-3 matmul for deep requests).
const SERVE_FAMILIES: [&str; 4] = ["stencil5", "recurrence", "elementwise", "transpose"];

/// Search depth and beam of ordinary requests: `irlt-serve`'s defaults.
const SHALLOW: (usize, usize) = (2, 6);
/// Deep matmul shapes per run, warmed with the repeated shapes.
const DEEP_POOL: usize = 8;
/// Bound offsets of novel shapes range over `0..=NOVEL_SPAN` twice,
/// enough distinct shapes for a 60-second run.
const NOVEL_SPAN: i64 = 30;

/// Share of requests, in per mille, that carry a novel shape.
pub const SERVE_NOVEL_PERMILLE: u64 = 20;
/// One deep request is due every this many microseconds, on a seeded
/// phase: a fixed cadence, so that two deep requests never hold both
/// workers at once by chance and the tail does not hinge on such luck.
pub const SERVE_DEEP_EVERY_US: u64 = 1_000_000;

/// Serve traffic: Poisson arrivals at each rate for `rung_us`
/// microseconds. Most requests are shallow (max_steps 2, beam 6) on
/// one of the warm shapes and [`SERVE_NOVEL_PERMILLE`] carry a shape
/// never seen before (a cache insert), few enough that the server's
/// cache never sweeps its warm entries. On top, every
/// [`SERVE_DEEP_EVERY_US`] a deep matmul search (max_steps 4, beam 12)
/// from a small pool holds a worker long enough to block the queue
/// behind it.
pub fn serve_traffic(seed: u64, rates: &[f64], rung_us: u64) -> ServeTraffic {
    let mut rng = Rng::new(seed ^ 0x5e7e);
    let mut jobs = Vec::new();
    let mut used: Vec<(&str, (i64, i64))> = Vec::new();
    let mut fresh = |rng: &mut Rng, family: &'static str, span: i64| loop {
        let o = (rng.range_i64(0, span), rng.range_i64(0, span));
        if !used.contains(&(family, o)) {
            used.push((family, o));
            return o;
        }
    };
    for (f, family) in SERVE_FAMILIES.iter().enumerate() {
        for v in 0..6 {
            let offsets = fresh(&mut rng, family, 3);
            let goal = if v % 2 == 0 {
                GoalKind::Outer
            } else {
                GoalKind::Inner
            };
            jobs.push(job(
                format!("warm-{}-{family}", 6 * f + v),
                family,
                offsets,
                goal,
                SHALLOW,
            ));
        }
    }
    let repeated = jobs.len();
    for d in 0..DEEP_POOL {
        jobs.push(job(
            format!("deep-{d}-matmul"),
            "matmul",
            fresh(&mut rng, "matmul", 3),
            GoalKind::Outer,
            (4, 12),
        ));
    }
    let warm = jobs.len();
    let mut rungs = Vec::new();
    for (r, &rate) in rates.iter().enumerate() {
        let mut schedule = Vec::new();
        let mut t = 0.0f64;
        loop {
            // Exponential inter-arrival gaps: independent users.
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            t += -(1.0 - u).ln() / rate * 1e6;
            if t >= rung_us as f64 {
                break;
            }
            let k = if rng.next_u64() % 1000 < SERVE_NOVEL_PERMILLE {
                let family = SERVE_FAMILIES[rng.index(SERVE_FAMILIES.len())];
                let goal = if rng.next_u64().is_multiple_of(2) {
                    GoalKind::Outer
                } else {
                    GoalKind::Inner
                };
                jobs.push(job(
                    format!("novel-{r}-{}", schedule.len()),
                    family,
                    fresh(&mut rng, family, NOVEL_SPAN),
                    goal,
                    SHALLOW,
                ));
                jobs.len() - 1
            } else {
                rng.index(repeated)
            };
            schedule.push(Arrival {
                due_us: t as u64,
                job: k,
            });
        }
        let phase = rng.next_u64() % SERVE_DEEP_EVERY_US;
        for due_us in (phase..rung_us).step_by(SERVE_DEEP_EVERY_US as usize) {
            let job = repeated + rng.index(DEEP_POOL);
            schedule.push(Arrival { due_us, job });
        }
        schedule.sort_by_key(|a| a.due_us);
        rungs.push(schedule);
    }
    ServeTraffic { jobs, warm, rungs }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(jobs: &[GenJob]) -> String {
        jobs.iter()
            .map(|j| format!("{}\n{}\n", j.name, j.text))
            .collect()
    }

    #[test]
    fn same_seed_is_byte_identical_and_seeds_differ() {
        assert_eq!(texts(&batch_deep(7)), texts(&batch_deep(7)));
        assert_ne!(texts(&batch_deep(7)), texts(&batch_deep(8)));
        assert_eq!(texts(&batch_locality(7)), texts(&batch_locality(7)));
        assert_ne!(texts(&batch_locality(7)), texts(&batch_locality(8)));
        let a = serve_traffic(7, &[100.0, 200.0], 500_000);
        assert_eq!(a, serve_traffic(7, &[100.0, 200.0], 500_000));
        assert_ne!(a, serve_traffic(8, &[100.0, 200.0], 500_000));
    }

    #[test]
    fn every_generated_nest_parses() {
        let serve = serve_traffic(3, &[200.0], 2_000_000);
        for j in batch_deep(3)
            .iter()
            .chain(&batch_locality(3))
            .chain(&serve.jobs)
        {
            irlt_ir::parse_nest(&j.text).unwrap_or_else(|e| panic!("{}: {e}\n{}", j.name, j.text));
        }
    }

    #[test]
    fn deep_corpus_repeats_about_half_its_shapes() {
        let jobs = batch_deep(11);
        let mut distinct: Vec<&str> = jobs.iter().map(|j| j.text.as_str()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            33,
            "a distinct shape per family round in the first half"
        );
        let mut names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DEEP_JOBS);
    }
}
