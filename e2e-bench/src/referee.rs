//! The output referee. It runs outside the timed region and never asks
//! the optimizer whether the optimizer was right:
//!
//! * a batch winner must be execution-equivalent to its source under
//!   [`irlt_interp::check_equivalence`] at every one of a few sets of
//!   small bounds that lie inside the framework's domain (see
//!   [`empty_loops`]);
//! * a served result must be bit-identical (sequence, shape, score bits)
//!   to `run_batch` on the same job.

use irlt_interp::check_equivalence;
use irlt_ir::{Expr, LoopNest, Symbol};

/// Loops of `nest` that run no iteration at `params`, counting only
/// loops whose bounds and step depend on the parameters alone.
///
/// The framework assumes that each loop executes, as the paper does
/// (`irlt-core`'s trip-count code states it); `Coalesce` relies on the
/// assumption when two or more of the loops it merges are empty at once,
/// because then the product of their trip counts is positive. A binding
/// set with two or more empty loops is therefore outside the domain in
/// which the framework promises equivalence.
pub fn empty_loops(nest: &LoopNest, params: &[(&str, i64)]) -> usize {
    let vars = |s: &Symbol| params.iter().find(|(n, _)| *n == s.as_str()).map(|p| p.1);
    let eval = |e: &Expr| e.eval_scalar(&vars, &|_, _| None).ok();
    (0..nest.depth())
        .filter(|&k| {
            let l = nest.level(k);
            match (eval(&l.lower), eval(&l.upper), eval(&l.step)) {
                (Some(lo), Some(hi), Some(step)) => (step > 0 && lo > hi) || (step < 0 && lo < hi),
                _ => false,
            }
        })
        .count()
}

/// Runs `original` and `transformed` from identical memory (several
/// `pardo` orders for the transformed nest) at each binding set of
/// `checks` inside the framework's domain and demands identical final
/// memory every time. Returns how many binding sets were left unchecked
/// because two or more loops of `original` are empty there; errs as well
/// when no set was checked.
pub fn check_winner(
    original: &LoopNest,
    transformed: &LoopNest,
    checks: &[Vec<(&str, i64)>],
    seed: u64,
) -> Result<usize, String> {
    let mut outside = 0;
    for params in checks {
        if empty_loops(original, params) >= 2 {
            outside += 1;
            continue;
        }
        match check_equivalence(original, transformed, params, seed) {
            Ok(report) if report.is_equivalent() => {}
            Ok(report) => {
                return Err(format!(
                    "not equivalent by execution at {params:?}: {report}"
                ))
            }
            Err(e) => return Err(format!("execution failed at {params:?}: {e}")),
        }
    }
    if outside == checks.len() {
        return Err(format!(
            "no binding set of {checks:?} lies inside the framework's domain"
        ));
    }
    Ok(outside)
}

/// The deterministic fields of one optimization result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// The winning sequence, rendered.
    pub seq: String,
    /// The transformed shape, rendered.
    pub shape: String,
    /// The score's bits (`None` when not finite).
    pub score_bits: Option<u64>,
}

/// A served result must equal the batch engine's, bit for bit.
pub fn check_served(served: &Verdict, batch: &Verdict) -> Result<(), String> {
    if served == batch {
        Ok(())
    } else {
        Err(format!(
            "served {served:?} differs from run_batch {batch:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irlt_ir::parse_nest;

    const SOURCE: &str =
        "do i = 2, n\n do j = 1, m\n  a(i, j) = a(i - 1, j) + b(i, j)\n enddo\nenddo";

    fn params() -> Vec<Vec<(&'static str, i64)>> {
        vec![vec![("n", 7), ("m", 6)]]
    }

    #[test]
    fn catches_a_reversed_carrying_loop() {
        let original = parse_nest(SOURCE).unwrap();
        let wrong = parse_nest(
            "do i = n, 2, -1\n do j = 1, m\n  a(i, j) = a(i - 1, j) + b(i, j)\n enddo\nenddo",
        )
        .unwrap();
        let why = check_winner(&original, &wrong, &params(), 1).unwrap_err();
        assert!(why.contains("not equivalent"), "{why}");
    }

    #[test]
    fn accepts_a_legal_interchange() {
        let original = parse_nest(SOURCE).unwrap();
        let swapped = parse_nest(
            "do j = 1, m\n pardo i = 2, n\n  a(i, j) = a(i - 1, j) + b(i, j)\n enddo\nenddo",
        )
        .unwrap();
        // Parallelizing the carrying loop is wrong even after interchange.
        assert!(check_winner(&original, &swapped, &params(), 1).is_err());
        let legal = parse_nest(
            "pardo j = 1, m\n do i = 2, n\n  a(i, j) = a(i - 1, j) + b(i, j)\n enddo\nenddo",
        )
        .unwrap();
        assert_eq!(check_winner(&original, &legal, &params(), 1), Ok(0));
    }

    /// Outside the framework's domain, kept as a shrunk repro: `Coalesce`
    /// multiplies the trip counts of the loops it merges, so two empty
    /// loops (both counts negative) give a positive product and the
    /// coalesced nest runs iterations the source never runs. The referee
    /// does not check such bounds, says so, and still catches the
    /// mismatch when asked to execute there.
    #[test]
    fn coalesce_runs_two_empty_loops_outside_the_domain() {
        use irlt_core::{Template, TransformSeq};
        let original =
            parse_nest("do i = 19, n\n do j = 1, n - 13\n  b(j, i) = a(i, j)\n enddo\nenddo")
                .unwrap();
        let seq = TransformSeq::new(2)
            .push(Template::coalesce(2, 0, 1).unwrap())
            .unwrap();
        let coalesced = seq.apply(&original).unwrap();
        let at = |n: i64| vec![("n", n)];
        assert_eq!(empty_loops(&original, &at(7)), 2);
        let report = check_equivalence(&original, &coalesced, &at(7), 1).unwrap();
        assert!(!report.is_equivalent(), "{report}");
        assert!(check_winner(&original, &coalesced, &[at(7)], 1).is_err());
        assert_eq!(
            check_winner(&original, &coalesced, &[at(7), at(25)], 1),
            Ok(1)
        );
        // One empty loop is inside the domain, and coalescing is exact.
        assert_eq!(empty_loops(&original, &at(15)), 1);
        assert_eq!(check_winner(&original, &coalesced, &[at(15)], 1), Ok(0));
    }

    #[test]
    fn empty_loops_skips_bounds_that_need_an_outer_index() {
        let tri = parse_nest("do i = 9, n\n do j = i, 2\n  a(i, j) = 0\n enddo\nenddo").unwrap();
        assert_eq!(empty_loops(&tri, &[("n", 3)]), 1);
    }

    #[test]
    fn catches_a_served_score_that_differs_in_one_bit() {
        let batch = Verdict {
            seq: "⟨⟩".into(),
            shape: "do i".into(),
            score_bits: Some(1000.0f64.to_bits()),
        };
        check_served(&batch.clone(), &batch).unwrap();
        let served = Verdict {
            score_bits: Some(1000.0f64.to_bits() ^ 1),
            ..batch.clone()
        };
        assert!(check_served(&served, &batch).is_err());
    }
}
