//! A beam search does not copy its candidates.
//!
//! The frontier holds `SeqState`s and scores each legal child in place;
//! beam dedup keys on the interned shape id the state already carries.
//! Only the winner is copied out as a `Candidate`, once. What a search
//! still allocates per candidate is the catalog's moves, the child's own
//! extended sequence and a replayed rejection's reason. This binary
//! pins that with a counting
//! `#[global_allocator]` ([`irlt_harness::alloc_counter`]): once a
//! shared cache is warm, so that every probe of a matmul search
//! (max_steps 3, beam 8) hits, the search must make fewer than ten
//! allocations per explored candidate. It makes about 7.8; a deep copy
//! of every legal candidate's shape and sequence raises that to about 17.
//!
//! Allocation counting is process-global, so this file stays a single
//! `#[test]` in its own integration-test binary.

use irlt_core::SharedLegalityCache;
use irlt_dependence::analyze_dependences;
use irlt_harness::alloc_counter::{count_allocations, install, CountingAlloc};
use irlt_ir::parse_nest;
use irlt_opt::{search, Goal, SearchConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn warm_search_allocates_less_than_ten_times_per_candidate() {
    install(&ALLOC);

    let nest = parse_nest(
        "do i = 1, n\n do j = 1, n\n  do k = 1, n\n   A(i, j) = A(i, j) + B(i, k) * C(k, j)\n  enddo\n enddo\nenddo",
    )
    .unwrap();
    let deps = analyze_dependences(&nest);
    let cache = SharedLegalityCache::new();
    let config = |owner| SearchConfig {
        max_steps: 3,
        beam_width: 8,
        shared: Some(cache.clone()),
        owner,
        ..SearchConfig::default()
    };
    let cold = search(&nest, &deps, &Goal::OuterParallel, &config(0));
    let misses = cache.stats().misses;

    let (allocs, warm) =
        count_allocations(|| search(&nest, &deps, &Goal::OuterParallel, &config(1)));
    assert_eq!(cache.stats().misses, misses, "the warm search missed");
    assert_eq!(warm.best.seq.to_string(), cold.best.seq.to_string());
    assert!(warm.legal > 100, "{warm}");
    let per_candidate = allocs as f64 / warm.explored as f64;
    assert!(
        per_candidate < 10.0,
        "{allocs} allocations for {} explored candidates",
        warm.explored
    );
}
