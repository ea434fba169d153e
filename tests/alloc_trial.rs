//! A locality trial does not allocate per access.
//!
//! `simulate_nest` streams each access of the interpreted nest straight
//! into the cache model: no trace event, no cloned array name, no
//! subscript vector per access. What remains is per-run setup and one
//! key per *distinct* memory cell. This binary pins that with a
//! counting `#[global_allocator]` ([`irlt_harness::alloc_counter`]):
//! a matmul trial at n = 16 (16384 accesses over 768 cells) must make
//! fewer than one allocation per ten accesses. A trace-building trial
//! makes at least three per access.
//!
//! Allocation counting is process-global, so this file stays a single
//! `#[test]` in its own integration-test binary.

use irlt_cachesim::{simulate_nest, AddressMap, CacheConfig, Order};
use irlt_harness::alloc_counter::{count_allocations, install, CountingAlloc};
use irlt_ir::parse_nest;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn matmul_trial_allocates_less_than_once_per_ten_accesses() {
    install(&ALLOC);

    let nest = parse_nest(
        "do i = 1, n\n do j = 1, n\n  do k = 1, n\n   c(i, j) = c(i, j) + a(i, k) * b(k, j)\n  enddo\n enddo\nenddo",
    )
    .unwrap();
    let mut map = AddressMap::new(Order::ColMajor, 8);
    for a in ["a", "b", "c"] {
        map.declare_with_origin(a, &[19, 19], &[-1, -1]);
    }
    let cache = CacheConfig {
        size_bytes: 2048,
        line_bytes: 64,
        associativity: 2,
    };

    let (allocs, result) = count_allocations(|| simulate_nest(&nest, &[("n", 16)], &map, cache));
    let stats = result.expect("matmul simulates").stats;
    assert_eq!(stats.accesses, 4 * 16 * 16 * 16);
    assert!(
        allocs * 10 < stats.accesses,
        "{allocs} allocations for {} accesses",
        stats.accesses
    );
}
