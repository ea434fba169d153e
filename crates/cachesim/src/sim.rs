//! Execution-driven nest simulation: run a nest with the interpreter and
//! send each access, translated to an address, straight into a cache as
//! it happens. No trace is kept.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::layout::{AddressError, AddressMap, BoundMap};
use irlt_interp::{AccessSink, ExecError, Executor, Memory};
use irlt_ir::{LoopNest, Symbol};
use std::fmt;

/// A failure while simulating a nest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The nest failed to execute.
    Exec(ExecError),
    /// An access fell outside the declared arrays.
    Address(AddressError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Exec(e) => write!(f, "{e}"),
            SimError::Address(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ExecError> for SimError {
    fn from(e: ExecError) -> Self {
        SimError::Exec(e)
    }
}

impl From<AddressError> for SimError {
    fn from(e: AddressError) -> Self {
        SimError::Address(e)
    }
}

/// Result of [`simulate_nest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimResult {
    /// Cache counters after every access of the run.
    pub stats: CacheStats,
    /// Innermost iterations executed.
    pub iterations: usize,
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} over {} iterations", self.stats, self.iterations)
    }
}

/// Executes `nest` with the given parameters, feeding every access into a
/// fresh cache of the given geometry as it happens.
///
/// # Errors
///
/// Returns [`SimError::Exec`] if the run fails; otherwise
/// [`SimError::Address`] for the first access, in program order, outside
/// the declared arrays.
///
/// # Panics
///
/// Panics on inconsistent cache geometry (see [`CacheConfig::num_sets`]).
///
/// # Examples
///
/// ```
/// use irlt_cachesim::{simulate_nest, AddressMap, CacheConfig, Order};
/// use irlt_ir::parse_nest;
///
/// let nest = parse_nest("do i = 1, n\n  s(1) = s(1) + a(i)\nenddo")?;
/// let mut map = AddressMap::new(Order::ColMajor, 8);
/// map.declare("a", &[64]).declare("s", &[1]);
/// let r = simulate_nest(&nest, &[("n", 64)], &map, CacheConfig::l1())?;
/// // Streaming 64 contiguous 8-byte elements with 64-byte lines: 8 misses
/// // for `a` plus 1 for `s`.
/// assert_eq!(r.stats.misses, 9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn simulate_nest(
    nest: &LoopNest,
    params: &[(&str, i64)],
    map: &AddressMap,
    config: CacheConfig,
) -> Result<SimResult, SimError> {
    let mut ex = Executor::new();
    for &(k, v) in params {
        ex.set_param(k, v);
    }
    let mut sink = CacheSink {
        bound: map.bind(&[]),
        cache: Cache::new(config),
        error: None,
    };
    let run = ex.stream(nest, Memory::new(), &mut sink)?;
    if let Some(e) = sink.error {
        return Err(e.into());
    }
    Ok(SimResult {
        stats: sink.cache.stats(),
        iterations: run.iterations,
    })
}

/// Translates each access and feeds it to the cache. The first address
/// error stops the feeding and is kept: it is the result only if the run
/// then completes, since a failed run reports its own error.
struct CacheSink<'m> {
    bound: BoundMap<'m>,
    cache: Cache,
    error: Option<AddressError>,
}

impl AccessSink for CacheSink<'_> {
    fn bind(&mut self, arrays: &[Symbol]) {
        self.bound.rebind(arrays);
    }

    fn access(&mut self, array: usize, indices: &[i64], _is_write: bool) {
        if self.error.is_some() {
            return;
        }
        match self.bound.address(array, indices) {
            Ok(addr) => {
                self.cache.access(addr);
            }
            Err(e) => self.error = Some(e),
        }
    }
}

/// [`simulate_nest`] fed by the observability layer: on success the cache
/// counters are exported through `tel` under `cachesim/*` (`simulations`,
/// `accesses`, `hits`, `misses`, `iterations`, and the per-trial
/// `miss_ratio` stream); failed trials count under
/// `cachesim/trial_failures`. With a disabled handle this is exactly
/// [`simulate_nest`].
///
/// # Errors
///
/// As for [`simulate_nest`].
pub fn simulate_nest_observed(
    nest: &LoopNest,
    params: &[(&str, i64)],
    map: &AddressMap,
    config: CacheConfig,
    tel: &irlt_obs::Telemetry,
) -> Result<SimResult, SimError> {
    let result = simulate_nest(nest, params, map, config);
    if tel.is_enabled() {
        match &result {
            Ok(r) => {
                tel.incr("cachesim/simulations");
                tel.count("cachesim/accesses", r.stats.accesses);
                tel.count("cachesim/hits", r.stats.hits);
                tel.count("cachesim/misses", r.stats.misses);
                tel.count("cachesim/iterations", r.iterations as u64);
                tel.observe("cachesim/miss_ratio", r.stats.miss_ratio());
            }
            Err(_) => tel.incr("cachesim/trial_failures"),
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Order;
    use irlt_ir::parse_nest;

    #[test]
    fn streaming_miss_count() {
        // 512 elements × 8 B = 4096 B = 64 lines.
        let nest = parse_nest("do i = 1, n\n s(1) = s(1) + a(i)\nenddo").unwrap();
        let mut map = AddressMap::new(Order::ColMajor, 8);
        map.declare("a", &[512]).declare("s", &[1]);
        let r = simulate_nest(&nest, &[("n", 512)], &map, CacheConfig::l1()).unwrap();
        assert_eq!(r.stats.misses, 64 + 1);
        assert_eq!(r.iterations, 512);
    }

    #[test]
    fn column_vs_row_traversal_of_colmajor_array() {
        // Fortran layout: walking the first subscript is unit-stride.
        let by_col =
            parse_nest("do j = 1, n\n do i = 1, n\n  s(1) = s(1) + a(i, j)\n enddo\nenddo")
                .unwrap();
        let by_row =
            parse_nest("do i = 1, n\n do j = 1, n\n  s(1) = s(1) + a(i, j)\n enddo\nenddo")
                .unwrap();
        let mut map = AddressMap::new(Order::ColMajor, 8);
        map.declare("a", &[128, 128]).declare("s", &[1]);
        // Cache much smaller than the 128 KiB array.
        let cfg = CacheConfig {
            size_bytes: 8 * 1024,
            line_bytes: 64,
            associativity: 4,
        };
        let good = simulate_nest(&by_col, &[("n", 128)], &map, cfg).unwrap();
        let bad = simulate_nest(&by_row, &[("n", 128)], &map, cfg).unwrap();
        assert!(
            bad.stats.misses > 4 * good.stats.misses,
            "row-major walk of a col-major array should thrash: {} vs {}",
            bad.stats,
            good.stats
        );
    }

    #[test]
    fn observed_simulation_exports_counters() {
        let nest = parse_nest("do i = 1, n\n s(1) = s(1) + a(i)\nenddo").unwrap();
        let mut map = AddressMap::new(Order::ColMajor, 8);
        map.declare("a", &[512]).declare("s", &[1]);
        let tel = irlt_obs::Telemetry::enabled();
        let r =
            simulate_nest_observed(&nest, &[("n", 512)], &map, CacheConfig::l1(), &tel).unwrap();
        let report = tel.report();
        assert_eq!(report.counter("cachesim/simulations"), 1);
        assert_eq!(report.counter("cachesim/misses"), r.stats.misses);
        assert_eq!(report.counter("cachesim/hits"), r.stats.hits);
        assert_eq!(report.counter("cachesim/accesses"), r.stats.accesses);
        assert_eq!(report.stats["cachesim/miss_ratio"].count, 1);
        // A failed trial (unbound `n`) counts separately.
        simulate_nest_observed(&nest, &[], &map, CacheConfig::l1(), &tel).unwrap_err();
        assert_eq!(tel.report().counter("cachesim/trial_failures"), 1);
    }

    #[test]
    fn undeclared_array_reported() {
        let nest = parse_nest("do i = 1, 4\n q(i) = 0\nenddo").unwrap();
        let map = AddressMap::new(Order::RowMajor, 8);
        let err = simulate_nest(&nest, &[], &map, CacheConfig::l1()).unwrap_err();
        assert!(matches!(err, SimError::Address(_)));
        assert!(err.to_string().contains('q'));
    }

    #[test]
    fn exec_error_propagates() {
        let nest = parse_nest("do i = 1, n\n a(i) = 0\nenddo").unwrap();
        let map = AddressMap::new(Order::RowMajor, 8);
        let err = simulate_nest(&nest, &[], &map, CacheConfig::l1()).unwrap_err();
        assert!(matches!(err, SimError::Exec(_)));
    }
}
