//! Small statistics and process helpers.

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by nearest rank; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `xs`; 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The mean of `xs`; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of process `pid` (`"self"` for this one) in
/// MiB, from `VmHWM` in `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or(format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// User plus system CPU time of process `pid` (`"self"` for this one)
/// in seconds, from `/proc/<pid>/stat`. The kernel reports it in ticks
/// of `USER_HZ`, which is 100 on every Linux target.
pub fn cpu_seconds(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name, which may hold spaces:
    // utime and stime are the 14th and 15th fields of the line.
    let rest = text
        .rsplit_once(')')
        .ok_or(format!("{path}: no command name"))?
        .1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |k: usize| -> Result<f64, String> {
        fields
            .get(k)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or(format!("{path}: no field {}", k + 3))
    };
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// Available parallelism of this host.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(median(&xs), 50.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn reads_own_peak_rss_and_cpu_time() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 50 {
            std::hint::black_box(t.elapsed());
        }
        assert!(cpu_seconds("self").unwrap() > 0.0);
    }
}
