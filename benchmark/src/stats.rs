//! Order statistics, the tail-percentile rule, and peak-RSS parsing.

/// Linear-interpolated percentile (`p` in 0..=100) of an unsorted sample.
/// An empty sample has no percentile; callers treat NaN as a failed
/// measurement.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// The highest percentile of an `n`-sample series that still has at least
/// [`MIN_BEYOND_TAIL`] samples beyond it; `None` when the series is too
/// short to have a tail at all. 40 timed rounds give 75, which is why the
/// tail metric is named `round_s_p75`.
pub fn tail_percentile(n: usize) -> Option<f64> {
    (n > MIN_BEYOND_TAIL).then(|| 100.0 * (1.0 - MIN_BEYOND_TAIL as f64 / n as f64))
}

/// `VmHWM` (peak resident set, kB) out of a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// This process's peak resident set so far, in MB (0 where `/proc` is
/// unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_handles_edges() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[7.0], 75.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(2), None);
        // The rule's own definition: at least ten samples strictly past
        // the reported rank.
        for n in [11usize, 40, 1000] {
            let p = tail_percentile(n).unwrap();
            let rank = p / 100.0 * n as f64;
            assert!(n as f64 - rank >= MIN_BEYOND_TAIL as f64 - 1e-9, "n={n}");
        }
    }

    #[test]
    fn vm_hwm_parses_proc_status() {
        let status =
            "Name:\tbench_e2e\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51234));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tgarbage kB\n"), None);
    }
}
