//! Small statistics and ratio helpers shared by every workload.

/// Median of `samples` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it. `p` is in `1..=100`.
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    if samples.is_empty() || p == 0 || p > 100 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// The highest whole percentile (at least the median) that still has
/// ten or more samples beyond it, so a tail figure never rests on a
/// handful of points. `None` when `n` is too small for any (n < 20).
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99).rev().find(|&p| n - rank(n, p).min(n) >= 10)
}

/// Parallel efficiency of `threads` workers: the one-thread time over
/// `threads` times the multi-thread time (1.0 = perfect scaling).
pub fn scaling_eff(one_thread_s: f64, threads: usize, multi_thread_s: f64) -> f64 {
    one_thread_s / (threads as f64 * multi_thread_s)
}

/// Share of the available worker time spent running scenarios: the sum
/// of per-scenario seconds over `threads` × wall seconds.
pub fn busy_frac(scenario_secs_sum: f64, threads: usize, wall_s: f64) -> f64 {
    scenario_secs_sum / (threads as f64 * wall_s)
}

/// Failed operations as a share of those attempted (0 when nothing was
/// attempted, which the caller reports as a failed run anyway).
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(50.0));
        assert_eq!(percentile(&v, 95), Some(95.0));
        assert_eq!(percentile(&v, 100), Some(100.0));
        assert_eq!(percentile(&[7.0], 99), Some(7.0));
        assert_eq!(percentile(&v, 0), None);
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // Too few samples for any tail at or above the median.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(19), None);
        // 20 samples: the 50th percentile is the 10th, 10 lie beyond.
        assert_eq!(tail_percentile(20), Some(50));
        // 100 samples: p90 leaves exactly 10 beyond, p91 only 9.
        assert_eq!(tail_percentile(100), Some(90));
        // 720 scenarios: p98 is rank 706 (14 beyond); p99 is rank 713
        // (7 beyond).
        assert_eq!(tail_percentile(720), Some(98));
        for n in [20, 37, 100, 720, 10_000] {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(n, p) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(n - rank(n, p + 1) < 10, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn scaling_eff_matches_its_definition() {
        // Perfect: two threads halve the time.
        assert!((scaling_eff(2.0, 2, 1.0) - 1.0).abs() < 1e-12);
        // No speed-up at all on two threads is 50 % efficiency.
        assert!((scaling_eff(1.0, 2, 1.0) - 0.5).abs() < 1e-12);
        // The compute phase at 10^6 robots: 3.02 s on 1 thread, 2.42 s on 2.
        assert!((scaling_eff(3.02, 2, 2.42) - 0.624).abs() < 1e-3);
    }

    #[test]
    fn busy_and_failed_fractions() {
        assert!((busy_frac(3.0, 2, 2.0) - 0.75).abs() < 1e-12);
        assert!((busy_frac(4.0, 2, 2.0) - 1.0).abs() < 1e-12);
        assert_eq!(failed_frac(0, 10), 0.0);
        assert_eq!(failed_frac(1, 4), 0.25);
        assert_eq!(failed_frac(0, 0), 0.0);
    }
}
