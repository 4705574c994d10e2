//! Order statistics the benchmark reports: nearest-rank percentiles, the
//! tail-percentile rule, segment-median throughput, and the quartile
//! spread the calibration is judged by.

/// Segments the timed ops are cut into for `ops_per_s`.
pub const SEGMENTS: usize = 5;

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest of p99/p95/p90/p75 with at least [`TAIL_MIN_BEYOND`]
/// samples strictly beyond its nearest rank, or `None` for short runs.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    [99.0, 95.0, 90.0, 75.0].into_iter().find(|p| {
        let rank = (p / 100.0 * samples as f64).ceil() as usize;
        samples.saturating_sub(rank) >= TAIL_MIN_BEYOND
    })
}

/// Throughput of the median segment: `done_at_s` (ascending completion
/// times, measured from `start_s`) is cut into [`SEGMENTS`] equal-count
/// segments and each segment's ops ÷ wall is taken, so one scheduler
/// stall moves one segment, not the metric. Runs shorter than one op per
/// segment fall back to the whole window.
pub fn segment_median_throughput(start_s: f64, done_at_s: &[f64]) -> f64 {
    let per = done_at_s.len() / SEGMENTS;
    if per == 0 {
        return window_throughput(start_s, done_at_s);
    }
    let rates: Vec<f64> = (0..SEGMENTS)
        .map(|i| {
            let lo = if i == 0 {
                start_s
            } else {
                done_at_s[i * per - 1]
            };
            per as f64 / (done_at_s[(i + 1) * per - 1] - lo)
        })
        .collect();
    median(&rates)
}

/// Whole-window ops ÷ wall.
pub fn window_throughput(start_s: f64, done_at_s: &[f64]) -> f64 {
    match done_at_s.last() {
        Some(end) if *end > start_s => done_at_s.len() as f64 / (end - start_s),
        _ => 0.0,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method): the driver judges run-to-run spread by these.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median quartile.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The `service_mixed` guard: the class that holds the median sample
/// must have at least a fifth of its own samples on each side of the
/// median, i.e. the median sits inside that class's cluster and not in a
/// gap between two classes, where it would flip between them run to run.
pub fn median_inside_cluster(samples: &[(usize, f64)]) -> bool {
    let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
    let p50 = median(&all);
    let Some(class) = samples.iter().find(|s| s.1 == p50).map(|s| s.0) else {
        return false;
    };
    let own: Vec<f64> = samples
        .iter()
        .filter(|s| s.0 == class)
        .map(|s| s.1)
        .collect();
    let below = own.iter().filter(|v| **v < p50).count();
    let above = own.iter().filter(|v| **v > p50).count();
    below * 5 >= own.len() && above * 5 >= own.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(30), None);
        // 40 samples: p75 has rank 30, leaving exactly 10 beyond.
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
    }

    #[test]
    fn one_stall_does_not_move_segment_median() {
        // 10 ops of 1 s each; a 10 s stall inside the second segment.
        let steady: Vec<f64> = (1..=10).map(f64::from).collect();
        let mut stalled = steady.clone();
        for t in stalled.iter_mut().skip(3) {
            *t += 10.0;
        }
        assert_eq!(segment_median_throughput(0.0, &steady), 1.0);
        assert_eq!(segment_median_throughput(0.0, &stalled), 1.0);
        assert_eq!(window_throughput(0.0, &steady), 1.0);
        assert_eq!(window_throughput(0.0, &stalled), 0.5);
        // Fewer ops than segments: whole window.
        assert_eq!(segment_median_throughput(0.0, &[2.0, 4.0]), 0.5);
        // A trailing remainder is left out of the segments.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(segment_median_throughput(0.0, &eleven), 1.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert_eq!(quartile_spread(&v), 1.0);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
    }

    #[test]
    fn median_on_a_cluster_edge_is_flagged() {
        // Three tight classes; the median (class 1) has neighbours of its
        // own class on both sides.
        let mut inside = Vec::new();
        for i in 0..10 {
            inside.push((0, 80.0 + i as f64));
            inside.push((1, 140.0 + i as f64));
            inside.push((2, 240.0 + i as f64));
        }
        assert!(median_inside_cluster(&inside));
        // Two classes only: the nearest-rank median is the top sample of
        // the lower cluster, with nothing of its class above it.
        let edge: Vec<(usize, f64)> = inside.iter().copied().filter(|s| s.0 != 1).collect();
        assert!(!median_inside_cluster(&edge));
    }
}
