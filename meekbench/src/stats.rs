//! Order statistics and name rules shared by the metrics and the
//! steadiness report.

/// Samples that must rank above a percentile before it is reported: a
/// tail figure resting on fewer would move with single samples.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile of `sorted` (ascending), or `None`
/// unless at least [`MIN_BEYOND`] samples rank above it.
pub fn percentile(sorted: &[f64], p: u32) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || p == 0 || p >= 100 {
        return None;
    }
    // 1-based nearest rank, ceil(p * n / 100), in exact integer math.
    let rank = (p as usize * n).div_ceil(100);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (its default
/// "exclusive" method), so the steadiness report reads the same numbers
/// an external check of the same runs would.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Seconds per unit of each window of `per_window` consecutive units,
/// from when each unit started and when the last one ended. A trailing
/// partial window is left out, unless it is the only one.
pub fn window_paces(starts_s: &[f64], end_s: f64, per_window: usize) -> Vec<f64> {
    assert!(!starts_s.is_empty() && per_window > 0, "no units, or empty windows");
    let full = starts_s.len() / per_window;
    if full == 0 {
        return vec![(end_s - starts_s[0]) / starts_s.len() as f64];
    }
    let edge = |w: usize| starts_s.get(w * per_window).copied().unwrap_or(end_s);
    (0..full).map(|w| (edge(w + 1) - edge(w)) / per_window as f64).collect()
}

/// Whether `name` is a valid metric or workload name: a letter or digit,
/// then at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` is a valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly ten rank above it.
        assert_eq!(percentile(&ramp(1000), 99), Some(990.0));
        // One sample fewer moves the rank to 990 of 999: nine beyond.
        assert_eq!(percentile(&ramp(999), 99), None);
        // p50 needs only twenty samples.
        assert_eq!(percentile(&ramp(20), 50), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50), None);
        // p90 of 100 samples is rank 90, ten beyond.
        assert_eq!(percentile(&ramp(100), 90), Some(90.0));
        assert_eq!(percentile(&ramp(99), 90), None);
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn percentile_counts_ranks_not_distinct_values() {
        // Ties do not hide the tail: "beyond" is by rank.
        let v = vec![7.0; 1000];
        assert_eq!(percentile(&v, 99), Some(7.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 5.5, 8.25));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn window_paces_split_the_loop_into_equal_unit_counts() {
        // Five units starting at 0, 1, 3, 6, 10; the last ends at 15.
        let starts = [0.0, 1.0, 3.0, 6.0, 10.0];
        assert_eq!(window_paces(&starts, 15.0, 1), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        // Windows of two: [0, 3) and [3, 10); the fifth unit is left out.
        assert_eq!(window_paces(&starts, 15.0, 2), vec![1.5, 3.5]);
        // Windows of five: the whole loop, ending at its end.
        assert_eq!(window_paces(&starts, 15.0, 5), vec![3.0]);
        // Fewer units than a window: the whole loop is the one window.
        assert_eq!(window_paces(&starts, 15.0, 8), vec![3.0]);
    }

    #[test]
    fn metric_name_charset() {
        for ok in ["faults_per_s", "difftest.classify_us_p99", "core.build_us", "9lives", "a-b"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".hidden", "_x", "has space", "slash/no", "per%", "naïve", &"x".repeat(65)]
        {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn unit_charset() {
        for ok in ["faults/s", "s", "MB", "insts/cycle", "Minsts/s", "%", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "insts per cycle", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }
}
