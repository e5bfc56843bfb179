//! Order statistics and the fixed-cost fit used by the benchmark.

/// Sorted copy of `samples` (every sample must be finite).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Median of `samples` (mean of the two middle values for an even count);
/// `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    })
}

/// Nearest-rank position (1-based) of quantile `q` in `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many samples lie strictly beyond the nearest-rank `q` quantile.
fn tail(q: f64, n: usize) -> usize {
    n - rank(q, n)
}

/// Nearest-rank `q` quantile of `samples`, reported only when at least
/// `min_tail` samples lie beyond it, so a high percentile is never read
/// off a handful of points. `None` when there are too few samples.
pub fn percentile(samples: &[f64], q: f64, min_tail: usize) -> Option<f64> {
    let n = samples.len();
    if n == 0 || tail(q, n) < min_tail {
        return None;
    }
    Some(sorted(samples)[rank(q, n) - 1])
}

/// Smallest sample count for which [`percentile`] reports the `q`
/// quantile with at least `min_tail` samples beyond it.
pub fn samples_needed(q: f64, min_tail: usize) -> usize {
    (1..).find(|&n| tail(q, n) >= min_tail).expect("q < 1")
}

/// Fixed cost of one `run` call, from repeated timings of `k` single-step
/// calls (`singles`, each the total of the `k` calls) and of one `k`-step
/// call (`batched`). With a per-step cost `s` and a per-call cost `c`,
/// `singles ≈ k(c + s)` and `batched ≈ c + ks`, so `c = (singles −
/// batched) / (k − 1)`; medians make the fit robust to stray samples.
pub fn call_overhead(k: u64, singles: &[f64], batched: &[f64]) -> Option<f64> {
    if k < 2 {
        return None;
    }
    Some((median(singles)? - median(batched)?) / (k - 1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100: samples 91..=100 lie beyond it.
        assert_eq!(percentile(&hundred, 0.9, 10), Some(90.0));
        // 99 samples leave only nine beyond the nearest-rank p90.
        assert_eq!(percentile(&hundred[..99], 0.9, 10), None);
        assert_eq!(samples_needed(0.9, 10), 100);
        assert_eq!(samples_needed(0.5, 10), 20);
        // Input order does not matter.
        let mut shuffled = hundred.clone();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.9, 10), Some(90.0));
    }

    #[test]
    fn percentile_tail_rule_holds_at_every_size() {
        for n in 1..400 {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            match percentile(&v, 0.9, 10) {
                Some(p) => {
                    assert!(n >= samples_needed(0.9, 10));
                    assert!(v.iter().filter(|&&x| x > p).count() >= 10, "n = {n}");
                }
                None => assert!(n < samples_needed(0.9, 10), "n = {n}"),
            }
        }
    }

    #[test]
    fn call_overhead_recovers_a_synthetic_fixed_cost() {
        let (step, fixed, k) = (5.0, 2.0, 4u64);
        // Deterministic ±0.3 jitter around the exact model.
        let jitter = |i: usize| 0.3 * ((i * 7 % 5) as f64 - 2.0) / 2.0;
        let singles: Vec<f64> = (0..9)
            .map(|i| k as f64 * (fixed + step) + jitter(i))
            .collect();
        let batched: Vec<f64> = (0..9)
            .map(|i| fixed + k as f64 * step + jitter(i + 3))
            .collect();
        let c = call_overhead(k, &singles, &batched).unwrap();
        assert!((c - fixed).abs() < 0.05, "fitted {c}");
        // Exact timings give the exact cost; no fixed cost gives zero.
        assert_eq!(call_overhead(k, &[28.0], &[22.0]), Some(2.0));
        assert_eq!(call_overhead(k, &[20.0], &[20.0]), Some(0.0));
        assert_eq!(call_overhead(1, &[1.0], &[1.0]), None);
        assert_eq!(call_overhead(k, &[], &[1.0]), None);
    }
}
