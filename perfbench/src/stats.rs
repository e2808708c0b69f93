//! The benchmark's own arithmetic: order statistics under the
//! ten-beyond tail rule, due-time latency for open-loop runs, medians,
//! and the metric table that becomes the final JSON line.

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// Highest percentile the tail metric reports, in tenths (it is named
/// p99).
const TAIL_CAP_TENTHS: usize = 990;

/// Nearest-rank index of the percentile `tenths / 10` in `n` sorted
/// samples; integer arithmetic, so p98 of 500 is exactly rank 490.
fn rank(tenths: usize, n: usize) -> usize {
    (tenths * n).div_ceil(1000).clamp(1, n) - 1
}

/// Value at percentile `tenths / 10` of ascending `sorted` (nearest
/// rank), e.g. `percentile(sorted, 500)` for the median.
///
/// # Panics
///
/// Panics when `sorted` is empty.
pub fn percentile(sorted: &[u64], tenths: usize) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(tenths, sorted.len())]
}

/// A tail order statistic together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (at most 99).
    pub percentile: f64,
    /// Its value.
    pub value: u64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The highest percentile, in steps of 0.1 up to p99, whose nearest-rank
/// sample has at least [`TAIL_BEYOND`] samples beyond it — so a tail is
/// never read off a handful of outliers. Returns `None` when even the
/// median would leave fewer than ten samples beyond it.
pub fn tail(sorted: &[u64]) -> Option<Tail> {
    let n = sorted.len();
    (500..=TAIL_CAP_TENTHS)
        .rev()
        .find(|&tenths| n > TAIL_BEYOND && n - 1 - rank(tenths, n) >= TAIL_BEYOND)
        .map(|tenths| Tail {
            percentile: tenths as f64 / 10.0,
            value: sorted[rank(tenths, n)],
            samples: n,
        })
}

/// Per-subframe latency of an open-loop run measured from when each
/// subframe was *due* (`i · delta_ns` after the run start) to its
/// completion, so a dispatcher stall counts against every subframe it
/// delayed.
///
/// `completions_ns` are the run's per-subframe completion stamps in
/// dispatch order. They map onto due times only when every one of the
/// `n` subframes completed; any shortfall returns `None` rather than
/// shifting later subframes onto earlier due times.
pub fn due_time(completions_ns: &[u64], delta_ns: u64, n: usize) -> Option<Vec<u64>> {
    (completions_ns.len() == n).then(|| {
        completions_ns
            .iter()
            .enumerate()
            .map(|(i, &done)| done.saturating_sub(i as u64 * delta_ns))
            .collect()
    })
}

/// How late the dispatcher sent each subframe: `dispatch − ready`. A
/// subframe is ready at its due time (`i · delta_ns`) and, under an
/// in-flight window of `window` subframes, no earlier than the
/// completion that freed its place at the door — the
/// `(i − window + 1)`-th completion in time order. Pass
/// `usize::MAX` for an unbounded (open-loop) window. Returns `None` on a
/// shortfall, as [`due_time`] does.
pub fn dispatch_lag(
    completions_ns: &[u64],
    latencies_ns: &[u64],
    delta_ns: u64,
    window: usize,
    n: usize,
) -> Option<Vec<u64>> {
    if completions_ns.len() != n || latencies_ns.len() != n {
        return None;
    }
    let mut in_time_order = completions_ns.to_vec();
    in_time_order.sort_unstable();
    completions_ns
        .iter()
        .zip(latencies_ns)
        .enumerate()
        .map(|(i, (&done, &lat))| {
            let dispatched = done.checked_sub(lat)?;
            let mut ready = i as u64 * delta_ns;
            if i >= window {
                ready = ready.max(in_time_order[i - window]);
            }
            Some(dispatched.saturating_sub(ready))
        })
        .collect()
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics when `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measured values"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Largest of `values` (0 for none): the best run of a rate.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Smallest of `values` (infinite for none): the best run of a cost.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `true` when `name` is a legal metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The named metrics of one run, in emission order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds one metric.
    ///
    /// # Panics
    ///
    /// Panics on an illegal or repeated name or a non-finite value —
    /// all bugs in this program.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_metric_name(&name), "illegal metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.entries.iter().all(|(n, ..)| *n != name),
            "metric {name} emitted twice"
        );
        self.entries.push((name, value, unit));
    }

    /// The metric names, in emission order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, ..)| n.as_str())
    }

    /// One human-readable line per metric.
    pub fn table(&self) -> String {
        self.entries
            .iter()
            .map(|(n, v, u)| format!("  {n:<36} {v:>16.4} {u}\n"))
            .collect()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// Values keep every digit Rust's shortest round-trip formatting
    /// gives them.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let sorted: Vec<u64> = (1..=2000).collect();
        let t = tail(&sorted).expect("enough samples");
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 1980);
        assert_eq!(t.samples, 2000);

        // 500 samples: p99 would leave 5 beyond, so the rule steps down
        // to the highest tenth-percentile leaving at least ten.
        let sorted: Vec<u64> = (1..=500).collect();
        let t = tail(&sorted).expect("enough samples");
        assert_eq!(t.percentile, 98.0);
        assert_eq!(t.value, 490);
        assert_eq!(sorted.len() - 1 - rank(980, 500), 10);
        assert_eq!(sorted.len() - 1 - rank(981, 500), 9);
        assert_eq!(t.samples, 500);
    }

    #[test]
    fn tail_refuses_tiny_samples() {
        assert_eq!(tail(&[]), None);
        let sorted: Vec<u64> = (0..19).collect();
        assert_eq!(tail(&sorted), None);
        let sorted: Vec<u64> = (0..20).collect();
        let t = tail(&sorted).expect("20 samples leave ten beyond the median");
        assert_eq!((t.percentile, t.value), (50.0, 9));
        let sorted: Vec<u64> = (0..22).collect();
        let t = tail(&sorted).expect("22 samples");
        assert_eq!((t.percentile, t.value), (54.5, 11));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [10, 20, 30, 40];
        assert_eq!(percentile(&sorted, 500), 20);
        assert_eq!(percentile(&sorted, 510), 30);
        assert_eq!(percentile(&sorted, 1000), 40);
        assert_eq!(percentile(&sorted, 0), 10);
    }

    #[test]
    fn due_time_latency_counts_the_generator_stall() {
        // Δ = 10: subframe 1 went out 15 late (a stall) and completed
        // 5 later; its latency from due includes the stall, and so does
        // subframe 2's, which the stall also held back.
        let completions = [4, 30, 33];
        let latencies = [4, 5, 3];
        assert_eq!(due_time(&completions, 10, 3), Some(vec![4, 20, 13]));
        let lag = dispatch_lag(&completions, &latencies, 10, usize::MAX, 3);
        assert_eq!(lag, Some(vec![0, 15, 10]));
    }

    #[test]
    fn due_time_refuses_a_shortfall() {
        // One subframe never completed: mapping the survivors onto due
        // times would shift them, so no latencies come back.
        assert_eq!(due_time(&[4, 30], 10, 3), None);
        assert_eq!(dispatch_lag(&[4, 30], &[4, 5], 10, usize::MAX, 3), None);
        assert_eq!(dispatch_lag(&[4, 30, 33], &[4, 5], 10, usize::MAX, 3), None);
    }

    #[test]
    fn dispatch_lag_under_a_window() {
        // Δ = 0, window 1: each subframe is ready when the previous one
        // completes; subframe 2 went out 3 ns after that.
        let completions = [10, 20, 35];
        let latencies = [10, 10, 12];
        let lag = dispatch_lag(&completions, &latencies, 0, 1, 3).expect("complete run");
        assert_eq!(lag, vec![0, 0, 3]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn metric_names_follow_the_pattern() {
        assert!(valid_metric_name("phy.rx.stage.turbo_share"));
        assert!(valid_metric_name("latency_p99_us"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".lead"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name("a/b"));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }

    #[test]
    fn result_json_has_the_four_keys() {
        let mut m = Metrics::default();
        m.push("setup_s", 0.5, "s");
        m.push("latency_p50_us", 1234.5678, "us");
        let json = m.result_json(true, 10, 0);
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"latency_p50_us\": {\"value\": 1234.5678, \"unit\": \"us\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "emitted twice")]
    fn repeated_metric_names_are_rejected() {
        let mut m = Metrics::default();
        m.push("a", 1.0, "s");
        m.push("a", 2.0, "s");
    }
}
