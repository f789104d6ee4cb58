//! Summary statistics the benchmark reports: percentiles under the
//! ten-samples-beyond rule, due-time latency, Little's-law queue wait,
//! the geometric mean, and backlog-growth detection for the rate ladder.

/// Percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 9] = [50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9, 99.99];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: f64 = 10.0;

/// The highest percentile on the fixed ladder that leaves at least ten of
/// `n` samples beyond it, or `None` when `n` is too small for even the
/// median to qualify.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // The epsilon absorbs rounding in `100 - p` (e.g. 100 - 99.9).
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (100.0 - p) / 100.0 + 1e-9 >= TAIL_SAMPLES_BEYOND)
}

/// Nearest-rank percentile of `sorted` (ascending; may hold `INFINITY`
/// for requests that never completed).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (`NAN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Geometric mean of positive values (`NAN` when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Latency summary of a phase that is robust to a stall confined to part
/// of it: `values` (in arrival order) are cut into `k` equal contiguous
/// windows, and the result is the median over windows of each window's
/// p50 and of its tail at [`tail_percentile`] of the window's size,
/// returned as `(p50, tail, tail percentile)`. `None` when a window is
/// too small for a tail.
pub fn windowed_latency(values: &[f64], k: usize) -> Option<(f64, f64, f64)> {
    let size = values.len() / k.max(1);
    let p = tail_percentile(size)?;
    let (mut p50s, mut tails) = (Vec::new(), Vec::new());
    for w in values.chunks(size).take(k) {
        let mut w = w.to_vec();
        w.sort_by(f64::total_cmp);
        p50s.push(percentile(&w, 50.0));
        tails.push(percentile(&w, p));
    }
    Some((median(&p50s), median(&tails), p))
}

/// Latency of each request charged from when it was **due**, not when it
/// was sent: a generator or server stall therefore shows up in every
/// request that should have gone out during it. A request with no
/// response (refused or lost) is charged `INFINITY`, so it misses every
/// latency limit.
pub fn due_latencies(due_s: &[f64], done_s: &[Option<f64>]) -> Vec<f64> {
    due_s.iter().zip(done_s).map(|(due, done)| done.map_or(f64::INFINITY, |d| d - due)).collect()
}

/// Mean time a request waits in the queue by Little's law, `W = L / λ`,
/// from the mean queue length and the arrival rate, in milliseconds.
pub fn little_wait_ms(mean_queue_len: f64, arrivals_per_s: f64) -> f64 {
    if arrivals_per_s <= 0.0 {
        return 0.0;
    }
    mean_queue_len / arrivals_per_s * 1e3
}

/// Whether the number of outstanding requests grows over a run:
/// `points` are `(time_s, outstanding)` samples. The least-squares slope
/// times the sampled span is the growth; the backlog grows when that
/// exceeds both five requests and a tenth of the requests offered, so a
/// queue that fills and drains in bursts (a stall shorter than a tenth of
/// the run) does not count.
pub fn backlog_grows(points: &[(f64, f64)], offered: usize) -> bool {
    if points.len() < 3 {
        return false;
    }
    let n = points.len() as f64;
    let mean_t = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_q = points.iter().map(|p| p.1).sum::<f64>() / n;
    let (mut cov, mut var) = (0.0, 0.0);
    for &(t, q) in points {
        cov += (t - mean_t) * (q - mean_q);
        var += (t - mean_t) * (t - mean_t);
    }
    if var <= 0.0 {
        return false;
    }
    let span = points[points.len() - 1].0 - points[0].0;
    let growth = cov / var * span;
    growth > 5.0f64.max(offered as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        for n in [20, 57, 400, 1234, 10_000] {
            let p = tail_percentile(n).unwrap();
            assert!(n as f64 * (100.0 - p) / 100.0 + 1e-9 >= 10.0, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn stalled_server_is_charged_from_due_time() {
        // Due every 10 ms; the server stalls until 100 ms and then answers
        // one request per millisecond. Every late answer carries the stall.
        let due = [0.000, 0.010, 0.020, 0.030];
        let done = [Some(0.101), Some(0.102), Some(0.103), None];
        let lat = due_latencies(&due, &done);
        let ms: Vec<f64> = lat.iter().map(|l| (l * 1e3 * 1e6).round() / 1e6).collect();
        assert_eq!(&ms[..3], &[101.0, 92.0, 83.0]);
        assert!(ms[3].is_infinite(), "an unanswered request misses every limit");
        let mut sorted = lat.clone();
        sorted.sort_by(f64::total_cmp);
        assert!(percentile(&sorted, 99.0).is_infinite());
    }

    #[test]
    fn windowed_latency_ignores_one_stalled_window() {
        // Three windows of 100; the middle one stalls every request.
        let mut v: Vec<f64> = (0..300).map(|i| (i % 100) as f64).collect();
        v[100..200].iter_mut().for_each(|x| *x += 1000.0);
        let (p50, tail, p) = windowed_latency(&v, 3).unwrap();
        assert_eq!(p, 90.0);
        assert_eq!((p50, tail), (49.0, 89.0));
        assert!(windowed_latency(&v[..50], 3).is_none());
    }

    #[test]
    fn littles_law_wait() {
        // Two requests queued on average at 100 req/s wait 20 ms.
        assert!((little_wait_ms(2.0, 100.0) - 20.0).abs() < 1e-12);
        assert_eq!(little_wait_ms(3.0, 0.0), 0.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn backlog_growth_detection() {
        // A steady queue that fluctuates between 0 and 3.
        let steady: Vec<(f64, f64)> = (0..200).map(|i| (i as f64 * 0.01, (i % 4) as f64)).collect();
        assert!(!backlog_grows(&steady, 200));
        // A queue gaining one request every 20 ms: 100 over two seconds.
        let growing: Vec<(f64, f64)> =
            (0..200).map(|i| (i as f64 * 0.01, (i / 2) as f64)).collect();
        assert!(backlog_grows(&growing, 200));
        // A burst that drains again is not growth.
        let burst: Vec<(f64, f64)> = (0..200)
            .map(|i| (i as f64 * 0.01, if (80..120).contains(&i) { 30.0 } else { 0.0 }))
            .collect();
        assert!(!backlog_grows(&burst, 200));
        assert!(!backlog_grows(&[(0.0, 0.0), (1.0, 50.0)], 10));
    }
}
