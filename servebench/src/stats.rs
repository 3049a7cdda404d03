//! Order statistics over latency samples.

/// Nearest-rank percentile `q` (0..=1) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs.to_vec()), 0.5)
}

/// Tail figures computed per one-second window and summarised by their
/// median across windows, so a few steal-heavy seconds cannot decide them.
#[derive(Clone, Copy, Debug, Default)]
pub struct Windowed {
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    /// Samples across all windows.
    pub samples: usize,
    /// Smallest per-window sample count: a window's p99 rests on at least
    /// `min_window_samples / 100` samples beyond it.
    pub min_window_samples: usize,
    pub windows: usize,
}

/// `samples` are `(end offset, latency)` pairs in nanoseconds; window `w`
/// is `[w s, (w + 1) s)` and counts only where `keep[w]`.
pub fn windowed(samples: &[(u64, u64)], keep: &[bool]) -> Windowed {
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); keep.len()];
    for &(end, lat) in samples {
        let w = (end / 1_000_000_000) as usize;
        if keep.get(w) == Some(&true) {
            buckets[w].push(lat as f64);
        }
    }
    let (mut p50s, mut p95s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let mut total = 0;
    let mut min_count = usize::MAX;
    for bucket in buckets {
        if bucket.is_empty() {
            continue;
        }
        total += bucket.len();
        min_count = min_count.min(bucket.len());
        let bucket = sorted(bucket);
        p50s.push(percentile(&bucket, 0.50));
        p95s.push(percentile(&bucket, 0.95));
        p99s.push(percentile(&bucket, 0.99));
    }
    Windowed {
        p50: median(&p50s),
        p95: median(&p95s),
        p99: median(&p99s),
        samples: total,
        min_window_samples: if total == 0 { 0 } else { min_count },
        windows: p50s.len(),
    }
}

/// Windows to report, by their steal share: every window at or below
/// `limit`, or, when that leaves fewer than half of them, the half with
/// the least steal.
pub fn calm(steal: &[f64], limit: f64) -> Vec<bool> {
    let mut keep: Vec<bool> = steal.iter().map(|&s| s <= limit).collect();
    let half = steal.len().div_ceil(2);
    if keep.iter().filter(|&&k| k).count() < half {
        let mut order: Vec<usize> = (0..steal.len()).collect();
        order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
        keep = vec![false; steal.len()];
        for &w in &order[..half] {
            keep[w] = true;
        }
    }
    keep
}
