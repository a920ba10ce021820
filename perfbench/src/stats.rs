//! Order statistics over samples, and the clock helpers the workloads
//! share.

use std::time::{Duration, Instant};

/// The `q`-quantile (`0.0..=1.0`) of `xs` by linear interpolation
/// between order statistics (the same rule as Python's
/// `statistics.quantiles(method="inclusive")`). 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// `d` in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `d` in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Run `f` once and return its result with the wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Per-call time of a call too short to time alone (under ~10 µs, where
/// one `Instant::now` is a visible share): `f` runs `batch` times
/// between one pair of clock reads, and the batch time is divided out.
pub fn per_call(batch: usize, mut f: impl FnMut()) -> Duration {
    let t = Instant::now();
    for _ in 0..batch {
        f();
    }
    t.elapsed() / batch.max(1) as u32
}

/// Repeat `f` until `budget` has passed (at least `min` times),
/// collecting its results.
pub fn repeat_for<T>(budget: Duration, min: usize, mut f: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed() < budget {
        out.push(f());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.25), 1.75);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }
}
