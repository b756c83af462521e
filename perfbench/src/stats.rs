//! The benchmark's own statistics: percentiles under the "at least ten
//! samples beyond" rule, open-loop latency from the due time, and failure
//! accounting. Failed requests enter latency samples as `+inf`, so a
//! failure can never make a percentile look better.

use std::time::{Duration, Instant};

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail rule chooses from, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Nearest-rank percentile of `sorted` (ascending), `p` in (0, 100].
/// Returns `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(sorted[rank(n, p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    let x = p * n as f64 / 100.0;
    // An exact product (99.9% of 10 000) must not round up past itself.
    let r = if (x - x.round()).abs() < 1e-9 {
        x.round()
    } else {
        x.ceil()
    };
    (r as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile's rank.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median lacks them (n < 20).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median of unsorted values (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Arithmetic mean (`None` when empty).
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// A latency sample set in milliseconds; failures are `+inf`.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    ms: Vec<f64>,
}

impl Latencies {
    /// Records one completed request.
    pub fn ok(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    /// Records one failed, refused, shed or wrong request.
    pub fn failed(&mut self) {
        self.ms.push(f64::INFINITY);
    }

    /// Appends another sample set.
    pub fn extend(&mut self, other: &Latencies) {
        self.ms.extend_from_slice(&other.ms);
    }

    /// Every sample in record order, failures as `+inf`.
    pub fn samples(&self) -> &[f64] {
        &self.ms
    }

    /// Sample count, failures included.
    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// Nearest-rank percentile over every sample, failures included.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let mut v = self.ms.clone();
        v.sort_by(f64::total_cmp);
        percentile(&v, p)
    }

    /// The percentile the tail rule allows for this sample count, with
    /// its value: `(p, value)`.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let p = tail_percentile(self.len())?;
        Some((p, self.percentile(p)?))
    }
}

/// One open-loop request's timing: when it was due, when the generator
/// actually submitted it, and the server's queue-to-response time.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopTiming {
    /// When the schedule said the request should be sent.
    pub due: Instant,
    /// When the generator's submit returned.
    pub submitted: Instant,
    /// The server's enqueue-to-response time.
    pub waited: Duration,
}

impl OpenLoopTiming {
    /// Generator lateness: how long after its due time the request went
    /// out. A stalled generator delays every later request; that delay
    /// belongs to the request, not the generator.
    pub fn lag(&self) -> Duration {
        self.submitted.saturating_duration_since(self.due)
    }

    /// Latency as the user sees it: from the due time to the response.
    pub fn latency(&self) -> Duration {
        self.lag() + self.waited
    }
}

/// Outcome counts for one workload. Every attempted request ends in
/// exactly one bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Completed and bit-identical to the reference.
    pub ok: u64,
    /// Refused at admission (queue full, quota, breaker).
    pub rejected: u64,
    /// Shed past a deadline.
    pub shed: u64,
    /// Answered with an execution or transport error.
    pub errored: u64,
    /// Completed, but the result differs from the reference.
    pub mismatched: u64,
}

impl Tally {
    /// Requests attempted.
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed()
    }

    /// Requests that did not complete correctly.
    pub fn failed(&self) -> u64 {
        self.rejected + self.shed + self.errored + self.mismatched
    }

    /// `failed ÷ attempted` (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.failed() as f64 / n as f64,
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, o: &Tally) {
        self.ok += o.ok;
        self.rejected += o.rejected;
        self.shed += o.shed;
        self.errored += o.errored;
        self.mismatched += o.mismatched;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [20, 100, 137, 200, 1000, 10_000] {
            let p = tail_percentile(n).expect("enough samples");
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn failures_enter_percentiles_as_infinity() {
        let mut lat = Latencies::default();
        for i in 0..90 {
            lat.ok(f64::from(i));
        }
        for _ in 0..10 {
            lat.failed();
        }
        assert_eq!(lat.len(), 100);
        assert_eq!(lat.percentile(90.0), Some(89.0));
        assert_eq!(lat.percentile(91.0), Some(f64::INFINITY));
        assert_eq!(lat.tail(), Some((90.0, 89.0)));
        lat.failed();
        assert_eq!(lat.percentile(90.0), Some(f64::INFINITY));
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let due = Instant::now();
        let t = OpenLoopTiming {
            due,
            submitted: due + Duration::from_millis(30),
            waited: Duration::from_millis(5),
        };
        assert_eq!(t.lag(), Duration::from_millis(30));
        assert_eq!(t.latency(), Duration::from_millis(35));
        // A request submitted early (clock jitter) has no negative lag.
        let early = OpenLoopTiming {
            due: due + Duration::from_millis(1),
            submitted: due,
            waited: Duration::from_millis(5),
        };
        assert_eq!(early.lag(), Duration::ZERO);
        assert_eq!(early.latency(), Duration::from_millis(5));
    }

    #[test]
    fn failed_share_counts_rejected_shed_errored_and_mismatched() {
        let t = Tally {
            ok: 6,
            rejected: 1,
            shed: 1,
            errored: 1,
            mismatched: 1,
        };
        assert_eq!(t.attempted(), 10);
        assert_eq!(t.failed(), 4);
        assert!((t.failed_share() - 0.4).abs() < 1e-12);
        assert_eq!(Tally::default().failed_share(), 0.0);
        let mut sum = Tally::default();
        sum.merge(&t);
        sum.merge(&Tally {
            ok: 10,
            ..Tally::default()
        });
        assert_eq!(sum.attempted(), 20);
        assert!((sum.failed_share() - 0.2).abs() < 1e-12);
    }
}
