//! The benchmark's own statistics: order statistics with the
//! "ten samples beyond" tail rule, span self time over nested spans,
//! failure-share counting, and quantiles of fixed-bucket histograms.

/// Median of `values` (mean of the two middle values for even counts);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`: the smallest
/// sample with at least `p`% of the samples at or below it. `0.0` for an
/// empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p).saturating_sub(1)]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest whole percentile (at least the median) that still has
/// `min_beyond` samples beyond it among `n`, or `None` when even the
/// median has fewer. A tail reported past this point rests on too few
/// samples to be repeatable.
pub fn highest_supported_percentile(n: usize, min_beyond: usize) -> Option<u32> {
    (50..100).rev().find(|&p| samples_beyond(n, f64::from(p)) >= min_beyond)
}

/// One timed interval of a trace. Times are seconds from the trace
/// origin; `parent` names the span that caused this one.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id within one trace.
    pub id: u64,
    /// The causing span, if any.
    pub parent: Option<u64>,
    /// Layer name (task kind, `advance`, `job`, `post`, …).
    pub name: String,
    /// Job (or submission) the span belongs to.
    pub job: u64,
    /// Start, seconds from the trace origin.
    pub start: f64,
    /// End, seconds from the trace origin.
    pub end: f64,
}

/// Self time of every span, in input order: its duration minus the part
/// of its interval covered by its direct children. Children may overlap
/// one another (tasks of one batch run in parallel); overlapping cover
/// is counted once.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    use std::collections::HashMap;
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let duration = (s.end - s.start).max(0.0);
            let covered = children.get(&s.id).map_or(0.0, |c| covered(c, s.start, s.end));
            (duration - covered).max(0.0)
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut clipped: Vec<(f64, f64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| b > a).collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        total += cb - ca;
    }
    total
}

/// Self time summed per span name, sorted by name.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(String, f64)> {
    let mut by_name: std::collections::BTreeMap<String, f64> = Default::default();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(span.name.clone()).or_default() += own;
    }
    by_name.into_iter().collect()
}

/// How one attempted job ended, from the benchmark's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Met the workload's success criterion.
    Solved,
    /// Finished, but the checker rejected the invariant.
    Invalid,
    /// Checker-valid, but the ground truth is not implied.
    Unsolved,
    /// Refused at admission (503 / 429).
    Refused,
    /// Admitted, but never reached `done`.
    Lost,
}

/// Attempts and failures over a set of verdicts. Every verdict counts
/// as an attempt; everything but [`Verdict::Solved`] counts as failed —
/// refused and lost jobs are never dropped from the denominator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FailureShare {
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that did not meet the success criterion.
    pub failed: u64,
}

impl FailureShare {
    /// Tallies `verdicts`.
    pub fn of(verdicts: &[Verdict]) -> FailureShare {
        FailureShare {
            attempted: verdicts.len() as u64,
            failed: verdicts.iter().filter(|v| **v != Verdict::Solved).count() as u64,
        }
    }

    /// Solved share of attempts (`0.0` when nothing was attempted).
    pub fn solved_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// Quantile `q` (0..=1) of a fixed-bucket histogram, interpolated
/// linearly inside the bucket that holds it (the Prometheus
/// `histogram_quantile` rule). `bounds` are the finite upper bounds;
/// `counts` are per-bucket (not cumulative), with one extra overflow
/// bucket whose quantiles report the last finite bound.
pub fn histogram_quantile(bounds: &[f64], counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = q * total as f64;
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 && (seen + c) as f64 >= target {
            let Some(&hi) = bounds.get(i) else {
                return *bounds.last().unwrap_or(&0.0);
            };
            let lo = if i == 0 { 0.0 } else { bounds[i - 1] };
            let within = ((target - seen as f64) / c as f64).clamp(0.0, 1.0);
            return lo + (hi - lo) * within;
        }
        seen += c;
    }
    *bounds.last().unwrap_or(&0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: f64, end: f64) -> Span {
        Span { id, parent, name: name.into(), job: 0, start, end }
    }

    #[test]
    fn median_and_nearest_rank_percentiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p91 only 9.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 91.0), 9);
        assert_eq!(highest_supported_percentile(100, 10), Some(90));
        // 96 samples (24 sources × 4): p90 has only 9 beyond.
        assert_eq!(samples_beyond(96, 90.0), 9);
        assert_eq!(highest_supported_percentile(96, 10), Some(89));
        // 104 serve submissions support p90; 27 NLA jobs only p62.
        assert_eq!(highest_supported_percentile(104, 10), Some(90));
        assert_eq!(highest_supported_percentile(27, 10), Some(62));
        assert_eq!(samples_beyond(27, 62.0), 10);
        assert_eq!(samples_beyond(27, 63.0), 9);
        // 248 samples (two linear-suite passes) support p95.
        assert_eq!(highest_supported_percentile(248, 10), Some(95));
        // Too few samples for even the median to have ten beyond.
        assert_eq!(highest_supported_percentile(19, 10), None);
        assert_eq!(highest_supported_percentile(20, 10), Some(50));
        assert_eq!(highest_supported_percentile(0, 10), None);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // job [0, 10] with advance [0, 1], two overlapping tasks [1, 5]
        // and [2, 6], and a later advance [8, 9]: cover is 1 + 5 + 1.
        let spans = vec![
            span(1, None, "job", 0.0, 10.0),
            span(2, Some(1), "advance", 0.0, 1.0),
            span(3, Some(1), "train", 1.0, 5.0),
            span(4, Some(1), "train", 2.0, 6.0),
            span(5, Some(1), "advance", 8.0, 9.0),
        ];
        let own = self_times(&spans);
        assert!((own[0] - 3.0).abs() < 1e-12, "{own:?}");
        assert_eq!(&own[1..], &[1.0, 4.0, 4.0, 1.0]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(
            by_name,
            vec![
                ("advance".to_string(), 2.0),
                ("job".to_string(), 3.0),
                ("train".to_string(), 8.0)
            ]
        );
    }

    #[test]
    fn self_time_is_per_level_and_clips_children() {
        // Grandchildren reduce only their parent's self time, and a child
        // spilling past its parent's end is clipped to the parent.
        let spans = vec![
            span(1, None, "submission", 0.0, 4.0),
            span(2, Some(1), "get", 1.0, 3.0),
            span(3, Some(2), "parse", 1.5, 2.0),
            span(4, Some(1), "post", 3.5, 5.0),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![1.5, 1.5, 0.5, 1.5]);
    }

    #[test]
    fn failures_count_against_attempts() {
        use Verdict::*;
        let share = FailureShare::of(&[Solved, Solved, Invalid, Unsolved, Refused, Lost, Solved]);
        assert_eq!(share, FailureShare { attempted: 7, failed: 4 });
        assert!((share.solved_ratio() - 3.0 / 7.0).abs() < 1e-12);
        assert_eq!(FailureShare::of(&[Solved; 27]).solved_ratio(), 1.0);
        assert_eq!(FailureShare::of(&[]).solved_ratio(), 0.0);
        // A refusal is a failure even when nothing else went wrong.
        assert_eq!(FailureShare::of(&[Solved, Refused]).failed, 1);
    }

    #[test]
    fn histogram_quantile_interpolates_inside_the_bucket() {
        let bounds = [1.0, 2.0, 4.0];
        // 10 samples in (1, 2], 10 in (2, 4]: the median is the top of
        // the second bucket, p75 halfway through the third.
        let counts = [0, 10, 10, 0];
        assert!((histogram_quantile(&bounds, &counts, 0.5) - 2.0).abs() < 1e-12);
        assert!((histogram_quantile(&bounds, &counts, 0.75) - 3.0).abs() < 1e-12);
        // Overflow reports the last finite bound; empty reports zero.
        assert_eq!(histogram_quantile(&bounds, &[0, 0, 0, 5], 0.5), 4.0);
        assert_eq!(histogram_quantile(&bounds, &[0, 0, 0, 0], 0.5), 0.0);
    }
}
