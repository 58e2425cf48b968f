//! Sample statistics, freshness accounting and operation counting.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `samples`, interpolating linearly
/// between the two nearest ranks (the "linear" method of NumPy and of
/// Python's `statistics.quantiles(method="inclusive")`). `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&p) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Split `[0, window)` into `parts` equal slices, apply `stat` to the
/// values whose time falls in each slice, and return the median over
/// the slices. One slice slowed by something else on the machine then
/// moves the result far less than it moves a statistic over the whole
/// window. Samples are `(time, value)`; slices where `stat` yields
/// `None` are skipped.
pub fn median_over_slices(
    samples: &[(f64, f64)],
    window: f64,
    parts: usize,
    stat: impl Fn(&[f64]) -> Option<f64>,
) -> Option<f64> {
    let mut slices = vec![Vec::new(); parts];
    for &(at, value) in samples {
        let k = (at / window * parts as f64).floor();
        if (0.0..parts as f64).contains(&k) {
            slices[k as usize].push(value);
        }
    }
    let per_slice: Vec<f64> = slices.iter().filter_map(|s| stat(s)).collect();
    median(&per_slice)
}

/// One client-side observation: at `at` seconds the daemon's published
/// board covered the first `applied` events of the log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    pub at: f64,
    pub applied: u64,
}

/// Freshness of the log events `first..end`: for each event, the time
/// from `appended_at(event)` to the first observation whose `applied`
/// count covers it. Observations must be in time order. Returns
/// `(appended_at, freshness)` per covered event, in event order, and the
/// number of events no observation covered.
pub fn freshness(
    first: u64,
    end: u64,
    appended_at: impl Fn(u64) -> f64,
    observations: &[Observation],
) -> (Vec<(f64, f64)>, u64) {
    let mut samples = Vec::with_capacity(end.saturating_sub(first) as usize);
    let mut covered = first;
    for obs in observations {
        let upto = obs.applied.min(end);
        while covered < upto {
            let at = appended_at(covered);
            samples.push((at, obs.at - at));
            covered += 1;
        }
    }
    (samples, end.saturating_sub(covered))
}

/// Operations attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Count one operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// The growth rate of a counter the daemon publishes once per tick, from
/// a time-ordered `(at, value)` series: how much it grew between its
/// first and last observed change, over the time between them. Timing
/// from change to change keeps a partial tick at either end of the
/// window, and the publication lag, out of the rate. `None` with fewer
/// than two changes.
pub fn rate_between_changes(series: &[(f64, u64)]) -> Option<f64> {
    let mut changes = series.windows(2).filter(|w| w[1].1 != w[0].1).map(|w| w[1]);
    let first = changes.next()?;
    let last = changes.next_back()?;
    Some((last.1 - first.1) as f64 / (last.0 - first.0))
}
