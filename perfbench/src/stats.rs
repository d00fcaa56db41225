//! Order statistics and the tick → wall-clock latency mapping.

/// A tail percentile qualifies only with at least this many samples ranked
/// strictly above it; fewer would make it a reading of a handful of
/// outliers rather than of the tail.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, when reporting a tail.
pub const TAIL_PERCENTILES: [f64; 2] = [99.0, 90.0];

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `pct` percent of the samples at or below it.
/// Returns the value and the number of samples ranked above it.
pub fn nearest_rank(sorted: &[f64], pct: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
    let idx = rank.min(n) - 1;
    Some((sorted[idx], n - 1 - idx))
}

/// The highest of [`TAIL_PERCENTILES`] that has at least [`MIN_BEYOND`]
/// samples beyond it, as `(percentile, value)`; the median when none does.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    for pct in TAIL_PERCENTILES {
        let (value, beyond) = nearest_rank(sorted, pct)?;
        if beyond >= MIN_BEYOND {
            return Some((pct, value));
        }
    }
    nearest_rank(sorted, 50.0).map(|(value, _)| (50.0, value))
}

/// Slices a timed phase is cut into for [`sliced_rate`].
pub const RATE_SLICES: usize = 10;

/// Items completed per second, as the median over `slices` equal slices of
/// `[0, wall)`, from `(completion time, items)` events. A burst of
/// interference slows a few slices and moves the median little.
pub fn sliced_rate(events: &[(f64, u64)], wall: f64, slices: usize) -> Option<f64> {
    if slices == 0 || wall <= 0.0 {
        return None;
    }
    let width = wall / slices as f64;
    let mut counts = vec![0u64; slices];
    for &(at, items) in events {
        let i = ((at / width) as usize).min(slices - 1);
        counts[i] += items;
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
    median(&rates)
}

/// Percentile of per-request rates that [`fast_rate`] reports.
pub const FAST_PERCENTILE: f64 = 90.0;

/// The rate that a tenth of the requests reach or beat, from each
/// request's own rate. Interference on a shared host only ever slows a
/// request, and its bursts outlast whole slices of a run but not every
/// millisecond of it, so the fast tail estimates the undisturbed speed
/// where a median reads how busy the host was.
pub fn fast_rate(rates: &[f64]) -> Option<f64> {
    let mut sorted = rates.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, FAST_PERCENTILE).map(|(rate, _)| rate)
}

/// The time that a tenth of the repetitions of one operation beat or
/// match: [`fast_rate`] read as times.
pub fn fast_time(times: &[f64]) -> Option<f64> {
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 100.0 - FAST_PERCENTILE).map(|(time, _)| time)
}

/// Percentile `pct` of timestamped samples `(completion time, value)`, as
/// the median over equal slices of `[0, wall)` of each slice's percentile.
/// A burst of interference inflates the tail of the slices it hits, not the
/// reported value. There are as many slices as keep [`MIN_BEYOND`] samples
/// beyond `pct` in each (at most [`RATE_SLICES`], at least one); slices
/// short of that are left out unless none has enough.
pub fn sliced_percentile(samples: &[(f64, f64)], wall: f64, pct: f64) -> Option<f64> {
    if samples.is_empty() || wall <= 0.0 {
        return None;
    }
    let need = (MIN_BEYOND as f64 / (1.0 - pct / 100.0)).ceil().max(1.0) as usize;
    let slices = (samples.len() / need).clamp(1, RATE_SLICES);
    let width = wall / slices as f64;
    let mut buckets = vec![Vec::new(); slices];
    for &(at, value) in samples {
        buckets[((at / width) as usize).min(slices - 1)].push(value);
    }
    let mut full: Vec<Vec<f64>> = buckets
        .iter()
        .filter(|b| b.len() >= need)
        .cloned()
        .collect();
    if full.is_empty() {
        full = vec![samples.iter().map(|&(_, v)| v).collect()];
    }
    let per_slice: Vec<f64> = full
        .iter_mut()
        .filter_map(|b| {
            b.sort_by(f64::total_cmp);
            nearest_rank(b, pct).map(|(v, _)| v)
        })
        .collect();
    median(&per_slice)
}

/// Wall-clock boundaries of consecutive service ticks, in seconds since a
/// shared origin. The service's clock is logical; this maps it back to
/// wall time so a session's latency can be read in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct TickClock {
    first: u64,
    starts: Vec<f64>,
    ends: Vec<f64>,
}

impl TickClock {
    /// A clock whose first recorded tick will be `first`.
    pub fn new(first: u64) -> Self {
        Self {
            first,
            starts: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Records that tick `tick` ran from `start` to `end`. Ticks must be
    /// recorded in order without gaps.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is not the next tick of this clock.
    pub fn record(&mut self, tick: u64, start: f64, end: f64) {
        let next = self.first + self.starts.len() as u64;
        assert_eq!(tick, next, "ticks are recorded in order without gaps");
        self.starts.push(start);
        self.ends.push(end);
    }

    /// Latency of a session due at tick `due` and decided during tick
    /// `decided`: from the start of the due tick to the end of the deciding
    /// one. Ticks run back to back, so a slow tick delays every session due
    /// behind it. `None` when either tick was not recorded.
    pub fn latency(&self, due: u64, decided: u64) -> Option<f64> {
        let at = |tick: u64| usize::try_from(tick.checked_sub(self.first)?).ok();
        let start = *self.starts.get(at(due)?)?;
        let end = *self.ends.get(at(decided)?)?;
        Some(end - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_counts_samples_beyond() {
        let v = ramp(100);
        assert_eq!(nearest_rank(&v, 50.0), Some((50.0, 50)));
        assert_eq!(nearest_rank(&v, 99.0), Some((99.0, 1)));
        assert_eq!(nearest_rank(&v, 100.0), Some((100.0, 0)));
        assert_eq!(nearest_rank(&v, 0.0), Some((1.0, 99)));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is the 990th, with exactly 10 above it.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 999 samples leave only 9 above p99, so the tail falls back to p90.
        assert_eq!(tail(&ramp(999)), Some((90.0, 900.0)));
        // Too few samples for p90 as well: the median stands in.
        assert_eq!(tail(&ramp(50)), Some((50.0, 25.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn sliced_rate_is_the_median_slice() {
        // Four 1-second slices completing 10, 10, 2 and 10 items.
        let events = [(0.5, 10), (1.2, 4), (1.9, 6), (2.5, 2), (3.0, 10), (4.0, 0)];
        assert_eq!(sliced_rate(&events, 4.0, 4), Some(10.0));
        // Completions at or past the end land in the last slice.
        assert_eq!(sliced_rate(&[(9.0, 8)], 2.0, 2), Some(4.0));
        assert_eq!(sliced_rate(&events, 0.0, 4), None);
    }

    #[test]
    fn fast_rate_reads_the_fast_tenth() {
        // Rates 1..=100: 90, with a tenth of them above it.
        let rates: Vec<f64> = ramp(100).into_iter().rev().collect();
        assert_eq!(fast_rate(&rates), Some(90.0));
        // Slowing the slowest half leaves it alone.
        let slowed: Vec<f64> = (1..=100)
            .map(|i| if i <= 50 { i as f64 / 3.0 } else { i as f64 })
            .collect();
        assert_eq!(fast_rate(&slowed), Some(90.0));
        assert_eq!(fast_rate(&[]), None);
        // Times 1..=100: 10, with a tenth of them at or below it.
        assert_eq!(fast_time(&ramp(100)), Some(10.0));
        assert_eq!(fast_time(&[]), None);
    }

    #[test]
    fn sliced_percentile_ignores_a_burst() {
        // 4000 samples over 4 s; the last second is a 10× slower burst.
        let samples: Vec<(f64, f64)> = (0..4000)
            .map(|i| {
                let at = i as f64 / 1000.0;
                (
                    at,
                    if at >= 3.0 { 10.0 } else { 1.0 } + (i % 100) as f64 / 100.0,
                )
            })
            .collect();
        // 1000 samples per p99 slice: four slices, three of them calm,
        // whose p99 (the 990th of 1.00..1.99 ten times each) is 1.98.
        let p99 = sliced_percentile(&samples, 4.0, 99.0).unwrap();
        assert!((p99 - 1.98).abs() < 1e-12, "{p99}");
        let mut all: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
        all.sort_by(f64::total_cmp);
        assert!(
            tail(&all).unwrap().1 > 10.0,
            "the whole-run p99 sits in the burst"
        );
        // Too few samples for one full slice: the whole run stands in.
        let few = [(0.1, 1.0), (0.2, 3.0), (0.3, 2.0)];
        assert_eq!(sliced_percentile(&few, 1.0, 50.0), Some(2.0));
        assert_eq!(sliced_percentile(&[], 1.0, 50.0), None);
    }

    #[test]
    fn tick_latency_spans_due_start_to_decided_end() {
        let mut clock = TickClock::new(5);
        clock.record(5, 0.0, 1.0);
        clock.record(6, 1.0, 1.5);
        clock.record(7, 1.5, 4.0);
        // Due at 5, decided at 7: from the start of 5 to the end of 7.
        assert_eq!(clock.latency(5, 7), Some(4.0));
        // Decided in the tick it became due: that tick's own length.
        assert_eq!(clock.latency(6, 6), Some(0.5));
        // A slow tick 7 lengthens every session waiting through it.
        assert_eq!(clock.latency(6, 7), Some(3.0));
        assert_eq!(clock.latency(4, 7), None, "due before the clock started");
        assert_eq!(clock.latency(5, 8), None, "decided tick not recorded");
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn tick_gaps_are_rejected() {
        let mut clock = TickClock::new(1);
        clock.record(2, 0.0, 1.0);
    }
}
