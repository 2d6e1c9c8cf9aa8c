//! The host's speed, measured beside the workload.
//!
//! The container's host moves between clock levels some 25 % apart and stays
//! on one for anything from a second to minutes: inside one run `agg_groupby`
//! reads 104 ms for twenty executes, 83 ms for the next ten and 104 ms again.
//! A serial integer kernel timed between operations moves with exactly the
//! same levels (757 against 620 microseconds in that run), so every
//! end-to-end time is divided by the kernel's time *around the moment it was
//! measured*, relative to [`NOMINAL_MS`]: what the operation would have taken
//! had the host stayed on its usual level throughout. Dividing a run's median
//! time by the run's median kernel time is not enough: in a run split between
//! two levels the two medians can sit on different ones.

use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Steps of the kernel: about three quarters of a millisecond.
const STEPS: u32 = 400_000;
/// The kernel's time on this container's usual level. A constant, so that
/// times of different runs, commits and days are scaled to one speed.
const NOMINAL_MS: f64 = 0.76;
/// Closed loops sample at most this often: 0.3 % of a run, and few enough
/// that the operation after a sample (which finds the caches a little colder)
/// stays out of a p95.
const SPACING: Duration = Duration::from_millis(250);
/// The speed at a moment is the median of this many samples nearest to it: one
/// sample repeats within some 5 % and now and then catches a stall.
const NEAREST: usize = 3;

/// One run of the kernel in milliseconds: a xorshift chain in which every
/// step needs the one before, so it is bound by the core's clock and by
/// nothing else.
fn kernel_ms() -> f64 {
    let started = Instant::now();
    let mut x = black_box(0x2545_f491_4f6c_dd1d_u64);
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// Kernel samples taken over one window or one run, in the order taken.
#[derive(Default)]
pub struct Speed {
    /// When each sample ended, and its time in milliseconds.
    samples: Vec<(Instant, f64)>,
}

impl Speed {
    pub fn sample(&mut self) {
        let ms = kernel_ms();
        self.samples.push((Instant::now(), ms));
    }

    /// Samples unless the last sample is younger than [`SPACING`].
    pub fn sample_spaced(&mut self) {
        if self
            .samples
            .last()
            .is_none_or(|(at, _)| at.elapsed() >= SPACING)
        {
            self.sample();
        }
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// How much slower than nominal the host ran over all samples: the
    /// traced run's `harness.speed_ratio`. 1 when nothing was sampled.
    pub fn ratio(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let all: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        median(&all) / NOMINAL_MS
    }

    /// How much slower than nominal the host ran around `at`: times measured
    /// there are divided by this. 1 when nothing was sampled.
    pub fn ratio_at(&self, at: Instant) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        // The window of NEAREST consecutive samples centred on the first
        // sample not before `at`, pushed inside the series at either end.
        let next = self.samples.partition_point(|s| s.0 < at);
        let width = NEAREST.min(self.samples.len());
        let first = next
            .saturating_sub(width / 2)
            .min(self.samples.len() - width);
        let near: Vec<f64> = self.samples[first..first + width]
            .iter()
            .map(|s| s.1)
            .collect();
        median(&near) / NOMINAL_MS
    }

    /// Median ratio of the samples taken in `[from, to)`; `None` if there
    /// are none.
    pub fn ratio_between(&self, from: Instant, to: Instant) -> Option<f64> {
        let inside: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.0 >= from && s.0 < to)
            .map(|s| s.1)
            .collect();
        (!inside.is_empty()).then(|| median(&inside) / NOMINAL_MS)
    }
}

/// Times of consecutive operations of one closed loop, each with the moment
/// it ended, and the host speed sampled between them.
#[derive(Default)]
pub struct Timed {
    ms: Vec<f64>,
    ended: Vec<Instant>,
    pub speed: Speed,
}

impl Timed {
    /// Files an operation that has just ended, then samples the speed if a
    /// sample is due.
    pub fn push(&mut self, ms: f64) {
        self.ms.push(ms);
        self.ended.push(Instant::now());
        self.speed.sample_spaced();
    }

    /// Files an operation and samples the speed whatever the spacing: for
    /// the few long operations of a run's set-up.
    pub fn push_sampled(&mut self, ms: f64) {
        self.ms.push(ms);
        self.ended.push(Instant::now());
        self.speed.sample();
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ms.is_empty()
    }

    /// Total of the times as measured, in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.ms.iter().sum()
    }

    /// The times at the host's nominal speed, in the order measured.
    pub fn at_nominal(&self) -> Vec<f64> {
        self.ms
            .iter()
            .zip(&self.ended)
            .map(|(ms, at)| ms / self.speed.ratio_at(*at))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speed_of(ms: &[f64], origin: Instant) -> Speed {
        Speed {
            samples: ms
                .iter()
                .enumerate()
                .map(|(i, &ms)| (origin + Duration::from_secs(i as u64), ms))
                .collect(),
        }
    }

    #[test]
    fn ratio_is_the_median_sample_over_nominal() {
        let s = Speed::default();
        assert_eq!(s.ratio(), 1.0);
        assert_eq!(s.ratio_at(Instant::now()), 1.0);
        let s = speed_of(
            &[NOMINAL_MS * 2.0, NOMINAL_MS, NOMINAL_MS * 4.0],
            Instant::now(),
        );
        assert_eq!(s.ratio(), 2.0);
        let mut t = Speed::default();
        t.sample_spaced();
        t.sample_spaced();
        assert_eq!(t.len(), 1, "the second sample came too soon");
        assert!(t.ratio() > 0.0);
    }

    #[test]
    fn the_ratio_at_a_moment_follows_the_level_around_it() {
        // Samples a second apart from second 10 on: five on the nominal
        // level, one of them stalled, then five on a level twice as fast.
        let start = Instant::now();
        let second = |s: u64| start + Duration::from_secs(s);
        let n = NOMINAL_MS;
        let fast = 0.5 * n;
        let s = speed_of(
            &[n, n, 3.0 * n, n, n, fast, fast, fast, fast, fast],
            second(10),
        );
        assert_eq!(s.ratio_at(second(0)), 1.0);
        assert_eq!(
            s.ratio_at(second(12)),
            1.0,
            "the stalled sample is outvoted"
        );
        assert_eq!(s.ratio_at(second(13)), 1.0);
        assert_eq!(s.ratio_at(second(17)), 0.5);
        assert_eq!(s.ratio_at(second(100)), 0.5);
        assert_eq!(s.ratio_between(second(10), second(12)), Some(1.0));
        assert_eq!(s.ratio_between(second(15), second(19)), Some(0.5));
        assert_eq!(s.ratio_between(second(0), second(10)), None);
    }

    #[test]
    fn timed_operations_are_scaled_by_the_speed_when_they_ended() {
        let mut t = Timed::default();
        assert!(t.is_empty());
        t.push_sampled(10.0);
        t.push(20.0);
        assert_eq!((t.len(), t.total_ms()), (2, 30.0));
        // One sample so far: both operations are scaled by it.
        let r = t.speed.ratio();
        assert_eq!(t.at_nominal(), vec![10.0 / r, 20.0 / r]);
    }
}
