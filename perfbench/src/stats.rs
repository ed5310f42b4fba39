//! Timing helpers shared by every workload: order statistics, the
//! machine-drift probe, peak RSS, and the seeded generator.

use std::hint::black_box;
use std::time::Instant;

/// Seconds elapsed since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Time `f` once, in seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, secs_since(t0))
}

/// The `q` quantile (0..=1) by linear interpolation between order
/// statistics. Panics on an empty sample, which is a harness bug.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A timing sample summarised for the report line: median, quartiles and
/// the number of readings behind them.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Median reading.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of readings.
    pub n: usize,
}

impl Summary {
    /// Summarise `values`.
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            median: median(values),
            q1: quantile(values, 0.25),
            q3: quantile(values, 0.75),
            n: values.len(),
        }
    }
}

/// Shortest block a per-call reading is taken over.
const MIN_BLOCK_SECS: f64 = 5e-3;

/// Per-call timing of a step too short to time alone with any
/// repeatability: each reading runs the step in a block of calls lasting
/// at least 5 ms and divides by the block length. Readings can be taken
/// between a run's passes, so their median spans the same host-speed
/// drift as the passes do.
pub struct PerCall {
    reps: usize,
    readings: Vec<f64>,
}

impl PerCall {
    /// Find the block length for `f` (doubling from one call).
    pub fn calibrate(f: &mut impl FnMut()) -> PerCall {
        let mut reps = 1usize;
        loop {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            if secs_since(t0) >= MIN_BLOCK_SECS {
                return PerCall {
                    reps,
                    readings: Vec::new(),
                };
            }
            reps *= 2;
        }
    }

    /// Take one reading and return it (seconds per call).
    pub fn read(&mut self, f: &mut impl FnMut()) -> f64 {
        let t0 = Instant::now();
        for _ in 0..self.reps {
            f();
        }
        let secs = secs_since(t0) / self.reps as f64;
        self.readings.push(secs);
        secs
    }

    /// Median seconds per call over the readings so far.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.readings)
    }
}

/// Median seconds per call of `f` over `readings` back-to-back readings.
pub fn per_call_secs(readings: usize, mut f: impl FnMut()) -> Summary {
    let mut p = PerCall::calibrate(&mut f);
    for _ in 0..readings {
        p.read(&mut f);
    }
    p.summary()
}

/// The machine-drift probe: a fixed pure-CPU reference loop (integer
/// mixing plus a sort of a 64k-element table, so both ALU and cache
/// speed count). It does the same work on every commit, so a change in
/// its time between two runs is a change in the host, not the code.
/// Returns the loop's time in milliseconds.
pub fn host_ref_ms() -> f64 {
    const N: usize = 1 << 16;
    let t0 = Instant::now();
    let mut rng = SplitMix64::new(0x5EED_F1F5);
    let mut checksum = 0u64;
    for _ in 0..4 {
        let mut table: Vec<u64> = (0..N).map(|_| rng.next_u64()).collect();
        table.sort_unstable();
        for (i, x) in table.iter().enumerate() {
            checksum = checksum.rotate_left(5) ^ x.wrapping_mul(i as u64 | 1);
        }
    }
    black_box(checksum);
    secs_since(t0) * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(on-CPU seconds, run-queue wait seconds)` of the calling thread from
/// `/proc/thread-self/schedstat`, or `None` where it is unavailable. When
/// CPU time tracks wall time and the wait stays small, slow runs come
/// from a slower host, not from this process being descheduled.
pub fn schedstat() -> Option<(f64, f64)> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut it = s.split_whitespace().map(|f| f.parse::<f64>().ok());
    Some((it.next()?? / 1e9, it.next()?? / 1e9))
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every generated input.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.25), 1.75);
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = SplitMix64::new(7);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(SplitMix64::new(8).next_u64(), a[0]);
    }
}
