//! Host-side accounting: process CPU time, hypervisor steal, peak RSS and
//! the order statistics every metric is reported with.

use std::fs;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread of
/// this process, at nanosecond resolution (`/proc/self/stat` only ticks at
/// 10 ms, too coarse for a per-request figure).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds consumed by this process so far.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the x86-64/aarch64
    // Linux layout (two 64-bit fields), and the clock id is a constant the
    // kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Process CPU per operation over consecutive wall-time slices, so that a
/// burst of interference on the host spoils a few slices rather than the
/// run's figure (the interquartile mean of the slices).
pub struct CpuSlices {
    len: Duration,
    start: Instant,
    cpu: f64,
    ops: u64,
    /// CPU µs per operation of each finished slice.
    pub per_op_us: Vec<f64>,
}

impl CpuSlices {
    /// Slices of `len` wall time, starting now.
    pub fn new(len: Duration) -> CpuSlices {
        CpuSlices {
            len,
            start: Instant::now(),
            cpu: process_cpu_s(),
            ops: 0,
            per_op_us: Vec::new(),
        }
    }

    /// `ops` operations are done so far; closes the slice once it is due.
    pub fn tick(&mut self, ops: u64) {
        if ops > self.ops && self.start.elapsed() >= self.len {
            let cpu = process_cpu_s();
            self.per_op_us
                .push((cpu - self.cpu) * 1e6 / (ops - self.ops) as f64);
            (self.start, self.cpu, self.ops) = (Instant::now(), cpu, ops);
        }
    }
}

/// Aggregate CPU tick counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    total: u64,
    steal: u64,
}

/// Read the host-wide tick counters (zeros where `/proc/stat` is absent,
/// so the steal share then reads 0 rather than failing the run).
pub fn cpu_ticks() -> CpuTicks {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return CpuTicks::default();
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8) // user nice system idle iowait irq softirq steal
        .filter_map(|f| f.parse().ok())
        .collect();
    CpuTicks {
        total: fields.iter().sum(),
        steal: fields.get(7).copied().unwrap_or(0),
    }
}

/// Share of all host CPU time the hypervisor stole between two readings.
pub fn steal_share(from: CpuTicks, to: CpuTicks) -> f64 {
    let total = to.total.saturating_sub(from.total);
    if total == 0 {
        return 0.0;
    }
    to.steal.saturating_sub(from.steal) as f64 / total as f64
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset `VmHWM` to the current resident set (Linux `clear_refs` value
/// 5), so that [`peak_rss_mib`] afterwards covers only what runs from here
/// on. Returns false where the kernel refuses it.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The `p`-quantile (0..=1) of `xs` by `dace_core::quantile`'s exact
/// rank; 0 for no samples.
pub fn quantile<T: Copy + Into<f64>>(xs: &[T], p: f64) -> f64 {
    let mut v: Vec<f64> = xs.iter().map(|&x| x.into()).collect();
    dace_core::quantile(&mut v, p).unwrap_or(0.0)
}

/// Median of `xs`; 0 for no samples.
pub fn median<T: Copy + Into<f64>>(xs: &[T]) -> f64 {
    quantile(xs, 0.5)
}

/// Interquartile mean: the mean of the middle half of `xs` by rank; 0 for
/// no samples. The host this runs on switches between a fast and a slow
/// CPU speed every second or so, which makes the median of CPU samples
/// jump between the two modes; the interquartile mean follows the mix
/// smoothly and still ignores outliers.
pub fn iqm(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// The seeded generator for one input stream of a run: `salt` keeps the
/// streams drawn from the same `--seed` apart.
pub fn seeded_rng(seed: u64, salt: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}
