//! Process accounting read from `/proc`, thread CPU affinity, the
//! host-drift calibration loop, and the order statistics every metric is
//! reported with.

use std::hint::black_box;
use std::time::Instant;

/// Process CPU seconds so far: user + system over every thread, including
/// threads that already exited. Read only at the boundaries of a timed
/// section; the kernel counts in 10 ms ticks.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // `comm` (field 2) may hold spaces; the fields after its ')' are fixed.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return f64::NAN;
    };
    let mut fields = rest.split_ascii_whitespace();
    let utime = fields.nth(11).and_then(|v| v.parse::<u64>().ok());
    let stime = fields.next().and_then(|v| v.parse::<u64>().ok());
    match (utime, stime) {
        // USER_HZ is 100 on every Linux ABI std supports.
        (Some(u), Some(s)) => (u + s) as f64 / 100.0,
        _ => f64::NAN,
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The host-drift diagnostic: milliseconds for a fixed integer and
/// floating-point loop owned by the benchmark (median of five). It moves
/// only when the host does, so a slow host can be told from a slow change.
pub fn calib_ms() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
            let mut acc = black_box(1.0f64);
            for i in 0..2_000_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.mul_add(0.999_999_9, (x >> 40) as f64 * 1e-12 + i as f64 * 1e-15);
            }
            black_box((x, acc));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut times)
}

// The C library's thread affinity calls (Rust's std links the C library on
// Linux already; no crate is needed).
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A set of CPUs, laid out as the C library's `cpu_set_t` (1024 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

impl CpuSet {
    /// The CPUs the calling thread may run on; `None` if the call fails.
    pub fn current() -> Option<Self> {
        let mut set = Self([0; 16]);
        // SAFETY: the C library writes at most `size_of_val(&set.0)` bytes
        // into the buffer it is given.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    /// Restricts the calling thread (and the threads it spawns from now on)
    /// to this set. Returns whether the kernel accepted it.
    pub fn apply(&self) -> bool {
        // SAFETY: the C library reads `size_of_val(&self.0)` bytes.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) == 0 }
    }

    /// The set holding only the highest-numbered CPU of this one.
    pub fn last_only(&self) -> Self {
        let mut one = Self([0; 16]);
        if let Some((w, bits)) = self.0.iter().enumerate().rev().find(|(_, b)| **b != 0) {
            one.0[w] = 1 << (63 - bits.leading_zeros());
        }
        one
    }

    /// The CPU numbers in the set.
    pub fn cpus(&self) -> Vec<usize> {
        (0..64 * self.0.len())
            .filter(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }
}

/// Median of `xs` (sorts in place); NaN when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs` (sorts in place);
/// NaN when empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Mean time per call of `f`, in microseconds, timed as whole batches —
/// never call by call. Runs at least `min_calls` calls, or at least
/// `min_s` seconds for calls too slow to reach `min_calls` in that time,
/// and reports the median batch.
pub fn per_call_us(min_calls: usize, min_s: f64, mut f: impl FnMut()) -> f64 {
    // Size one batch to ~20 ms from a short probe.
    let t0 = Instant::now();
    let mut probe = 0usize;
    while probe < 16 || t0.elapsed().as_secs_f64() < 2e-3 {
        f();
        probe += 1;
    }
    let per = t0.elapsed().as_secs_f64() / probe as f64;
    let batch = ((0.02 / per) as usize).max(1);
    let mut batches = Vec::new();
    let mut calls = 0usize;
    let start = Instant::now();
    while batches.len() < 3 || (calls < min_calls && start.elapsed().as_secs_f64() < min_s) {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        batches.push(t.elapsed().as_secs_f64() * 1e6 / batch as f64);
        calls += batch;
    }
    median(&mut batches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut xs), 2.5);
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn cpu_sets_pick_the_last_cpu() {
        let mut set = CpuSet([0; 16]);
        set.0[0] = 0b1011;
        set.0[1] = 1 << 5;
        assert_eq!(set.cpus(), vec![0, 1, 3, 69]);
        assert_eq!(set.last_only().cpus(), vec![69]);
        let here = CpuSet::current().expect("affinity readable");
        assert!(!here.cpus().is_empty());
        assert_eq!(here.last_only().cpus().len(), 1);
    }

    #[test]
    fn proc_readings_are_sane() {
        assert!(cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
