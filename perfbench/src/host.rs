//! Host-side readings: process CPU time and peak resident set from
//! procfs (Linux), the speed of the host from a fixed reference kernel,
//! and the order statistics the benchmark reports.

use std::fs;
use std::hint::black_box;
use std::thread;
use std::time::Instant;

/// Kernel clock ticks per second of `/proc/self/stat` times (`USER_HZ`,
/// 100 on every Linux ABI the workspace targets).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of this process so far, every thread
/// included (exited threads too).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // Fields after the parenthesized command name: state is the first,
    // utime the 12th and stime the 13th.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric stat field") as f64 };
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("status has VmHWM");
    kb as f64 / 1024.0
}

/// Wall seconds one [`Reference::time`] call took on the host the
/// benchmark was calibrated on (2-vCPU Xeon VM, Sapphire Rapids, 2 MB L2
/// per core), with two threads. Calibrated seconds are host seconds
/// scaled to this speed, so on that host they read about the same.
pub const REFERENCE_NOMINAL_S: f64 = 0.07;

/// Bytes of the ring the reference kernel walks: past every private
/// cache, inside the shared L3.
const RING_BYTES: usize = 32 << 20;

/// Integer-mixing steps per thread and reference run.
const MIX_STEPS: u64 = 12_000_000;

/// Dependent loads per thread and reference run.
const WALK_STEPS: usize = 150_000;

/// A fixed piece of host work, timed between measured passes: integer
/// mixing, then a dependent walk over a ring too large for the private
/// caches, on as many threads as the workloads keep busy. A shared host
/// runs everything faster or slower for minutes at a time (co-tenant
/// load, clock frequency); expressing the simulator's host time in units
/// of this kernel's time cancels most of that shift. The kernel belongs
/// to the benchmark, so no change to the simulator moves it.
pub struct Reference {
    ring: Vec<u32>,
    threads: usize,
}

impl Reference {
    /// Builds the ring: one cycle through every slot in a scrambled
    /// order (Sattolo's shuffle), so no prefetcher can follow the walk.
    pub fn new(threads: usize) -> Reference {
        let n = RING_BYTES / 4;
        let mut ring: Vec<u32> = (0..n as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15;
        for i in (1..n).rev() {
            x = xorshift(x);
            ring.swap(i, (x % i as u64) as usize);
        }
        Reference { ring, threads }
    }

    /// Runs the kernel once on every thread at the same time and returns
    /// the wall seconds.
    pub fn time(&self) -> f64 {
        let t0 = Instant::now();
        thread::scope(|s| {
            for t in 0..self.threads {
                s.spawn(move || black_box(self.work(t)));
            }
        });
        t0.elapsed().as_secs_f64()
    }

    fn work(&self, thread: usize) -> u64 {
        let mut x = 0x2545_f491_4f6c_dd1d ^ thread as u64;
        let mut acc = 0u64;
        for _ in 0..MIX_STEPS {
            x = xorshift(x);
            acc = acc.wrapping_add(x.rotate_left(x as u32 & 63));
        }
        let mut at = (thread * self.ring.len() / self.threads) as u32;
        for _ in 0..WALK_STEPS {
            at = self.ring[at as usize];
        }
        acc ^ u64::from(at)
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^ (x << 17)
}

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of an ascending slice; 0 when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
    }

    #[test]
    fn the_reference_ring_is_one_cycle() {
        let r = Reference::new(2);
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = r.ring[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, r.ring.len());
        assert!(r.time() > 0.0);
    }

    #[test]
    fn procfs_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
