//! A fixed reference computation that shares no code with the
//! repository: the yardstick for how fast the host is running right now.
//!
//! On a shared virtual machine the same code takes from 1× to 1.8× the
//! CPU time within seconds as neighbours come and go. Timing this loop
//! next to each measured round and dividing by it cancels most of that,
//! and since the loop never changes, a change to the repository cannot
//! move it. It mixes what the workloads do: allocation, sorting, an
//! ordered map and floating-point math over a few MiB.

use std::collections::BTreeMap;
use std::hint::black_box;

/// Runs the reference computation once and returns the CPU time it took
/// on this thread (ns).
pub fn run() -> u64 {
    let before = thread_cpu_ns();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 11
    };
    let mut v: Vec<u64> = (0..400_000).map(|_| next()).collect();
    v.sort_unstable();
    let mut map = BTreeMap::new();
    for (i, k) in v.iter().step_by(4).enumerate() {
        map.insert(*k, i);
    }
    for k in v.iter().step_by(8) {
        map.remove(k);
    }
    let mut acc = 0.0f64;
    for k in v.iter().step_by(3) {
        acc += ((*k as f64) * 1e-12 + 1.0).ln().exp();
    }
    black_box((map.len(), acc));
    thread_cpu_ns() - before
}

/// CPU time this thread has run (ns), from `/proc/thread-self/schedstat`.
/// The kernel brings a running thread's total up to date only when it
/// leaves the CPU (or at a timer tick), so block for a moment first.
fn thread_cpu_ns() -> u64 {
    std::thread::sleep(std::time::Duration::from_micros(1));
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}
