//! Host-side plumbing: the thread count, peak memory and small statistics.

use std::time::{Duration, Instant};

/// Pin the vendored rayon's thread count to at most the available cores,
/// for the whole process, and return the count its pool reports.
///
/// The pool reads `RAYON_NUM_THREADS` on every parallel call, so this sets
/// it once, before any thread exists.
pub fn pin_threads() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let asked = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0);
    let threads = asked.unwrap_or(cores).min(cores);
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    rayon::current_num_threads()
}

/// Run `f` with the pool at `threads` threads, then restore the pin. Only
/// call this from the main thread while no other thread is running.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let pinned = rayon::current_num_threads();
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let out = f();
    std::env::set_var("RAYON_NUM_THREADS", pinned.to_string());
    out
}

/// Reset the process's peak resident set (VmHWM) to its current resident
/// set. Returns false where the kernel does not support it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set (VmHWM) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Run `f` repeatedly for at least `budget` and `min_reps` calls; `f`
/// returns how many operations it performed. Returns the median rate in
/// operations per second over the calls.
pub fn rate(budget: Duration, min_reps: usize, mut f: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < min_reps || start.elapsed() < budget {
        let t = Instant::now();
        let ops = std::hint::black_box(f());
        rates.push(ops as f64 / t.elapsed().as_secs_f64());
    }
    median(&rates)
}

/// Wall time of `f` in seconds, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}
