//! The benchmark's clocks: one monotonic wall clock and the CPU-time
//! clocks of the process and of single threads.
//!
//! `now_ns` is the only place in the benchmark that reads the wall clock
//! (`nc-lint` holds the rest of the tree to that), so every timing in every
//! result file comes from the same source.

use std::sync::OnceLock;
use std::time::Instant;

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call, from the monotonic clock.
pub fn now_ns() -> u64 {
    // nc-lint: allow(det-wallclock) — measuring wall time is this program's
    // job; every other module reads the clock through this one function.
    let now = Instant::now();
    now.duration_since(*ORIGIN.get_or_init(|| now)).as_nanos() as u64
}

/// Seconds between two `now_ns` readings.
pub fn seconds(from_ns: u64, to_ns: u64) -> f64 {
    to_ns.saturating_sub(from_ns) as f64 / 1e9
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, living or
/// joined, in nanoseconds (0 when the clock is unavailable).
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two C `long`s on
    // every 64-bit Linux target) that outlives the call; the clock id is a
    // POSIX constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU nanoseconds consumed so far by this process's live threads whose
/// name is in `names` (the runtime names its threads `nc-socket` and
/// `nc-tick`). Reads `schedstat` (nanosecond resolution), falling back to
/// the 10 ms ticks of `stat` on kernels built without scheduler statistics.
pub fn thread_cpu_ns(names: &[&str]) -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut total = 0u64;
    for task in tasks.flatten() {
        let dir = task.path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if !names.contains(&comm.trim()) {
            continue;
        }
        total += task_cpu_ns(&dir);
    }
    total
}

fn task_cpu_ns(dir: &std::path::Path) -> u64 {
    if let Ok(text) = std::fs::read_to_string(dir.join("schedstat")) {
        if let Some(ns) = text.split_whitespace().next().and_then(|f| f.parse().ok()) {
            return ns;
        }
    }
    // `stat`: the comm field may contain spaces, so count fields from the
    // closing parenthesis; utime and stime are the 12th and 13th after it.
    let Ok(text) = std::fs::read_to_string(dir.join("stat")) else {
        return 0;
    };
    let after = text.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks =
        |index: usize| -> u64 { fields.get(index).and_then(|f| f.parse().ok()).unwrap_or(0) };
    (ticks(11) + ticks(12)) * 10_000_000
}

/// Median cost of one `now_ns` call in nanoseconds, over `pairs` back-to-back
/// pairs of readings.
pub fn calibrate_clock_ns(pairs: usize) -> f64 {
    let mut deltas: Vec<f64> = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        let a = now_ns();
        let b = now_ns();
        deltas.push((b - a) as f64);
    }
    crate::stats::median(&mut deltas)
}

/// Millions of iterations per second of a fixed integer loop run for about
/// `budget_s` seconds: the number that tells a slow host from a slow commit.
pub fn spin_mops(budget_s: f64) -> f64 {
    const CHUNK: u64 = 1 << 20;
    let start = now_ns();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut done = 0u64;
    loop {
        for _ in 0..CHUNK {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
        }
        done += CHUNK;
        let elapsed = seconds(start, now_ns());
        if elapsed >= budget_s {
            std::hint::black_box(state);
            return done as f64 / elapsed / 1e6;
        }
    }
}
