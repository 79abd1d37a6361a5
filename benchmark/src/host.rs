//! What the benchmark needs to know about, and ask of, the machine it runs
//! on: resident memory, CPU affinity, and the host block of a result file.

use serde::Value;

/// Words in the affinity masks passed to the kernel: room for 1024 CPUs,
/// the size of glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// The CPUs the calling thread may run on, ascending; empty when the kernel
/// refuses the query.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the byte length passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

fn set_affinity(tid: i32, cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        if cpu < MASK_WORDS * 64 {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
    }
    // SAFETY: `mask` is a readable buffer of exactly the byte length passed;
    // the kernel validates `tid` and reports failure through the return code.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Pins the calling thread — and every thread it spawns afterwards, which
/// inherit the mask — to the highest-numbered allowed CPU (CPU 0 takes most
/// interrupts). Returns the CPU, or `None` when pinning is unavailable.
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = pin_target()?;
    set_affinity(0, &[cpu]).then_some(cpu)
}

/// The CPU [`pin_to_one_cpu`] chooses.
fn pin_target() -> Option<usize> {
    allowed_cpus().last().copied()
}

/// Lets every live thread of the process run on all of `cpus` again.
pub fn unpin_all_threads(cpus: &[usize]) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for task in tasks.flatten() {
        if let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) {
            set_affinity(tid, cpus);
        }
    }
}

fn status_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with(field))
                .and_then(|line| line.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Current resident set of this process (`VmRSS`) in MiB.
pub fn rss_mib() -> f64 {
    status_kib("VmRSS:") / 1024.0
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host block every result file carries.
pub fn host_block(seed: u64, spin_mops: f64) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|release| release.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let cpus = allowed_cpus();
    Value::Map(vec![
        ("nproc".to_string(), Value::UInt(cpus.len() as u64)),
        ("cpu_model".to_string(), Value::Str(cpu_model)),
        ("kernel".to_string(), Value::Str(kernel)),
        (
            "rustc".to_string(),
            Value::Str(command_line("rustc", &["-V"])),
        ),
        (
            "git_commit".to_string(),
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed".to_string(), Value::UInt(seed)),
        (
            "pinned_cpu".to_string(),
            pin_target().map_or(Value::Null, |cpu| Value::UInt(cpu as u64)),
        ),
        ("bench.spin_mops".to_string(), Value::Float(spin_mops)),
    ])
}
