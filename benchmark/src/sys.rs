//! What the harness asks of the operating system: process CPU time,
//! peak resident memory, and the facts printed in the run header.
//! Linux only, like the `/proc` files it reads.

use std::path::Path;
use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + system) this process has used on all its
/// threads, exited ones included — so cost hidden in copy-pool or shard
/// threads shows. `/proc/self/stat` carries the same sum at 10 ms
/// resolution, too coarse for a per-segment figure; hence the one
/// foreign call.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the layout the
    // 64-bit Linux C library expects (two 64-bit fields), and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit being measured, read from the checkout's own `.git`
/// files, or `unknown`: the driver's checkout is not a git repository.
pub fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |rel: &str| std::fs::read_to_string(git.join(rel)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => read(name).map(|h| h.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(name).map(|h| h.trim().to_string()))
        }),
    };
    match hash {
        Some(h) if h.len() >= 12 => h[..12].to_string(),
        _ => "unknown".to_string(),
    }
}

pub fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
}

/// Names of the `GPU_DDT_*` variables set in the environment.
/// `MpiConfig::default()`, the optimizer configuration and the copy
/// pool all read them, so a run with any of them set measures a
/// different program.
pub fn gpu_ddt_env() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("GPU_DDT_"))
        .collect();
    names.sort();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = process_cpu_seconds();
        assert!(after > before, "{before} -> {after}");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.5);
    }
}
