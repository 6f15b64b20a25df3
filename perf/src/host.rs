//! What the harness asks of the host: one CPU to run on, a thread count,
//! and a fixed spin that shows whether a neighbour was stealing time.

use std::time::Instant;

/// Words in a Linux `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread (and every thread it later spawns, which
/// inherit the mask) to the highest-numbered CPU it may run on, and
/// returns that CPU.
///
/// Why: on a small VM the guest idles a vCPU with HLT, and a futex
/// wake-up that has to bring another vCPU back costs tens of
/// microseconds, or almost nothing when the guest's halt-polling happens
/// to be armed. `das-rt`'s closed loop is a chain of such wake-ups, and
/// unpinned it reads 17 or 57 us per multi-get from one run to the next.
/// On one CPU a wake-up is a context switch and the number is the
/// program's own cost. The simulator is single-threaded; pinning it only
/// stops migrations.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Threads of this process right now (`Threads:` in `/proc/self/status`),
/// or `None` where `/proc` is not available.
pub fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// CPUs the process may use, as the standard library reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed integer spin (a 64-bit LCG, 2^26 steps), in milliseconds. The
/// work never changes, so a run whose before and after values differ was
/// disturbed by something outside the program.
pub fn calib_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..(1u32 << 26) {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_probes_return_sane_values() {
        assert!(nproc() >= 1);
        assert!(calib_ms() > 0.0);
        if let Some(n) = thread_count() {
            assert!(n >= 1);
        }
    }
}
