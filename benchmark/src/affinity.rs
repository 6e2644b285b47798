//! Pinning the calling thread to one CPU.
//!
//! The engine sizes its per-query thread fan-out by
//! `std::thread::available_parallelism`, which on Linux is the calling
//! thread's affinity mask: a query issued from a pinned thread runs on that
//! thread alone. On a VM with a few vCPUs of a shared host, waking a thread
//! on another vCPU costs anything from a few to a hundred microseconds
//! depending on what the host is doing, per spawn and per join, so a query
//! that fans out measures the host's scheduler; pinned, it measures the
//! engine. Threads spawned from a pinned thread inherit its mask.

/// Words of a 1024-CPU mask, glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread to the highest-numbered CPU it may run on (the
/// lowest takes most of a VM's interrupts). Returns the CPU's number.
pub fn pin_current_thread() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `bytes` long and outlives both calls; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}
