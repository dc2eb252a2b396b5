//! Process-level instruments (CPU time, resident memory) and the small
//! statistics the reports need.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
    fn malloc_trim(pad: usize) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const SC_PAGESIZE: i32 = 30;

/// User + system CPU time consumed by every thread of this process.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Resident set size of this process in bytes (`/proc/self/statm`).
pub fn rss_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("/proc/self/statm is readable");
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .expect("statm carries the resident page count");
    // SAFETY: sysconf only reads a configuration value.
    let page = unsafe { sysconf(SC_PAGESIZE) };
    pages * page.max(1) as u64
}

/// Hands memory the allocator holds but no longer uses back to the
/// kernel, so the next resident-set reading starts from what is live.
pub fn release_free_memory() {
    // SAFETY: malloc_trim only returns free heap pages to the kernel.
    unsafe {
        malloc_trim(0);
    }
}

/// The `q`-quantile of `sorted` (ascending), interpolated linearly between
/// the two nearest ranks, as `statistics.quantiles(method="inclusive")`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts `values` and returns its median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// A 64-bit fingerprint of a reply frame's kind and payload. Equal
/// fingerprints stand in for byte-identical payloads when replies are
/// checked after the timed phase (the payloads themselves are not kept,
/// so checking costs the timed phase no memory growth).
pub fn fingerprint(kind: u8, payload: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = (kind as u64 ^ (payload.len() as u64) << 8).wrapping_mul(K);
    let mut chunks = payload.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(K).rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(K).rotate_left(29);
    }
    h ^ (h >> 32)
}

/// A vector whose first `cap` slots are already backed by resident pages,
/// so filling it during a timed phase does not show up as retained memory.
pub fn pretouched<T: Copy>(cap: usize, fill: T) -> Vec<T> {
    let mut v = vec![fill; cap];
    v.clear();
    v
}
