//! Small helpers: a seeded generator, order statistics, process memory
//! and the JSON the benchmark prints.

use std::fmt::Write as _;

/// SplitMix64: every input the benchmark generates derives from the
/// `--seed` argument through this generator (the stream generators of
/// `tcs-graph` take the seed directly).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x7374_7265_616d_6265)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of a sample (0 for an empty one).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Nearest-rank quantile of weighted samples `(value, weight)`.
pub fn weighted_quantile(samples: &mut [(u64, u64)], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable_by_key(|&(v, _)| v);
    let total: u64 = samples.iter().map(|&(_, w)| w).sum();
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for &(v, w) in samples.iter() {
        seen += w;
        if seen >= rank {
            return v;
        }
    }
    samples[samples.len() - 1].0
}

/// Heap in use by this process, every thread's arena included, in MB:
/// glibc's `mallinfo2`, chunks in use plus mmapped chunks. Memory the
/// allocator keeps after it was freed is not in it, so unlike the
/// resident set it falls back once a large result is dropped.
pub fn heap_mb() -> f64 {
    #[repr(C)]
    struct Mallinfo2 {
        arena: usize,
        ordblks: usize,
        smblks: usize,
        hblks: usize,
        hblkhd: usize,
        usmblks: usize,
        fsmblks: usize,
        uordblks: usize,
        fordblks: usize,
        keepcost: usize,
    }
    extern "C" {
        fn mallinfo2() -> Mallinfo2;
    }
    // SAFETY: `mallinfo2` takes no arguments and returns its struct by
    // value; `Mallinfo2` mirrors glibc's `struct mallinfo2` (ten
    // `size_t` fields).
    let m = unsafe { mallinfo2() };
    (m.uordblks + m.hblkhd) as f64 / (1024.0 * 1024.0)
}

/// Pins the calling thread, and every thread it spawns from now on, to
/// the CPU it is running on. Returns that CPU, or `None` when the
/// affinity could not be set (the run then goes on unpinned).
pub fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // glibc's `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: pid 0 is the calling thread; `mask` is a live `cpu_set_t`
    // of the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Peak resident set (`VmHWM`) of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set (`VmRSS`) of this process, in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A metric as printed: name, value, unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(out, "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_quantile_counts_weights() {
        let mut s = vec![(10, 1), (20, 98), (30, 1)];
        assert_eq!(weighted_quantile(&mut s, 0.5), 20);
        assert_eq!(weighted_quantile(&mut s, 0.99), 20);
        assert_eq!(weighted_quantile(&mut s, 1.0), 30);
        assert_eq!(weighted_quantile(&mut s, 0.01), 10);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
