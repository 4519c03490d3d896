//! Small self-contained helpers: a seeded generator, a log-linear
//! latency histogram, the payload pattern every reply is checked
//! against, and process resource usage.

/// Salt folded into the seed so that seed 0 is not the all-zero state.
const SEED_SALT: u64 = 0x5EED_F1EE_F10C_0DE5;

/// SplitMix64: the seeded source of every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ SEED_SALT)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `0..100`.
    pub fn percent(&mut self) -> u64 {
        self.next_u64() % 100
    }
}

/// The SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fill `buf` with the pattern of `key`: 64-bit words from an
/// arithmetic sequence seeded by `mix(key)`, so every byte depends on
/// both the key and its position.
pub fn fill(buf: &mut [u8], key: u64) {
    let base = mix(key);
    let mut chunks = buf.chunks_exact_mut(8);
    let mut j = 0u64;
    for c in &mut chunks {
        c.copy_from_slice(&word(base, j).to_le_bytes());
        j += 1;
    }
    let tail = chunks.into_remainder();
    let w = word(base, j).to_le_bytes();
    let n = tail.len();
    tail.copy_from_slice(&w[..n]);
}

/// Whether `buf` holds exactly the pattern of `key`.
pub fn matches(buf: &[u8], key: u64) -> bool {
    let base = mix(key);
    let mut chunks = buf.chunks_exact(8);
    let mut j = 0u64;
    for c in &mut chunks {
        if c != word(base, j).to_le_bytes() {
            return false;
        }
        j += 1;
    }
    let tail = chunks.remainder();
    tail == &word(base, j).to_le_bytes()[..tail.len()]
}

fn word(base: u64, j: u64) -> u64 {
    base.wrapping_add(j.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Sub-buckets per power of two: values are kept to within 1/128.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const SLOTS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// A log-linear histogram of non-negative integers (nanoseconds,
/// bytes): constant memory, relative error below 1 %.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; SLOTS],
            n: 0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros(); // >= SUB_BITS
        let shift = e - SUB_BITS;
        let m = (v >> shift) - SUB; // 0..SUB
        ((shift as u64 + 1) * SUB + m) as usize
    }

    /// Midpoint of the values that land in slot `i`.
    fn value(i: usize) -> f64 {
        let i = i as u64;
        if i < SUB {
            return i as f64;
        }
        let shift = i / SUB - 1;
        let m = i % SUB;
        let lo = ((SUB + m) << shift) as f64;
        lo + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.n += 1;
    }

    pub fn record_since(&mut self, start: std::time::Instant) {
        self.record(start.elapsed().as_nanos() as u64);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Nearest-rank quantile, `q` in `0..=1`; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        unreachable!("rank never exceeds the sample count")
    }
}

/// Median of a list (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The fields of `struct rusage` (Linux, 64-bit) this benchmark reads.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Whole-process resource usage at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User + system CPU time, microseconds.
    pub cpu_us: f64,
    /// Peak resident set, MiB.
    pub peak_rss_mb: f64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

pub fn usage() -> Usage {
    let mut ru = RUsage::default();
    // SAFETY: `RUsage` matches the layout of the C `struct rusage` on
    // 64-bit Linux (two `timeval`s then fourteen `long`s), the pointer is
    // valid for writes for the whole call, and RUSAGE_SELF (0) is a
    // valid `who`.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let tv = |t: [i64; 2]| t[0] as f64 * 1e6 + t[1] as f64;
    Usage {
        cpu_us: tv(ru.utime) + tv(ru.stime),
        peak_rss_mb: ru.maxrss as f64 / 1024.0,
        ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
    }
}

/// Threads the process runs right now.
pub fn thread_count() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_quantiles_stay_within_one_percent() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        for (q, want) in [(0.5, 500_000.0), (0.99, 990_000.0)] {
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.01, "q{q}: {got} vs {want}");
        }
    }

    #[test]
    fn pattern_detects_any_flipped_byte() {
        let mut buf = vec![0u8; 77];
        fill(&mut buf, 42);
        assert!(matches(&buf, 42));
        assert!(!matches(&buf, 43));
        buf[76] ^= 1;
        assert!(!matches(&buf, 42));
    }
}
