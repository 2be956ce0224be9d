//! Sample statistics, the failure ratio, the peak-RSS reader and the output
//! digest: everything the benchmark computes about its own measurements.
//! Quantiles and means come from `pcm_util::stats`.

use pcm_util::stats::Ecdf;

/// The percentiles a tail is reported at, highest last.
const TAIL_PERCENTILES: [f64; 3] = [50.0, 90.0, 99.0];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// A timing summarised the way every metric of the benchmark is reported:
/// median, tail percentile and sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// Which percentile [`tail`](Self::tail) is.
    pub tail_pct: f64,
    /// The highest of p50/p90/p99 with at least ten samples beyond it; the
    /// median when even p50 has fewer than ten beyond it.
    pub tail: f64,
    /// Number of samples.
    pub n: usize,
}

/// The highest of p50/p90/p99 that leaves at least ten of `n` samples
/// above it, or `None` when `n` is too small for any of them.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .rfind(|p| (n as f64 * (100.0 - p) / 100.0) >= TAIL_BEYOND as f64)
}

/// Median of unsorted samples; 0 when there are none (a layer the run did
/// not reach).
pub fn median_of(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        summarize(samples).median
    }
}

/// Summarises unsorted samples. Every quantile is nearest-rank
/// ([`Ecdf::quantile`]), the median included.
///
/// # Panics
///
/// Panics on an empty sample set or a NaN sample.
pub fn summarize(samples: &[f64]) -> Summary {
    let ecdf = Ecdf::new(samples.to_vec());
    let median = ecdf.quantile(0.5);
    let (tail_pct, tail) = match tail_percentile(ecdf.len()).filter(|&p| p > 50.0) {
        Some(p) => (p, ecdf.quantile(p / 100.0)),
        None => (50.0, median),
    };
    Summary {
        median,
        tail_pct,
        tail,
        n: ecdf.len(),
    }
}

/// The best of repeated measurements: the least time, or the highest rate
/// when `higher_is_better`.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn best(samples: &[f64], higher_is_better: bool) -> f64 {
    let fold = if higher_is_better { f64::max } else { f64::min };
    samples
        .iter()
        .copied()
        .reduce(fold)
        .expect("at least one sample")
}

/// The median (nearest rank) of each position across equally long sample
/// rows: `rows[r][i]` is position `i`'s sample in row `r`.
///
/// # Panics
///
/// Panics on no rows, rows of unequal length or a NaN sample.
pub fn median_per_position(rows: &[Vec<f64>]) -> Vec<f64> {
    let n = rows[0].len();
    assert!(rows.iter().all(|r| r.len() == n), "rows of unequal length");
    (0..n)
        .map(|i| Ecdf::new(rows.iter().map(|r| r[i]).collect()).quantile(0.5))
        .collect()
}

/// Operations whose output failed its check (or got no response) over
/// operations attempted; a run that attempted nothing failed outright.
pub fn ops_failed_ratio(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Parses the `VmHWM:` line of a `/proc/<pid>/status` text into MiB.
pub fn parse_vmhwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = fields.next()?.parse().ok()?;
    let scale = match fields.next()? {
        "kB" => 1.0 / 1024.0,
        "mB" | "MB" => 1.0,
        "gB" | "GB" => 1024.0,
        _ => return None,
    };
    Some(value * scale)
}

/// Peak resident memory of this process so far, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vmhwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// FNV-1a over 64-bit words: the digest the pinned outputs are compared by.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Folds a float in by its bit pattern.
    pub fn float(&mut self, v: f64) -> &mut Self {
        self.word(v.to_bits())
    }

    /// Folds raw bytes in, length first.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
        self
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p50 needs 20 samples, p90 100, p99 1000.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(1), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(1_000_000), Some(99.0));
    }

    #[test]
    fn small_samples_fall_back_to_the_median() {
        let s = summarize(&[3.0]);
        assert_eq!((s.median, s.tail, s.tail_pct, s.n), (3.0, 3.0, 50.0, 1));
        // Nearest rank: the lower of the middle pair.
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.tail, s.n), (2.0, 2.0, 4));
        // 99 samples leave ten beyond p50 but not beyond p90.
        let s = summarize(&(1..=99).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.median, s.tail, s.tail_pct), (50.0, 50.0, 50.0));
        assert_eq!(median_of(&[]), 0.0);
        assert_eq!(median_of(&[2.0, 9.0, 1.0]), 2.0);
    }

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 990.0);
        assert_eq!(samples.iter().filter(|&&v| v > s.tail).count(), 10);
        let s = summarize(&samples[..100]);
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(samples[..100].iter().filter(|&&v| v > s.tail).count(), 10);
    }

    #[test]
    fn best_is_the_least_time_or_highest_rate() {
        let times = [1.1, 1.0, 5.0, 1.05];
        assert_eq!(best(&times, false), 1.0);
        assert_eq!(best(&times, true), 5.0);
        assert_eq!(best(&[3.0], true), 3.0);
    }

    #[test]
    fn median_per_position_takes_each_column() {
        let rows = vec![vec![1.0, 9.0], vec![3.0, 7.0], vec![2.0, 8.0]];
        assert_eq!(median_per_position(&rows), vec![2.0, 8.0]);
        assert_eq!(median_per_position(&[vec![4.0]]), vec![4.0]);
    }

    #[test]
    fn failed_ratio_with_zero_attempts_is_total_failure() {
        assert_eq!(ops_failed_ratio(0, 0), 1.0);
        assert_eq!(ops_failed_ratio(10, 0), 0.0);
        assert_eq!(ops_failed_ratio(8, 2), 0.25);
    }

    #[test]
    fn vmhwm_parses_proc_status() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vmhwm_mib(status), Some(5.0));
        assert_eq!(parse_vmhwm_mib("VmHWM:\t 3 GB\n"), Some(3072.0));
        assert_eq!(parse_vmhwm_mib("VmRSS:\t 4000 kB\n"), None);
        assert_eq!(parse_vmhwm_mib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vmhwm_mib("VmHWM:\t 12\n"), None);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        let mib = peak_rss_mib().expect("procfs is mounted");
        assert!(mib > 0.0 && mib < 1e6);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = Digest::default().word(1).word(2).finish();
        let b = Digest::default().word(2).word(1).finish();
        assert_ne!(a, b);
        assert_ne!(
            Digest::default().bytes(&[1]).finish(),
            Digest::default().bytes(&[1, 0]).finish()
        );
    }
}
