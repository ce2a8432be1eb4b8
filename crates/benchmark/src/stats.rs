//! Order statistics and the seeded generator behind every benchmark input.

/// SplitMix64: the benchmark's only source of randomness, so a seed
/// fixes every generated observation.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }

    /// `n` values uniform in `[-1, 1)`.
    pub fn vec_f32(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.next_f32()).collect()
    }
}

/// The `q`-quantile (0..=1) of `samples` by nearest rank; sorts in place.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_by(f64::total_cmp);
    samples[((samples.len() - 1) as f64 * q).round() as usize]
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Width of a [`Latencies`] bin.
const BIN_NS: u128 = 200;
/// Bins cover latencies below `BINS * BIN_NS` = 13.1 ms.
const BINS: usize = 1 << 16;

/// Every latency a client observed, counted in fixed memory (256 KiB)
/// so that the benchmark's own bookkeeping stays out of `peak_rss_mb`
/// and does not grow with the request rate: 200 ns bins, and the rare
/// samples beyond the last bin kept whole.
#[derive(Debug)]
pub struct Latencies {
    bins: Vec<u32>,
    beyond_us: Vec<f64>,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies { bins: vec![0; BINS], beyond_us: Vec::new() }
    }
}

impl Latencies {
    pub fn record(&mut self, took: std::time::Duration) {
        match self.bins.get_mut((took.as_nanos() / BIN_NS) as usize) {
            Some(bin) => *bin += 1,
            None => self.beyond_us.push(took.as_secs_f64() * 1e6),
        }
    }

    pub fn merge(&mut self, other: &Latencies) {
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            *mine += theirs;
        }
        self.beyond_us.extend(&other.beyond_us);
    }

    pub fn len(&self) -> u64 {
        self.bins.iter().map(|&c| c as u64).sum::<u64>() + self.beyond_us.len() as u64
    }

    /// The `q`-quantile in microseconds by nearest rank, to within half
    /// a bin; `None` without samples.
    pub fn quantile_us(&mut self, q: f64) -> Option<f64> {
        let mut rank = ((self.len().checked_sub(1)?) as f64 * q).round() as u64;
        for (i, &count) in self.bins.iter().enumerate() {
            if rank < count as u64 {
                return Some((i as f64 + 0.5) * BIN_NS as f64 / 1e3);
            }
            rank -= count as u64;
        }
        self.beyond_us.sort_by(f64::total_cmp);
        Some(self.beyond_us[rank as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn latency_quantiles_span_bins_and_overflow() {
        let mut l = Latencies::default();
        assert_eq!(l.quantile_us(0.5), None);
        for us in 1..=99 {
            l.record(Duration::from_micros(us));
        }
        l.record(Duration::from_millis(50));
        assert_eq!(l.len(), 100);
        assert_eq!(l.quantile_us(0.5), Some(51.1));
        assert_eq!(l.quantile_us(1.0), Some(50000.0));
        let mut both = Latencies::default();
        both.merge(&l);
        both.merge(&l);
        assert_eq!((both.len(), both.quantile_us(1.0)), (200, Some(50000.0)));
    }
}
