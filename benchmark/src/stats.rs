//! Order statistics over latency samples, and the seeded generator behind
//! every query-parameter sequence.

/// Sort a sample vector ascending (samples are finite wall times).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Nearest-rank percentile of an ascending-sorted, non-empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 0.5)
}

/// The ops of the quietest quarter of a run's cycles. On this two-core
/// box a run is interrupted by stretches, from a fraction of a second to
/// several seconds long, in which everything takes up to twice as long;
/// they say nothing about the program, and a percentile over all ops moves
/// with how many of them a run happened to catch. Every cycle does the same
/// work, so a slower program is slower in every cycle, the quiet ones
/// included.
pub fn quietest(op_ms: &[f64], ops_per_cycle: usize) -> Vec<f64> {
    let mut cycles: Vec<&[f64]> = op_ms.chunks(ops_per_cycle.max(1)).collect();
    cycles.sort_by(|a, b| a.iter().sum::<f64>().total_cmp(&b.iter().sum::<f64>()));
    cycles.truncate(cycles.len().div_ceil(4));
    cycles.concat()
}

/// `part ÷ whole`, or 0 when the layer saw no work on this workload.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// By how many percent `value` exceeds `base`.
pub fn percent_over(value: f64, base: f64) -> f64 {
    (ratio(value, base) - 1.0) * 100.0
}

/// Call `pass` until `seconds` have passed, once at least. A pass is one
/// whole cycle, so per-op counts average over the same mix of ops whatever
/// the machine's speed.
pub fn repeat_for(seconds: f64, mut pass: impl FnMut()) {
    let started = std::time::Instant::now();
    loop {
        pass();
        if started.elapsed().as_secs_f64() >= seconds {
            return;
        }
    }
}

/// SplitMix64: `--seed` is the only source of randomness, and the
/// benchmark depends on no crate outside the repository's five.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.in_range(0, i as i64) as usize);
        }
    }

    /// Uniform integer in `lo..=hi`.
    pub fn in_range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}
