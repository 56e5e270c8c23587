//! Order statistics, the tail-percentile rule, the calibration kernel, a
//! seeded generator and a digest: the numeric kit every workload shares.

/// Percentiles the tail rule may pick from, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples (the small
/// slack keeps `99.9 × 10000 / 100` from rounding up past 9990).
pub fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Arithmetic mean (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sort ascending in place (NaN-free input).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(f64::total_cmp);
}

/// A timing summary in the form the detail record prints: sample count,
/// median, and the rule's tail percentile with its value.
pub fn summary_json(sorted: &[f64]) -> String {
    let n = sorted.len();
    let tail = tail_percentile(n);
    format!(
        "{{\"n\":{n},\"p50\":{},\"tail_p\":{},\"tail\":{}}}",
        num(percentile(sorted, 50.0)),
        tail.map_or("null".to_string(), num),
        tail.map_or("null".to_string(), |p| num(percentile(sorted, p))),
    )
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Time a fixed CPU kernel that shares no code with the program under
/// test: splitmix64 draws driving loads, stores and float work over a
/// 1 MiB table, plus small allocations. The table is built once per
/// thread, so page faults stay out of the timing, and read through once,
/// untimed, before each timing, so the kernel starts from the same cache
/// state whatever working set the measured operation left behind.
/// Returns nanoseconds (~70 µs on the reference host in its fast phase).
pub fn calibrate() -> f64 {
    const SLOTS: usize = 1 << 17;
    thread_local! {
        static TABLE: std::cell::RefCell<Vec<u64>> =
            std::cell::RefCell::new((0..SLOTS as u64).collect());
    }
    TABLE.with(|table| {
        let mut table = table.borrow_mut();
        std::hint::black_box(table.iter().fold(0u64, |a, &x| a ^ x));
        let mut rng = Rng::new(0x00ca_11b7);
        let (mut acc, mut boxes) = (0.0f64, Vec::with_capacity(33));
        let t0 = std::time::Instant::now();
        for i in 0..12_000u64 {
            let x = rng.next_u64();
            let slot = &mut table[x as usize % SLOTS];
            acc = acc.mul_add(0.999_999, (*slot >> 11) as f64);
            *slot ^= x;
            if i % 16 == 0 {
                boxes.push(vec![x; 8 + (x % 24) as usize]);
                if boxes.len() > 32 {
                    boxes.swap_remove((x % 32) as usize);
                }
            }
        }
        std::hint::black_box((acc, &boxes));
        t0.elapsed().as_nanos() as f64
    })
}

/// The calibration kernel on two threads at once, three timings each:
/// the median of the six, ns. Work spread over several threads and
/// processes runs on every CPU of the host, so its calibration does too.
pub fn calibrate_pair() -> f64 {
    let mut ks: Vec<f64> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..2)
            .map(|_| s.spawn(|| [calibrate(), calibrate(), calibrate()]))
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("calibration thread"))
            .collect()
    });
    sort(&mut ks);
    percentile(&ks, 50.0)
}

/// splitmix64: the seeded generator behind every workload input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a, 64-bit: the committed-digest function.
pub fn fnv64(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in *chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 beyond; p99.9
        // would leave 1.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(0), None);
        for n in [20usize, 57, 1000, 4321, 100_000] {
            let p = tail_percentile(n).expect("enough samples");
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn summary_reports_count_median_and_tail() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            summary_json(&xs),
            "{\"n\":1000,\"p50\":500,\"tail_p\":99,\"tail\":990}"
        );
        assert_eq!(
            summary_json(&[1.0]),
            "{\"n\":1,\"p50\":1,\"tail_p\":null,\"tail\":null}"
        );
    }

    #[test]
    fn rng_is_seeded_and_shuffle_permutes() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::new(7);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, sorted);
        let u = Rng::new(3).unit();
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn fnv_matches_reference_vector() {
        assert_eq!(fnv64(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(&[b"a"]), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(&[b"ab", b"c"]), fnv64(&[b"abc"]));
    }
}
