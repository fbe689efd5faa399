//! Aggregate statistics of one traffic run.
//!
//! Everything here is a deterministic function of the simulated message
//! stream, so two runs with the same configuration produce bit-identical
//! reports — the property the golden-fixture and thread-determinism tests
//! pin.

/// Latency distribution over delivered messages (cycles from injection to
/// arrival, source queueing included). Percentiles are nearest-rank over
/// the exact latency population, not an approximation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Mean latency in cycles.
    pub mean: f64,
    /// 50th percentile.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Worst delivered latency.
    pub max: u64,
}

impl LatencySummary {
    /// Summarises a latency population (consumed and sorted in place).
    pub fn from_latencies(latencies: &mut [u64]) -> Self {
        if latencies.is_empty() {
            return LatencySummary::default();
        }
        latencies.sort_unstable();
        let n = latencies.len();
        let rank = |pct: u64| latencies[((n as u64 * pct).div_ceil(100) as usize).max(1) - 1];
        LatencySummary {
            mean: latencies.iter().sum::<u64>() as f64 / n as f64,
            p50: rank(50),
            p90: rank(90),
            p99: rank(99),
            max: latencies[n - 1],
        }
    }
}

/// Occupancy of one virtual channel across the whole run: how many
/// messages sat in that channel's link buffers, sampled once per cycle.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VcOccupancy {
    /// Mean buffered messages per cycle.
    pub mean: f64,
    /// Peak buffered messages in any cycle.
    pub max: u64,
    /// Power-of-two occupancy histogram: bucket 0 counts cycles with zero
    /// buffered messages, bucket `i > 0` counts cycles with occupancy in
    /// `[2^(i-1), 2^i)`.
    pub histogram: Vec<u64>,
}

impl VcOccupancy {
    /// Records one per-cycle occupancy sample.
    pub fn record(&mut self, occupancy: u64) {
        let bucket = if occupancy == 0 {
            0
        } else {
            64 - occupancy.leading_zeros() as usize
        };
        if self.histogram.len() <= bucket {
            self.histogram.resize(bucket + 1, 0);
        }
        self.histogram[bucket] += 1;
        self.max = self.max.max(occupancy);
        // mean is finalised by `finish`; stash the running sum in `mean`.
        self.mean += occupancy as f64;
    }

    /// Converts the running sum into the per-cycle mean.
    pub fn finish(&mut self, cycles: u64) {
        if cycles > 0 {
            self.mean /= cycles as f64;
        }
    }

    /// Lower bound of histogram bucket `i` (`0, 1, 2, 4, 8, …`).
    pub fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }
}

/// Reachability of a shared pair sample under the run's status map —
/// the static counterpart of the dynamic delivery statistics, measured
/// with the extended e-cube router directly.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReachableStats {
    /// Pairs probed.
    pub sampled: usize,
    /// Pairs with a route through enabled nodes.
    pub reachable: usize,
    /// Pairs rejected because an endpoint is faulty or disabled.
    pub endpoint_excluded: usize,
    /// Pairs with both endpoints enabled but no connecting path.
    pub unreachable: usize,
}

impl ReachableStats {
    /// Fraction of probed pairs that were routable.
    pub fn fraction(&self) -> f64 {
        if self.sampled == 0 {
            1.0
        } else {
            self.reachable as f64 / self.sampled as f64
        }
    }
}

/// The full report of one simulated traffic run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrafficReport {
    /// Pattern that generated the messages.
    pub pattern: String,
    /// Messages drawn from the pattern.
    pub offered: usize,
    /// Messages whose endpoints were both enabled (entered the network or
    /// its source queues).
    pub injected: usize,
    /// Messages dropped at generation: an endpoint was faulty or disabled.
    pub endpoint_excluded: usize,
    /// Messages dropped in flight: no path of enabled nodes to the
    /// destination.
    pub unreachable: usize,
    /// Messages that reached their destination.
    pub delivered: usize,
    /// Messages still queued or in flight when the cycle horizon hit
    /// (non-zero means the run saturated — expected under heavy hotspot).
    pub stranded: usize,
    /// Cycles simulated.
    pub cycles: u64,
    /// Links traversed by all messages (delivered or not).
    pub total_hops: u64,
    /// Hops taken in the abnormal (around-region) mode.
    pub abnormal_hops: u64,
    /// Detours entered (one per region circumnavigation).
    pub detours: u64,
    /// Mean hops / Manhattan distance over delivered messages.
    pub avg_stretch: f64,
    /// Latency distribution over delivered messages.
    pub latency: LatencySummary,
    /// Per-virtual-channel buffer occupancy (vc0..vc3, the EW/WE/NS/SN
    /// message classes).
    pub vc: [VcOccupancy; 4],
    /// Reachable-pair probe over the shared sampler.
    pub reachable: ReachableStats,
}

impl TrafficReport {
    /// Delivered fraction of injected messages.
    pub fn delivered_fraction(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.injected as f64
        }
    }

    /// Delivered messages per cycle.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.delivered as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles_are_nearest_rank() {
        let mut lat: Vec<u64> = (1..=100).collect();
        let s = LatencySummary::from_latencies(&mut lat);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p90, 90);
        assert_eq!(s.p99, 99);
        assert_eq!(s.max, 100);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert_eq!(
            LatencySummary::from_latencies(&mut []),
            LatencySummary::default()
        );
    }

    #[test]
    fn occupancy_buckets_are_powers_of_two() {
        let mut vc = VcOccupancy::default();
        for occ in [0, 0, 1, 2, 3, 4, 7, 8] {
            vc.record(occ);
        }
        vc.finish(8);
        assert_eq!(vc.histogram, vec![2, 1, 2, 2, 1]);
        assert_eq!(vc.max, 8);
        assert!((vc.mean - 25.0 / 8.0).abs() < 1e-12);
        assert_eq!(VcOccupancy::bucket_floor(0), 0);
        assert_eq!(VcOccupancy::bucket_floor(3), 4);
    }
}
