//! Simulated network. The whole cluster runs in one process, so the latency
//! asymmetries that make the paper's optimizations matter — RPC round trips,
//! payload transfer time, the extra hop for non-local reads — are modelled
//! explicitly and charged as real wall-clock sleeps by the client layer.
//!
//! Benchmarks enable a profile close to a Gigabit-Ethernet cluster; unit
//! tests run with [`NetworkSim::off`] (zero cost) so they stay fast.

use std::time::Duration;

/// Cost model for one simulated cluster network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetworkSim {
    /// Fixed per-RPC round-trip latency.
    pub rpc_latency: Duration,
    /// Payload bandwidth in bytes/second (0 = infinite).
    pub bytes_per_sec: u64,
    /// Extra latency multiplier applied when the requesting task is NOT
    /// co-located with the region server (models the cross-host hop that
    /// data locality avoids). 1 = no penalty.
    pub remote_penalty_num: u32,
    pub remote_penalty_den: u32,
    /// Cost of creating a heavy-weight connection (ZooKeeper session +
    /// meta lookups); motivates the connection cache.
    pub connection_setup: Duration,
}

impl NetworkSim {
    /// No simulated cost at all — for unit tests.
    pub fn off() -> Self {
        NetworkSim {
            rpc_latency: Duration::ZERO,
            bytes_per_sec: 0,
            remote_penalty_num: 1,
            remote_penalty_den: 1,
            connection_setup: Duration::ZERO,
        }
    }

    /// A profile loosely modelled on the paper's testbed: Gigabit Ethernet,
    /// sub-millisecond RPCs, expensive connection setup.
    pub fn gigabit() -> Self {
        NetworkSim {
            rpc_latency: Duration::from_micros(300),
            bytes_per_sec: 125_000_000, // 1 Gb/s
            remote_penalty_num: 3,
            remote_penalty_den: 2, // 1.5x for non-local reads
            connection_setup: Duration::from_millis(5),
        }
    }

    /// Time to move `bytes` across the wire, `local` indicating co-location
    /// of requester and server.
    pub fn transfer_cost(&self, bytes: u64, local: bool) -> Duration {
        let mut nanos = self.rpc_latency.as_nanos() as u64;
        if let Some(transfer) = bytes
            .saturating_mul(1_000_000_000)
            .checked_div(self.bytes_per_sec)
        {
            nanos += transfer;
        }
        if !local {
            nanos = nanos * self.remote_penalty_num as u64 / self.remote_penalty_den as u64;
        }
        Duration::from_nanos(nanos)
    }

    /// Charge a cost as real elapsed time. Sub-10µs charges are skipped —
    /// they are below sleep granularity and would only add noise.
    pub fn charge(&self, cost: Duration) {
        if cost > Duration::from_micros(10) {
            std::thread::sleep(cost);
        }
    }

    /// [`charge`](Self::charge), additionally advancing any active query
    /// trace's deterministic clock by the modeled cost — so span intervals
    /// reflect simulated time even though sub-granularity charges never
    /// sleep. Used for non-RPC charges (e.g. connection setup) that should
    /// show up in traces but not in the RPC latency histogram.
    pub fn charge_traced(&self, cost: Duration) {
        shc_obs::trace::advance_us(cost.as_micros() as u64);
        self.charge(cost);
    }
}

impl Default for NetworkSim {
    fn default() -> Self {
        NetworkSim::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_profile_costs_nothing() {
        let n = NetworkSim::off();
        assert_eq!(n.transfer_cost(1_000_000, false), Duration::ZERO);
    }

    #[test]
    fn transfer_cost_scales_with_bytes() {
        let n = NetworkSim::gigabit();
        let small = n.transfer_cost(1_000, true);
        let large = n.transfer_cost(10_000_000, true);
        assert!(large > small);
        // 10 MB at 125 MB/s ≈ 80 ms.
        assert!(large >= Duration::from_millis(79));
        assert!(large <= Duration::from_millis(82));
    }

    #[test]
    fn remote_reads_pay_the_penalty() {
        let n = NetworkSim::gigabit();
        let local = n.transfer_cost(1_000_000, true);
        let remote = n.transfer_cost(1_000_000, false);
        assert!(remote > local);
        let ratio = remote.as_nanos() as f64 / local.as_nanos() as f64;
        assert!((ratio - 1.5).abs() < 0.01);
    }

    #[test]
    fn charge_skips_negligible_costs() {
        // Must return almost immediately.
        let n = NetworkSim::gigabit();
        let t = std::time::Instant::now();
        n.charge(Duration::from_nanos(100));
        assert!(t.elapsed() < Duration::from_millis(5));
    }
}
