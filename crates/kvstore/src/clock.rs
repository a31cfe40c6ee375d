//! Cluster clock. Benchmarks and tests need deterministic timestamps, so the
//! cluster runs on a logical clock: a monotonically increasing millisecond
//! counter seeded at a fixed epoch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Source of "server time" for timestamp assignment: strictly monotonic
/// logical milliseconds starting from a seed. Clones share the counter.
#[derive(Debug, Clone)]
pub struct Clock {
    counter: Arc<AtomicU64>,
}

impl Clock {
    /// Deterministic clock starting at `epoch_ms`. Every call advances by
    /// one millisecond, so no two puts ever share a server-assigned
    /// timestamp.
    pub fn logical(epoch_ms: u64) -> Self {
        Clock {
            counter: Arc::new(AtomicU64::new(epoch_ms)),
        }
    }

    /// Current time in milliseconds; advances the clock.
    pub fn now_ms(&self) -> u64 {
        self.counter.fetch_add(1, Ordering::Relaxed)
    }

    /// The time `now_ms` would return next, without advancing.
    pub fn peek_ms(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }
}

impl Default for Clock {
    fn default() -> Self {
        // A fixed, recognizable epoch keeps test fixtures stable.
        Clock::logical(1_500_000_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_clock_is_strictly_monotonic() {
        let c = Clock::logical(100);
        let a = c.now_ms();
        let b = c.now_ms();
        assert_eq!(a, 100);
        assert_eq!(b, 101);
    }

    #[test]
    fn peek_does_not_advance_logical() {
        let c = Clock::logical(5);
        assert_eq!(c.peek_ms(), 5);
        assert_eq!(c.peek_ms(), 5);
        assert_eq!(c.now_ms(), 5);
        assert_eq!(c.peek_ms(), 6);
    }

    #[test]
    fn clones_share_state() {
        let c = Clock::logical(0);
        let d = c.clone();
        c.now_ms();
        assert_eq!(d.peek_ms(), 1);
    }
}
