//! Open-loop accounting for the `fleet` workload.
//!
//! Batches are due on a fixed schedule, whatever the service does; each
//! batch's latency is timed from its *due* time, so a stall in the
//! generator or the service is charged to every batch it delays, and the
//! generator's own lateness is reported beside it.

use std::collections::VecDeque;

/// A fixed-rate schedule: item `k` is due `k * period` after the start.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    period_ns: f64,
}

impl Schedule {
    /// `rate` items per second.
    pub fn per_second(rate: f64) -> Schedule {
        Schedule {
            period_ns: 1e9 / rate,
        }
    }

    /// Due time of item `k`, ns after the start.
    pub fn due_ns(&self, k: u64) -> u64 {
        (k as f64 * self.period_ns) as u64
    }
}

/// How late the generator started each item (0 when on time), in µs.
#[derive(Default)]
pub struct Lateness {
    /// One sample per item.
    pub samples_us: Vec<f64>,
}

impl Lateness {
    /// Records an item due at `due_ns` whose send began at `start_ns`.
    pub fn record(&mut self, due_ns: u64, start_ns: u64) {
        self.samples_us
            .push(start_ns.saturating_sub(due_ns) as f64 / 1e3);
    }
}

/// Tracks, per tenant, the batches submitted but not yet seen in a
/// subscription update, and times each from its due time to the arrival of
/// its update (the one carrying its `seq`).
///
/// A batch whose coalesced change is empty sends no update. It is counted
/// as *silent*, not timed: the next update of its tenant covers it, but
/// that arrives a whole round-robin period later and says nothing about
/// the service.
pub struct Visibility {
    pending: Vec<VecDeque<(u64, u64)>>,
    /// Tenants with pending batches (each listed once).
    active: Vec<usize>,
    /// Due-to-visible latencies, µs.
    pub latencies_us: Vec<f64>,
    /// Batches covered by a later batch's update.
    pub silent: u64,
}

impl Visibility {
    /// Tracker for `tenants` tenants.
    pub fn new(tenants: usize) -> Visibility {
        Visibility {
            pending: vec![VecDeque::new(); tenants],
            active: Vec::new(),
            latencies_us: Vec::new(),
            silent: 0,
        }
    }

    /// Batch `seq` of `tenant`, due at `due_ns`, was accepted.
    pub fn submitted(&mut self, tenant: usize, seq: u64, due_ns: u64) {
        if self.pending[tenant].is_empty() {
            self.active.push(tenant);
        }
        self.pending[tenant].push_back((seq, due_ns));
    }

    /// The update of batch `seq` of `tenant` arrived at `at_ns`; it also
    /// covers the tenant's earlier, silent batches.
    pub fn update(&mut self, tenant: usize, seq: u64, at_ns: u64) {
        let queue = &mut self.pending[tenant];
        while let Some(&(s, due)) = queue.front() {
            if s > seq {
                break;
            }
            queue.pop_front();
            if s == seq {
                self.latencies_us
                    .push(at_ns.saturating_sub(due) as f64 / 1e3);
            } else {
                self.silent += 1;
            }
        }
    }

    /// The tenants that still have pending batches; drops the others from
    /// the active list.
    pub fn active(&mut self) -> &[usize] {
        let pending = &self.pending;
        self.active.retain(|&t| !pending[t].is_empty());
        &self.active
    }

    /// Batches never covered by an update (their coalesced change was
    /// empty and no later update followed).
    pub fn unresolved(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_evenly_spaced() {
        let s = Schedule::per_second(100_000.0);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 10_000);
        assert_eq!(s.due_ns(250), 2_500_000);
    }

    #[test]
    fn lateness_is_charged_from_the_due_time() {
        let s = Schedule::per_second(100_000.0); // 10 µs period
        let mut late = Lateness::default();
        // On time, on time, a 30 µs stall, then catching up back to back.
        let starts = [0, 10_000, 50_000, 51_000, 52_000, 50_000 + 10_000];
        for (k, &at) in starts.iter().enumerate() {
            late.record(s.due_ns(k as u64), at);
        }
        assert_eq!(late.samples_us, vec![0.0, 0.0, 30.0, 21.0, 12.0, 10.0]);
        // Early starts are not negative lateness.
        late.record(s.due_ns(9), 0);
        assert_eq!(*late.samples_us.last().unwrap(), 0.0);
    }

    #[test]
    fn each_update_times_its_own_batch_from_its_due_time() {
        let mut v = Visibility::new(3);
        v.submitted(1, 1, 1_000);
        v.submitted(1, 2, 2_000);
        v.submitted(1, 3, 3_000);
        v.submitted(2, 1, 1_500);
        assert_eq!(v.active(), &[1, 2]);
        // Batch 1 changed nothing: the update for seq 2 resolves it as
        // silent, and times only batch 2.
        v.update(1, 2, 10_000);
        assert_eq!(v.latencies_us, vec![8.0]);
        assert_eq!(v.silent, 1);
        v.update(2, 1, 4_000);
        assert_eq!(v.active(), &[1]);
        assert_eq!(v.unresolved(), 1);
        v.update(1, 3, 3_500);
        assert_eq!(v.latencies_us, vec![8.0, 2.5, 0.5]);
        assert!(v.active().is_empty());
        assert_eq!((v.unresolved(), v.silent), (0, 1));
    }
}
