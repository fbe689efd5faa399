//! Service sizing knobs.

/// Configuration of a [`MonitorService`](crate::MonitorService).
///
/// The defaults target the service's design point — thousands of small
/// tenant meshes behind a handful of workers — and every knob has a
/// `with_*` builder so call sites only spell out what they change.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Number of mutex-striped registry shards tenants hash onto. More
    /// shards means less query/ingest contention; memory cost is one
    /// mutex + map per shard. Clamped to at least 1.
    pub shards: usize,
    /// Number of ingestion worker threads, each owning the tenants that
    /// hash to it (per-tenant event order is preserved because exactly
    /// one worker ever applies a given tenant's batches). Clamped to at
    /// least 1.
    pub workers: usize,
    /// Capacity of each worker's bounded batch queue. A full queue
    /// blocks [`submit`](crate::MonitorService::submit) and fails
    /// [`try_submit`](crate::MonitorService::try_submit) — the service's
    /// backpressure. Clamped to at least 1.
    pub queue_capacity: usize,
    /// How many applied batches may pass before a tenant's coherent
    /// snapshot (the state degraded reads are served from while the
    /// tenant is rebuilding) is refreshed. Lower values make degraded
    /// reads fresher; higher values cost less per batch. Clamped to at
    /// least 1.
    pub snapshot_every: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 64,
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().max(2)),
            queue_capacity: 1024,
            snapshot_every: 32,
        }
    }
}

impl ServeConfig {
    /// The default configuration (64 shards, one worker per available
    /// core with a floor of two, 1024-batch queues).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the per-worker queue capacity (in batches).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the coherent-snapshot refresh interval (in batches).
    pub fn with_snapshot_every(mut self, batches: u64) -> Self {
        self.snapshot_every = batches;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane_and_builders_chain() {
        let c = ServeConfig::new();
        assert!(c.shards >= 1 && c.workers >= 1 && c.queue_capacity >= 1);
        let c = ServeConfig::default()
            .with_shards(8)
            .with_workers(3)
            .with_queue_capacity(16)
            .with_snapshot_every(5);
        assert_eq!((c.shards, c.workers, c.queue_capacity), (8, 3, 16));
        assert_eq!(c.snapshot_every, 5);
    }
}
