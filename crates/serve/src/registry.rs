//! The mutex-striped tenant registry.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crossbeam::channel::Sender;
use mesh2d::{FaultSet, Region, StatusMap};
use mocp_incremental::IncrementalEngine;

use crate::service::{TenantId, TenantUpdate};

/// One tenant's serving health, surfaced through queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantHealth {
    /// A live worker owns the tenant and its engine is coherent.
    Live,
    /// The tenant's worker died but the engine is coherent — queries are
    /// exact, and new batches queue until the supervisor restores a
    /// worker.
    Degraded,
    /// The engine is mid-rebuild (the worker died inside an apply, or a
    /// poisoned lock quarantined the tenant). Queries are served from
    /// the last coherent snapshot until the supervisor rebuilds the
    /// engine from the tenant's fault set.
    Rebuilding,
}

/// The last coherent engine state, kept so [`TenantHealth::Rebuilding`]
/// reads degrade to a stale-but-consistent answer instead of exposing a
/// half-applied engine.
pub(crate) struct CoherentSnapshot {
    /// Batch sequence number the snapshot reflects.
    pub seq: u64,
    /// Events applied at capture time.
    pub events_applied: u64,
    /// Per-node statuses.
    pub status: StatusMap,
    /// Maintained polygons, deterministic component order.
    pub polygons: Vec<Region>,
    /// Faulty node count.
    pub faulty: usize,
    /// Non-faulty disabled node count.
    pub disabled_nonfaulty: usize,
}

impl CoherentSnapshot {
    pub fn capture(engine: &IncrementalEngine, seq: u64, events_applied: u64) -> Self {
        CoherentSnapshot {
            seq,
            events_applied,
            status: engine.status().clone(),
            polygons: engine.polygons(),
            faulty: engine.faulty_count(),
            disabled_nonfaulty: engine.disabled_nonfaulty(),
        }
    }
}

/// One monitored mesh: its maintenance engine plus the service-level
/// bookkeeping that lives under the same shard lock.
pub(crate) struct Tenant {
    /// The per-mesh incremental MFP engine.
    pub engine: IncrementalEngine,
    /// The faults of every completely applied batch. The engine's state
    /// is a pure function of this set, so recovery rebuilds from it.
    pub faults: FaultSet,
    /// Batches applied so far; stamped onto fan-out updates so
    /// subscribers can detect (their own) missed updates.
    pub seq: u64,
    /// Events applied so far (including no-ops).
    pub events_applied: u64,
    /// Registered delta subscribers. `None` capacity means the
    /// subscriber's channel is unbounded; bounded subscribers that fall
    /// behind have updates dropped rather than stalling the worker.
    pub subscribers: Vec<Sender<TenantUpdate>>,
    /// Current serving health (see [`TenantHealth`]).
    pub health: TenantHealth,
    /// Last coherent state, served while `health == Rebuilding`.
    pub snapshot: CoherentSnapshot,
}

impl Tenant {
    /// A fresh live tenant with a coherent snapshot of its (fault-free)
    /// engine.
    pub fn new(engine: IncrementalEngine) -> Self {
        let snapshot = CoherentSnapshot::capture(&engine, 0, 0);
        Tenant {
            faults: FaultSet::new(*engine.mesh()),
            engine,
            seq: 0,
            events_applied: 0,
            subscribers: Vec::new(),
            health: TenantHealth::Live,
            snapshot,
        }
    }
}

/// Tenants spread over mutex-striped shards: looking up a tenant locks
/// only its shard, so ingestion into one shard never blocks queries on
/// another.
///
/// Every lock acquisition strips poison: a worker that panicked while
/// holding a shard lock leaves its tenant in `Rebuilding` health (set
/// before the first engine mutation), so later readers see a quarantined
/// tenant served from its snapshot — not a propagated panic.
pub(crate) struct ShardedRegistry {
    shards: Vec<Mutex<HashMap<TenantId, Tenant>>>,
    tenants: AtomicUsize,
}

/// SplitMix64 finalizer: spreads sequential tenant ids over shards and
/// workers without clustering.
#[inline]
pub(crate) fn spread(id: TenantId) -> u64 {
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ShardedRegistry {
    pub fn new(shards: usize) -> Self {
        ShardedRegistry {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            tenants: AtomicUsize::new(0),
        }
    }

    fn shard(&self, tenant: TenantId) -> std::sync::MutexGuard<'_, HashMap<TenantId, Tenant>> {
        self.shards[(spread(tenant) % self.shards.len() as u64) as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Inserts a fresh tenant; `false` (tenant untouched) when the id is
    /// already registered.
    pub fn insert(&self, tenant: TenantId, state: Tenant) -> bool {
        let mut shard = self.shard(tenant);
        if shard.contains_key(&tenant) {
            return false;
        }
        shard.insert(tenant, state);
        self.tenants.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// True when the id is registered.
    pub fn contains(&self, tenant: TenantId) -> bool {
        self.shard(tenant).contains_key(&tenant)
    }

    /// Runs `f` on the tenant's state under its shard lock; `None` for
    /// unknown tenants.
    pub fn with<R>(&self, tenant: TenantId, f: impl FnOnce(&mut Tenant) -> R) -> Option<R> {
        let mut shard = self.shard(tenant);
        shard.get_mut(&tenant).map(f)
    }

    /// Every registered tenant id, in no particular order.
    pub fn ids(&self) -> Vec<TenantId> {
        let mut ids = Vec::with_capacity(self.len());
        for shard in &self.shards {
            ids.extend(
                shard
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .keys()
                    .copied(),
            );
        }
        ids
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh2d::Mesh2D;

    fn tenant(mesh_side: u32) -> Tenant {
        Tenant::new(IncrementalEngine::new(Mesh2D::square(mesh_side)))
    }

    #[test]
    fn insert_contains_with_and_duplicate_rejection() {
        let reg = ShardedRegistry::new(4);
        assert_eq!(reg.len(), 0);
        assert!(reg.insert(3, tenant(8)));
        assert!(!reg.insert(3, tenant(8)), "duplicate id rejected");
        assert!(reg.contains(3));
        assert!(!reg.contains(4));
        assert_eq!(reg.len(), 1);
        let nodes = reg.with(3, |t| t.engine.mesh().node_count());
        assert_eq!(nodes, Some(64));
        assert_eq!(reg.with(4, |_| ()), None);
    }

    #[test]
    fn spread_separates_sequential_ids() {
        // Sequential tenant ids must not pile onto one shard.
        let shards = 8u64;
        let mut hits = vec![0u32; shards as usize];
        for id in 0..64 {
            hits[(spread(id) % shards) as usize] += 1;
        }
        assert!(hits.iter().all(|&h| h > 0), "all shards used: {hits:?}");
    }

    #[test]
    fn single_shard_registry_still_works() {
        let reg = ShardedRegistry::new(0); // clamped to 1
        assert!(reg.insert(1, tenant(4)));
        assert!(reg.insert(2, tenant(4)));
        assert_eq!(reg.len(), 2);
        let mut ids = reg.ids();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn fresh_tenants_are_live_with_a_coherent_snapshot() {
        let reg = ShardedRegistry::new(2);
        assert!(reg.insert(9, tenant(6)));
        reg.with(9, |t| {
            assert_eq!(t.health, TenantHealth::Live);
            assert_eq!(t.snapshot.seq, 0);
            assert_eq!(t.snapshot.faulty, 0);
            assert!(t.snapshot.polygons.is_empty());
        })
        .unwrap();
    }

    #[test]
    fn poisoned_shard_lock_is_recovered_not_propagated() {
        let reg = std::sync::Arc::new(ShardedRegistry::new(1));
        assert!(reg.insert(1, tenant(4)));
        let poisoner = std::sync::Arc::clone(&reg);
        let _ = std::thread::spawn(move || {
            poisoner.with(1, |t| {
                t.health = TenantHealth::Rebuilding;
                panic!("poison the shard");
            });
        })
        .join();
        // The panic poisoned the shard mutex; lookups must still work and
        // must see the quarantine marker.
        assert!(reg.contains(1));
        assert_eq!(reg.with(1, |t| t.health), Some(TenantHealth::Rebuilding));
    }
}
