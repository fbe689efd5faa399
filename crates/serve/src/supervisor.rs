//! Worker supervision: death detection, recovery, respawn.
//!
//! One supervisor thread per service sleeps on the death signal. A
//! worker's queue and the batch it was applying both live in its
//! [`Slot`](crate::service), so nothing the worker was given dies with
//! it. When a worker's [`DeathWatch`](crate::service) reports a death,
//! the supervisor:
//!
//! 1. joins the corpse and marks every owned tenant [`Degraded`]
//!    (engines still coherent) — tenants caught mid-apply already carry
//!    [`Rebuilding`]. Submitters keep queueing batches meanwhile;
//! 2. waits out the **recovery gate** (tests hold it to observe the
//!    degraded states for as long as they need);
//! 3. **recovers** the worker's tenants: a `Rebuilding` tenant's engine
//!    is rebuilt from its fault set, the batch the worker held is
//!    re-applied (idempotent from the pre-batch set, because inject and
//!    repair are absolute), and every tenant ends `Live`;
//! 4. **respawns** a replacement worker on the same queue (skipped
//!    during shutdown; the shutdown path runs its own final sweep).
//!
//! [`Degraded`]: crate::TenantHealth::Degraded
//! [`Rebuilding`]: crate::TenantHealth::Rebuilding

use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};
use std::thread::JoinHandle;

use mocp_incremental::IncrementalEngine;

use crate::registry::TenantHealth;
use crate::service::{apply, lock, spawn_worker, Core, TenantId};

/// Spawns the supervisor thread for `core`.
pub(crate) fn spawn(core: Arc<Core>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("mocp-serve-supervisor".into())
        .spawn(move || supervisor_loop(&core))
        .expect("supervisor thread spawn cannot fail")
}

fn supervisor_loop(core: &Arc<Core>) {
    loop {
        let death = {
            let mut deaths = lock(&core.deaths);
            loop {
                // Pending deaths are recovered even during shutdown —
                // their tenants must not wait for the final sweep to
                // discover them.
                if let Some(death) = deaths.pop_front() {
                    break Some(death);
                }
                if core.shutting_down.load(Ordering::SeqCst) {
                    break None;
                }
                deaths = core
                    .death_signal
                    .wait(deaths)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(death) = death else { return };
        join_worker(core, death.worker);
        for tenant in owned_tenants(core, death.worker) {
            core.registry.with(tenant, |state| {
                if state.health == TenantHealth::Live {
                    state.health = TenantHealth::Degraded;
                }
            });
        }
        core.chaos.wait_recovery_gate(&core.shutting_down);
        recover_worker(core, death.worker);
        if !core.shutting_down.load(Ordering::SeqCst) {
            spawn_worker(core, death.worker);
            core.stats.restarts.fetch_add(1, Ordering::Relaxed);
            mocp_obs::counter!("serve.supervisor.restarts").inc();
        }
    }
}

/// Joins worker `worker`'s thread, if any, counting a panic.
pub(crate) fn join_worker(core: &Core, worker: usize) {
    let handle = lock(&core.slots[worker].handle).take();
    if let Some(handle) = handle {
        if handle.join().is_err() {
            core.stats.panicked_workers.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn owned_tenants(core: &Core, worker: usize) -> Vec<TenantId> {
    let mut tenants = core.registry.ids();
    tenants.retain(|&t| core.worker_of(t) == worker);
    tenants
}

/// Brings every tenant of a joined worker back to `Live`: rebuilds the
/// ones caught mid-apply from their fault sets and re-applies the batch
/// the worker held. Also the shutdown path's final-sweep primitive; a
/// no-op for a worker that held nothing and left every tenant live.
pub(crate) fn recover_worker(core: &Core, worker: usize) {
    let _span = mocp_obs::span!("serve.recovery");
    let mut held = lock(&core.slots[worker].inflight).take();
    for tenant in owned_tenants(core, worker) {
        core.registry.with(tenant, |state| {
            if state.health == TenantHealth::Rebuilding {
                state.engine = IncrementalEngine::from_faults(*state.engine.mesh(), &state.faults);
            }
            // The rebuilt engine is the pre-batch state subscribers last
            // saw, so the re-applied batch fans out as an ordinary update.
            if let Some(batch) = held.take_if(|batch| batch.tenant == tenant) {
                apply(core, state, &batch, None);
                let replayed = batch.events.len() as u64;
                core.stats
                    .replayed_events
                    .fetch_add(replayed, Ordering::Relaxed);
                mocp_obs::counter!("serve.recovery.replayed_events").add(replayed);
            }
            state.health = TenantHealth::Live;
        });
    }
}
