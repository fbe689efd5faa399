//! The monitoring service: ingestion front, supervised worker threads,
//! fan-out and point queries.
//!
//! # Fault tolerance
//!
//! Each worker [`Slot`] owns its bounded queue, so a worker death loses
//! nothing that was queued: the batches wait for the replacement. The
//! one batch a worker has dequeued is parked in the slot until it is
//! applied. A dedicated supervisor thread watches for worker deaths
//! (panics — including chaos-injected ones — are reported by a drop
//! guard inside the worker), rebuilds every tenant caught mid-apply
//! from its fault set, re-applies the parked batch, and spawns a
//! replacement on the same queue. Queries keep working throughout: a
//! tenant whose engine is coherent serves exact answers
//! ([`TenantHealth::Degraded`]); a tenant caught mid-apply serves its
//! last coherent snapshot ([`TenantHealth::Rebuilding`]) until it is
//! rebuilt. Poisoned locks are stripped, never propagated.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, SendTimeoutError, Sender, TrySendError};
use mesh2d::{Coord, FaultEvent, Mesh2D, NodeStatus, Region, StatusDelta, StatusMap};
use mocp_incremental::IncrementalEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::chaos::{ChaosControl, ChaosPlan, KillMode, CHAOS_PANIC};
use crate::config::ServeConfig;
use crate::registry::{spread, CoherentSnapshot, ShardedRegistry, Tenant, TenantHealth};
use crate::supervisor;

/// Tenant identifier: one monitored mesh per id.
pub type TenantId = u64;

/// One coalesced status update fanned out to a tenant's subscribers:
/// everything one ingested batch changed, at most one transition per
/// node. Batches that change nothing produce no update.
#[derive(Clone, Debug)]
pub struct TenantUpdate {
    /// The tenant whose mesh changed.
    pub tenant: TenantId,
    /// The tenant's batch sequence number (1-based, increments per
    /// applied batch whether or not anything changed) — gaps tell a
    /// bounded subscriber how many updates it missed.
    pub seq: u64,
    /// The coalesced per-node transitions.
    pub delta: StatusDelta,
}

/// O(1) counters answered from one tenant's maintained state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantCounts {
    /// Faulty (black) nodes.
    pub faulty: usize,
    /// Non-faulty disabled (gray) nodes — the paper's Figure 9 metric,
    /// live.
    pub disabled_nonfaulty: usize,
    /// Live faulty components (= maintained polygons).
    pub components: usize,
    /// Events applied to this tenant so far (including no-ops).
    pub events_applied: u64,
    /// Batches applied to this tenant so far.
    pub seq: u64,
}

/// A coherent point-in-time view of one tenant's per-node statuses,
/// with the health it was served under. While the tenant is
/// [`Rebuilding`](TenantHealth::Rebuilding) the snapshot is the last
/// coherent state (stale but consistent); otherwise it is the live
/// engine state.
#[derive(Clone, Debug)]
pub struct StatusSnapshot {
    /// The tenant snapshotted.
    pub tenant: TenantId,
    /// Batch sequence number the statuses reflect.
    pub seq: u64,
    /// The tenant's health at capture time.
    pub health: TenantHealth,
    /// Per-node statuses.
    pub status: StatusMap,
}

/// Why a submission was not accepted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The tenant id is not registered.
    UnknownTenant(TenantId),
    /// The owning worker's bounded queue is full
    /// ([`MonitorService::try_submit`] only; [`MonitorService::submit`]
    /// blocks instead).
    Backpressure(TenantId),
    /// The service is shutting down and no longer accepts events.
    Shutdown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            SubmitError::Backpressure(t) => {
                write!(f, "ingestion queue full for tenant {t}'s worker")
            }
            SubmitError::Shutdown => f.write_str("service is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a deadline-bounded [`MonitorService::ingest`] gave up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// The tenant id is not registered.
    UnknownTenant(TenantId),
    /// The owning worker's queue stayed full past the retry policy's
    /// deadline/retry budget. The batch was fully rolled back — nothing
    /// is partially enqueued, and re-ingesting the same events later is
    /// safe.
    Saturated {
        /// The tenant whose worker was saturated.
        tenant: TenantId,
        /// Bounded sends attempted before giving up.
        retries: u32,
    },
    /// The service is shutting down and no longer accepts events.
    Shutdown,
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            IngestError::Saturated { tenant, retries } => write!(
                f,
                "tenant {tenant}'s worker stayed saturated through {retries} bounded retries"
            ),
            IngestError::Shutdown => f.write_str("service is shut down"),
        }
    }
}

impl std::error::Error for IngestError {}

/// Deadline/retry policy for [`MonitorService::ingest`]: bounded sends
/// with decorrelated-jitter backoff, then a typed
/// [`IngestError::Saturated`] instead of blocking forever.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total time budget across all attempts (default 250 ms).
    pub deadline: Duration,
    /// Bounded-send attempts after the first before giving up
    /// (default 8).
    pub max_retries: u32,
    /// Initial/minimum backoff wait (default 500 µs).
    pub base: Duration,
    /// Maximum single backoff wait (default 20 ms).
    pub cap: Duration,
    /// Seed of the jitter RNG (mixed with the tenant id, so tenants
    /// back off decorrelated even under one seed; default 0).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            deadline: Duration::from_millis(250),
            max_retries: 8,
            base: Duration::from_micros(500),
            cap: Duration::from_millis(20),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The default policy (250 ms deadline, 8 retries, 500 µs..20 ms
    /// decorrelated-jitter backoff).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the total deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the retry budget.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Sets the minimum backoff wait.
    pub fn with_base(mut self, base: Duration) -> Self {
        self.base = base;
        self
    }

    /// Sets the maximum backoff wait.
    pub fn with_cap(mut self, cap: Duration) -> Self {
        self.cap = cap;
        self
    }

    /// Sets the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// What [`MonitorService::shutdown`] observed: faults survived and work
/// replayed over the service's lifetime. Returned instead of panicking
/// (a worker panic is the service's problem to absorb, not the
/// caller's).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Worker threads that died by panic (chaos-injected or genuine).
    pub panicked_workers: u64,
    /// Events of batches that died with their worker, re-applied by
    /// recoveries (supervisor restarts and the final shutdown sweep).
    pub replayed_events: u64,
    /// Replacement workers the supervisor spawned.
    pub supervisor_restarts: u64,
}

/// A snapshot of the service-wide counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStatsSnapshot {
    /// Event batches applied by the workers.
    pub batches: u64,
    /// Events applied (including per-engine no-ops).
    pub events: u64,
    /// Point queries answered.
    pub queries: u64,
    /// Coalesced updates delivered to subscribers.
    pub updates_sent: u64,
    /// Updates dropped because a bounded subscriber was full.
    pub updates_dropped: u64,
    /// Replacement workers spawned by the supervisor.
    pub restarts: u64,
    /// Events of batches that died with their worker, re-applied by
    /// recovery.
    pub replayed_events: u64,
    /// Bounded ingest sends that timed out and backed off.
    pub ingest_retries: u64,
    /// Ingest calls that gave up saturated.
    pub ingest_saturated: u64,
    /// Worker threads that died by panic.
    pub panicked_workers: u64,
}

#[derive(Default)]
pub(crate) struct ServiceStats {
    pub batches: AtomicU64,
    pub events: AtomicU64,
    pub queries: AtomicU64,
    pub updates_sent: AtomicU64,
    pub updates_dropped: AtomicU64,
    pub restarts: AtomicU64,
    pub replayed_events: AtomicU64,
    pub ingest_retries: AtomicU64,
    pub ingest_saturated: AtomicU64,
    pub panicked_workers: AtomicU64,
}

impl ServiceStats {
    fn snapshot(&self) -> ServiceStatsSnapshot {
        ServiceStatsSnapshot {
            batches: self.batches.load(Ordering::Relaxed),
            events: self.events.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            updates_sent: self.updates_sent.load(Ordering::Relaxed),
            updates_dropped: self.updates_dropped.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            replayed_events: self.replayed_events.load(Ordering::Relaxed),
            ingest_retries: self.ingest_retries.load(Ordering::Relaxed),
            ingest_saturated: self.ingest_saturated.load(Ordering::Relaxed),
            panicked_workers: self.panicked_workers.load(Ordering::Relaxed),
        }
    }
}

/// Submitted-vs-applied event accounting behind
/// [`MonitorService::quiesce`]. A mutex-guarded pair (not two atomics):
/// `quiesce` must observe `applied == submitted` consistently, and the
/// ledger is touched once per *batch*, so the lock is off the per-event
/// path. Poison is stripped: the ledger stays usable after a worker
/// panic.
#[derive(Default)]
pub(crate) struct Ledger {
    counts: Mutex<(u64, u64)>, // (submitted, applied)
    drained: Condvar,
}

impl Ledger {
    fn add_submitted(&self, n: u64) {
        lock(&self.counts).0 += n;
    }

    /// Compensation for a submission the channel refused after the
    /// submitted count was already bumped.
    fn retract_submitted(&self, n: u64) {
        lock(&self.counts).0 -= n;
        self.drained.notify_all();
    }

    pub(crate) fn add_applied(&self, n: u64) {
        let mut counts = lock(&self.counts);
        counts.1 += n;
        if counts.1 >= counts.0 {
            self.drained.notify_all();
        }
    }

    fn wait_drained(&self) {
        let mut counts = lock(&self.counts);
        while counts.1 < counts.0 {
            counts = self
                .drained
                .wait(counts)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Like [`wait_drained`](Self::wait_drained) with a bound: `false`
    /// when the timeout elapsed first.
    fn wait_drained_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut counts = lock(&self.counts);
        while counts.1 < counts.0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            counts = self
                .drained
                .wait_timeout(counts, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        true
    }
}

/// One queued unit of ingestion: a tenant's events, applied atomically
/// under the tenant's shard lock and fanned out as one coalesced update.
pub(crate) struct Batch {
    pub tenant: TenantId,
    pub events: Vec<FaultEvent>,
}

/// A worker death noticed by its [`DeathWatch`]. Whether the death was
/// a panic is established authoritatively when the supervisor joins the
/// corpse.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WorkerDeath {
    pub worker: usize,
}

/// One worker's attachment points. The queue belongs to the slot, not
/// to the thread: batches queued behind a dead worker wait for its
/// replacement.
pub(crate) struct Slot {
    /// Taken at shutdown, which disconnects the queue once it drains.
    pub sender: Mutex<Option<Sender<Batch>>>,
    pub receiver: Receiver<Batch>,
    /// The batch the worker dequeued and has not finished applying.
    pub inflight: Mutex<Option<Batch>>,
    pub handle: Mutex<Option<JoinHandle<()>>>,
}

impl Slot {
    fn new(capacity: usize) -> Self {
        let (sender, receiver) = channel::bounded(capacity.max(1));
        Slot {
            sender: Mutex::new(Some(sender)),
            receiver,
            inflight: Mutex::new(None),
            handle: Mutex::new(None),
        }
    }
}

/// Everything shared between the front (submitters, queries), the
/// workers and the supervisor.
pub(crate) struct Core {
    pub config: ServeConfig,
    pub registry: ShardedRegistry,
    pub ledger: Ledger,
    pub stats: ServiceStats,
    pub slots: Vec<Slot>,
    pub shutting_down: AtomicBool,
    pub deaths: Mutex<VecDeque<WorkerDeath>>,
    pub death_signal: Condvar,
    pub chaos: ChaosControl,
}

/// Locks `mutex`, stripping poison: a worker panic must not wedge the
/// service.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Core {
    pub fn worker_of(&self, tenant: TenantId) -> usize {
        (spread(tenant) % self.slots.len() as u64) as usize
    }
}

/// The sharded multi-tenant monitoring service. See the [crate
/// docs](crate) for the architecture and the fault-tolerance design.
///
/// Dropping the service shuts it down: queued batches are still drained
/// (no accepted event is lost, even across worker deaths), then the
/// workers exit and are joined. [`shutdown`](Self::shutdown) does the same
/// explicitly and returns what happened.
pub struct MonitorService {
    core: Arc<Core>,
    supervisor: Option<JoinHandle<()>>,
}

impl MonitorService {
    /// Starts the service: builds the shard stripes and spawns the
    /// ingestion workers and their supervisor.
    pub fn start(config: ServeConfig) -> MonitorService {
        Self::start_with_chaos(config, ChaosPlan::none())
    }

    /// Starts the service with a [`ChaosPlan`] armed: workers consult
    /// the plan on every dequeued batch and die at the scheduled points.
    /// With the empty plan this is exactly [`start`](Self::start) (the
    /// gates of [`chaos`](Self::chaos) work either way).
    pub fn start_with_chaos(config: ServeConfig, plan: ChaosPlan) -> MonitorService {
        let workers = config.workers.max(1);
        let core = Arc::new(Core {
            config,
            registry: ShardedRegistry::new(config.shards),
            ledger: Ledger::default(),
            stats: ServiceStats::default(),
            slots: (0..workers)
                .map(|_| Slot::new(config.queue_capacity))
                .collect(),
            shutting_down: AtomicBool::new(false),
            deaths: Mutex::new(VecDeque::new()),
            death_signal: Condvar::new(),
            chaos: ChaosControl::new(plan),
        });
        for w in 0..workers {
            spawn_worker(&core, w);
        }
        let supervisor = supervisor::spawn(Arc::clone(&core));
        MonitorService {
            core,
            supervisor: Some(supervisor),
        }
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.core.config
    }

    /// The live fault-injection surface: gates and counters (inert but
    /// functional on plainly started services).
    pub fn chaos(&self) -> &ChaosControl {
        &self.core.chaos
    }

    /// Registers a fresh fault-free tenant mesh with its own
    /// [`IncrementalEngine`]. Returns `false` (and changes nothing) when
    /// the id is already registered. Tenants are never removed.
    pub fn create_tenant(&self, tenant: TenantId, mesh: Mesh2D) -> bool {
        let created = self
            .core
            .registry
            .insert(tenant, Tenant::new(IncrementalEngine::new(mesh)));
        if created {
            mocp_obs::gauge!("serve.tenants").set(self.core.registry.len() as i64);
        }
        created
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.core.registry.len()
    }

    /// Submits a batch of events for `tenant`, blocking while the owning
    /// worker's queue is full (backpressure). A worker death does not
    /// refuse the batch: it queues for the replacement worker. Events of
    /// one tenant are applied in submission order as long as each tenant
    /// is fed from one thread at a time. An empty batch is a no-op.
    pub fn submit(&self, tenant: TenantId, events: Vec<FaultEvent>) -> Result<(), SubmitError> {
        if events.is_empty() {
            return Ok(());
        }
        let sender = self.sender_for(tenant)?;
        let n = events.len() as u64;
        // Submitted is bumped before the send so `applied <= submitted`
        // holds at every instant a worker could observe the batch.
        self.core.ledger.add_submitted(n);
        if sender.send(Batch { tenant, events }).is_err() {
            self.core.ledger.retract_submitted(n);
            return Err(SubmitError::Shutdown);
        }
        mocp_obs::counter!("serve.submitted").add(n);
        Ok(())
    }

    /// Like [`submit`](Self::submit) but never blocks: a full worker
    /// queue returns [`SubmitError::Backpressure`] with the batch fully
    /// rolled back — nothing is partially enqueued and resubmitting
    /// later is safe.
    pub fn try_submit(&self, tenant: TenantId, events: Vec<FaultEvent>) -> Result<(), SubmitError> {
        if events.is_empty() {
            return Ok(());
        }
        let sender = self.sender_for(tenant)?;
        let n = events.len() as u64;
        self.core.ledger.add_submitted(n);
        match sender.try_send(Batch { tenant, events }) {
            Ok(()) => {
                mocp_obs::counter!("serve.submitted").add(n);
                Ok(())
            }
            Err(err) => {
                self.core.ledger.retract_submitted(n);
                if err.is_disconnected() {
                    return Err(SubmitError::Shutdown);
                }
                mocp_obs::counter!("serve.backpressure").inc();
                Err(SubmitError::Backpressure(tenant))
            }
        }
    }

    /// Deadline-bounded submission: like [`submit`](Self::submit) but a
    /// persistently full queue makes bounded attempts with
    /// decorrelated-jitter backoff (seeded — reproducible) and then
    /// returns [`IngestError::Saturated`] with the batch fully rolled
    /// back, instead of blocking forever.
    pub fn ingest(
        &self,
        tenant: TenantId,
        events: Vec<FaultEvent>,
        policy: &RetryPolicy,
    ) -> Result<(), IngestError> {
        if events.is_empty() {
            return Ok(());
        }
        let sender = self.sender_for(tenant).map_err(|err| match err {
            SubmitError::UnknownTenant(t) => IngestError::UnknownTenant(t),
            _ => IngestError::Shutdown,
        })?;
        let core = &self.core;
        let n = events.len() as u64;
        core.ledger.add_submitted(n);
        let deadline = Instant::now() + policy.deadline;
        let mut rng = StdRng::seed_from_u64(policy.seed ^ spread(tenant));
        let mut wait = policy.base.max(Duration::from_nanos(1));
        let mut retries = 0u32;
        let mut batch = Batch { tenant, events };
        loop {
            // The backoff wait doubles as send time: waiting *inside*
            // the bounded send reacts the instant a slot opens.
            let attempt_deadline = deadline.min(Instant::now() + wait);
            match sender.send_deadline(batch, attempt_deadline) {
                Ok(()) => {
                    mocp_obs::counter!("serve.submitted").add(n);
                    return Ok(());
                }
                Err(SendTimeoutError::Timeout(returned)) => {
                    batch = returned;
                    retries += 1;
                    core.stats.ingest_retries.fetch_add(1, Ordering::Relaxed);
                    mocp_obs::counter!("serve.ingest.retries").inc();
                    if retries > policy.max_retries || Instant::now() >= deadline {
                        core.ledger.retract_submitted(n);
                        core.stats.ingest_saturated.fetch_add(1, Ordering::Relaxed);
                        mocp_obs::counter!("serve.ingest.saturated").inc();
                        return Err(IngestError::Saturated { tenant, retries });
                    }
                    // Decorrelated jitter: next wait is uniform in
                    // [base, 3·previous), clamped to the cap.
                    let base_ns = policy.base.as_nanos().max(1) as u64;
                    let prev_ns = wait.as_nanos() as u64;
                    let hi = prev_ns.saturating_mul(3).max(base_ns + 1);
                    wait = Duration::from_nanos(rng.gen_range(base_ns..hi)).min(policy.cap);
                }
                Err(SendTimeoutError::Disconnected(_)) => {
                    core.ledger.retract_submitted(n);
                    return Err(IngestError::Shutdown);
                }
            }
        }
    }

    /// The owning worker's queue sender for a registered tenant.
    fn sender_for(&self, tenant: TenantId) -> Result<Sender<Batch>, SubmitError> {
        if !self.core.registry.contains(tenant) {
            return Err(SubmitError::UnknownTenant(tenant));
        }
        let slot = &self.core.slots[self.core.worker_of(tenant)];
        lock(&slot.sender).clone().ok_or(SubmitError::Shutdown)
    }

    /// Blocks until every event submitted so far has been applied. New
    /// submissions racing with the wait extend it; with submissions
    /// stopped this is the "all queues drained" barrier. Worker deaths
    /// extend the wait only until recovery and the replacement worker
    /// have applied what the dead worker left behind.
    pub fn quiesce(&self) {
        self.core.ledger.wait_drained();
    }

    /// Like [`quiesce`](Self::quiesce) with a bound: `true` when the
    /// service drained, `false` when `timeout` elapsed first (events
    /// still in flight — the service keeps working on them).
    pub fn quiesce_timeout(&self, timeout: Duration) -> bool {
        self.core.ledger.wait_drained_timeout(timeout)
    }

    /// Registers a subscriber for `tenant`'s coalesced updates and
    /// returns the receiving end. `capacity: None` subscribes over an
    /// unbounded channel (never misses an update); `Some(n)` bounds the
    /// buffer at `n` updates and *drops* updates while the subscriber is
    /// full — the worker never stalls on a slow consumer, and `seq` gaps
    /// tell the subscriber what it missed (see
    /// [`LiveReroute`](../mocp_traffic) consumers for gap recovery).
    /// `None` is returned for unknown tenants. Dropping the receiver
    /// unsubscribes (lazily, at the next fan-out).
    pub fn subscribe(
        &self,
        tenant: TenantId,
        capacity: Option<usize>,
    ) -> Option<Receiver<TenantUpdate>> {
        let (tx, rx) = match capacity {
            Some(n) => channel::bounded(n),
            None => channel::unbounded(),
        };
        self.core
            .registry
            .with(tenant, move |state| state.subscribers.push(tx))
            .map(|()| rx)
    }

    /// The tenant's current serving health; `None` for unknown tenants.
    pub fn health(&self, tenant: TenantId) -> Option<TenantHealth> {
        self.core.registry.with(tenant, |state| state.health)
    }

    /// A coherent per-node status snapshot of one tenant — the live
    /// state when the tenant is healthy, the last coherent snapshot
    /// while it is rebuilding; `None` for unknown tenants. This is the
    /// resynchronization primitive for subscribers that detected a
    /// `seq` gap.
    pub fn status_snapshot(&self, tenant: TenantId) -> Option<StatusSnapshot> {
        self.core.registry.with(tenant, |state| match state.health {
            TenantHealth::Rebuilding => StatusSnapshot {
                tenant,
                seq: state.snapshot.seq,
                health: state.health,
                status: state.snapshot.status.clone(),
            },
            _ => StatusSnapshot {
                tenant,
                seq: state.seq,
                health: state.health,
                status: state.engine.status().clone(),
            },
        })
    }

    /// The maintained status of one node: `None` for unknown tenants and
    /// out-of-mesh coordinates. Served from the last coherent snapshot
    /// while the tenant is rebuilding.
    pub fn node_status(&self, tenant: TenantId, c: Coord) -> Option<NodeStatus> {
        self.query_tenant(tenant, |state| match state.health {
            TenantHealth::Rebuilding => state.snapshot.status.get(c),
            _ => state.engine.status().get(c),
        })
        .flatten()
    }

    /// The maintained minimum polygon containing the node, if any (see
    /// [`IncrementalEngine::region_of`]): `None` for unknown tenants,
    /// out-of-mesh coordinates and enabled nodes. Served from the last
    /// coherent snapshot while the tenant is rebuilding.
    pub fn region_of(&self, tenant: TenantId, c: Coord) -> Option<Region> {
        self.query_tenant(tenant, |state| match state.health {
            TenantHealth::Rebuilding => state
                .snapshot
                .polygons
                .iter()
                .find(|region| region.contains(c))
                .cloned(),
            _ => state.engine.region_of(c),
        })
        .flatten()
    }

    /// O(1) counters for one tenant; `None` for unknown tenants. Served
    /// from the last coherent snapshot while the tenant is rebuilding.
    pub fn counts(&self, tenant: TenantId) -> Option<TenantCounts> {
        self.query_tenant(tenant, |state| match state.health {
            TenantHealth::Rebuilding => TenantCounts {
                faulty: state.snapshot.faulty,
                disabled_nonfaulty: state.snapshot.disabled_nonfaulty,
                components: state.snapshot.polygons.len(),
                events_applied: state.snapshot.events_applied,
                seq: state.snapshot.seq,
            },
            _ => TenantCounts {
                faulty: state.engine.faulty_count(),
                disabled_nonfaulty: state.engine.disabled_nonfaulty(),
                components: state.engine.component_count(),
                events_applied: state.events_applied,
                seq: state.seq,
            },
        })
    }

    /// A snapshot of every maintained polygon of one tenant, in
    /// deterministic component order; `None` for unknown tenants. Served
    /// from the last coherent snapshot while the tenant is rebuilding.
    pub fn polygons(&self, tenant: TenantId) -> Option<Vec<Region>> {
        self.query_tenant(tenant, |state| match state.health {
            TenantHealth::Rebuilding => state.snapshot.polygons.clone(),
            _ => state.engine.polygons(),
        })
    }

    /// Service-wide counters.
    pub fn stats(&self) -> ServiceStatsSnapshot {
        self.core.stats.snapshot()
    }

    /// Shuts the service down: disconnects the ingestion queues, lets
    /// the workers drain what was already queued, joins everything, and
    /// finishes whatever a late worker death left behind. Never panics —
    /// worker panics are counted in the returned [`ShutdownReport`].
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shutdown_in_place()
    }

    fn shutdown_in_place(&mut self) -> ShutdownReport {
        let core = &self.core;
        core.shutting_down.store(true, Ordering::SeqCst);
        // Wake everyone parked on a gate or the death signal; they
        // re-check the flag and fall through.
        core.chaos.notify_shutdown();
        core.death_signal.notify_all();
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        // Disconnect the queues: workers drain what is queued and exit.
        for slot in &core.slots {
            lock(&slot.sender).take();
        }
        // Final sweep: a death during the drain had no supervisor left
        // to recover it, so recover here and apply the rest of its queue.
        for (worker, slot) in core.slots.iter().enumerate() {
            supervisor::join_worker(core, worker);
            supervisor::recover_worker(core, worker);
            while let Ok(batch) = slot.receiver.try_recv() {
                apply_batch(core, &batch, None);
            }
        }
        let stats = core.stats.snapshot();
        ShutdownReport {
            panicked_workers: stats.panicked_workers,
            replayed_events: stats.replayed_events,
            supervisor_restarts: stats.restarts,
        }
    }

    /// Runs one timed point query against a tenant's state.
    fn query_tenant<R>(&self, tenant: TenantId, f: impl FnOnce(&mut Tenant) -> R) -> Option<R> {
        let _span = mocp_obs::span!("serve.query");
        self.core.stats.queries.fetch_add(1, Ordering::Relaxed);
        mocp_obs::counter!("serve.queries").inc();
        self.core.registry.with(tenant, f)
    }
}

impl Drop for MonitorService {
    fn drop(&mut self) {
        if !self.core.shutting_down.load(Ordering::SeqCst) {
            self.shutdown_in_place();
        }
    }
}

impl fmt::Debug for MonitorService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MonitorService")
            .field("config", &self.core.config)
            .field("tenants", &self.core.registry.len())
            .field("workers", &self.core.slots.len())
            .field("stats", &self.core.stats.snapshot())
            .finish()
    }
}

/// Spawns (or respawns) worker `w` on its slot's queue.
pub(crate) fn spawn_worker(core: &Arc<Core>, w: usize) {
    let handle = std::thread::Builder::new()
        .name(format!("mocp-serve-{w}"))
        .spawn({
            let core = Arc::clone(core);
            move || worker_loop(&core, w)
        })
        .expect("worker thread spawn cannot fail");
    *lock(&core.slots[w].handle) = Some(handle);
}

/// Reports the enclosing worker's death to the supervisor from its
/// `Drop` — the one hook that still runs when the worker panics.
struct DeathWatch<'a> {
    core: &'a Core,
    worker: usize,
}

impl Drop for DeathWatch<'_> {
    fn drop(&mut self) {
        let panicked = std::thread::panicking();
        if !panicked && self.core.shutting_down.load(Ordering::SeqCst) {
            return; // orderly exit at shutdown, not a death
        }
        let mut deaths = lock(&self.core.deaths);
        deaths.push_back(WorkerDeath {
            worker: self.worker,
        });
        drop(deaths);
        self.core.death_signal.notify_all();
    }
}

/// One worker: drain the slot's queue, apply each batch under its
/// tenant's shard lock, fan out the coalesced delta. Exits when the
/// service disconnects the queue *and* every queued batch has been
/// processed; a panic (chaos-injected or genuine) is reported by the
/// [`DeathWatch`] and leaves the batch in hand parked in the slot.
fn worker_loop(core: &Core, worker: usize) {
    let _watch = DeathWatch { core, worker };
    let slot = &core.slots[worker];
    while let Ok(batch) = slot.receiver.recv() {
        // Parked before anything can fail, cleared once applied.
        let mut inflight = lock(&slot.inflight);
        let batch = inflight.insert(batch);
        let mut panic_after = None;
        if let Some(mode) = core.chaos.on_dequeue(&core.shutting_down) {
            match mode {
                KillMode::Clean => {
                    std::panic::panic_any(format!("{CHAOS_PANIC}: clean kill of worker {worker}"))
                }
                KillMode::MidApply { after_events } => {
                    // Clamp so the kill always fires inside this batch.
                    panic_after = Some(after_events.min(batch.events.len().saturating_sub(1)));
                }
            }
        }
        apply_batch(core, batch, panic_after);
        *inflight = None;
    }
}

/// Applies one batch to its tenant under the shard lock.
fn apply_batch(core: &Core, batch: &Batch, panic_after: Option<usize>) {
    core.registry
        .with(batch.tenant, |state| apply(core, state, batch, panic_after))
        // Unknown tenants cannot happen today (submit checks and tenants
        // are never removed).
        .unwrap_or(())
}

/// Applies one batch to its tenant's state, which the caller holds
/// under the shard lock.
///
/// Health dips to `Rebuilding` for the duration of the mutation and
/// back to `Live` before the lock is released: invisible in normal
/// operation, but a panic mid-apply (chaos or genuine) leaves the
/// quarantine marker set, so every later reader serves the snapshot
/// instead of the half-applied engine. The fault set only takes the
/// batch once it is complete, so it always holds the pre-batch state a
/// recovery rebuilds from.
pub(crate) fn apply(core: &Core, state: &mut Tenant, batch: &Batch, panic_after: Option<usize>) {
    let _span = mocp_obs::span!("serve.apply");
    let tenant = batch.tenant;
    state.health = TenantHealth::Rebuilding;
    let mut delta = StatusDelta::new();
    for (i, &event) in batch.events.iter().enumerate() {
        if panic_after == Some(i) {
            std::panic::panic_any(format!("{CHAOS_PANIC}: mid-apply kill in tenant {tenant}"));
        }
        delta.extend(state.engine.apply(event));
    }
    for &event in &batch.events {
        state.faults.apply(event);
    }
    let n = batch.events.len() as u64;
    state.seq += 1;
    state.events_applied += n;
    if state.seq - state.snapshot.seq >= core.config.snapshot_every.max(1) {
        state.snapshot = CoherentSnapshot::capture(&state.engine, state.seq, state.events_applied);
    }
    state.health = TenantHealth::Live;
    let (sent, dropped) = fan_out(state, tenant, delta);
    core.stats.batches.fetch_add(1, Ordering::Relaxed);
    core.stats.events.fetch_add(n, Ordering::Relaxed);
    core.stats.updates_sent.fetch_add(sent, Ordering::Relaxed);
    core.stats
        .updates_dropped
        .fetch_add(dropped, Ordering::Relaxed);
    mocp_obs::counter!("serve.batches").inc();
    mocp_obs::counter!("serve.events").add(n);
    // Ledger credit last: when `quiesce` returns, every applied batch's
    // update and counters are already visible.
    core.ledger.add_applied(n);
}

/// Delivers one batch's coalesced delta to the tenant's subscribers.
/// Returns `(updates sent, updates dropped)`; disconnected subscribers
/// are unregistered.
fn fan_out(state: &mut Tenant, tenant: TenantId, delta: StatusDelta) -> (u64, u64) {
    if state.subscribers.is_empty() {
        return (0, 0);
    }
    let coalesced = delta.coalesced();
    if coalesced.is_empty() {
        return (0, 0);
    }
    mocp_obs::counter!("serve.fanout_deltas").add(coalesced.len() as u64);
    let seq = state.seq;
    let mut sent = 0;
    let mut dropped = 0;
    state.subscribers.retain(|subscriber| {
        let update = TenantUpdate {
            tenant,
            seq,
            delta: coalesced.clone(),
        };
        match subscriber.try_send(update) {
            Ok(()) => {
                sent += 1;
                true
            }
            Err(TrySendError::Full(_)) => {
                // A slow bounded subscriber loses this update instead of
                // stalling ingestion; the seq gap tells it so.
                dropped += 1;
                true
            }
            Err(TrySendError::Disconnected(_)) => false,
        }
    });
    if dropped > 0 {
        mocp_obs::counter!("serve.fanout_dropped").add(dropped);
    }
    (sent, dropped)
}
