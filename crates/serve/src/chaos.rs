//! Deterministic fault injection for the service.
//!
//! A [`ChaosPlan`] is armed at
//! [`MonitorService::start_with_chaos`](crate::MonitorService::start_with_chaos)
//! and drives faults from *inside* the workers at exactly reproducible
//! points: the plan speaks in terms of the global dequeue counter (the
//! `n`-th batch any worker pulls off its queue), so a fixed plan plus a
//! fixed workload yields the same kill sites run after run, regardless
//! of thread scheduling jitter in between.
//!
//! Two externally held **gates** make the non-deterministic parts
//! testable too:
//!
//! * the *intake gate* stalls every worker right before it processes a
//!   batch — hold it to saturate the bounded queues and force
//!   `IngestError::Saturated`, release it to drain;
//! * the *recovery gate* stalls the supervisor right before it recovers
//!   a death — hold it to observe `Degraded`/`Rebuilding` health and
//!   snapshot-served queries for as long as the test needs.
//!
//! Injected worker panics carry the [`CHAOS_PANIC`] marker in their
//! payload; [`install_quiet_panic_hook`] keeps them out of test output
//! while letting genuine panics print as usual.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Panic-message marker of a chaos-injected worker kill.
pub const CHAOS_PANIC: &str = "chaos-injected";

/// How a [`KillSpec`] takes its worker down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillMode {
    /// The worker panics after dequeuing a batch but before touching the
    /// tenant — the engine stays coherent (`Degraded`), and recovery
    /// re-applies the batch the worker held.
    Clean,
    /// The worker panics *inside* the apply, after `after_events` of the
    /// batch's events have mutated the engine. The tenant is caught
    /// mid-flight (`Rebuilding`, shard lock poisoned); recovery rebuilds
    /// its engine from the tenant's fault set and re-applies the held
    /// batch.
    MidApply {
        /// Events of the fatal batch applied before the panic.
        after_events: usize,
    },
}

/// One scheduled worker kill: fires on the first batch dequeued at or
/// after the `after_batches`-th global dequeue. Each spec fires at most
/// once.
#[derive(Clone, Copy, Debug)]
pub struct KillSpec {
    /// Global dequeue count (across all workers) that arms this kill.
    pub after_batches: u64,
    /// How the worker dies.
    pub mode: KillMode,
}

/// A seeded schedule of worker kills.
#[derive(Clone, Debug, Default)]
pub struct ChaosPlan {
    /// The scheduled kills, in no particular order.
    pub kills: Vec<KillSpec>,
}

impl ChaosPlan {
    /// The empty plan: no faults (the service behaves as if started
    /// plainly, minus a few atomic reads per batch).
    pub fn none() -> Self {
        ChaosPlan { kills: Vec::new() }
    }

    /// A deterministic plan derived from `seed`: `kills` worker kills at
    /// dequeue counts spread over `(0, max_batch]`, each mid-apply with
    /// probability `mid_fraction` (panicking after 0..4 events of the
    /// fatal batch), clean otherwise.
    pub fn seeded(seed: u64, kills: usize, max_batch: u64, mid_fraction: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_5C4A_05C4_A05C);
        let span = max_batch.max(1);
        let kills = (0..kills)
            .map(|_| KillSpec {
                after_batches: rng.gen_range(1..span + 1),
                mode: if rng.gen_bool(mid_fraction.clamp(0.0, 1.0)) {
                    KillMode::MidApply {
                        after_events: rng.gen_range(0..4usize),
                    }
                } else {
                    KillMode::Clean
                },
            })
            .collect();
        ChaosPlan { kills }
    }
}

/// A barrier a test can close and open: workers (or the supervisor)
/// entering a closed gate block until it opens or the service shuts
/// down.
#[derive(Default)]
struct Gate {
    closed: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn hold(&self) {
        *self.closed.lock().unwrap_or_else(PoisonError::into_inner) = true;
    }

    fn release(&self) {
        *self.closed.lock().unwrap_or_else(PoisonError::into_inner) = false;
        self.opened.notify_all();
    }

    /// Blocks while the gate is closed; `shutting_down` overrides the
    /// gate so shutdown never deadlocks on a test that forgot to release.
    fn wait(&self, shutting_down: &std::sync::atomic::AtomicBool) {
        let mut closed = self.closed.lock().unwrap_or_else(PoisonError::into_inner);
        while *closed && !shutting_down.load(Ordering::SeqCst) {
            closed = self
                .opened
                .wait(closed)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn notify(&self) {
        self.opened.notify_all();
    }
}

/// The live fault-injection surface of a chaos-started service, shared
/// between the test (holding/releasing gates, reading counters) and the
/// workers/supervisor (consulting the plan).
pub struct ChaosControl {
    enabled: bool,
    batches: AtomicU64,
    kills: Mutex<Vec<KillSpec>>,
    kills_fired: AtomicU64,
    intake: Gate,
    recovery: Gate,
}

impl ChaosControl {
    pub(crate) fn new(plan: ChaosPlan) -> Self {
        ChaosControl {
            enabled: !plan.kills.is_empty(),
            batches: AtomicU64::new(0),
            kills: Mutex::new(plan.kills),
            kills_fired: AtomicU64::new(0),
            intake: Gate::default(),
            recovery: Gate::default(),
        }
    }

    /// An always-open control for plainly started services.
    #[cfg(test)]
    fn inert() -> Self {
        Self::new(ChaosPlan::none())
    }

    /// True when the plan schedules at least one fault (workers consult
    /// the plan per batch only in this case; gates work either way).
    pub fn is_armed(&self) -> bool {
        self.enabled
    }

    /// Closes the intake gate: every worker blocks before processing its
    /// next batch, so bounded queues fill and ingest saturates.
    pub fn hold_intake(&self) {
        self.intake.hold();
    }

    /// Reopens the intake gate.
    pub fn release_intake(&self) {
        self.intake.release();
    }

    /// Closes the recovery gate: the supervisor blocks before recovering
    /// the next worker death, freezing `Degraded`/`Rebuilding` states
    /// for observation.
    pub fn hold_recovery(&self) {
        self.recovery.hold();
    }

    /// Reopens the recovery gate.
    pub fn release_recovery(&self) {
        self.recovery.release();
    }

    /// Worker kills fired so far.
    pub fn kills_fired(&self) -> u64 {
        self.kills_fired.load(Ordering::SeqCst)
    }

    /// Global batches dequeued so far (fault-armed services only).
    pub fn batches_dequeued(&self) -> u64 {
        self.batches.load(Ordering::SeqCst)
    }

    /// Called by a worker for each dequeued batch: waits out the intake
    /// gate, bumps the global counter, and claims at most one scheduled
    /// kill whose threshold has passed. Returns the kill to execute, if
    /// any.
    pub(crate) fn on_dequeue(
        &self,
        shutting_down: &std::sync::atomic::AtomicBool,
    ) -> Option<KillMode> {
        self.intake.wait(shutting_down);
        let batch = self.batches.fetch_add(1, Ordering::SeqCst) + 1;
        let mut kills = self.kills.lock().unwrap_or_else(PoisonError::into_inner);
        let due = kills.iter().position(|k| k.after_batches <= batch)?;
        let kill = kills.swap_remove(due);
        self.kills_fired.fetch_add(1, Ordering::SeqCst);
        Some(kill.mode)
    }

    /// Called by the supervisor before recovering a death.
    pub(crate) fn wait_recovery_gate(&self, shutting_down: &std::sync::atomic::AtomicBool) {
        self.recovery.wait(shutting_down);
    }

    /// Wakes every gate waiter at shutdown (the gates re-check the
    /// shutdown flag and fall through).
    pub(crate) fn notify_shutdown(&self) {
        self.intake.notify();
        self.recovery.notify();
    }
}

/// Installs a process-wide panic hook that suppresses chaos-injected
/// worker panics (payloads containing [`CHAOS_PANIC`]) and defers to the
/// previous hook for everything else. Idempotent enough for tests:
/// installing it twice just nests two filters.
pub fn install_quiet_panic_hook() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.contains(CHAOS_PANIC))
            .or_else(|| {
                info.payload()
                    .downcast_ref::<String>()
                    .map(|s| s.contains(CHAOS_PANIC))
            })
            .unwrap_or(false);
        if !injected {
            previous(info);
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn seeded_plans_are_reproducible_and_in_range() {
        let a = ChaosPlan::seeded(42, 5, 100, 0.5);
        let b = ChaosPlan::seeded(42, 5, 100, 0.5);
        assert_eq!(a.kills.len(), 5);
        for (x, y) in a.kills.iter().zip(&b.kills) {
            assert_eq!(x.after_batches, y.after_batches);
            assert_eq!(x.mode, y.mode);
            assert!((1..=100).contains(&x.after_batches));
        }
        let c = ChaosPlan::seeded(43, 5, 100, 0.5);
        assert!(
            a.kills
                .iter()
                .zip(&c.kills)
                .any(|(x, y)| x.after_batches != y.after_batches || x.mode != y.mode),
            "different seeds differ"
        );
        assert!(ChaosPlan::seeded(7, 3, 50, 0.0)
            .kills
            .iter()
            .all(|k| k.mode == KillMode::Clean));
        assert!(ChaosPlan::seeded(7, 3, 50, 1.0)
            .kills
            .iter()
            .all(|k| matches!(k.mode, KillMode::MidApply { .. })));
    }

    #[test]
    fn kills_fire_once_at_their_threshold() {
        let control = ChaosControl::new(ChaosPlan {
            kills: vec![KillSpec {
                after_batches: 3,
                mode: KillMode::Clean,
            }],
        });
        let down = AtomicBool::new(false);
        assert_eq!(control.on_dequeue(&down), None);
        assert_eq!(control.on_dequeue(&down), None);
        assert_eq!(control.on_dequeue(&down), Some(KillMode::Clean));
        assert_eq!(control.on_dequeue(&down), None, "each kill fires once");
        assert_eq!(control.kills_fired(), 1);
        assert_eq!(control.batches_dequeued(), 4);
    }

    #[test]
    fn held_gate_blocks_until_released_or_shutdown() {
        let control = std::sync::Arc::new(ChaosControl::inert());
        control.hold_intake();
        let down = std::sync::Arc::new(AtomicBool::new(false));
        let (c, d) = (
            std::sync::Arc::clone(&control),
            std::sync::Arc::clone(&down),
        );
        let waiter = std::thread::spawn(move || {
            c.on_dequeue(&d);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!waiter.is_finished(), "gate held");
        control.release_intake();
        waiter.join().unwrap();

        // Shutdown overrides a held gate.
        control.hold_recovery();
        down.store(true, Ordering::SeqCst);
        control.notify_shutdown();
        control.wait_recovery_gate(&down); // must not block
    }
}
