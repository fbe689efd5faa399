//! The global metric registry: names to leaked metric objects.
//!
//! Registration happens once per call site (the macros cache the
//! returned `&'static` reference in a `OnceLock`), so the registry mutex
//! is off every hot path. Metrics live for the process; [`reset_all`]
//! zeroes their values but never removes them.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::metrics::{Counter, Gauge, Histogram};
use crate::report::{MetricSample, MetricValue};

enum Entry {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl Entry {
    fn kind(&self) -> &'static str {
        match self {
            Entry::Counter(_) => "counter",
            Entry::Gauge(_) => "gauge",
            Entry::Histogram(_) => "histogram",
        }
    }
}

fn registry() -> &'static Mutex<BTreeMap<&'static str, Entry>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Returns the counter registered under `name`, creating it on first
/// use. Panics if `name` is already registered as a different kind.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut map = registry().lock().unwrap_or_else(|e| e.into_inner());
    let entry = map
        .entry(name)
        .or_insert_with(|| Entry::Counter(Box::leak(Box::new(Counter::new()))));
    match entry {
        Entry::Counter(c) => c,
        other => panic!(
            "metric `{name}` is registered as a {}, not a counter",
            other.kind()
        ),
    }
}

/// Returns the gauge registered under `name`, creating it on first use.
/// Panics if `name` is already registered as a different kind.
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut map = registry().lock().unwrap_or_else(|e| e.into_inner());
    let entry = map
        .entry(name)
        .or_insert_with(|| Entry::Gauge(Box::leak(Box::new(Gauge::new()))));
    match entry {
        Entry::Gauge(g) => g,
        other => panic!(
            "metric `{name}` is registered as a {}, not a gauge",
            other.kind()
        ),
    }
}

/// Returns the histogram registered under `name`, creating it on first
/// use. Panics if `name` is already registered as a different kind.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut map = registry().lock().unwrap_or_else(|e| e.into_inner());
    let entry = map
        .entry(name)
        .or_insert_with(|| Entry::Histogram(Box::leak(Box::new(Histogram::new()))));
    match entry {
        Entry::Histogram(h) => h,
        other => panic!(
            "metric `{name}` is registered as a {}, not a histogram",
            other.kind()
        ),
    }
}

/// Samples every registered metric, sorted by name (the registry is a
/// `BTreeMap`, so the order — and any table rendered from it — is
/// deterministic).
pub fn snapshot() -> Vec<MetricSample> {
    let map = registry().lock().unwrap_or_else(|e| e.into_inner());
    map.iter()
        .map(|(&name, entry)| MetricSample {
            name,
            value: match entry {
                Entry::Counter(c) => MetricValue::Counter(c.get()),
                Entry::Gauge(g) => MetricValue::Gauge(g.get()),
                Entry::Histogram(h) => MetricValue::Histogram(h.snapshot()),
            },
        })
        .collect()
}

/// Zeroes every registered metric (names stay registered). Call between
/// workloads to scope the next snapshot; not atomic with respect to
/// concurrent recorders.
pub fn reset_all() {
    let map = registry().lock().unwrap_or_else(|e| e.into_inner());
    for entry in map.values() {
        match entry {
            Entry::Counter(c) => c.reset(),
            Entry::Gauge(g) => g.reset(),
            Entry::Histogram(h) => h.reset(),
        }
    }
}
