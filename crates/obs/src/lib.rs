//! Zero-dependency observability for the MOCP stack: counters, gauges,
//! log-linear histograms and scoped span timing, all behind one cargo
//! feature.
//!
//! The paper's evaluation is *counted work* — labelling rounds, disabled
//! nodes, polygon sizes — and the runtime layers added around it (the
//! work-stealing pool, the incremental engine) have their own counted
//! work: steals, cache hits, fixpoint rounds. This crate gives every
//! such quantity a first-class exported metric:
//!
//! * [`counter!`] / [`gauge!`] / [`histogram!`] register a metric in a
//!   global registry on first use and cache the `&'static` handle per
//!   call site, so the hot path is one relaxed atomic op;
//! * [`Histogram`] is a log-linear (HDR-style) fixed-table histogram —
//!   16 linear sub-buckets per power of two, ≤ 6.25% relative error over
//!   the full `u64` range — with a [`LocalHistogram`] thread-local
//!   recorder that merges on flush;
//! * [`span!`] returns a guard that times its own scope into a
//!   `<name>.us` histogram and, when [`trace::start_capture`] is armed,
//!   emits Chrome trace-event begin/end pairs
//!   ([`trace::write_chrome_trace`] serializes them for
//!   `chrome://tracing` / Perfetto);
//! * [`snapshot`] / [`reset_all`] scope measurements (per workload, per
//!   run), and [`render_table`] formats them.
//!
//! # The `enabled` feature
//!
//! Without the `enabled` feature every type above is a zero-sized stub
//! and every call an inline no-op — instrumented crates depend on
//! `mocp_obs` unconditionally and pay nothing. Cargo feature unification
//! turns the whole build's instrumentation on at once: the facade
//! crate's `obs` feature forwards here, so `--features mocp/obs` (or
//! `-p experiments --features obs`, etc.) lights up every layer.
//!
//! ```
//! let trials = mocp_obs::counter!("docs.trials");
//! trials.inc();
//! let _span = mocp_obs::span!("docs.phase");
//! // ... timed work ...
//! drop(_span);
//! let table = mocp_obs::render_table(&mocp_obs::snapshot());
//! # let _ = table;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod report;

pub use report::{render_table, HistogramSnapshot, MetricSample, MetricValue};

#[cfg(feature = "enabled")]
mod metrics;
#[cfg(feature = "enabled")]
mod registry;
#[cfg(feature = "enabled")]
mod span;
#[cfg(feature = "enabled")]
pub mod trace;

#[cfg(feature = "enabled")]
pub use metrics::{Counter, Gauge, Histogram, LocalHistogram};
#[cfg(feature = "enabled")]
pub use registry::{counter, gauge, histogram, reset_all, snapshot};
#[cfg(feature = "enabled")]
pub use span::Span;

#[cfg(not(feature = "enabled"))]
mod noop;
#[cfg(not(feature = "enabled"))]
#[path = "noop_trace.rs"]
pub mod trace;

#[cfg(not(feature = "enabled"))]
pub use noop::{
    counter, gauge, histogram, reset_all, snapshot, Counter, Gauge, Histogram, LocalHistogram, Span,
};

/// True when this build carries the live implementation (the `enabled`
/// feature); false when every call site is a no-op stub.
pub const fn enabled() -> bool {
    cfg!(feature = "enabled")
}

/// Returns the counter named `$name`, registering it on first use and
/// caching the `&'static` handle at the call site.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static __OBS_COUNTER: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *__OBS_COUNTER.get_or_init(|| $crate::counter($name))
    }};
}

/// Returns the counter named `$name` (no-op stub: the `enabled` feature
/// is off).
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! counter {
    ($name:literal) => {
        $crate::counter($name)
    };
}

/// Returns the gauge named `$name`, registering it on first use and
/// caching the `&'static` handle at the call site.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static __OBS_GAUGE: ::std::sync::OnceLock<&'static $crate::Gauge> =
            ::std::sync::OnceLock::new();
        *__OBS_GAUGE.get_or_init(|| $crate::gauge($name))
    }};
}

/// Returns the gauge named `$name` (no-op stub: the `enabled` feature is
/// off).
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {
        $crate::gauge($name)
    };
}

/// Returns the histogram named `$name`, registering it on first use and
/// caching the `&'static` handle at the call site.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static __OBS_HISTOGRAM: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *__OBS_HISTOGRAM.get_or_init(|| $crate::histogram($name))
    }};
}

/// Returns the histogram named `$name` (no-op stub: the `enabled`
/// feature is off).
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {
        $crate::histogram($name)
    };
}

/// Starts a scoped span named `$name`: the returned guard records its
/// lifetime into the `<$name>.us` histogram on drop and emits a Chrome
/// trace begin/end pair while capture is armed. Bind it:
/// `let _span = span!("sweep.construct");`.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static __OBS_SPAN_HIST: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        $crate::Span::begin(
            $name,
            *__OBS_SPAN_HIST.get_or_init(|| $crate::histogram(concat!($name, ".us"))),
        )
    }};
}

/// Starts a scoped span named `$name` (no-op stub: the `enabled` feature
/// is off).
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::Span
    };
}
