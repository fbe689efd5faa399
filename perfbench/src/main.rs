//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <figures|fleet|routing|traffic> --seed <n> \
//!           --seconds <s> --trace <0|1> [--trace-dir <dir>]
//! ```
//!
//! Each workload makes its inputs from `--seed`, sets up (timed several
//! times, reported as the median `setup_s`), warms up, measures for about
//! `--seconds` seconds with tracing off, and then checks its outputs
//! outside the timed region. With `--trace 1` the run instead makes the
//! traced attribution pass: spans recorded around the benchmark's own
//! calls into each layer, reduced to the per-layer table. The last line
//! of standard output is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`).
//!
//! `BENCHMARK.json` lists `figures`, `fleet` and `traffic`. `routing` runs
//! here too, but its whole passes spread too widely from run to run to
//! bound (see `perfbench/README.md`).
//!
//! The bounded timings (`run_ms`, `op_us`) summarise every repetition in
//! the window. The shared host runs a repetition up to ~1.6x slower now and
//! then, within a run as well as between runs, so the fastest repetition
//! is a matter of luck. The sequential workloads (`figures`, `routing`,
//! `traffic`) and every set-up are timed in the process's CPU time rather
//! than on the wall clock (see [`cpu_ms`]), and the sequential workloads
//! report their mean repetition scaled by a calibration kernel read in the
//! same run, which cancels the host's drift (see [`calib`]). `fleet` is
//! multi-threaded and latency-bound, so it keeps the wall clock and
//! reports medians.
//!
//! Every workload runs the library's sequential path: the benchmark sets
//! `RAYON_NUM_THREADS=1`, so no global pool starts. The `nproc`-thread pool
//! of `third_party/rayon` can crash or hang: `Latch::set` publishes the
//! flag before it locks the latch's mutex, so a waiter may return and free
//! the job's stack frame first. The traced run therefore measures the pool
//! (`pool.speedup_*`) in child processes (`--pool-pass`), where a crash or
//! hang is a failed operation instead of a lost run. The fleet runs one
//! generator thread against `nproc - 1` service workers. No pass uses more
//! threads than `nproc`.

mod calib;
mod figures;
mod fleet;
mod openloop;
mod oracle;
mod report;
mod routing;
mod stats;
mod trace;
mod traffic;

use report::Report;
use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Settings shared by every workload.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measured window length.
    pub seconds: f64,
    /// Traced attribution run instead of the timed run.
    pub traced: bool,
    /// Host parallelism.
    pub nproc: usize,
    /// Where the traced run writes its spans.
    pub trace_dir: PathBuf,
}

impl Ctx {
    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Set-up runs at least this many times per run...
const SETUP_MIN_REPS: usize = 5;
/// ...and repeats while the repetitions took less than this in total...
const SETUP_MIN_TOTAL: Duration = Duration::from_secs(1);
/// ...up to this many times.
const SETUP_MAX_REPS: usize = 1001;

/// Times set-up `f` several times (see [`SETUP_MIN_REPS`]), with a reading
/// of the compute yardstick after each, and returns the last result, the
/// mean CPU time in reference seconds (see [`calib`]) and the repetition
/// count.
pub fn timed_setup<R>(mut f: impl FnMut() -> R) -> (R, f64, usize) {
    let mut yard = calib::Yardstick::new(calib::Kernel::Compute);
    let mut times = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while times.len() < SETUP_MIN_REPS
        || (started.elapsed() < SETUP_MIN_TOTAL && times.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let (r, ms) = cpu_ms(&mut f);
        last = Some(r);
        times.push(ms);
        yard.read();
    }
    let reps = times.len();
    let last = last.expect("at least one rep");
    (last, yard.scale(stats::mean(&times)) / 1e3, reps)
}

/// Wall time of `f` in milliseconds, with its result.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = std::hint::black_box(f());
    (r, start.elapsed().as_secs_f64() * 1e3)
}

/// CPU time the process (all its threads) used while `f` ran, in
/// milliseconds, with its result.
///
/// The sequential workloads time their repetitions with it: the wall clock
/// also counts the time other processes or the hypervisor's other guests
/// hold the core, which the process's CPU time leaves out. A change that
/// moves work onto more threads does not read as faster.
pub fn cpu_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = process_cpu_ns();
    let r = std::hint::black_box(f());
    (r, (process_cpu_ns() - start) as f64 / 1e6)
}

/// `CLOCK_PROCESS_CPUTIME_ID`, in nanoseconds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Elsewhere the wall clock stands in.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn process_cpu_ns() -> u64 {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs one instrumented pass `reps` times with tracing off and `reps`
/// times with it on, alternating, and returns the last traced pass's
/// tracer and result with the median traced and untraced wall times (ms).
pub fn traced_passes<R>(
    reps: usize,
    mut pass: impl FnMut(&mut trace::Tracer) -> R,
) -> (trace::Tracer, R, f64, f64) {
    let (mut off_ms, mut on_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..reps.max(1) {
        let mut off = trace::Tracer::new(false);
        off_ms.push(time_ms(|| pass(&mut off)).1);
        let mut on = trace::Tracer::new(true);
        let (r, ms) = time_ms(|| pass(&mut on));
        on_ms.push(ms);
        last = Some((on, r));
    }
    let (tracer, r) = last.expect("at least one pass");
    (tracer, r, stats::median(&on_ms), stats::median(&off_ms))
}

/// Closes a traced run: writes the spans out, adds the tracing overhead
/// (traced minus untraced wall time of the same instrumented pass) and the
/// span totals to the per-layer table, and checks that self times sum to
/// no more than the wall time the spans cover.
pub fn trace_summary(
    ctx: &Ctx,
    workload: &str,
    tracer: &trace::Tracer,
    traced_ms: f64,
    untraced_ms: f64,
    report: &mut Report,
) {
    let spans = tracer.spans();
    let self_sum_ns: u64 = trace::self_times(spans).iter().sum();
    let wall_ns = trace::wall_ns(spans);
    report.check(self_sum_ns <= wall_ns, || {
        format!("span self times ({self_sum_ns} ns) exceed their wall time ({wall_ns} ns)")
    });
    report.layer("trace.overhead_ms", traced_ms - untraced_ms, "ms", 1);
    report.layer("trace.wall_ms", wall_ns as f64 / 1e6, "ms", 1);
    report.layer("trace.self_sum_ms", self_sum_ns as f64 / 1e6, "ms", 1);
    let path = ctx
        .trace_dir
        .join(format!("{workload}-seed{}.json", ctx.seed));
    let written = std::fs::create_dir_all(&ctx.trace_dir).and_then(|()| tracer.write_json(&path));
    match written {
        Ok(()) => report
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => report
            .notes
            .push(format!("spans not written to {}: {e}", path.display())),
    }
}

/// How long a pool pass may take before its child process is killed.
const POOL_PASS_TIMEOUT: Duration = Duration::from_secs(60);

/// Median wall time (ms) of `reps` sweeps of `what` on a `threads`-thread
/// pool, measured in a child process (see the crate docs). An error when
/// the child crashed, hung or printed no time.
fn pool_pass_ms(ctx: &Ctx, what: &str, threads: usize, reps: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no executable path: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--pool-pass", what, "--threads", &threads.to_string()])
        .args(["--seed", &ctx.seed.to_string(), "--reps", &reps.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start the pool pass: {e}"))?;
    let deadline = Instant::now() + POOL_PASS_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{what} on {threads} thread(s) hung; killed"));
            }
        }
    };
    let mut out = String::new();
    if let Some(mut stdout) = child.stdout.take() {
        let _ = stdout.read_to_string(&mut out);
    }
    if !status.success() {
        return Err(format!("{what} on {threads} thread(s) died: {status}"));
    }
    out.lines()
        .last()
        .and_then(|l| l.trim().parse().ok())
        .ok_or_else(|| format!("{what} on {threads} thread(s) printed no time"))
}

/// Reports `pool.speedup_<what>`: the 1-thread over the `nproc`-thread
/// median sweep time, both from [`pool_pass_ms`]. A failed pass is a failed
/// operation and leaves the speed-up at 0.
pub fn pool_speedup(ctx: &Ctx, what: &str, reps: usize, report: &mut Report) {
    let timed = pool_pass_ms(ctx, what, 1, reps)
        .and_then(|t1| pool_pass_ms(ctx, what, ctx.nproc, reps).map(|tn| (t1, tn)));
    report.op(timed.is_ok());
    let speedup = match timed {
        Ok((t1, tn)) => {
            report.named(&format!("{what}_1thread_ms"), t1, "ms", reps);
            report.named(&format!("{what}_{}thread_ms", ctx.nproc), tn, "ms", reps);
            t1 / tn
        }
        Err(e) => {
            report.notes.push(format!("pool pass failed: {e}"));
            0.0
        }
    };
    report.layer(&format!("pool.speedup_{what}"), speedup, "ratio", reps);
}

/// The child side of [`pool_pass_ms`]: one warm-up and `reps` timed
/// sweeps on a pool of `threads` workers (at most the host's parallelism;
/// one thread is the library's sequential path); prints the median ms.
fn pool_pass(what: &str, seed: u64, threads: usize, reps: usize) -> Result<f64, String> {
    let sweep: Box<dyn Fn() + Sync> = match what {
        "figures2d" | "figures3d" => figures::pool_sweep(what == "figures3d", seed),
        "traffic" => traffic::pool_sweep(),
        other => return Err(format!("unknown pool pass {other}")),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads.clamp(1, nproc))
        .build()
        .expect("pool construction cannot fail");
    let times: Vec<f64> = pool.install(|| {
        sweep();
        (0..reps.max(1)).map(|_| time_ms(&sweep).1).collect()
    });
    Ok(stats::median(&times))
}

/// A `/proc/self/status` field in kB (Linux); 0 elsewhere.
pub fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "none (not a git checkout)".to_string())
}

enum Mode {
    Run {
        workload: String,
        seed: u64,
        seconds: f64,
        traced: bool,
        trace_dir: PathBuf,
    },
    PoolPass {
        what: String,
        seed: u64,
        threads: usize,
        reps: usize,
    },
}

fn parse_args() -> Result<Mode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => args
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or(format!("{flag} needs a value")),
        }
    };
    let number = |flag: &str| -> Result<Option<u64>, String> {
        value(flag)?
            .map(|s| s.parse().map_err(|_| format!("bad {flag} {s}")))
            .transpose()
    };
    let seed = number("--seed")?.ok_or("--seed is required")?;
    if let Some(what) = value("--pool-pass")? {
        return Ok(Mode::PoolPass {
            what: what.to_string(),
            seed,
            threads: number("--threads")?.unwrap_or(1) as usize,
            reps: number("--reps")?.unwrap_or(3).clamp(1, 100) as usize,
        });
    }
    let workload = value("--workload")?
        .ok_or("--workload is required")?
        .to_string();
    let seconds: f64 = match value("--seconds")? {
        Some(s) => s.parse().map_err(|_| format!("bad --seconds {s}"))?,
        None => 10.0,
    };
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    let traced = match value("--trace")?.unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let trace_dir = PathBuf::from(value("--trace-dir")?.unwrap_or(".bench_build/traces"));
    Ok(Mode::Run {
        workload,
        seed,
        seconds,
        traced,
        trace_dir,
    })
}

fn main() {
    // Before any thread starts: parallel calls without an explicit pool
    // run sequentially (see the crate docs).
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let mode = match parse_args() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if mocp_obs::enabled() {
        // Instrumentation inside the program would be timed with it.
        eprintln!("perfbench: refusing to run in an `obs` build; rebuild without the feature");
        std::process::exit(2);
    }
    let (workload, seed, seconds, traced, trace_dir) = match mode {
        Mode::PoolPass {
            what,
            seed,
            threads,
            reps,
        } => match pool_pass(&what, seed, threads, reps) {
            Ok(ms) => {
                println!("{ms}");
                return;
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            }
        },
        Mode::Run {
            workload,
            seed,
            seconds,
            traced,
            trace_dir,
        } => (workload, seed, seconds, traced, trace_dir),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed,
        seconds,
        traced,
        nproc,
        trace_dir,
    };
    let run: fn(&Ctx) -> Report = match workload.as_str() {
        "figures" => figures::run,
        "fleet" => fleet::run,
        "routing" => routing::run,
        "traffic" => traffic::run,
        other => {
            eprintln!("perfbench: unknown workload {other} (figures, fleet, routing, traffic)");
            std::process::exit(2);
        }
    };
    let mut report = run(&ctx);
    let peak_kb = report
        .peak_rss_kb
        .unwrap_or_else(|| proc_status_kb("VmHWM:"));
    if !ctx.traced {
        report.e2e("peak_rss_mb", peak_kb as f64 / 1024.0, "MB", 1);
    }
    report.notes.insert(
        0,
        format!(
            "seed {} | seconds {} | nproc {nproc} | git {} | profile {} | obs {}",
            ctx.seed,
            ctx.seconds,
            git_revision(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            mocp_obs::enabled()
        ),
    );
    print!("{}", report.print(&workload, ctx.traced));
}
