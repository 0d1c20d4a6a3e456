//! `nasflat-perfbench`: end-to-end and per-layer benchmark of the NASFLAT
//! workspace over two workloads (see `README.md` in this directory).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fewshot_n1|serve_mixed|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name and unit, then one JSON result line. Exits
//! non-zero when a correctness check fails or a metric is missing.

mod fewshot;
mod flops;
mod nas;
mod report;
mod serve;
mod speed;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use report::{median, Outcome};

/// The workloads, each run in its own process.
pub const WORKLOADS: &[&str] = &["fewshot_n1", "serve_mixed"];

/// How many times set-up runs (once with `--smoke`); `setup_s` is the
/// median.
const SETUPS: usize = 3;

/// Everything a workload needs from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Traced run: per-layer timings and the overhead comparison.
    pub trace: bool,
    /// Tiny sizes, for the benchmark's own smoke test.
    pub smoke: bool,
    /// Deliberately corrupt one reference value (the gates must trip).
    pub corrupt: bool,
    /// Process start, as seen by `main`.
    pub start: Instant,
    /// Host-speed factor sampled at process start.
    pub start_factor: f64,
}

impl Ctx {
    /// How many times set-up runs.
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUPS
        }
    }

    /// The seed of the `i`-th operation (SplitMix64 over the workload seed).
    pub fn op_seed(&self, i: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Length of each measured phase: a traced run splits its time between
    /// an untraced and a traced phase.
    pub fn phase(&self) -> Duration {
        let s = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(s)
    }
}

/// Named wall times, summed over the calls timed into them.
pub type Spans = BTreeMap<&'static str, Duration>;

/// Runs `f` and adds its wall time to `spans[name]`.
pub fn span<R>(spans: &mut Spans, name: &'static str, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    *spans.entry(name).or_default() += t.elapsed();
    out
}

/// Per-repetition set-up timings: wall time of each repetition, the same at
/// the reference speed, and named sub-steps, reported as medians over the
/// repetitions. The host speed is sampled at the start and end of each
/// repetition and after each step; each stretch between two samples is
/// scaled by their mean.
#[derive(Debug)]
pub struct SetupLog {
    totals_s: Vec<f64>,
    scaled_s: Vec<f64>,
    steps_ms: BTreeMap<&'static str, Vec<f64>>,
    /// The last speed sample of the current repetition: when, and factor.
    mark: (Instant, f64),
    /// The current repetition's time so far at the reference speed, s.
    scaled: f64,
}

impl SetupLog {
    /// An empty log whose first repetition starts at process start.
    pub fn new(ctx: &Ctx) -> Self {
        SetupLog {
            totals_s: Vec::new(),
            scaled_s: Vec::new(),
            steps_ms: BTreeMap::new(),
            mark: (ctx.start, ctx.start_factor),
            scaled: 0.0,
        }
    }

    /// Starts a repetition: the first starts at process start, the others
    /// now, after sampling the host speed.
    pub fn begin(&mut self, ctx: &Ctx) -> Instant {
        self.scaled = 0.0;
        if self.totals_s.is_empty() {
            self.mark = (ctx.start, ctx.start_factor);
        } else {
            let factor = speed::factor();
            self.mark = (Instant::now(), factor);
        }
        self.mark.0
    }

    /// Samples the host speed and scales the stretch since the last sample.
    fn tick(&mut self) {
        let (at, before) = self.mark;
        let wall = at.elapsed().as_secs_f64();
        let after = speed::factor();
        self.scaled += wall * (before + after) / 2.0;
        self.mark = (Instant::now(), after);
    }

    /// Times `f` as the named set-up step of the current repetition.
    pub fn step<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let reps = self.totals_s.len();
        let v = self.steps_ms.entry(name).or_default();
        if v.len() <= reps {
            v.resize(reps + 1, 0.0);
        }
        v[reps] += ms;
        self.tick();
        out
    }

    /// Closes the current repetition, which began at `began`.
    pub fn finish(&mut self, began: Instant) {
        self.tick();
        self.totals_s.push(began.elapsed().as_secs_f64());
        self.scaled_s.push(self.scaled);
    }

    /// Median set-up time at the reference speed, seconds.
    pub fn setup_s(&self) -> f64 {
        median(&self.scaled_s)
    }

    /// Writes the median of every step into `layers`, with a note listing
    /// each repetition.
    pub fn report(&self, out: &mut Outcome) {
        for (name, v) in &self.steps_ms {
            out.layers.insert(name, median(v));
        }
        let list = |v: &[f64]| {
            v.iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        out.notes.push(format!(
            "set-up repetitions (s): wall {}; at reference speed {}",
            list(&self.totals_s),
            list(&self.scaled_s)
        ));
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: nasflat-perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> \
         [--smoke] [--corrupt-reference]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(start: Instant) -> (String, Ctx) {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: 0,
        seconds: 20.0,
        trace: false,
        smoke: false,
        corrupt: false,
        start,
        start_factor: f64::NAN,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => ctx.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => ctx.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                ctx.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => ctx.smoke = true,
            "--corrupt-reference" => ctx.corrupt = true,
            _ => usage(),
        }
    }
    if ctx.seconds.is_nan() || ctx.seconds <= 0.0 {
        usage();
    }
    (workload.unwrap_or_else(|| usage()), ctx)
}

/// Runs every workload in a child process of its own and forwards their
/// output; the last line counts the workloads run and failed.
fn run_all() -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut failed = 0;
    for w in WORKLOADS {
        let mut args = raw.clone();
        let pos = args.iter().position(|a| a == "--workload").expect("parsed");
        args[pos + 1] = (*w).to_string();
        let out = Command::new(&exe)
            .args(&args)
            .output()
            .expect("spawn workload process");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        let (result, rest) = lines.split_last().unwrap_or((&"", &[]));
        for line in rest {
            println!("{line}");
        }
        println!("[{w}] result {result}");
        failed += usize::from(!(out.status.success() && result.contains("\"correct\": true")));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}}}",
        failed == 0,
        WORKLOADS.len()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Pins this thread to the highest-numbered CPU it may run on; threads
/// spawned afterwards inherit the mask. Returns that CPU, or `None` when the
/// affinity calls fail (the run then goes on unpinned).
fn pin_to_one_cpu() -> Option<usize> {
    const WORDS: usize = 16; // a glibc `cpu_set_t`: 1024 bits
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let ok = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } == 0;
    ok.then_some(cpu)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let (workload, mut ctx) = parse_args(start);
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    // The whole workload runs on one CPU. In-process compute is
    // single-threaded anyway; for `serve_mixed`, keeping the client and
    // every server thread on one CPU halved p50 and p90 on a 2-vCPU host
    // and removed the cross-CPU wake-ups that host contention amplifies.
    let pinned = pin_to_one_cpu();
    // Every knob of the program is set explicitly below; an ambient
    // NASFLAT_* variable would silently change the workload.
    let ambient: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("NASFLAT_"))
        .collect();
    if !ambient.is_empty() {
        eprintln!("refusing to run with {} set", ambient.join(", "));
        return ExitCode::from(2);
    }
    if workload == "all" {
        return run_all();
    }
    let run: fn(&Ctx) -> Outcome = match workload.as_str() {
        "fewshot_n1" => fewshot::run,
        "serve_mixed" => serve::run,
        _ => usage(),
    };
    ctx.start_factor = speed::factor();
    println!(
        "[{workload}] seed {} seconds {} trace {} setups {} smoke {} | available_parallelism {cpus}, pinned to cpu {} | {} | profile {} | host speed factor at start {:.4}",
        ctx.seed,
        ctx.seconds,
        ctx.trace as u8,
        ctx.setups(),
        ctx.smoke,
        pinned.map_or("none".to_string(), |c| c.to_string()),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        ctx.start_factor,
    );
    // In-process compute runs on one thread: two-thread runs on a small
    // shared host spread far more from run to run.
    let out = nasflat::parallel::with_threads(1, || run(&ctx));
    let complete = report::print(&workload, &out, ctx.trace);
    if out.correct && complete {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
