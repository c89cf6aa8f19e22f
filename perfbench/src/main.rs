//! End-to-end and per-layer benchmark of the ftcam workspace.
//!
//! ```text
//! ftcam-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ftcam-perfbench --record-reference
//! ```
//!
//! Runs one workload for `S` seconds on one executor thread, checks its
//! outputs, prints a human-readable report (lines starting with `#`) and,
//! as the last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones, measured
//! untraced; with `--trace 1` they are the per-layer ones, from rounds that
//! alternate untraced and traced, and the spans are written to
//! `perfbench/traces/`. `--record-reference` regenerates the stored suite
//! artefacts the suite workloads are checked against. See `README.md`.

#![forbid(unsafe_code)]

mod counters;
mod engine;
mod metrics;
mod reference;
mod rows;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::Metrics;
use trace::Tracer;

/// The workloads.
pub const WORKLOADS: [&str; 4] = [
    "suite-fixed",
    "suite-adaptive",
    "row-search-write",
    "engine-replay",
];

/// The seed runs use unless told otherwise.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of tuning, for rechecking a claim on unseen inputs.
pub const HELD_OUT_SEED: u64 = 9_001;

/// Set-up runs at least this often, and until it has taken
/// [`SETUP_MIN_SECONDS`]; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// See [`SETUP_REPEATS`]: cheap set-ups repeat until this much time has
/// passed, so that their median is steady.
pub const SETUP_MIN_SECONDS: f64 = 0.25;

/// What [`Ctx::set_up`] returns.
pub struct SetUp<T> {
    /// The last set-up's result.
    pub value: T,
    /// Median set-up time.
    pub median_s: f64,
    /// How often set-up ran.
    pub repeats: usize,
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Ctx {
    /// Runs set-up repeatedly (see [`SETUP_REPEATS`]), traced in a traced
    /// run.
    pub fn set_up<T>(
        &self,
        tracer: &mut Tracer,
        mut setup: impl FnMut(&mut Tracer) -> Result<T, String>,
    ) -> Result<SetUp<T>, String> {
        tracer.set_enabled(self.trace);
        let started = Instant::now();
        let mut times = Vec::new();
        let mut value = None;
        while times.len() < SETUP_REPEATS || started.elapsed().as_secs_f64() < SETUP_MIN_SECONDS {
            let t = Instant::now();
            value = Some(setup(tracer)?);
            times.push(t.elapsed().as_secs_f64());
        }
        tracer.set_enabled(false);
        Ok(SetUp {
            value: value.expect("set-up ran at least once"),
            median_s: stats::median(&times),
            repeats: times.len(),
        })
    }

    /// Runs rounds until `seconds` have passed and at least `min_rounds`
    /// ran. In a traced run, odd rounds are traced and even rounds not, so
    /// both kinds run at least once. Returns the number of rounds.
    pub fn rounds(
        &self,
        tracer: &mut Tracer,
        min_rounds: usize,
        mut round: impl FnMut(&mut Tracer, bool),
    ) -> usize {
        let min_rounds = if self.trace {
            min_rounds.max(2)
        } else {
            min_rounds.max(1)
        };
        let budget = Duration::from_secs_f64(self.seconds);
        let start = Instant::now();
        let mut n = 0;
        while n < min_rounds || start.elapsed() < budget {
            let traced = self.trace && n % 2 == 1;
            tracer.set_enabled(traced);
            round(tracer, traced);
            n += 1;
        }
        tracer.set_enabled(false);
        n
    }
}

/// Correctness checks counted as operations.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose output was wrong or that failed.
    pub failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Counts one checked operation, recording `what` when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// Prints one report line.
pub fn report(line: impl AsRef<str>) {
    println!("# {}", line.as_ref());
}

fn usage() -> String {
    format!(
        "usage: ftcam-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      ftcam-perfbench --record-reference\n\
         workloads: {}\ndefault seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED}",
        WORKLOADS.join(" ")
    )
}

fn parse_args() -> Result<Option<Ctx>, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--record-reference" => return Ok(None),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Some(Ctx {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(Some(ctx)) => ctx,
        Ok(None) => return record_reference(),
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    report(format!(
        "ftcam benchmark: workload {}, seed {}, {} s, trace {}, 1 executor thread, {} cores visible",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        std::thread::available_parallelism().map_or(1, usize::from)
    ));
    let mut checks = Checks::default();
    let mut m = Metrics::default();
    let mut tracer = Tracer::new(false);
    let outcome = match ctx.workload.as_str() {
        "suite-fixed" => suite::run(&ctx, false, &mut tracer, &mut checks, &mut m),
        "suite-adaptive" => suite::run(&ctx, true, &mut tracer, &mut checks, &mut m),
        "row-search-write" => rows::run(&ctx, &mut tracer, &mut checks, &mut m),
        "engine-replay" => engine::run(&ctx, &mut tracer, &mut checks, &mut m),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = outcome {
        eprintln!("{}: {e}", ctx.workload);
        return ExitCode::FAILURE;
    }
    m.set("peak_rss_mb", metrics::peak_rss_mb());
    let listed = if ctx.trace {
        let path = trace_path(&ctx);
        if let Err(e) = tracer.write_jsonl(&path, &ctx.workload) {
            eprintln!("writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        report(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        ));
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    for (name, unit) in &listed {
        report(format!("{name} = {} {unit}", m.get(name)));
    }
    for f in &checks.failures {
        report(format!("FAILED: {f}"));
    }
    report(format!(
        "failed / attempted: {} / {}",
        checks.failed, checks.attempted
    ));
    println!(
        "{}",
        m.result_line(&listed, checks.attempted, checks.failed)
    );
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn trace_path(ctx: &Ctx) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.jsonl", ctx.workload, ctx.seed))
}

fn record_reference() -> ExitCode {
    for (workload, adaptive) in [("suite-fixed", false), ("suite-adaptive", true)] {
        match suite::reference_artifacts(adaptive)
            .and_then(|a| reference::save(workload, &a).map_err(|e| e.to_string()))
        {
            Ok(path) => report(format!(
                "{workload}: reference written to {}",
                path.display()
            )),
            Err(e) => {
                eprintln!("{workload}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
