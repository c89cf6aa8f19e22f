//! `suite-fixed` and `suite-adaptive`: the quick suite as
//! `experiments --threads 1` runs it (16 drivers plus e17) on a fresh
//! evaluator per round, with fixed or adaptive time stepping.
//!
//! The drivers use their own fixed presets, so the seed changes nothing
//! here. Each artefact is checked against the stored reference, and the
//! solver's global counter delta over a round must equal the sum of the
//! artefacts' own `ExecStats`.

use std::time::Instant;

use ftcam_cells::StepControl;
use ftcam_core::{experiments, Artifact, CacheStats, Evaluator, ExecStats};

use crate::counters::Circuit;
use crate::metrics::{suite_ids, Metrics};
use crate::trace::{self, Tracer};
use crate::{reference, report, stats, Checks, Ctx, SetUp};

fn evaluator(adaptive: bool) -> Evaluator {
    let eval = Evaluator::standard().with_threads(1);
    if adaptive {
        eval.with_step_control(StepControl::adaptive())
    } else {
        eval
    }
}

fn run_one(eval: &Evaluator, id: &str) -> Result<Artifact, String> {
    let artifact = if id == "e17" {
        ftcam_engine::experiments::run_instrumented(eval, false)
    } else {
        experiments::run_by_id(eval, id, false)
    };
    artifact.map_err(|e| e.to_string())
}

/// One suite round: every experiment on a fresh evaluator.
struct Round {
    wall: f64,
    artifacts: Vec<(&'static str, Result<Artifact, String>)>,
    global: Circuit,
}

fn round(adaptive: bool, tracer: &mut Tracer) -> Round {
    let started = Instant::now();
    let eval = evaluator(adaptive);
    let before = Circuit::global();
    let artifacts = tracer.span("core.suite", |t| {
        suite_ids()
            .into_iter()
            .map(|id| {
                (
                    id,
                    t.span(format!("core.experiment.{id}"), |_| run_one(&eval, id)),
                )
            })
            .collect()
    });
    Round {
        global: Circuit::global().since(&before),
        wall: started.elapsed().as_secs_f64(),
        artifacts,
    }
}

/// The artefacts the reference is recorded from (one fixed or adaptive
/// suite round).
pub fn reference_artifacts(adaptive: bool) -> Result<Vec<Artifact>, String> {
    round(adaptive, &mut Tracer::new(false))
        .artifacts
        .into_iter()
        .map(|(id, a)| {
            a.map(|mut a| {
                a.clear_exec();
                a
            })
            .map_err(|e| format!("{id}: {e}"))
        })
        .collect()
}

/// Sums of the per-artefact execution statistics of one or more rounds.
#[derive(Clone, Copy, Default)]
struct ExecTotals {
    jobs: u64,
    run_nanos: u64,
    assemble_nanos: u64,
    cache: CacheStats,
    circuit: Circuit,
}

impl ExecTotals {
    fn add(&mut self, s: &ExecStats) {
        self.absorb(&ExecTotals {
            jobs: s.jobs,
            run_nanos: s.run_nanos,
            assemble_nanos: s.assemble_nanos,
            cache: s.cache,
            circuit: Circuit {
                steps: s.steps,
                solver: s.solver,
                recovery: s.recovery,
            },
        });
    }

    fn absorb(&mut self, o: &ExecTotals) {
        self.jobs += o.jobs;
        self.run_nanos += o.run_nanos;
        self.assemble_nanos += o.assemble_nanos;
        self.cache.hits += o.cache.hits;
        self.cache.misses += o.cache.misses;
        self.cache.calibrations += o.cache.calibrations;
        self.cache.calibrate_nanos += o.cache.calibrate_nanos;
        self.circuit.add(&o.circuit);
    }
}

/// Runs a suite workload.
pub fn run(
    ctx: &Ctx,
    adaptive: bool,
    tracer: &mut Tracer,
    checks: &mut Checks,
    m: &mut Metrics,
) -> Result<(), String> {
    report("suite drivers use their fixed quick presets; the seed does not change their inputs");
    let SetUp {
        value: expected,
        median_s: setup_s,
        ..
    } = ctx.set_up(tracer, |_| reference::load(&ctx.workload))?;
    let ids = suite_ids();
    if expected.len() != ids.len() {
        return Err(format!(
            "reference holds {} artefacts, not {}",
            expected.len(),
            ids.len()
        ));
    }

    let mut walls = [Vec::new(), Vec::new()];
    let mut traced_totals = ExecTotals::default();
    let mut all_global = Circuit::default();
    let rounds = ctx.rounds(tracer, 1, |t, traced| {
        let r = round(adaptive, t);
        walls[usize::from(traced)].push(r.wall);
        let mut totals = ExecTotals::default();
        for ((id, artifact), want) in r.artifacts.iter().zip(&expected) {
            match artifact {
                Ok(a) => {
                    totals.add(a.exec().expect("instrumented runs attach exec stats"));
                    let diffs = reference::mismatches(want, a);
                    checks.check(diffs.is_empty(), || format!("{id}: {}", diffs.join("; ")));
                }
                Err(e) => checks.check(false, || format!("{id}: {e}")),
            }
        }
        checks.check(totals.circuit == r.global, || {
            format!(
                "global counter delta ({}) differs from the artefacts' sum ({})",
                r.global.summary(),
                totals.circuit.summary()
            )
        });
        all_global.add(&r.global);
        if traced {
            traced_totals.absorb(&totals);
        }
    });

    let untraced = &walls[0];
    report(format!(
        "suite_s (16 quick drivers + e17, fresh evaluator), untraced rounds: {}",
        stats::summary(untraced)
    ));
    report(format!("over {rounds} rounds: {}", all_global.summary()));
    m.set("setup_s", setup_s);
    m.set("round_s", stats::min(untraced));

    if ctx.trace {
        let n = walls[1].len() as f64;
        let spans = tracer.spans();
        for id in &ids {
            let name = format!("core.experiment.{id}");
            m.set(&format!("{name}_s"), trace::total_secs(spans, &name) / n);
        }
        let t = &traced_totals;
        m.set("core.exec.jobs", t.jobs as f64 / n);
        m.set("core.exec.run_s", t.run_nanos as f64 * 1e-9 / n);
        m.set("core.exec.assemble_s", t.assemble_nanos as f64 * 1e-9 / n);
        m.set("array.calibrations", t.cache.calibrations as f64 / n);
        m.set(
            "array.calibrate_s",
            t.cache.calibrate_nanos as f64 * 1e-9 / n,
        );
        let lookups = t.cache.hits + t.cache.misses;
        if lookups > 0 {
            m.set(
                "array.cache_hit_ratio",
                t.cache.hits as f64 / lookups as f64,
            );
        }
        t.circuit
            .record(m, n, trace::total_secs(spans, "core.suite"));
        for (layer, secs) in trace::layer_self_times(spans, "core.suite") {
            m.set(&format!("{layer}.self_s"), secs / n);
        }
        m.set(
            "trace.overhead_s",
            stats::median(&walls[1]) - stats::median(untraced),
        );
        m.set(
            "trace.spans",
            trace::count_under(spans, "core.suite") as f64 / n,
        );
    }
    Ok(())
}
