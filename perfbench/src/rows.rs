//! `row-search-write`: seeded single-row testbenches driven through
//! program, search and transient write.
//!
//! Six rows (2-FeFET, EA-full and EA-ML-segmented at widths 16 and 64)
//! each run the same seeded schedule every round: program a word, search
//! it at every mismatch count of a fixed list in seeded order and at
//! seeded positions, write a new word by transient pulses, and the same
//! again on the written word. Width 64 puts the solver on its
//! sparse backend; the writes are the transients the suites barely run.
//! Every search must decide as the golden model does, every write must
//! program every device, and the global solver counters must move exactly
//! as much as the testbenches' own counters.

use std::time::Instant;

use ftcam_cells::{DesignKind, RowTestbench, SearchTiming, WriteTiming};
use ftcam_core::Evaluator;
use ftcam_workloads::{derive_seed, Ternary, TernaryWord};

use crate::counters::Circuit;
use crate::metrics::Metrics;
use crate::trace::{self, Tracer};
use crate::{report, stats, Checks, Ctx, SetUp};

const DESIGNS: [DesignKind; 3] = [
    DesignKind::FeFet2T,
    DesignKind::EaFull,
    DesignKind::EaMlSegmented,
];
const WIDTHS: [usize; 2] = [16, 64];

/// Mismatch counts of the searches after each program or write.
const MISMATCHES: [usize; 6] = [0, 0, 1, 2, 4, 8];

/// One stored digit in this many is `X`.
const X_SHARE: usize = 4;

/// Program-or-write phases per row and round, each followed by one search
/// per entry of [`MISMATCHES`].
const PHASES: usize = 2;

/// Rounds needed so that each percentile has enough samples beyond it.
const MIN_WRITES: usize = 100;

/// A deterministic draw sequence from the workload seed.
struct Draws {
    seed: u64,
    domain: u64,
    next: u64,
}

impl Draws {
    fn new(seed: u64, domain: u64) -> Self {
        Self {
            seed,
            domain,
            next: 0,
        }
    }

    fn below(&mut self, n: usize) -> usize {
        self.next += 1;
        (derive_seed(self.seed, self.domain, self.next) % n as u64) as usize
    }

    /// A word with exactly `width / X_SHARE` wildcards at seeded positions
    /// and seeded definite digits elsewhere.
    fn stored_word(&mut self, width: usize) -> TernaryWord {
        let mut digits: Vec<Ternary> = (0..width)
            .map(|_| Ternary::from_bit(self.below(2) == 1))
            .collect();
        let mut free: Vec<usize> = (0..width).collect();
        for _ in 0..width / X_SHARE {
            digits[free.swap_remove(self.below(free.len()))] = Ternary::X;
        }
        TernaryWord::new(digits)
    }

    /// A definite query that differs from `stored` in exactly `k` of its
    /// definite digits (fewer if it has fewer).
    fn query(&mut self, stored: &TernaryWord, k: usize) -> TernaryWord {
        let mut digits: Vec<Ternary> = stored
            .iter()
            .map(|&d| match d {
                Ternary::X => Ternary::from_bit(self.below(2) == 1),
                d => d,
            })
            .collect();
        let mut definite: Vec<usize> = (0..digits.len())
            .filter(|&i| stored.get(i) != Ternary::X)
            .collect();
        for _ in 0..k.min(definite.len()) {
            let i = definite.swap_remove(self.below(definite.len()));
            digits[i] = digits[i].complement();
        }
        TernaryWord::new(digits)
    }
}

/// One operation of a row's schedule.
#[derive(Debug, Clone)]
enum Op {
    Program(TernaryWord),
    Search(TernaryWord),
    Write(TernaryWord),
}

/// The seeded schedule of one row: program a word, then [`PHASES`] times
/// search it once at every mismatch count (in seeded order) and write a
/// new word.
fn schedule(seed: u64, row: u64, width: usize) -> Vec<Op> {
    let mut d = Draws::new(seed, row);
    let mut stored = d.stored_word(width);
    let mut ops = vec![Op::Program(stored.clone())];
    for _ in 0..PHASES {
        let mut counts = MISMATCHES.to_vec();
        while !counts.is_empty() {
            let k = counts.swap_remove(d.below(counts.len()));
            ops.push(Op::Search(d.query(&stored, k)));
        }
        stored = d.stored_word(width);
        ops.push(Op::Write(stored.clone()));
    }
    ops
}

struct Row {
    label: String,
    tb: RowTestbench,
    ops: Vec<Op>,
}

fn testbench_stats(tb: &RowTestbench) -> Circuit {
    Circuit {
        steps: tb.step_stats(),
        solver: tb.solver_perf(),
        recovery: tb.recovery_stats(),
    }
}

fn setup(seed: u64, eval: &Evaluator, tracer: &mut Tracer) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (i, (&kind, &width)) in DESIGNS
        .iter()
        .flat_map(|k| WIDTHS.iter().map(move |w| (k, w)))
        .enumerate()
    {
        let ops = tracer.span("workloads.generate", |_| schedule(seed, i as u64, width));
        let tb = tracer
            .span("cells.build", |_| {
                RowTestbench::new(
                    kind.instantiate(),
                    eval.card().clone(),
                    eval.geometry().clone(),
                    width,
                )
            })
            .map_err(|e| format!("{} w{width}: {e}", kind.key()))?;
        rows.push(Row {
            label: format!("{} w{width}", kind.key()),
            tb,
            ops,
        });
    }
    Ok(rows)
}

/// Per-call latencies in milliseconds.
#[derive(Default)]
struct Samples {
    search_ms: Vec<f64>,
    write_ms: Vec<f64>,
}

fn round(
    rows: &mut [Row],
    tracer: &mut Tracer,
    checks: &mut Checks,
    samples: &mut Samples,
) -> Circuit {
    let search = SearchTiming::default();
    let write = WriteTiming::default();
    let mut tb_delta = Circuit::default();
    let before = Circuit::global();
    tracer.span("cells.round", |t| {
        for row in rows.iter_mut() {
            let tb_before = testbench_stats(&row.tb);
            for op in &row.ops {
                let started = Instant::now();
                match op {
                    Op::Program(word) => {
                        let done = t.span("cells.program", |_| row.tb.program_word(word));
                        checks.check(done.is_ok(), || {
                            format!("{}: program {word}: {done:?}", row.label)
                        });
                    }
                    Op::Search(query) => {
                        let outcome = t.span("cells.search", |_| row.tb.search(query, &search));
                        samples
                            .search_ms
                            .push(started.elapsed().as_secs_f64() * 1e3);
                        let golden = row.tb.golden_matches(query);
                        let ok = matches!(&outcome, Ok(o) if o.matched == golden);
                        checks.check(ok, || {
                            format!(
                                "{}: search {query} against {} (golden {golden}): {:?}",
                                row.label,
                                row.tb.stored_word(),
                                outcome.map(|o| o.matched)
                            )
                        });
                    }
                    Op::Write(word) => {
                        let outcome = t.span("cells.write", |_| row.tb.write_word(word, &write));
                        samples.write_ms.push(started.elapsed().as_secs_f64() * 1e3);
                        let ok = matches!(&outcome, Ok(o) if o.programmed_ok);
                        checks.check(ok, || {
                            format!(
                                "{}: write {word}: {:?}",
                                row.label,
                                outcome.map(|o| o.programmed_ok)
                            )
                        });
                    }
                }
            }
            tb_delta.add(&testbench_stats(&row.tb).since(&tb_before));
        }
    });
    let global = Circuit::global().since(&before);
    checks.check(global == tb_delta, || {
        format!(
            "global counter delta ({}) differs from the testbenches' ({})",
            global.summary(),
            tb_delta.summary()
        )
    });
    global
}

/// Runs the workload.
pub fn run(
    ctx: &Ctx,
    tracer: &mut Tracer,
    checks: &mut Checks,
    m: &mut Metrics,
) -> Result<(), String> {
    let eval = Evaluator::standard();
    let SetUp {
        value: mut rows,
        median_s: setup_s,
        repeats: setups,
    } = ctx.set_up(tracer, |t| setup(ctx.seed, &eval, t))?;
    let writes_per_round = rows
        .iter()
        .map(|r| r.ops.iter().filter(|o| matches!(o, Op::Write(_))).count())
        .sum::<usize>();

    let mut walls = [Vec::new(), Vec::new()];
    let mut samples = Samples::default();
    let mut traced_global = Circuit::default();
    let mut all_global = Circuit::default();
    let rounds = ctx.rounds(
        tracer,
        MIN_WRITES.div_ceil(writes_per_round),
        |t, traced| {
            let started = Instant::now();
            let global = round(&mut rows, t, checks, &mut samples);
            walls[usize::from(traced)].push(started.elapsed().as_secs_f64());
            all_global.add(&global);
            if traced {
                traced_global.add(&global);
            }
        },
    );

    let pct = |v: &[f64], p| stats::percentile(v, p).ok_or(format!("too few samples for p{p}"));
    let (s50, s90) = (
        pct(&samples.search_ms, 50.0)?,
        pct(&samples.search_ms, 90.0)?,
    );
    let (w50, w90) = (pct(&samples.write_ms, 50.0)?, pct(&samples.write_ms, 90.0)?);
    report(format!(
        "search_ms_p50 {s50:.3} ms, search_ms_p90 {s90:.3} ms over {} calls; \
         write_ms_p50 {w50:.3} ms, write_ms_p90 {w90:.3} ms over {} calls",
        samples.search_ms.len(),
        samples.write_ms.len()
    ));
    for row in &rows {
        report(format!("{}: {} unknowns", row.label, row.tb.node_count()));
    }
    let untraced = &walls[0];
    report(format!(
        "round ({} rows, {} searches, {writes_per_round} writes), untraced rounds: {}",
        rows.len(),
        rows.iter()
            .map(|r| r.ops.iter().filter(|o| matches!(o, Op::Search(_))).count())
            .sum::<usize>(),
        stats::summary(untraced)
    ));
    report(format!("over {rounds} rounds: {}", all_global.summary()));
    m.set("setup_s", setup_s);
    m.set("round_s", stats::min(untraced));

    if ctx.trace {
        let n = walls[1].len() as f64;
        let spans = tracer.spans();
        let setups = setups as f64;
        m.set(
            "cells.build_s",
            trace::total_secs(spans, "cells.build") / setups,
        );
        m.set(
            "workloads.generate_s",
            trace::total_secs(spans, "workloads.generate") / setups,
        );
        let (search_s, write_s) = (
            trace::total_secs(spans, "cells.search") / n,
            trace::total_secs(spans, "cells.write") / n,
        );
        m.set("cells.search_s", search_s);
        m.set("cells.write_s", write_s);
        m.set("cells.search_ms_p50", s50);
        m.set("cells.search_ms_p90", s90);
        m.set("cells.write_ms_p50", w50);
        m.set("cells.write_ms_p90", w90);
        m.set("cells.search_samples", samples.search_ms.len() as f64);
        m.set("cells.write_samples", samples.write_ms.len() as f64);
        traced_global.record(m, n, (search_s + write_s) * n);
        for (layer, secs) in trace::layer_self_times(spans, "cells.round") {
            m.set(&format!("{layer}.self_s"), secs / n);
        }
        m.set(
            "trace.overhead_s",
            stats::median(&walls[1]) - stats::median(untraced),
        );
        m.set(
            "trace.spans",
            trace::count_under(spans, "cells.round") as f64 / n,
        );
    }
    Ok(())
}
