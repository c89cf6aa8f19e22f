//! `engine-replay`: a seeded 64k-row IPv4 routing table with four designs
//! priced and four shards, answering one seeded query stream three ways:
//! indexed priority search (`TcamEngine::search`), aggregate-metered
//! replay and exact-metered replay (`pipeline::replay`).
//!
//! Set-up calibrates the designs on a fresh evaluator, generates the table
//! and the stream, and builds the engines; after it no transient runs. The
//! traced rounds replay the same stream and shard split through the public
//! kernels (`PackedQuery`, `BitPlaneTable`, `PrefixIndex`, `CostModel`) to
//! time packing, scanning and metering; the rest of each replay's wall
//! time is reported as merge.

use std::hint::black_box;
use std::time::Instant;

use ftcam_array::{ArrayModel, ArrayParams, RowCalibration};
use ftcam_cells::DesignKind;
use ftcam_core::{Evaluator, Executor};
use ftcam_engine::{
    pipeline, BitPlaneTable, EngineConfig, EngineStats, Metering, PackedQuery, PrefixIndex,
    TcamEngine, WorkloadReplay,
};
use ftcam_workloads::{
    derive_seed, IpRoutingWorkloadParams, MismatchHistogram, TernaryWord, ToggleStats,
};

use crate::metrics::Metrics;
use crate::trace::{self, Tracer};
use crate::{report, stats, Checks, Ctx, SetUp};

const ROWS: usize = 65_536;
const WIDTH: usize = 32;
const SHARDS: usize = 4;
const BATCH: usize = pipeline::DEFAULT_BATCH;
const DESIGNS: [DesignKind; 4] = [
    DesignKind::FeFet2T,
    DesignKind::EaSlGated,
    DesignKind::EaMlSegmented,
    DesignKind::EaFull,
];
/// Queries in the stream; search and aggregate replay run all of them.
const QUERIES: usize = 65_536;
/// Leading queries of the stream the exact replay runs.
const EXACT_QUERIES: usize = 256;
/// Queries checked against the golden model's priority search.
const SEARCH_SAMPLE: usize = 128;
/// Consecutive queries whose exact energy is checked against the array
/// model, and aggregate against exact.
const ENERGY_SAMPLE: usize = 64;
/// Seed domains of the two checked samples.
const SEARCH_SAMPLE_DOMAIN: u64 = 0x5EA2C4;
const ENERGY_SAMPLE_DOMAIN: u64 = 0xE4E26A;

/// Everything set-up produces.
struct Setup {
    calibrations: Vec<RowCalibration>,
    replay: WorkloadReplay,
    queries: Vec<TernaryWord>,
    aggregate: TcamEngine,
    exact: TcamEngine,
}

fn setup(seed: u64, tracer: &mut Tracer) -> Result<Setup, String> {
    let eval = Evaluator::standard().with_threads(1);
    let calibrations = DESIGNS
        .iter()
        .map(|&kind| tracer.span("array.calibrate", |_| eval.calibrations().get(kind, WIDTH)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let (replay, queries) = tracer.span("workloads.generate", |_| {
        let replay = WorkloadReplay::ip_routing(&IpRoutingWorkloadParams {
            entries: ROWS,
            queries: QUERIES,
            width: WIDTH,
            seed,
            ..IpRoutingWorkloadParams::default()
        });
        let queries = replay.queries(0..QUERIES as u64);
        (replay, queries)
    });
    let (aggregate, exact) = tracer.span("engine.build", |_| {
        let build = |metering| {
            calibrations.iter().fold(
                replay.engine(EngineConfig {
                    shards: SHARDS,
                    metering,
                    ..EngineConfig::default()
                }),
                TcamEngine::with_design,
            )
        };
        (build(Metering::Aggregate), build(Metering::Exact))
    });
    Ok(Setup {
        calibrations,
        replay,
        queries,
        aggregate,
        exact,
    })
}

/// Wall time of each public call of one round.
#[derive(Debug, Clone, Copy)]
struct Walls {
    search: f64,
    aggregate: f64,
    exact: f64,
}

/// What one round answers; identical in every round.
#[derive(Debug, Clone, PartialEq)]
struct Answers {
    search_hits: u64,
    aggregate: EngineStats,
    exact: EngineStats,
}

fn public_round(s: &Setup, tracer: &mut Tracer, exec: &Executor) -> (Walls, Answers) {
    let started = Instant::now();
    let search_hits = tracer.span("engine.search", |_| {
        s.queries
            .iter()
            .filter(|q| black_box(s.aggregate.search(q)).is_some())
            .count() as u64
    });
    let search = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let mut aggregate = tracer.span("engine.replay.aggregate", |_| {
        pipeline::replay(&s.aggregate, &s.queries, exec, BATCH)
    });
    let aggregate_wall = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let mut exact = tracer.span("engine.replay.exact", |_| {
        pipeline::replay(&s.exact, &s.queries[..EXACT_QUERIES], exec, BATCH)
    });
    let exact_wall = started.elapsed().as_secs_f64();
    aggregate.wall_nanos = 0;
    exact.wall_nanos = 0;
    (
        Walls {
            search,
            aggregate: aggregate_wall,
            exact: exact_wall,
        },
        Answers {
            search_hits,
            aggregate,
            exact,
        },
    )
}

/// One shard rebuilt from the public kernels, split as `TcamEngine::new`
/// splits rows.
struct KernelShard {
    table: BitPlaneTable,
    index: Option<PrefixIndex>,
}

fn kernel_shards(s: &Setup) -> Vec<KernelShard> {
    let table = &s.replay.table;
    let min_rows = EngineConfig::default().index_min_rows;
    (0..SHARDS)
        .map(|i| {
            let bp = BitPlaneTable::from_rows(table, i * ROWS / SHARDS..(i + 1) * ROWS / SHARDS);
            let index = if bp.len() >= min_rows {
                PrefixIndex::build(table, bp.row_ids())
            } else {
                None
            };
            KernelShard { table: bp, index }
        })
        .collect()
}

/// Per-shard priority match, through the index when it can answer.
fn first_match(shard: &KernelShard, q: &PackedQuery, answered: &mut bool) -> Option<u32> {
    match shard.index.as_ref().and_then(|idx| idx.first_match(q)) {
        Some(hit) => hit,
        None => {
            *answered = false;
            shard.table.first_match(q)
        }
    }
}

/// Packs a batch and chains its search-line toggles through `prev`.
fn pack(batch: &[TernaryWord], prev: &mut Option<PackedQuery>) -> (Vec<PackedQuery>, Vec<u32>) {
    let packed: Vec<PackedQuery> = batch.iter().map(PackedQuery::from_word).collect();
    let toggles = packed
        .iter()
        .map(|q| {
            let t = q.toggles_from(prev.as_ref());
            *prev = Some(q.clone());
            t
        })
        .collect();
    (packed, toggles)
}

/// Kernel replay of the search stream; returns (hits, index-answered
/// queries).
fn kernel_search(s: &Setup, shards: &[KernelShard], tracer: &mut Tracer) -> (u64, u64) {
    let (mut hits, mut answered_all) = (0, 0);
    let mut prev = None;
    for batch in s.queries.chunks(BATCH) {
        let (packed, _) = tracer.span("engine.search.pack", |_| pack(batch, &mut prev));
        let mut parts = Vec::with_capacity(shards.len());
        let mut answered = vec![true; packed.len()];
        for shard in shards {
            parts.push(tracer.span("engine.search.scan", |_| {
                packed
                    .iter()
                    .zip(answered.iter_mut())
                    .map(|(q, a)| first_match(shard, q, a))
                    .collect::<Vec<_>>()
            }));
        }
        for (j, a) in answered.iter().enumerate() {
            hits += u64::from(parts.iter().filter_map(|p| p[j]).min().is_some());
            answered_all += u64::from(*a);
        }
    }
    (hits, answered_all)
}

/// Kernel replay of a metered stream; returns per-design energy (J) and
/// hits, accumulated in the order `pipeline::replay` uses.
fn kernel_replay(
    engine: &TcamEngine,
    queries: &[TernaryWord],
    shards: &[KernelShard],
    exact: bool,
    tracer: &mut Tracer,
) -> (Vec<f64>, u64) {
    let [pack_span, scan_span, meter_span] = if exact {
        [
            "engine.exact.pack",
            "engine.exact.scan",
            "engine.exact.meter",
        ]
    } else {
        [
            "engine.aggregate.pack",
            "engine.aggregate.scan",
            "engine.aggregate.meter",
        ]
    };
    let designs = engine.designs();
    let mut energy = vec![0.0; designs.len()];
    let mut hits = 0;
    let mut prev = None;
    for batch in queries.chunks(BATCH) {
        let (packed, toggles) = tracer.span(pack_span, |_| pack(batch, &mut prev));
        // Per shard and query: (first match, matches, sum of mismatches,
        // mismatch histogram when exact).
        let mut parts = Vec::with_capacity(shards.len());
        for shard in shards {
            parts.push(tracer.span(scan_span, |_| {
                packed
                    .iter()
                    .map(|q| {
                        let first = first_match(shard, q, &mut true);
                        if exact {
                            let mut hist = vec![0u64; WIDTH + 1];
                            shard.table.histogram_into(q, &mut hist);
                            (first, 0, 0, hist)
                        } else {
                            let matches = match shard.index.as_ref().and_then(|i| i.match_count(q))
                            {
                                Some(c) => c,
                                None => shard.table.match_count(q),
                            };
                            (first, matches, shard.table.sum_mismatches(q), Vec::new())
                        }
                    })
                    .collect::<Vec<_>>()
            }));
        }
        let merged: Vec<(bool, u64, u64, Vec<u64>)> = (0..packed.len())
            .map(|j| {
                let mut hist = vec![0u64; if exact { WIDTH + 1 } else { 0 }];
                let (mut found, mut matches, mut sum_k) = (false, 0, 0);
                for p in &parts {
                    let (first, m, k, h) = &p[j];
                    found |= first.is_some();
                    matches += m;
                    sum_k += k;
                    for (a, b) in hist.iter_mut().zip(h) {
                        *a += b;
                    }
                }
                (found, matches, sum_k, hist)
            })
            .collect();
        tracer.span(meter_span, |_| {
            for ((q, t), (found, matches, sum_k, hist)) in packed.iter().zip(&toggles).zip(&merged)
            {
                hits += u64::from(*found);
                for (model, e) in designs.iter().zip(energy.iter_mut()) {
                    *e += if exact {
                        model.energy_from_hist(hist, q.definite_count(), *t)
                    } else {
                        model.energy_from_aggregate(*matches, *sum_k, q.definite_count(), *t)
                    };
                }
            }
        });
    }
    (energy, hits)
}

fn energies(stats: &EngineStats) -> Vec<f64> {
    stats.per_design.iter().map(|d| d.energy).collect()
}

/// Traced kernel replays of one round, checked against the public calls'
/// answers.
fn kernel_round(
    s: &Setup,
    shards: &[KernelShard],
    want: &Answers,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> u64 {
    let (hits, answered) = tracer.span("engine.kernel.search", |t| kernel_search(s, shards, t));
    checks.check(hits == want.search_hits, || {
        format!(
            "kernel search hits {hits} != TcamEngine::search hits {}",
            want.search_hits
        )
    });
    for (mode, engine, queries, stats) in [
        ("aggregate", &s.aggregate, &s.queries[..], &want.aggregate),
        ("exact", &s.exact, &s.queries[..EXACT_QUERIES], &want.exact),
    ] {
        let (energy, hits) = tracer.span(format!("engine.kernel.{mode}"), |t| {
            kernel_replay(engine, queries, shards, mode == "exact", t)
        });
        checks.check(energy == energies(stats) && hits == stats.hits, || {
            format!("{mode} kernel replay disagrees with pipeline::replay")
        });
    }
    answered
}

/// Checks a seeded sample against the golden model and the array model.
fn check_sample(s: &Setup, seed: u64, checks: &mut Checks) {
    let table = &s.replay.table;
    for i in 0..SEARCH_SAMPLE as u64 {
        let q = &s.queries[(derive_seed(seed, SEARCH_SAMPLE_DOMAIN, i) % QUERIES as u64) as usize];
        let (got, want) = (s.exact.search(q), table.search(q).map(|r| r as u32));
        checks.check(got == want, || {
            format!("search {q}: engine {got:?}, golden {want:?}")
        });
    }
    let start =
        (derive_seed(seed, ENERGY_SAMPLE_DOMAIN, 0) % (QUERIES - ENERGY_SAMPLE) as u64) as usize;
    let window = &s.queries[start..start + ENERGY_SAMPLE];
    let mut hist = MismatchHistogram::new(WIDTH);
    for q in window {
        for row in table.rows() {
            hist.record(row.mismatch_count(q));
        }
    }
    let toggles = ToggleStats::from_queries(window);
    let replay = |engine: &TcamEngine| {
        let mut session = engine.session();
        session.replay(window);
        session.finish()
    };
    let (exact, aggregate) = (replay(&s.exact), replay(&s.aggregate));
    for (kind, calib) in DESIGNS.iter().zip(&s.calibrations) {
        let golden = ArrayModel::new(ArrayParams::new(*kind, table.len(), WIDTH), calib.clone())
            .average_search_energy(&hist, Some(&toggles));
        let e = exact.energy_per_query(*kind).unwrap_or(f64::NAN);
        let a = aggregate.energy_per_query(*kind).unwrap_or(f64::NAN);
        let rel = (e - golden).abs() / golden;
        checks.check(rel < 1e-9, || {
            format!(
                "{}: exact {e:e} J vs array model {golden:e} J (rel {rel:e})",
                kind.key()
            )
        });
        let rel = (a - e).abs() / e;
        checks.check(rel < 0.10, || {
            format!(
                "{}: aggregate {a:e} J vs exact {e:e} J ({:.1}% off)",
                kind.key(),
                rel * 100.0
            )
        });
    }
}

/// Runs the workload.
pub fn run(
    ctx: &Ctx,
    tracer: &mut Tracer,
    checks: &mut Checks,
    m: &mut Metrics,
) -> Result<(), String> {
    let SetUp {
        value: s,
        median_s: setup_s,
        repeats: setups,
    } = ctx.set_up(tracer, |t| setup(ctx.seed, t))?;
    let shards = if ctx.trace {
        kernel_shards(&s)
    } else {
        Vec::new()
    };
    let exec = Executor::new(1);

    let mut walls: [Vec<Walls>; 2] = [Vec::new(), Vec::new()];
    let mut round_walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut first: Option<Answers> = None;
    let mut answered = 0;
    ctx.rounds(tracer, 1, |t, traced| {
        let started = Instant::now();
        let (w, answers) = t.span("engine.round", |t| public_round(&s, t, &exec));
        round_walls[usize::from(traced)].push(started.elapsed().as_secs_f64());
        walls[usize::from(traced)].push(w);
        let want = first.get_or_insert_with(|| answers.clone());
        checks.check(*want == answers, || {
            "a round answered differently from the first".into()
        });
        if traced {
            answered += t.span("engine.kernel", |t| {
                kernel_round(&s, &shards, want, t, checks)
            });
        }
    });
    check_sample(&s, ctx.seed, checks);

    let untraced = &walls[0];
    let median = |f: fn(&Walls) -> f64| stats::median(&untraced.iter().map(f).collect::<Vec<_>>());
    let (search_s, aggregate_s, exact_s) = (
        median(|w| w.search),
        median(|w| w.aggregate),
        median(|w| w.exact),
    );
    let qps = [
        ("search_qps", QUERIES as f64 / search_s),
        ("aggregate_qps", QUERIES as f64 / aggregate_s),
        ("exact_qps", EXACT_QUERIES as f64 / exact_s),
    ];
    for (name, v) in qps {
        report(format!(
            "{name} {v:.1} queries/s (median over {} untraced rounds)",
            untraced.len()
        ));
    }
    let a = first.expect("at least one round ran");
    report(format!(
        "{ROWS} rows x {WIDTH}, {SHARDS} shards, {} designs; {} of {QUERIES} queries hit; \
         pJ/query exact over {EXACT_QUERIES}: {}",
        DESIGNS.len(),
        a.search_hits,
        DESIGNS
            .iter()
            .map(|&k| format!(
                "{} {:.2}",
                k.key(),
                a.exact.pj_per_query(k).unwrap_or(f64::NAN)
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    report(format!(
        "round, untraced: {}",
        stats::summary(&round_walls[0])
    ));
    m.set("setup_s", setup_s);
    m.set("round_s", stats::min(&round_walls[0]));

    if ctx.trace {
        let n = walls[1].len() as f64;
        let spans = tracer.spans();
        let per_setup = |name: &str| trace::total_secs(spans, name) / setups as f64;
        m.set("array.calibrate_s", per_setup("array.calibrate"));
        m.set("array.calibrations", DESIGNS.len() as f64);
        m.set("workloads.generate_s", per_setup("workloads.generate"));
        m.set("engine.build_s", per_setup("engine.build"));
        let per_round = |name: &str| trace::total_secs(spans, name) / n;
        let public = [
            ("search", search_s),
            ("aggregate", aggregate_s),
            ("exact", exact_s),
        ];
        let mut totals = [0.0; 4];
        for (mode, wall) in public {
            let phases =
                ["pack", "scan", "meter"].map(|p| per_round(&format!("engine.{mode}.{p}")));
            let merge = wall - phases.iter().sum::<f64>();
            for (phase, (total, v)) in ["pack", "scan", "meter", "merge"]
                .iter()
                .zip(totals.iter_mut().zip(phases.iter().chain([&merge])))
            {
                *total += v;
                if !(mode == "search" && *phase == "meter") {
                    m.set(&format!("engine.{mode}.{phase}_s"), *v);
                }
            }
        }
        for (phase, v) in ["pack", "scan", "meter", "merge"].iter().zip(totals) {
            m.set(&format!("engine.{phase}_s"), v);
        }
        m.set(
            "engine.index_answer_ratio",
            answered as f64 / (n * QUERIES as f64),
        );
        for (name, v) in qps {
            m.set(&format!("engine.{name}"), v);
        }
        for (layer, secs) in trace::layer_self_times(spans, "engine.round") {
            m.set(&format!("{layer}.self_s"), secs / n);
        }
        // Overhead: the traced public calls against the untraced ones (the
        // kernel replays are extra work, not overhead).
        let traced_public = stats::median(
            &walls[1]
                .iter()
                .map(|w| w.search + w.aggregate + w.exact)
                .collect::<Vec<_>>(),
        );
        m.set(
            "trace.overhead_s",
            traced_public - (search_s + aggregate_s + exact_s),
        );
        m.set(
            "trace.spans",
            trace::count_under(spans, "engine.round") as f64 / n,
        );
    }
    Ok(())
}
