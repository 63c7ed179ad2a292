//! The traced run: per-layer numbers from spans the benchmark records around its own
//! calls into each layer.
//!
//! 1. A reference in-process sweep through the engine gives every cell's `run_cell_in`
//!    result and wall clock (`engine.cell_s`, `engine.pool_busy`).
//! 2. The same grid on the process backend must give the same count digest
//!    (`backend.process_over_inprocess`, `backend.rescued_cells`).
//! 3. A hand-driven sweep reproduces `run_cell_in` through the public layer calls, with a
//!    span around each: `InstanceKey::realize` once per distinct instance (local-graphs),
//!    the black box's `build` + `execute` (local-runtime), `Graph::line_graph` and
//!    `solve_in` (local-core), and the validators. Its rounds and messages must equal the
//!    reference cell's.
//! 4. The reference cells go through the result wire (serde_json), the store codec and a
//!    fresh `BinaryStore` (append, reopen, columnar scan, summary fold, warm re-sweep).
//!
//! Spans (name, start, end, parent, cell id) stay in per-thread vectors and are written
//! once, at the end, to a tab-separated file.

use crate::workloads::{self, BackendKind, Stamped, Workload, WORKERS};
use crate::{Metric, Outcome};
use local_algos::checkers;
use local_algos::edge_coloring::LineGraphEdgeColoring;
use local_algos::mis::LubyMis;
use local_engine::store::{decode_cell_columns, encode_cell_result};
use local_engine::{
    CellColumns, CellResult, CellShard, CostModel, GroupSummary, ResultStore, Scenario,
    SummaryAccumulator, Sweep,
};
use local_graphs::{GraphParams, InstanceKey};
use local_runtime::{DynAlgorithm, Graph, GraphAlgorithm, Session};
use local_uniform::catalog;
use local_uniform::problem::{MatchingProblem, MisProblem, Problem};
use serde::Deserialize;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

const NONE: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the run's trace epoch; `parent` indexes
/// the same thread's span vector.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    cell: u32,
}

/// A per-thread span recorder.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, cell: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: parent.map_or(NONE, |p| p as u32),
            cell: cell.map_or(NONE, |c| c as u32),
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span named `name`, child of `parent`.
    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let cell = self.spans[parent].cell;
        let id = self.open(name, Some(parent), (cell != NONE).then_some(cell as usize));
        let out = f();
        self.close(id);
        out
    }
}

/// The deterministic counts of one cell, as the layer calls produced them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    uniform_rounds: u64,
    uniform_messages: u64,
    nonuniform_rounds: u64,
    nonuniform_messages: u64,
    subiterations: u64,
    valid: bool,
    solved: bool,
}

impl Counts {
    fn of(cell: &CellResult) -> Counts {
        Counts {
            uniform_rounds: cell.uniform_rounds,
            uniform_messages: cell.uniform_messages,
            nonuniform_rounds: cell.nonuniform_rounds,
            nonuniform_messages: cell.nonuniform_messages,
            subiterations: cell.subiterations,
            valid: cell.valid,
            solved: cell.solved,
        }
    }
}

/// What the uniform drivers report beyond the counts.
#[derive(Debug, Clone, Copy, Default)]
struct DriverTimes {
    attempt_micros: u64,
    prune_micros: u64,
}

fn units(n: usize) -> Vec<()> {
    vec![(); n]
}

/// The shape `run_transformed` gives the MIS and matching workloads: black-box baseline at
/// correct guesses, the uniform solver, both validated against `problem`.
#[allow(clippy::too_many_arguments)]
fn transformed<P: Problem<Input = ()>>(
    t: &mut Tracer,
    cell_span: usize,
    problem: &P,
    graph: &Graph,
    baseline: impl FnOnce() -> DynAlgorithm<(), P::Output>,
    seed: u64,
    session: &mut Session,
    uniform: impl FnOnce(&Graph, u64, &mut Session) -> local_uniform::UniformRun<P::Output>,
) -> (Counts, DriverTimes) {
    let inputs = units(graph.node_count());
    let nu =
        t.time("localsim.baseline", cell_span, || baseline().execute(graph, &inputs, None, seed));
    let uni = t.time("core.uniform", cell_span, || uniform(graph, seed, session));
    let valid = t.time("validate", cell_span, || {
        problem.validate(graph, &inputs, &nu.outputs).is_ok()
            && problem.validate(graph, &inputs, &uni.outputs).is_ok()
    });
    let counts = Counts {
        uniform_rounds: uni.rounds,
        uniform_messages: uni.messages,
        nonuniform_rounds: nu.rounds,
        nonuniform_messages: nu.messages,
        subiterations: uni.subiterations,
        valid,
        solved: uni.solved,
    };
    (counts, DriverTimes { attempt_micros: uni.attempt_micros, prune_micros: uni.prune_micros })
}

/// Reproduces one cell of the catalog through the public layer calls, exactly as the
/// engine's workload of the same name runs it.
fn reproduce(
    t: &mut Tracer,
    cell_span: usize,
    problem: &str,
    graph: &Graph,
    params: &GraphParams,
    seed: u64,
    session: &mut Session,
) -> Result<(Counts, DriverTimes), String> {
    let inputs = units(graph.node_count());
    Ok(match problem {
        "matching" => transformed(
            t,
            cell_span,
            &MatchingProblem,
            graph,
            || (catalog::matching_black_box().build)(&[params.max_degree, params.max_id]),
            seed,
            session,
            |g, s, session| {
                catalog::uniform_matching().solve_in(g, &units(g.node_count()), s, session)
            },
        ),
        "log4-matching" => transformed(
            t,
            cell_span,
            &MatchingProblem,
            graph,
            || (catalog::synthetic_log4_matching_black_box().build)(&[params.n]),
            seed,
            session,
            |g, s, session| {
                catalog::uniform_log4_matching().solve_in(g, &units(g.node_count()), s, session)
            },
        ),
        "ps-mis" => transformed(
            t,
            cell_span,
            &MisProblem,
            graph,
            || (catalog::panconesi_srinivasan_mis_black_box().build)(&[params.n]),
            seed,
            session,
            |g, s, session| {
                catalog::uniform_ps_mis().solve_in(g, &units(g.node_count()), s, session)
            },
        ),
        "luby-mis" => {
            // Already uniform: the one execution is both the baseline and the uniform run.
            let run = t.time("localsim.baseline", cell_span, || {
                LubyMis.execute(graph, &inputs, None, seed)
            });
            let valid = t.time("validate", cell_span, || {
                MisProblem.validate(graph, &inputs, &run.outputs).is_ok()
            });
            let counts = Counts {
                uniform_rounds: run.rounds,
                uniform_messages: run.messages,
                nonuniform_rounds: run.rounds,
                nonuniform_messages: run.messages,
                subiterations: 0,
                valid,
                solved: run.completed,
            };
            (counts, DriverTimes::default())
        }
        "coloring" => {
            let baseline = catalog::lambda_coloring_box(1);
            let nu = t.time("localsim.baseline", cell_span, || {
                (baseline.build)(params.max_degree, params.max_id)
                    .execute(graph, &inputs, None, seed)
            });
            let transformer = catalog::uniform_lambda_coloring(1);
            let uni =
                t.time("core.uniform", cell_span, || transformer.solve_in(graph, seed, session));
            let valid = t.time("validate", cell_span, || {
                checkers::check_coloring_with_palette(
                    graph,
                    &nu.outputs,
                    (baseline.palette)(params.max_degree),
                )
                .is_ok()
                    && checkers::check_coloring(graph, &uni.colors).is_ok()
                    && (checkers::palette_size(&uni.colors) as u64)
                        <= transformer.palette_bound(params.max_degree)
            });
            let counts = Counts {
                uniform_rounds: uni.rounds,
                uniform_messages: uni.messages,
                nonuniform_rounds: nu.rounds,
                nonuniform_messages: nu.messages,
                subiterations: 0,
                valid,
                solved: uni.solved,
            };
            (
                counts,
                DriverTimes { attempt_micros: uni.attempt_micros, prune_micros: uni.prune_micros },
            )
        }
        "edge-coloring" => {
            let baseline = LineGraphEdgeColoring {
                delta_guess: params.max_degree,
                id_bound_guess: params.max_id,
            };
            let nu = t.time("localsim.baseline", cell_span, || {
                baseline.execute(graph, &inputs, None, seed)
            });
            let nu_valid = t.time("validate", cell_span, || {
                checkers::check_edge_coloring(graph, &nu.outputs).is_ok()
            });
            let (lg, edges) = t.time("core.line_graph", cell_span, || graph.line_graph());
            let transformer = catalog::uniform_lambda_coloring(1);
            let uni =
                t.time("core.uniform", cell_span, || transformer.solve_in(&lg, seed, session));
            let uni_valid = t.time("validate", cell_span, || {
                let mut edge_color = HashMap::new();
                for (i, &(u, v)) in edges.iter().enumerate() {
                    edge_color.insert((u.min(v), u.max(v)), uni.colors[i]);
                }
                let port_colors: Vec<Vec<u64>> = (0..graph.node_count())
                    .map(|v| {
                        graph
                            .neighbors(v)
                            .iter()
                            .map(|&w| edge_color[&(v.min(w), v.max(w))])
                            .collect()
                    })
                    .collect();
                checkers::check_edge_coloring(graph, &port_colors).is_ok()
            });
            let counts = Counts {
                // The line-graph construction is charged one round, as the workload does.
                uniform_rounds: uni.rounds + 1,
                uniform_messages: uni.messages,
                nonuniform_rounds: nu.rounds,
                nonuniform_messages: nu.messages,
                subiterations: 0,
                valid: nu_valid && uni_valid,
                solved: uni.solved,
            };
            (
                counts,
                DriverTimes { attempt_micros: uni.attempt_micros, prune_micros: uni.prune_micros },
            )
        }
        other => return Err(format!("the traced run cannot reproduce workload {other:?}")),
    })
}

/// One cell's outcome in the hand-driven sweep.
struct Reproduced {
    cell: usize,
    counts: Counts,
    times: DriverTimes,
}

/// What one thread of the hand-driven sweep recorded.
struct ThreadTrace {
    spans: Vec<Span>,
    done: Vec<Reproduced>,
}

/// The hand-driven sweep's wall clock, cells, spans (one vector per thread) and the
/// number of distinct instances it realized.
struct TracedSweep {
    wall_s: f64,
    done: Vec<Reproduced>,
    spans: Vec<Vec<Span>>,
    instances: usize,
}

/// The hand-driven traced sweep: `WORKERS` threads pull instance groups (in the engine's
/// cost order), realize each instance once, and reproduce its cells.
fn traced_sweep(cells: &[Scenario], base_seed: u64, epoch: Instant) -> Result<TracedSweep, String> {
    let order = CostModel::new().order_slowest_first(cells, (0..cells.len()).collect());
    let mut groups: Vec<(InstanceKey, Vec<usize>)> = Vec::new();
    let mut slot: HashMap<InstanceKey, usize> = HashMap::new();
    for i in order {
        let key = cells[i].instance_key(base_seed);
        let g = *slot.entry(key.clone()).or_insert_with(|| {
            groups.push((key, Vec::new()));
            groups.len() - 1
        });
        groups[g].1.push(i);
    }
    let cursor = AtomicUsize::new(0);
    let worker = || -> Result<ThreadTrace, String> {
        let mut t = Tracer { epoch, spans: Vec::new() };
        let mut session = Session::new();
        let mut done = Vec::new();
        while let Some((key, members)) = groups.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let realize = t.open("graphgen.realize", None, Some(members[0]));
            let (graph, params) = key.realize();
            t.close(realize);
            for &i in members {
                let cell = &cells[i];
                let span = t.open("cell", None, Some(i));
                let (counts, times) = reproduce(
                    &mut t,
                    span,
                    cell.problem.name(),
                    &graph,
                    &params,
                    cell.cell_seed(base_seed),
                    &mut session,
                )?;
                t.close(span);
                done.push(Reproduced { cell: i, counts, times });
            }
        }
        Ok(ThreadTrace { spans: t.spans, done })
    };
    let started = Instant::now();
    let per_thread: Vec<Result<ThreadTrace, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS).map(|_| scope.spawn(worker)).collect();
        handles.into_iter().map(|h| h.join().expect("traced worker panicked")).collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut traced =
        TracedSweep { wall_s, done: Vec::new(), spans: Vec::new(), instances: groups.len() };
    for thread in per_thread {
        let thread = thread?;
        traced.spans.push(thread.spans);
        traced.done.extend(thread.done);
    }
    Ok(traced)
}

/// Self time per span name, in seconds: each span's duration minus its children's.
fn self_times(threads: &[Vec<Span>]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        for (s, children) in spans.iter().zip(child_ns) {
            let own = (s.end - s.start).saturating_sub(children);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
    }
    out
}

/// Writes every span once, as tab-separated lines under a `#`-prefixed context header.
fn write_spans(path: &Path, context: &str, threads: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# {context}")?;
    writeln!(out, "thread\tid\tname\tstart_us\tend_us\tparent\tcell")?;
    for (thread, spans) in threads.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            let opt = |v: u32| if v == NONE { "-".to_string() } else { v.to_string() };
            writeln!(
                out,
                "{thread}\t{id}\t{}\t{:.3}\t{:.3}\t{}\t{}",
                s.name,
                s.start as f64 / 1e3,
                s.end as f64 / 1e3,
                opt(s.parent),
                opt(s.cell)
            )?;
        }
    }
    out.flush()
}

/// A sweep of `grid` on `kind` without a store; returns its wall clock and report.
fn timed_sweep(
    w: &Workload,
    seed: u64,
    kind: BackendKind,
    tally: &Path,
) -> (f64, local_engine::Report) {
    let grid = w.grid(seed);
    let started = Instant::now();
    let report = Sweep::over(&grid).backend(Stamped::plain(kind, tally)).run();
    (started.elapsed().as_secs_f64(), report)
}

fn zero_wall(summaries: &[GroupSummary]) -> Vec<GroupSummary> {
    summaries.iter().map(|s| GroupSummary { total_wall_micros: 0, ..s.clone() }).collect()
}

pub fn run(
    w: &Workload,
    seed: u64,
    work: &Path,
    trace_file: &Path,
    context: &str,
) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let tally = work.join("tally");
    let mut problems = Vec::new();
    let grid = w.grid(seed);
    let cells = grid.cells();
    let n_cells = cells.len() as f64;

    // 1. Reference: the engine's own in-process sweep.
    let (inprocess_s, reference) = timed_sweep(w, seed, BackendKind::InProcess, &tally);
    let invalid = workloads::invalid_cells(&reference.cells);
    if invalid > 0 {
        problems.push(format!("{invalid} reference cells invalid or unsolved"));
    }
    let reference_digest = workloads::digest(&reference.cells);
    println!("digest {} seed {seed}: {reference_digest:016x} ({} cells)", w.name, cells.len());
    let cell_s: f64 = reference.cells.iter().map(|c| c.wall_micros as f64 * 1e-6).sum();

    // 2. The same grid on the process backend.
    let (process_s, process) = timed_sweep(w, seed, BackendKind::Process, &tally);
    let rescued = workloads::rescued(BackendKind::Process, process.cell_count, &tally);
    if workloads::digest(&process.cells) != reference_digest {
        problems.push("process-backend digest differs from the in-process digest".into());
    }

    // 3. The hand-driven traced sweep.
    let TracedSweep { wall_s: traced_s, done: reproduced, spans, instances } =
        traced_sweep(&cells, seed, epoch)?;
    let mut mismatched = 0u64;
    let (mut attempt_s, mut prune_s) = (0.0, 0.0);
    for r in &reproduced {
        if r.counts != Counts::of(&reference.cells[r.cell]) {
            mismatched += 1;
            if mismatched <= 3 {
                problems.push(format!(
                    "traced {} reproduced {:?}, run_cell_in gave {:?}",
                    cells[r.cell].label(),
                    r.counts,
                    Counts::of(&reference.cells[r.cell])
                ));
            }
        }
        attempt_s += r.times.attempt_micros as f64 * 1e-6;
        prune_s += r.times.prune_micros as f64 * 1e-6;
    }
    if reproduced.len() != cells.len() {
        problems.push(format!(
            "traced sweep covered {} of {} cells",
            reproduced.len(),
            cells.len()
        ));
    }
    let self_s = self_times(&spans);
    let span_s = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    // Every cell carries its instance's generation time, so summing the field charges a
    // shared instance once per cell; the realize spans charge it once per instance.
    let per_cell_instance_s: f64 =
        reference.cells.iter().map(|c| c.instance_micros as f64 * 1e-6).sum();
    println!(
        "graphgen {}: {:.3} s realizing {instances} instances once each; the cells' \
         instance_micros sum to {per_cell_instance_s:.3} s",
        w.name,
        span_s("graphgen.realize")
    );
    let baseline_messages: u64 = reference.cells.iter().map(|c| c.nonuniform_messages).sum();
    let uniform_messages: u64 = reference.cells.iter().map(|c| c.uniform_messages).sum();
    let subiterations: u64 = reference.cells.iter().map(|c| c.subiterations).sum();
    let cell_layers_s = span_s("localsim.baseline")
        + span_s("core.line_graph")
        + span_s("core.uniform")
        + span_s("validate");

    // 4a. The result wire: serde_json lines of the workload's own cells, and the shard.
    let started = Instant::now();
    let lines: Vec<String> = reference
        .cells
        .iter()
        .map(|c| serde_json::to_string(c).expect("cell serializes"))
        .collect();
    let result_encode_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let decoded: Vec<CellResult> = lines
        .iter()
        .map(|line| {
            let value = serde_json::from_str(line).map_err(|e| format!("wire decode: {e}"))?;
            CellResult::from_value(&value).map_err(|e| format!("wire decode: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let result_decode_s = started.elapsed().as_secs_f64();
    if decoded != reference.cells {
        problems.push("result wire round trip changed a cell".into());
    }
    let wire_bytes: usize = lines.iter().map(|l| l.len() + 1).sum();
    let shard = CellShard::new(seed, cells.clone());
    let started = Instant::now();
    let shipped = black_box(serde_json::to_string(&shard).expect("shard serializes"));
    let shard_encode_s = started.elapsed().as_secs_f64();
    drop(shipped);

    // 4b. The store codec.
    let started = Instant::now();
    let encoded: Vec<Vec<u8>> = reference.cells.iter().map(encode_cell_result).collect();
    let codec_encode_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let columns: Vec<CellColumns> = encoded
        .iter()
        .map(|bytes| decode_cell_columns(bytes).ok_or("undecodable record"))
        .collect::<Result<_, _>>()?;
    let codec_decode_s = started.elapsed().as_secs_f64();
    if columns.iter().zip(&reference.cells).any(|(c, r)| *c != CellColumns::from(r)) {
        problems.push("store codec round trip changed a cell's columns".into());
    }

    // 4c. The store: append, reopen, columnar scan, summary fold, warm re-sweep.
    let store_dir = work.join("trace-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = workloads::open_store(&store_dir)?;
    let started = Instant::now();
    for (cell, result) in cells.iter().zip(&reference.cells) {
        store
            .store(cell, seed, result)
            .map_err(|e| format!("cannot store {}: {e}", cell.label()))?;
    }
    let append_s = started.elapsed().as_secs_f64();
    let store_bytes = store.stats().bytes_appended as f64;
    drop(store);
    let started = Instant::now();
    let store = Arc::new(workloads::open_store(&store_dir)?);
    let open_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let scanned = cells.iter().filter(|cell| store.load_columns(cell, seed).is_some()).count();
    let scan_s = started.elapsed().as_secs_f64();
    if scanned != cells.len() {
        problems.push(format!("store scan found {scanned} of {} cells", cells.len()));
    }
    let started = Instant::now();
    let mut accumulator = SummaryAccumulator::new();
    for cell in &cells {
        accumulator.register(cell.problem.name(), cell.family.name());
    }
    for (i, (cell, c)) in cells.iter().zip(&columns).enumerate() {
        accumulator.fold_columns_at(i, cell.problem.name(), cell.family.name(), c);
    }
    let folded = accumulator.finish();
    let summarize_s = started.elapsed().as_secs_f64();
    if zero_wall(&folded) != zero_wall(&reference.summaries) {
        problems.push("columnar summaries differ from the collected sweep's".into());
    }
    let warm = Sweep::over(&grid)
        .backend(Stamped::plain(w.backend, &tally))
        .store(store.clone())
        .streaming()
        .run();
    if warm.cache_hits != cells.len() {
        problems.push(format!("warm re-sweep hit {} of {} cells", warm.cache_hits, cells.len()));
    }
    let rows_materialized = store.rows_materialized();
    if rows_materialized != 0 {
        problems.push(format!("streamed warm re-sweep materialized {rows_materialized} rows"));
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);

    // Which layer dominates, against the workload's prediction.
    let wire_s = result_encode_s + result_decode_s + shard_encode_s;
    let store_s = append_s + open_s + scan_s + codec_encode_s + codec_decode_s;
    let layers = [
        ("local-graphs", span_s("graphgen.realize")),
        ("local-runtime", span_s("localsim.baseline")),
        ("local-core", span_s("core.uniform") + span_s("core.line_graph")),
        ("validate", span_s("validate")),
        ("wire", wire_s),
        ("store", store_s),
    ];
    let total: f64 = layers.iter().map(|(_, s)| s).sum();
    let shares: Vec<String> = layers
        .iter()
        .map(|(name, s)| format!("{name} {:.1}%", 100.0 * s / total.max(1e-12)))
        .collect();
    println!("layers {}: {}", w.name, shares.join(", "));
    let predicted: f64 =
        layers.iter().filter(|(name, _)| w.dominant.contains(name)).map(|(_, s)| s).sum();
    let holds = layers.iter().all(|(name, s)| w.dominant.contains(name) || *s <= predicted);
    println!(
        "prediction {}: {} dominates: {}",
        w.name,
        w.dominant.join(" + "),
        if holds { "holds" } else { "fails" }
    );

    write_spans(trace_file, context, &spans)
        .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;
    println!(
        "spans {}: {} written to {}",
        w.name,
        spans.iter().map(Vec::len).sum::<usize>(),
        trace_file.display()
    );

    let per_s = |count: f64, s: f64| if s > 0.0 { count / s } else { 0.0 };
    let us_per_cell = |s: f64| s * 1e6 / n_cells;
    let metrics = vec![
        Metric::new("graphgen.realize_s", span_s("graphgen.realize"), "s"),
        Metric::new("graphgen.instances", instances as f64, "count"),
        Metric::new("localsim.baseline_s", span_s("localsim.baseline"), "s"),
        Metric::new("localsim.baseline_messages", baseline_messages as f64, "count"),
        Metric::new(
            "localsim.baseline_msgs_per_s",
            per_s(baseline_messages as f64, span_s("localsim.baseline")),
            "1/s",
        ),
        Metric::new("core.uniform_s", span_s("core.uniform"), "s"),
        Metric::new("core.attempt_s", attempt_s, "s"),
        Metric::new("core.prune_s", prune_s, "s"),
        Metric::new("core.line_graph_s", span_s("core.line_graph"), "s"),
        Metric::new("core.subiterations", subiterations as f64, "count"),
        Metric::new(
            "core.uniform_msgs_per_s",
            per_s(uniform_messages as f64, span_s("core.uniform")),
            "1/s",
        ),
        Metric::new("validate_s", span_s("validate"), "s"),
        Metric::new("engine.cell_s", cell_s, "s"),
        Metric::new("engine.unattributed_s", cell_s - cell_layers_s, "s"),
        Metric::new("engine.pool_busy", cell_s / (inprocess_s * WORKERS as f64), "share"),
        Metric::new("wire.result_encode_us", us_per_cell(result_encode_s), "us"),
        Metric::new("wire.result_decode_us", us_per_cell(result_decode_s), "us"),
        Metric::new("wire.shard_encode_s", shard_encode_s, "s"),
        Metric::new("wire.bytes_per_cell", wire_bytes as f64 / n_cells, "bytes"),
        Metric::new("backend.process_over_inprocess", process_s / inprocess_s, "ratio"),
        Metric::new("backend.rescued_cells", rescued as f64, "count"),
        Metric::new("store.append_cells_per_s", per_s(n_cells, append_s), "1/s"),
        Metric::new("store.bytes_per_cell", store_bytes / n_cells, "bytes"),
        Metric::new("codec.encode_us", us_per_cell(codec_encode_s), "us"),
        Metric::new("codec.decode_us", us_per_cell(codec_decode_s), "us"),
        Metric::new("store.open_s", open_s, "s"),
        Metric::new("store.scan_cells_per_s", per_s(n_cells, scan_s), "1/s"),
        Metric::new("store.rows_materialized", rows_materialized as f64, "count"),
        Metric::new("report.summarize_s", summarize_s, "s"),
        Metric::new("trace.sweep_s", traced_s, "s"),
        Metric::new("trace.overhead_ratio", traced_s / inprocess_s, "ratio"),
    ];
    Ok(Outcome {
        problems,
        attempted: cells.len() as u64,
        failed: invalid + rescued + mismatched,
        metrics,
    })
}
