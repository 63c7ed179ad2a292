//! The untraced run: a closed loop of one client that submits the workload's cold sweep,
//! waits for its report, re-sweeps the same grid warm from a result store, and repeats
//! until the run's time is spent. Every end-to-end metric is a median over the loop.

use crate::workloads::{self, BackendKind, Stamped, Workload};
use crate::{median, Metric, Outcome};
use local_engine::{Report, ResultStore, Sweep};
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Time spent on warm re-sweeps after each cold sweep (at least one re-sweep). A
/// store-served sweep of a handful of cells takes about 100 µs, so small grids repeat it
/// many times for a steady median.
const WARM_BUDGET_S: f64 = 0.25;

/// One cold sweep's measurements.
struct Cold {
    sweep_s: f64,
    setup_s: f64,
    report: Report,
    rescued: u64,
}

/// Runs one cold sweep from scratch: grid build, store open (streaming workloads write a
/// fresh store at `store_dir`), backend set-up, execution and report.
fn cold_sweep(w: &Workload, seed: u64, store_dir: &Path, tally: &Path) -> Result<Cold, String> {
    let started = Instant::now();
    let grid = w.grid(seed);
    let dispatched = Arc::new(OnceLock::new());
    let mut sweep = Sweep::over(&grid).backend(w.backend(tally, dispatched.clone()));
    if w.stream {
        sweep = sweep.store(Arc::new(workloads::open_store(store_dir)?)).streaming();
    }
    let report = sweep.run();
    let sweep_s = started.elapsed().as_secs_f64();
    let setup_s = dispatched
        .get()
        .ok_or("the backend dispatched no cell")?
        .duration_since(started)
        .as_secs_f64();
    let rescued = workloads::rescued(w.backend, report.cell_count, tally);
    Ok(Cold { sweep_s, setup_s, report, rescued })
}

/// Re-sweeps the grid from the store at `store_dir` (opened afresh, as a new client would)
/// in streaming mode; every cell must be a hit and no row may be materialized.
fn warm_sweep(
    w: &Workload,
    seed: u64,
    store_dir: &Path,
    tally: &Path,
) -> Result<(f64, Report), String> {
    let started = Instant::now();
    let grid = w.grid(seed);
    let store = Arc::new(workloads::open_store(store_dir)?);
    let report = Sweep::over(&grid)
        .backend(w.backend(tally, Arc::default()))
        .store(store.clone())
        .streaming()
        .run();
    let elapsed = started.elapsed().as_secs_f64();
    if report.cache_hits != report.cell_count {
        return Err(format!(
            "warm re-sweep served {} of {} cells from the store",
            report.cache_hits, report.cell_count
        ));
    }
    if store.rows_materialized() != 0 {
        return Err(format!("warm re-sweep materialized {} rows", store.rows_materialized()));
    }
    Ok((elapsed, report))
}

/// The deterministic bytes of a report's summaries (wall clocks zeroed).
fn summary_bytes(report: &Report) -> String {
    serde_json::to_string(&report.deterministic_view().summaries).expect("summaries serialize")
}

/// Summary-level failures of a streamed sweep: per group, the cells that did not
/// validate or did not solve (a lower bound on failing cells; the per-cell check runs on
/// the store after the loop).
fn summary_failures(report: &Report) -> u64 {
    report.summaries.iter().map(|s| (s.cells - s.valid_cells.min(s.solved_cells)) as u64).sum()
}

pub fn run(w: &Workload, seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let started = Instant::now();
    let tally = work.join("tally");
    let mut problems = Vec::new();
    let (mut sweeps, mut setups, mut resweeps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reference: Option<(String, Option<u64>)> = None;
    let mut store_dir = work.join("store-0");
    let mut rep = 0usize;
    let mut peak_rss_mib = 0.0;

    loop {
        // Streaming workloads write a fresh store per cold sweep; the others run without a
        // store and seed one (untimed) from their first cold report for the warm passes.
        if w.stream {
            store_dir = work.join(format!("store-{rep}"));
        }
        let cold = cold_sweep(w, seed, &store_dir, &tally)?;
        sweeps.push(cold.sweep_s);
        setups.push(cold.setup_s);
        if rep == 0 {
            // The footprint of one sweep in a fresh process, as a user's single sweep sees
            // it; later sweeps in the same process only add the allocator's retained pages.
            peak_rss_mib = crate::peak_rss_mib();
        }
        attempted += cold.report.cell_count as u64;
        let bad = if w.stream {
            summary_failures(&cold.report)
        } else {
            workloads::invalid_cells(&cold.report.cells)
        };
        if bad > 0 {
            problems.push(format!("cold sweep {rep}: {bad} cells invalid or unsolved"));
        }
        failed += bad + cold.rescued;

        let summaries = summary_bytes(&cold.report);
        let cell_digest = (!w.stream).then(|| workloads::digest(&cold.report.cells));
        match &reference {
            None => reference = Some((summaries.clone(), cell_digest)),
            Some((first_summaries, first_digest)) => {
                if *first_summaries != summaries || *first_digest != cell_digest {
                    problems.push(format!("cold sweep {rep} differs from cold sweep 0"));
                }
            }
        }
        if !w.stream && rep == 0 {
            seed_store(w, seed, &store_dir, &cold.report)?;
        }

        let warm_started = Instant::now();
        loop {
            let (resweep_s, warm) = warm_sweep(w, seed, &store_dir, &tally)?;
            resweeps.push(resweep_s);
            if summary_bytes(&warm) != summaries {
                problems.push(format!("warm re-sweep after cold sweep {rep} differs from it"));
                break;
            }
            if warm_started.elapsed().as_secs_f64() >= WARM_BUDGET_S {
                break;
            }
        }
        if w.stream && rep > 0 {
            let _ = std::fs::remove_dir_all(work.join(format!("store-{}", rep - 1)));
        }
        rep += 1;
        // Start another cold sweep only if it can finish within the run's time.
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / rep as f64 > seconds {
            break;
        }
    }

    // Cross-checks outside the timed loop: per-cell validity and the count digest of the
    // stored cells against an in-process sweep (streaming workloads), or of the collected
    // cells (the others; their process-backend cross-check runs in the traced run).
    let grid = w.grid(seed);
    let cell_digest = if w.stream {
        let store = workloads::open_store(&store_dir)?;
        let stored: Vec<_> = grid
            .cells()
            .iter()
            .map(|cell| {
                store.load(cell, seed).ok_or_else(|| format!("{} missing from store", cell.label()))
            })
            .collect::<Result<_, _>>()?;
        let bad = workloads::invalid_cells(&stored);
        if bad > 0 {
            problems.push(format!("{bad} stored cells invalid or unsolved"));
        }
        let stored_digest = workloads::digest(&stored);
        let in_process =
            Sweep::over(&grid).backend(Stamped::plain(BackendKind::InProcess, &tally)).run();
        let in_process_digest = workloads::digest(&in_process.cells);
        if stored_digest != in_process_digest {
            problems.push(format!(
                "digest of the process-backend store {stored_digest:016x} differs from the \
                 in-process sweep's {in_process_digest:016x}"
            ));
        }
        stored_digest
    } else {
        reference.as_ref().and_then(|(_, d)| *d).expect("collecting sweeps digest their cells")
    };
    println!("digest {} seed {seed}: {cell_digest:016x} ({} cells)", w.name, grid.cell_count());
    let samples: Vec<String> = sweeps.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "loop {}: {} cold sweeps [{}] s, {} warm re-sweeps, {:.1} s",
        w.name,
        sweeps.len(),
        samples.join(", "),
        resweeps.len(),
        started.elapsed().as_secs_f64()
    );

    let ok_share = 1.0 - failed as f64 / attempted.max(1) as f64;
    Ok(Outcome {
        problems,
        attempted,
        failed,
        metrics: vec![
            Metric::new("sweep_s", median(&sweeps), "s"),
            Metric::new("resweep_s", median(&resweeps), "s"),
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("peak_rss_mib", peak_rss_mib, "MiB"),
            Metric::new("ok_share", ok_share, "share"),
        ],
    })
}

/// Writes a collected cold report's cells into a fresh store, so the warm passes of the
/// store-less workloads have the same cells to serve.
fn seed_store(w: &Workload, seed: u64, dir: &Path, report: &Report) -> Result<(), String> {
    let store = workloads::open_store(dir)?;
    for (cell, result) in w.grid(seed).cells().iter().zip(&report.cells) {
        store
            .store(cell, seed, result)
            .map_err(|e| format!("cannot store {}: {e}", cell.label()))?;
    }
    Ok(())
}
