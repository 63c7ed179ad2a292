//! Incremental re-sweeps through the segmented binary store (`--store`): a second
//! identical sweep on one handle is 100 % store hits, byte-identical to the first, and
//! appends nothing; store-backed reports (cold and warm) are byte-identical
//! (deterministic view) to a store-less sweep's; a streamed re-sweep summarizes through
//! the columnar path without materializing a single `CellResult` row; and the process
//! backend writes through the store like the in-process pool does; and 10⁵ cells land in
//! at most ten segments at the default segment size, every one reloadable. The store's
//! cache behaviours (changed axes, code-version bumps, streaming) are in
//! `cache_resweep.rs`.

use local_engine::backend::ProcessBackend;
use local_engine::{
    report_from_store, run_grid, workload, BinaryStore, CellResult, ResultStore, Scenario,
    ScenarioGrid, Sweep, SweepConfig,
};
use local_graphs::{family, Family};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("store-resweep-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// 2 problems × 2 families × 2 sizes × 2 seeds = 16 cells.
fn small_grid() -> ScenarioGrid {
    ScenarioGrid::new()
        .problems([workload("mis"), workload("luby-mis")])
        .families([Family::SparseGnp.into(), family("gnp-d10")])
        .sizes([36usize, 48])
        .replicates(2)
        .base_seed(5)
}

fn open_store(dir: &Path) -> Arc<BinaryStore> {
    Arc::new(BinaryStore::open(dir).expect("store opens"))
}

#[test]
fn second_sweep_through_the_store_is_all_hits_and_byte_identical() {
    let dir = temp_dir("identical");
    let grid = small_grid();
    let store = open_store(&dir);
    let cfg = SweepConfig::with_threads(2).with_store(Arc::clone(&store) as Arc<dyn ResultStore>);

    let first = run_grid(&grid, &cfg);
    assert_eq!(first.cache_hits, 0, "a cold store must not hit");
    assert!(first.cells.iter().all(|c| c.valid && c.solved));
    assert_eq!(
        store.stats().records_appended,
        grid.cell_count() as u64,
        "every executed cell is appended"
    );

    let second = run_grid(&grid, &cfg);
    assert_eq!(second.cache_hits, second.cell_count, "a re-sweep must be 100% store hits");
    assert_eq!(second.distinct_instances, 0, "hits must not regenerate instances");
    assert_eq!(
        store.stats().records_appended,
        grid.cell_count() as u64,
        "a re-sweep served from the store appends nothing"
    );
    // The merged report is byte-identical: stored cells carry their original measurements.
    assert_eq!(first.to_csv_with(true), second.to_csv_with(true));
    assert_eq!(first.summaries, second.summaries);
    assert_eq!(first.to_folded(), second.to_folded());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_backed_reports_are_byte_identical_to_storeless_ones() {
    let dir = temp_dir("vs-storeless");
    let grid = small_grid();
    let storeless = run_grid(&grid, &SweepConfig::with_threads(2)).deterministic_view();
    let cfg = SweepConfig::with_threads(2).with_store(open_store(&dir));
    let cold = run_grid(&grid, &cfg).deterministic_view();
    let warm = run_grid(&grid, &cfg).deterministic_view();
    assert_eq!(warm.cache_hits, warm.cell_count, "the warm run must be 100% store hits");
    // Two live runs differ only in wall clocks; under the deterministic view a sweep must
    // produce the same cell and summary bytes with or without a store. The warm report
    // differs only in its hit and instance counts, which say where the cells came from.
    for report in [&cold, &warm] {
        assert_eq!(storeless.to_csv_with(true), report.to_csv_with(true));
        assert_eq!(storeless.summaries, report.summaries);
    }
    assert_eq!(storeless.to_json(), cold.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streamed_columnar_resweep_materializes_no_rows() {
    let dir = temp_dir("columnar");
    let grid = small_grid();
    // Cold streaming run to populate the store.
    let first = run_grid(
        &grid,
        &SweepConfig::with_threads(2)
            .with_store(open_store(&dir) as Arc<dyn ResultStore>)
            .streaming(),
    );
    assert!(first.cells.is_empty(), "streaming mode must not hold cells in memory");

    // Streamed re-sweep on a fresh handle: every cell is served through the columnar
    // probe, so the handle must never build a single CellResult row.
    let reopened = open_store(&dir);
    let second = run_grid(
        &grid,
        &SweepConfig::with_threads(2)
            .with_store(Arc::clone(&reopened) as Arc<dyn ResultStore>)
            .streaming(),
    );
    assert_eq!(second.cache_hits, second.cell_count, "a re-sweep must be 100% store hits");
    assert_eq!(
        reopened.rows_materialized(),
        0,
        "the columnar re-sweep path must not materialize rows"
    );
    assert_eq!(first.summaries, second.summaries, "columnar folds must match the first run");

    // report_from_store folds the same stored columns in the same canonical order, so its
    // summaries are byte-identical to the streamed re-sweep's — again without rows.
    let offline = report_from_store(&grid, reopened.as_ref()).expect("every cell is stored");
    assert_eq!(offline.summaries, second.summaries);
    assert_eq!(offline.cache_hits, grid.cell_count());
    assert_eq!(reopened.rows_materialized(), 0, "report_from_store must stay columnar");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_process_backend_writes_through_the_store() {
    let dir = temp_dir("process");
    let grid = small_grid();
    let store = open_store(&dir);
    let first = Sweep::over(&grid)
        .backend(ProcessBackend::with_command(2, vec![env!("CARGO_BIN_EXE_sweep").to_string()]))
        .store(Arc::clone(&store) as Arc<dyn ResultStore>)
        .run();
    assert_eq!(first.cache_hits, 0, "a cold store must not hit");
    assert_eq!(store.stats().records_appended, grid.cell_count() as u64);

    // The in-process re-sweep is served entirely from what the worker processes wrote.
    let second = run_grid(
        &grid,
        &SweepConfig::with_threads(2).with_store(Arc::clone(&store) as Arc<dyn ResultStore>),
    );
    assert_eq!(second.cache_hits, second.cell_count);
    assert_eq!(first.to_csv_with(true), second.to_csv_with(true));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A result of realistic field shapes for `cell`, without running any algorithm.
fn synthetic_result(cell: &Scenario, seed: u64) -> CellResult {
    let r = cell.replicate;
    let uniform_rounds = 40 + r % 17;
    let nonuniform_rounds = 20 + r % 7;
    CellResult {
        problem: cell.problem.name().to_string(),
        family: cell.family.name().to_string(),
        requested_n: cell.n,
        n: cell.n,
        edges: cell.n * 3,
        replicate: r,
        seed,
        uniform_rounds,
        uniform_messages: uniform_rounds * cell.n as u64,
        nonuniform_rounds,
        nonuniform_messages: nonuniform_rounds * cell.n as u64,
        overhead_ratio: uniform_rounds as f64 / nonuniform_rounds.max(1) as f64,
        subiterations: 3,
        solved: true,
        valid: true,
        wall_micros: 100 + r % 900,
        attempt_micros: 80 + r % 700,
        prune_micros: 10 + r % 90,
        instance_micros: 5,
    }
}

#[test]
fn a_hundred_thousand_cells_land_in_at_most_ten_segments_and_all_reload() {
    const CELLS: u64 = 100_000;
    let dir = temp_dir("segments");
    // Replicate is the only varying axis, so every cell has its own store key.
    let cells: Vec<Scenario> = (0..CELLS)
        .map(|replicate| Scenario {
            problem: workload("mis"),
            family: Family::SparseGnp.into(),
            n: 64,
            replicate,
        })
        .collect();
    let store = BinaryStore::open(&dir).expect("store opens");
    for cell in &cells {
        store.store(cell, 0, &synthetic_result(cell, cell.cell_seed(0))).expect("append");
    }
    let segments = store.stats().segments;
    assert!(segments <= 10, "{CELLS} cells took {segments} segments");
    drop(store);

    let reopened = BinaryStore::open(&dir).expect("store reopens");
    assert_eq!(reopened.stats().segments, segments);
    for cell in &cells {
        let loaded = reopened.load(cell, 0);
        assert_eq!(loaded, Some(synthetic_result(cell, cell.cell_seed(0))), "{}", cell.label());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
