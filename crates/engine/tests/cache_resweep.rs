//! Incremental re-sweeps with the result store as the sweep's cache: a second identical
//! `run_grid` on a freshly opened store serves every cell from disk and produces a
//! byte-identical merged report; a grid with a new axis value executes only its new
//! cells; a code-version bump retires the cache; streaming mode folds the same summaries
//! without holding cells in memory; and cost-ordered execution is independent of the
//! thread count.

use local_engine::{
    folded_stacks, run_grid, workload, BinaryStore, ResultStore, ScenarioGrid, SweepConfig,
};
use local_graphs::{family, Family};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sweep-resweep-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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
fn second_sweep_is_all_hits_and_byte_identical() {
    let dir = temp_dir("identical");
    let grid = small_grid();

    // Each sweep opens the store itself, as two `sweep` invocations do.
    let first = run_grid(&grid, &SweepConfig::with_threads(2).with_store(open_store(&dir)));
    assert_eq!(first.cache_hits, 0, "a cold cache must not hit");
    assert!(first.cells.iter().all(|c| c.valid && c.solved));

    let second = run_grid(&grid, &SweepConfig::with_threads(2).with_store(open_store(&dir)));
    assert_eq!(second.cache_hits, second.cell_count, "a re-sweep must be 100% cache hits");
    assert_eq!(second.distinct_instances, 0, "hits must not regenerate instances");
    // The merged report is byte-identical: cached cells carry their original measurements.
    assert_eq!(first.to_csv_with(true), second.to_csv_with(true));
    assert_eq!(first.summaries, second.summaries);
    assert_eq!(first.to_folded(), second.to_folded());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn changed_axes_execute_only_the_new_cells() {
    let dir = temp_dir("partial");
    let grid = small_grid();
    let cfg = SweepConfig::with_threads(2).with_store(open_store(&dir));
    let first = run_grid(&grid, &cfg);

    // Same grid plus one extra size: only the new cells run.
    let extended = small_grid().sizes([36usize, 48, 60]);
    let second = run_grid(&extended, &cfg);
    assert_eq!(second.cache_hits, first.cell_count);
    assert_eq!(
        second.cell_count - second.cache_hits,
        8,
        "2 problems x 2 families x 1 new size x 2 seeds"
    );
    // Shared cells are carried over verbatim.
    for cell in &first.cells {
        assert!(
            second.cells.iter().any(|c| c == cell),
            "cached cell {}/{}/n{} missing from the extended sweep",
            cell.problem,
            cell.family,
            cell.requested_n
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn code_version_bump_retires_the_cache() {
    let dir = temp_dir("codebump");
    let grid = small_grid();
    let versioned = |version: &str| {
        let store = BinaryStore::with_code_version(&dir, version).expect("store opens");
        SweepConfig::with_threads(2).with_store(Arc::new(store))
    };
    {
        let v1 = versioned("resweep-test-v1");
        let first = run_grid(&grid, &v1);
        assert_eq!(first.cache_hits, 0);
        assert_eq!(run_grid(&grid, &v1).cache_hits, first.cell_count);
    }
    let bumped = run_grid(&grid, &versioned("resweep-test-v2"));
    assert_eq!(bumped.cache_hits, 0, "a code-version bump must re-execute every cell");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streaming_mode_matches_collected_summaries_without_holding_cells() {
    let dir = temp_dir("stream");
    let grid = small_grid();
    let collected = run_grid(&grid, &SweepConfig::with_threads(2));

    let store = open_store(&dir);
    let streaming =
        SweepConfig::with_threads(2).with_store(Arc::clone(&store) as Arc<dyn ResultStore>);
    let streamed = run_grid(&grid, &streaming.streaming());
    assert!(streamed.cells.is_empty(), "streaming mode must not hold cells in memory");
    assert_eq!(streamed.cell_count, collected.cell_count);
    // Summaries agree on every deterministic field (wall times differ between two live runs).
    assert_eq!(streamed.summaries.len(), collected.summaries.len());
    for (s, c) in streamed.summaries.iter().zip(&collected.summaries) {
        let mut s = s.clone();
        s.total_wall_micros = c.total_wall_micros;
        assert_eq!(&s, c, "streamed summary diverges for {}/{}", c.problem, c.family);
    }

    // Every cell is recoverable from the cache, in canonical order, deterministically
    // identical to the collected run.
    let reloaded: Vec<_> = grid
        .cells()
        .into_iter()
        .map(|cell| store.load(&cell, grid.base_seed).expect("streamed cell must be cached"))
        .collect();
    let reloaded_view: Vec<_> = reloaded.iter().map(|c| c.deterministic_view()).collect();
    let collected_view: Vec<_> = collected.cells.iter().map(|c| c.deterministic_view()).collect();
    assert_eq!(reloaded_view, collected_view);
    let folded = folded_stacks(reloaded);
    assert!(folded.lines().any(|l| l.starts_with("sweep;mis;")), "folded stacks missing: {folded}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cost_ordered_execution_is_thread_count_independent() {
    // The cost model reorders the work queue; results must still land in canonical order
    // and be byte-identical across thread counts (the determinism contract).
    let grid = small_grid();
    let seq = run_grid(&grid, &SweepConfig::with_threads(1));
    let par = run_grid(&grid, &SweepConfig::with_threads(8));
    let seq_view: Vec<_> = seq.cells.iter().map(|c| c.deterministic_view()).collect();
    let par_view: Vec<_> = par.cells.iter().map(|c| c.deterministic_view()).collect();
    assert_eq!(seq_view, par_view);
}
