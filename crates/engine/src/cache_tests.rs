//! The result store in its role as the sweep's incremental cache: a [`BinaryStore`] must
//! serve a re-sweep exactly the results stored for the same cell, base seed and code
//! version, and turn everything else — another cell, another version, a corrupt or torn
//! record — into a miss that re-executes the cell.
//!
//! [`BinaryStore`]: crate::store::BinaryStore

mod tests {
    use crate::registry::workload;
    use crate::report::CellResult;
    use crate::scenario::{Scenario, ScenarioGrid};
    use crate::store::tests::{sample_cell, sample_result, temp_dir};
    use crate::store::{BinaryStore, ResultStore};
    use local_graphs::{family, Family};
    use std::path::{Path, PathBuf};

    fn open(dir: &Path) -> BinaryStore {
        BinaryStore::open(dir).expect("store opens")
    }

    /// The store's only segment (every test here stays far below the rotation size).
    fn segment(dir: &Path) -> PathBuf {
        dir.join("seg-00000.bin")
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = temp_dir("cache-roundtrip");
        let cell = sample_cell();
        {
            let store = open(&dir);
            assert!(store.load(&cell, 1).is_none(), "fresh store must miss");
            store.store(&cell, 1, &sample_result()).unwrap();
            assert_eq!(store.load(&cell, 1), Some(sample_result()));
        }
        // The next sweep opens its own handle and is served the same bytes.
        assert_eq!(open(&dir).load(&cell, 1), Some(sample_result()), "reopen must hit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_separate_cells_seeds_and_versions() {
        let dir = temp_dir("cache-keys");
        let a = sample_cell();
        {
            let store = open(&dir);
            store.store(&a, 1, &sample_result()).unwrap();
            let b = Scenario { replicate: 1, ..a.clone() };
            let c = Scenario { problem: workload("luby-mis"), ..a.clone() };
            let d = Scenario { n: a.n + 1, ..a.clone() };
            assert!(store.load(&b, 1).is_none(), "replicates must not collide");
            assert!(store.load(&c, 1).is_none(), "problems must not collide");
            assert!(store.load(&d, 1).is_none(), "sizes must not collide");
            assert!(store.load(&a, 2).is_none(), "base seeds must not collide");
            assert!(store.load(&a, 1).is_some());
        }
        let bumped = BinaryStore::with_code_version(&dir, "vNEXT").unwrap();
        assert!(bumped.load(&a, 1).is_none(), "code versions must not collide");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn code_version_bump_invalidates_stored_cells() {
        let dir = temp_dir("cache-bump");
        let cell = sample_cell();
        let v2_result = CellResult { uniform_rounds: 999, ..sample_result() };
        {
            let v1 = BinaryStore::with_code_version(&dir, "v1").unwrap();
            v1.store(&cell, 3, &sample_result()).unwrap();
            assert!(v1.load(&cell, 3).is_some());
        }
        {
            let v2 = BinaryStore::with_code_version(&dir, "v2").unwrap();
            assert!(v2.load(&cell, 3).is_none(), "version bump must miss");
            v2.store(&cell, 3, &v2_result).unwrap();
        }
        // Both versions live side by side in one directory, each served only its own.
        let v1 = BinaryStore::with_code_version(&dir, "v1").unwrap();
        assert_eq!(v1.load(&cell, 3), Some(sample_result()));
        drop(v1);
        let v2 = BinaryStore::with_code_version(&dir, "v2").unwrap();
        assert_eq!(v2.load(&cell, 3), Some(v2_result));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_collisions_cannot_serve_another_cells_result() {
        // Every cell of a grid gets a result tagged with its position; after a reopen, each
        // cell must be served its own tag and never a neighbour's.
        let dir = temp_dir("cache-collision");
        let grid = ScenarioGrid::new()
            .problems([workload("mis"), workload("luby-mis")])
            .families([Family::SparseGnp.into(), family("gnp-d10")])
            .sizes([36usize, 48, 60])
            .replicates(3)
            .base_seed(5);
        let cells = grid.cells();
        let tagged = |position: usize| CellResult { seed: position as u64, ..sample_result() };
        {
            let store = open(&dir);
            for (position, cell) in cells.iter().enumerate() {
                store.store(cell, grid.base_seed, &tagged(position)).unwrap();
            }
        }
        let store = open(&dir);
        for (position, cell) in cells.iter().enumerate() {
            let served = store.load(cell, grid.base_seed).expect("stored cell must hit");
            assert_eq!(served, tagged(position), "cell {} got a foreign result", cell.label());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_degrade_to_misses() {
        let dir = temp_dir("cache-corrupt");
        let cell = sample_cell();
        open(&dir).store(&cell, 1, &sample_result()).unwrap();
        let path = segment(&dir);
        // A flipped value byte fails the record's checksum.
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(open(&dir).load(&cell, 1).is_none(), "a flipped byte must miss");
        // A segment that is not a segment at all.
        std::fs::write(&path, "{ not json").unwrap();
        assert!(open(&dir).load(&cell, 1).is_none(), "garbage must miss");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entries_miss_and_a_restore_repairs_them() {
        // A segment torn at any prefix (what a writer killed mid-append leaves) must read as
        // a miss, and storing again must fully repair the entry for the next run.
        let dir = temp_dir("cache-truncated");
        let cell = sample_cell();
        open(&dir).store(&cell, 1, &sample_result()).unwrap();
        let path = segment(&dir);
        let full = std::fs::read(&path).unwrap();
        for cut in [0, 1, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            {
                let store = open(&dir);
                assert!(store.load(&cell, 1).is_none(), "cut at {cut} must miss");
                store.store(&cell, 1, &sample_result()).unwrap();
            }
            assert_eq!(open(&dir).load(&cell, 1), Some(sample_result()), "re-store must repair");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stores_leave_no_temp_files_behind() {
        let dir = temp_dir("cache-no-temps");
        let cell = sample_cell();
        {
            let store = open(&dir);
            store.store(&cell, 1, &sample_result()).unwrap();
            store.store(&cell, 1, &sample_result()).unwrap();
        }
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name != "LOCK" && !(name.starts_with("seg-") && name.ends_with(".bin")))
            .collect();
        assert!(leftovers.is_empty(), "files besides LOCK and segments: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
