//! The "same bytes" contract as a test: a full-catalog `--deterministic` sweep must
//! reproduce the committed CSV byte for byte.
//!
//! `golden/full_catalog_40_64.csv` was written by the release `sweep` binary with the flags
//! in [`FLAGS`]. A change that is meant to alter these results regenerates the file with the
//! same command and says why; any other difference is a regression.

use std::path::Path;
use std::process::Command;

/// Every registered workload on every builtin family at two sizes, one seed; the CSV path
/// follows `--csv`.
const FLAGS: [&str; 13] = [
    "--problems",
    "all",
    "--families",
    "all",
    "--sizes",
    "40,64",
    "--seeds",
    "1",
    "--threads",
    "2",
    "--no-cache",
    "--deterministic",
    "--csv",
];

#[test]
fn full_catalog_deterministic_csv_matches_the_golden_file() {
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/full_catalog_40_64.csv");
    let golden = std::fs::read(&golden_path).expect("the golden CSV is committed");
    let dir = std::env::temp_dir().join(format!("golden-report-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let csv = dir.join("sweep.csv");
    let output = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(FLAGS)
        .arg(&csv)
        .output()
        .expect("sweep runs");
    assert!(output.status.success(), "sweep failed:\n{}", String::from_utf8_lossy(&output.stderr));
    let produced = std::fs::read(&csv).expect("sweep wrote its CSV");
    let _ = std::fs::remove_dir_all(&dir);
    if produced != golden {
        let first_diff = String::from_utf8_lossy(&produced)
            .lines()
            .zip(String::from_utf8_lossy(&golden).lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}:\n  produced {a}\n  golden   {b}", i + 1))
            .unwrap_or_else(|| "the files differ in length".to_string());
        panic!("the deterministic CSV diverged from {golden_path:?}; {first_diff}");
    }
}
