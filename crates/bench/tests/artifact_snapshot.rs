//! Snapshot gate on the BENCH JSON serialization contract.
//!
//! The typed `Nanos`/`Picojoules` migration must not move a single byte
//! of the benchmark artifacts: the perf-regression gate diffs them
//! across commits and the line-oriented parser depends on their exact
//! framing. This test round-trips the *committed* `results/BENCH_*.json`
//! snapshots through [`gaasx_bench::artifact::parse`] → [`gaasx_bench::artifact::render`]
//! and asserts byte identity, so any drift in key order, float widths,
//! or row framing fails loudly against the real artifact — not just a
//! synthetic sample.

#![allow(clippy::unwrap_used)]

use gaasx_bench::artifact;

fn workspace_file(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

#[test]
fn committed_bench_artifacts_round_trip_byte_identically() {
    // BENCH_07 and BENCH_12 pin the layout without kernel columns;
    // BENCH_08 pins the one with them — the optional columns must not
    // disturb either direction.
    for rel in [
        "results/BENCH_07.json",
        "results/BENCH_08.json",
        "results/BENCH_12.json",
    ] {
        let path = workspace_file(rel);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let parsed = artifact::parse(&text).expect("committed artifact parses");
        assert!(
            !parsed.rows.is_empty(),
            "{rel} has no rows — the snapshot gate would be vacuous"
        );
        assert_eq!(
            artifact::render(&parsed),
            text,
            "re-serializing {rel} changed its bytes; \
             the BENCH serialization contract drifted"
        );
    }
}

#[test]
fn bench_08_rows_carry_the_packed_columns() {
    let path = workspace_file("results/BENCH_08.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let parsed = artifact::parse(&text).expect("committed artifact parses");
    for r in &parsed.rows {
        let wall = r
            .scalar_linear_wall_s
            .expect("BENCH_08 rows measure the scalar kernel");
        let ratio = r.packed_vs_scalar.expect("BENCH_08 rows carry the ratio");
        assert!(wall > 0.0 && ratio > 0.0, "degenerate packed row {r:?}");
        if r.bank == "deep" {
            assert!(
                ratio >= 1.0,
                "deep-bank packed row below scalar parity: {r:?}"
            );
        }
    }
}

#[test]
fn committed_bench_artifact_matrix_is_complete() {
    for rel in ["results/BENCH_07.json", "results/BENCH_12.json"] {
        let path = workspace_file(rel);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let parsed = artifact::parse(&text).expect("committed artifact parses");
        for bank in ["paper", "deep"] {
            assert!(
                parsed
                    .rows
                    .iter()
                    .any(|r| r.bank == bank && r.algorithm == "pagerank"),
                "{rel}: missing pagerank row for bank `{bank}`"
            );
        }
        for r in &parsed.rows {
            assert!(
                r.linear_wall_s > 0.0 && r.indexed_wall_s > 0.0 && r.auto_wall_s > 0.0,
                "{rel}: non-positive wall clock in row {r:?}"
            );
        }
    }
}
