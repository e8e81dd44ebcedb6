//! Behaviour lock for the figure and table binaries.
//!
//! Each binary's stdout at `IMPRESS_SCALE=0.05` is committed under
//! `tests/golden/<bin>.tsv`. This suite reruns every binary with one and with
//! four sweep/shard threads and requires its output to match byte for byte,
//! so a refactor that moves any reproduced number fails here. An intended
//! output change regenerates the files in the same change, with the reason
//! stated; from the repository root:
//!
//! ```sh
//! cargo build --release -p impress-bench
//! for f in crates/bench/tests/golden/*.tsv; do
//!     b=$(basename "$f" .tsv)
//!     env -u IMPRESS_ALL_WORKLOADS IMPRESS_SCALE=0.05 IMPRESS_THREADS=1 \
//!         "target/release/$b" > "$f"
//! done
//! ```

use std::path::Path;
use std::process::Command;

/// Every figure/table binary and its built executable.
const BINARIES: [(&str, &str); 18] = [
    ("energy_overhead", env!("CARGO_BIN_EXE_energy_overhead")),
    ("fig03_tmro_perf", env!("CARGO_BIN_EXE_fig03_tmro_perf")),
    (
        "fig04_tstar_vs_tmro",
        env!("CARGO_BIN_EXE_fig04_tstar_vs_tmro"),
    ),
    (
        "fig05_graphene_para_tmro",
        env!("CARGO_BIN_EXE_fig05_graphene_para_tmro"),
    ),
    (
        "fig07_longterm_clm",
        env!("CARGO_BIN_EXE_fig07_longterm_clm"),
    ),
    (
        "fig08_shortterm_clm",
        env!("CARGO_BIN_EXE_fig08_shortterm_clm"),
    ),
    ("fig12_frac_bits", env!("CARGO_BIN_EXE_fig12_frac_bits")),
    (
        "fig13_defense_perf",
        env!("CARGO_BIN_EXE_fig13_defense_perf"),
    ),
    (
        "fig14_act_overhead",
        env!("CARGO_BIN_EXE_fig14_act_overhead"),
    ),
    ("fig15_trh_scaling", env!("CARGO_BIN_EXE_fig15_trh_scaling")),
    (
        "fig16_impress_n_alpha",
        env!("CARGO_BIN_EXE_fig16_impress_n_alpha"),
    ),
    (
        "fig18_graphene_attack",
        env!("CARGO_BIN_EXE_fig18_graphene_attack"),
    ),
    ("fig19_para_attack", env!("CARGO_BIN_EXE_fig19_para_attack")),
    ("impress_n_evasion", env!("CARGO_BIN_EXE_impress_n_evasion")),
    ("storage_overheads", env!("CARGO_BIN_EXE_storage_overheads")),
    ("table1_timings", env!("CARGO_BIN_EXE_table1_timings")),
    ("table2_config", env!("CARGO_BIN_EXE_table2_config")),
    ("table3_comparison", env!("CARGO_BIN_EXE_table3_comparison")),
];

fn golden_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
}

/// Runs every binary at `threads` and lists each one whose stdout differs
/// from its golden file.
fn check_at(threads: &str) {
    let mut mismatches = Vec::new();
    for (name, exe) in BINARIES {
        let golden = std::fs::read(golden_dir().join(format!("{name}.tsv")))
            .unwrap_or_else(|e| panic!("golden output for {name}: {e}"));
        let out = Command::new(exe)
            .env("IMPRESS_SCALE", "0.05")
            .env("IMPRESS_THREADS", threads)
            .env_remove("IMPRESS_ALL_WORKLOADS")
            .output()
            .unwrap_or_else(|e| panic!("cannot run {name}: {e}"));
        assert!(
            out.status.success(),
            "{name} exited with {} at IMPRESS_THREADS={threads}:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        if out.stdout != golden {
            let first = String::from_utf8_lossy(&out.stdout)
                .lines()
                .zip(String::from_utf8_lossy(&golden).lines())
                .position(|(got, want)| got != want)
                .map_or_else(|| "line count".to_string(), |i| format!("line {}", i + 1));
            mismatches.push(format!("{name} (first difference: {first})"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "outputs differ from tests/golden at IMPRESS_THREADS={threads}: {}",
        mismatches.join(", ")
    );
}

#[test]
fn golden_directory_holds_exactly_the_figure_binaries() {
    let mut files: Vec<String> = std::fs::read_dir(golden_dir())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    let mut expected: Vec<String> = BINARIES.iter().map(|(n, _)| format!("{n}.tsv")).collect();
    expected.sort();
    assert_eq!(files, expected);
}

#[test]
fn figure_outputs_match_golden_at_one_thread() {
    check_at("1");
}

#[test]
fn figure_outputs_match_golden_at_four_threads() {
    check_at("4");
}
