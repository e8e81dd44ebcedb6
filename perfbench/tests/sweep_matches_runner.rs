//! The `sweep` workload measures what the figure binaries run: at the
//! runner's own seed its cells and normalized results equal
//! `ExperimentRunner::run_sweep_with_options` bit for bit.

use impress_sim::{ExperimentRunner, SweepOptions};
use perfbench::spans::Tracer;
use perfbench::sweep::{simulated, Sweep};
use perfbench::{Size, Workload};

#[test]
fn sweep_cells_and_normalization_equal_the_experiment_runner() {
    let sweep = Sweep::setup(0x1A7E_2024, Size::Tiny);
    let round = sweep.round(&Tracer::off(), None);
    let normalized = sweep.normalized(&round);
    let runner = ExperimentRunner::new().with_requests_per_core(sweep.quota());
    let workloads = sweep.workloads();
    let configurations = sweep.configurations();

    // One runner sweep per tracker, normalized to that tracker's No-RP.
    let mut group_start = 0;
    while group_start < configurations.len() {
        let tracker = configurations[group_start]
            .label
            .split('+')
            .next()
            .unwrap()
            .to_string();
        let group_end = (group_start..configurations.len())
            .find(|&c| !configurations[c].label.starts_with(&format!("{tracker}+")))
            .unwrap_or(configurations.len());
        let group = &configurations[group_start..group_end];
        assert!(group[0].label.ends_with("+No-RP"), "{}", group[0].label);
        let results = runner.run_sweep_with_options(
            workloads,
            group,
            &SweepOptions {
                threads: Some(2),
                shard_threads: Some(1),
                normalization: Some(group[0].clone()),
            },
        );
        let expected = results.normalized.expect("normalization requested");
        for (k, row) in expected.iter().enumerate() {
            for (w, cell) in row.iter().enumerate() {
                let i = sweep.cell(group_start + k, w);
                let ours = round.outputs[i].as_ref().expect("cell ran");
                assert_eq!(
                    simulated(ours),
                    simulated(&results.raw[k][w]),
                    "{}",
                    cell.configuration
                );
                assert_eq!(simulated(ours), simulated(&cell.output));
                assert_eq!(
                    normalized[i].map(f64::to_bits),
                    Some(cell.normalized_performance.to_bits()),
                    "{} on {}",
                    cell.configuration,
                    cell.workload
                );
            }
        }
        group_start = group_end;
    }
}
