//! # kemf-bench
//!
//! Experiment harness reproducing every table and figure of the FedKEMF
//! paper. One binary, `experiments`, trains each distinct
//! (spec, algorithm) run once and builds every artefact from the shared
//! histories; `--only <names>` selects artefacts (default: all, in paper
//! order). Each prints the rows/series the paper reports and writes CSV
//! into `bench_results/`:
//!
//! | `--only` | Reproduces | CSV |
//! |---|---|---|
//! | `fig4` | Fig. 4 — accuracy vs rounds, 5 algorithms × 4 models | `fig4_<model>.csv` |
//! | `fig5` | Fig. 5 — convergence accuracy bars (Fig. 4's runs) | `fig5_convergence_acc.csv` |
//! | `fig6` | Fig. 6 — rounds to reach target accuracy (Fig. 4's runs) | `fig6_rounds_to_target.csv` |
//! | `table1` | Table 1 — communication cost to target accuracy (Table 2's runs) | `table1_comm_cost_target.csv` |
//! | `table2` | Table 2 — cost & accuracy at convergence | `table2_comm_cost_converge.csv` |
//! | `table3` | Table 3 — multi-model FL average local accuracy | `table3_multimodel.csv` |
//! | `fig7` | Fig. 7 — stability across FL settings | `fig7_stability.csv` |
//! | `ablation_ensemble` | Ensemble-strategy, fusion, DML and temperature ablations | `ablation_ensemble.csv` |
//! | `ablation_knet_size` | Knowledge-network width vs accuracy vs payload | `ablation_knet_size.csv` |
//! | `hetero_baselines` | FedKEMF vs FedDF / FedMD / FedGEMS | `hetero_baselines.csv` |
//!
//! `--clients N --rounds R --ratio F --spc S --alpha A --seed X` override
//! the scale (defaults finish in minutes on two cores); `--trace <dir>` or
//! `--checkpoint-dir <dir>` observe every run of the invocation (see
//! [`train`]); an unknown flag is an error. The `bench_*` binaries measure
//! the system itself. Criterion benches (`cargo bench -p kemf-bench`)
//! exercise the kernels, one local update, one aggregation round, and
//! miniature versions of each experiment.

pub mod args;
pub mod report;
pub mod runner;

pub use args::Args;
pub use report::{fmt_bytes, fmt_pct, fmt_speedup, Table};
pub use runner::{
    fedkemf_config, full_scale_bytes, train, AlgoKind, ExperimentSpec, Workload, ALL_ALGOS,
};

/// Apply the common CLI overrides to an experiment spec.
pub fn apply_overrides(spec: &mut ExperimentSpec, args: &Args) {
    spec.clients = args.get("clients", spec.clients);
    spec.rounds = args.get("rounds", spec.rounds);
    spec.sample_ratio = args.get("ratio", spec.sample_ratio);
    spec.samples_per_client = args.get("spc", spec.samples_per_client);
    spec.alpha = args.get("alpha", spec.alpha);
    spec.seed = args.get("seed", spec.seed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_nn::models::Arch;

    #[test]
    fn overrides_apply() {
        let mut spec = ExperimentSpec::quick(Workload::CifarLike, Arch::ResNet20);
        let args = Args::from_iter(["--clients", "30", "--alpha", "0.5"].map(String::from));
        apply_overrides(&mut spec, &args);
        assert_eq!(spec.clients, 30);
        assert!((spec.alpha - 0.5).abs() < 1e-9);
        assert_eq!(spec.rounds, 15, "untouched fields keep defaults");
    }
}
