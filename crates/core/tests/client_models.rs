//! [`ClientModels`]: the one place the persistent local-model population
//! is stored and checkpointed. Pins the restore that must not half-apply,
//! the checkpoint section names and order (they fix the checkpoint
//! bytes), and that a damaged spill directory is reported, not averaged
//! away.

use kemf_core::client_models::ClientModels;
use kemf_core::prelude::*;
use kemf_data::synth::{SynthConfig, SynthTask};
use kemf_fl::client_store::SpillConfig;
use kemf_fl::config::FlConfig;
use kemf_fl::context::FlContext;
use kemf_fl::engine::{Engine, FedAlgorithm, RunOptions};
use kemf_fl::state::{AlgorithmState, RestoreError};
use kemf_nn::model::Model;
use kemf_nn::models::{Arch, ModelSpec};
use kemf_nn::serialize::ModelState;
use std::path::PathBuf;

const N: usize = 3;

fn world(seed: u64) -> (FlContext, SynthTask) {
    let task = SynthTask::new(SynthConfig::mnist_like(seed));
    let train = task.generate(60 * N, 0);
    let test = task.generate(40, 1);
    let cfg = FlConfig {
        n_clients: N,
        sample_ratio: 1.0,
        rounds: 2,
        local_epochs: 1,
        batch_size: 16,
        alpha: 0.5,
        min_per_client: 10,
        seed,
        ..Default::default()
    };
    (FlContext::new(cfg, &train, test), task)
}

fn specs() -> Vec<ModelSpec> {
    uniform_specs(Arch::Cnn2, N, 1, 12, 10, 2)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kemf_client_models_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stored(clients: &ClientModels) -> Vec<ModelState> {
    (0..N).map(|k| clients.read(k).unwrap().state()).collect()
}

#[test]
fn a_refused_checkpoint_leaves_every_stored_model_untouched() {
    let (ctx, _) = world(5);
    // The population a checkpoint was taken from: every client retrained
    // (here: a differently seeded model of the same architecture).
    let mut source = ClientModels::new(specs(), None);
    source.init("test", &ctx).unwrap();
    for (k, spec) in specs().into_iter().enumerate() {
        let retrained = Model::new(ModelSpec { seed: 900 + k as u64, ..spec });
        source.commit(k, Some(ClientModels::blob(&retrained))).unwrap();
    }
    let mut good = AlgorithmState::new("test", 1);
    source.push_state(&mut good).unwrap();

    // Same checkpoint, but the *last* section has another architecture's
    // layout: a restore that commits as it goes would already have
    // overwritten clients 0 and 1 by the time it notices.
    let mut bad = good.clone();
    let last = bad.models.iter_mut().find(|(name, _)| name == "local.2").unwrap();
    last.1 = Model::new(ModelSpec::scaled(Arch::Mlp1, 1, 12, 10, 0)).state();

    let mut live = ClientModels::new(specs(), None);
    live.init("test", &ctx).unwrap();
    let before = stored(&live);
    let err = live.restore_state(&bad).unwrap_err();
    assert!(matches!(err, RestoreError::ShapeMismatch { .. }), "{err}");
    assert_eq!(stored(&live), before, "a refused restore must not touch any stored model");

    // A missing section is caught the same way.
    let mut short = good.clone();
    short.models.retain(|(name, _)| name != "local.1");
    assert!(matches!(live.restore_state(&short), Err(RestoreError::MissingEntry { .. })));
    assert_eq!(stored(&live), before);

    live.restore_state(&good).unwrap();
    assert_eq!(stored(&live), stored(&source));
}

/// `(models, tensors, scalars)` section names, in order.
fn sections(state: &AlgorithmState) -> (Vec<String>, Vec<String>, Vec<String>) {
    let names = |v: Vec<&String>| v.into_iter().cloned().collect();
    (
        names(state.models.iter().map(|(n, _)| n).collect()),
        names(state.tensors.iter().map(|(n, _)| n).collect()),
        names(state.scalars.iter().map(|(n, _)| n).collect()),
    )
}

fn strings(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

/// The section names and their order are what fix the checkpoint bytes:
/// each algorithm's own sections first, then `local.0..n-1` (memory) or
/// the `sharded_clients` scalar (sharded) — exactly what the three
/// hand-written `state()` bodies emitted before `ClientModels` existed.
#[test]
fn checkpoint_sections_keep_their_names_and_order_in_both_modes() {
    let locals = ["local.0", "local.1", "local.2"];
    for sharded in [false, true] {
        let (ctx, task) = world(6);
        let dir = temp_dir(&format!("sections_{sharded}"));
        let spill = |name: &str| SpillConfig::new(dir.join(name));

        let mut kemf_cfg = FedKemfConfig::uniform(
            ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 99),
            specs(),
            task.generate_unlabeled(40, 2),
        );
        let mut fedmd =
            FedMd::new(specs(), task.generate_unlabeled(40, 3), 10, FedMdConfig::default());
        let mut gems = FedGems::new(
            specs(),
            ModelSpec { width: 8, ..ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 900) },
            task.generate_unlabeled(40, 3),
            10,
            FedGemsConfig::default(),
        );
        if sharded {
            kemf_cfg = kemf_cfg.with_spill(spill("kemf"));
            fedmd = fedmd.with_spill(spill("fedmd"));
            gems = gems.with_spill(spill("gems"));
        }
        let mut kemf = FedKemf::new(kemf_cfg);
        // One round each, so FedMD has a consensus to export.
        let mut ctx1 = ctx;
        ctx1.cfg.rounds = 1;
        for algo in [&mut kemf as &mut dyn FedAlgorithm, &mut fedmd, &mut gems] {
            Engine::run(algo, &ctx1, RunOptions::new()).unwrap();
        }

        let population = |own: &[&str]| {
            let mut models = strings(own);
            if !sharded {
                models.extend(strings(&locals));
            }
            models
        };
        let marker = |own: &[&str]| {
            let mut scalars = strings(own);
            if sharded {
                scalars.push("sharded_clients".into());
            }
            scalars
        };
        assert_eq!(
            sections(&kemf.state().unwrap()),
            (population(&["knowledge"]), vec![], marker(&[])),
            "FedKEMF, sharded={sharded}"
        );
        assert_eq!(
            sections(&fedmd.state().unwrap()),
            (population(&[]), strings(&["consensus"]), marker(&[])),
            "FedMD, sharded={sharded}"
        );
        assert_eq!(
            sections(&gems.state().unwrap()),
            (population(&["server"]), vec![], marker(&["server_trained"])),
            "FedGEMS, sharded={sharded}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// FedMD's headline metric is the mean accuracy of the stored client
/// models. A spill file that vanished must make it NaN — the convention
/// a quorum-aborted round's loss already uses — not a plausible lower
/// number obtained by skipping the client and still dividing by `n`.
#[test]
fn fedmd_evaluate_reports_nan_when_a_spilled_model_is_gone() {
    let (ctx, task) = world(7);
    let dir = temp_dir("fedmd_nan");
    let mut algo =
        FedMd::new(specs(), task.generate_unlabeled(40, 3), 10, FedMdConfig::default())
            .with_spill(SpillConfig::new(&dir));
    let history = Engine::run(&mut algo, &ctx, RunOptions::new()).unwrap().history;
    assert!(history.accuracies().iter().all(|a| a.is_finite()));
    assert!(algo.evaluate(&ctx).is_finite());

    // Mid-run damage: client 1's newest spilled model disappears.
    let shard = dir.join("shard_0000");
    let mut victims: Vec<PathBuf> = std::fs::read_dir(&shard)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with("c000000001_"))
        .collect();
    victims.sort();
    std::fs::remove_file(victims.last().expect("client 1 was sampled and spilled")).unwrap();

    assert!(algo.evaluate(&ctx).is_nan(), "a damaged spill directory must not look like a score");
    let tests: Vec<_> = (0..N).map(|i| task.generate(20, 50 + i as u64)).collect();
    assert!(algo.evaluate_local_models(&tests, 16).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}
