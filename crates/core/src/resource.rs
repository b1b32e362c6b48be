//! Resource-aware model assignment: FedKEMF lets every client deploy a
//! model sized to its device. The paper's multi-model experiment runs
//! ResNet-20/32/44 side by side in one FL system (Table 3).

use kemf_nn::models::{Arch, ModelSpec};
use kemf_tensor::rng::{child_seed, seeded_rng};
use rand::Rng;

/// Compute-capability tier of an edge device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ResourceTier {
    /// Constrained devices (phones, sensors) → smallest model.
    Low,
    /// Mid-range devices → medium model.
    Mid,
    /// Capable devices (workstations, edge servers) → largest model.
    High,
}

impl ResourceTier {
    /// Architecture the paper deploys for this tier.
    pub fn arch(self) -> Arch {
        match self {
            ResourceTier::Low => Arch::ResNet20,
            ResourceTier::Mid => Arch::ResNet32,
            ResourceTier::High => Arch::ResNet44,
        }
    }
}

/// Deterministic tier assignment for a client population: roughly equal
/// thirds, shuffled by seed so tiers do not correlate with data shards.
pub fn assign_tiers(n_clients: usize, seed: u64) -> Vec<ResourceTier> {
    let mut rng = seeded_rng(child_seed(seed, 0x7153_5253)); // "TIER"
    (0..n_clients)
        .map(|_| match rng.gen_range(0..3) {
            0 => ResourceTier::Low,
            1 => ResourceTier::Mid,
            _ => ResourceTier::High,
        })
        .collect()
}

/// Per-client model specs for a heterogeneous deployment: the tier picks
/// the architecture; channels/resolution/classes come from the task.
pub fn heterogeneous_specs(
    tiers: &[ResourceTier],
    in_channels: usize,
    input_hw: usize,
    classes: usize,
    seed: u64,
) -> Vec<ModelSpec> {
    tiers
        .iter()
        .enumerate()
        .map(|(k, t)| {
            ModelSpec::scaled(t.arch(), in_channels, input_hw, classes, child_seed(seed, k as u64))
        })
        .collect()
}

/// A uniform deployment (every client the same architecture), the
/// single-model configuration of Figs. 4–6 and Tables 1–2.
pub fn uniform_specs(
    arch: Arch,
    n_clients: usize,
    in_channels: usize,
    input_hw: usize,
    classes: usize,
    seed: u64,
) -> Vec<ModelSpec> {
    (0..n_clients)
        .map(|k| ModelSpec::scaled(arch, in_channels, input_hw, classes, child_seed(seed, k as u64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_map_to_resnet_family() {
        assert_eq!(ResourceTier::Low.arch(), Arch::ResNet20);
        assert_eq!(ResourceTier::Mid.arch(), Arch::ResNet32);
        assert_eq!(ResourceTier::High.arch(), Arch::ResNet44);
    }

    #[test]
    fn assignment_is_deterministic_and_mixed() {
        let a = assign_tiers(30, 5);
        let b = assign_tiers(30, 5);
        assert_eq!(a, b);
        // All three tiers present in a population of 30.
        for t in [ResourceTier::Low, ResourceTier::Mid, ResourceTier::High] {
            assert!(a.contains(&t), "tier {t:?} missing");
        }
    }

    #[test]
    fn hetero_specs_follow_tiers() {
        let tiers = vec![ResourceTier::Low, ResourceTier::High];
        let specs = heterogeneous_specs(&tiers, 3, 16, 10, 0);
        assert_eq!(specs[0].arch, Arch::ResNet20);
        assert_eq!(specs[1].arch, Arch::ResNet44);
        assert_ne!(specs[0].seed, specs[1].seed, "clients get distinct init seeds");
    }

    #[test]
    fn uniform_specs_share_arch() {
        let specs = uniform_specs(Arch::Vgg11, 4, 3, 16, 10, 1);
        assert!(specs.iter().all(|s| s.arch == Arch::Vgg11));
        assert_eq!(specs.len(), 4);
    }
}
