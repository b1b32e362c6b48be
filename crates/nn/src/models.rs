//! The FedKEMF model zoo: CIFAR-style ResNet-20/32/44, VGG-11, and the
//! LEAF-style 2-layer CNN, all width- and resolution-parameterized.
//!
//! The paper trains the full-scale variants (ResNet width 16, VGG width 64,
//! CNN width 16) on 32×32 CIFAR-10 and 28×28 MNIST. This reproduction
//! trains width/resolution-scaled variants of the *same topologies* on one
//! CPU core, and uses the full-scale constructors for parameter/byte
//! accounting, so the paper's communication-cost ratios are preserved.

use crate::activation::{Flatten, ReLU};
use crate::cnn_util::conv_bn_relu;
use crate::conv2d::Conv2d;
use crate::linear::Linear;
use crate::param::Init;
use crate::pool::{GlobalAvgPool, MaxPool2};
use crate::sequential::{BasicBlock, Sequential};
use serde::{Deserialize, Serialize};

/// Architectures used in the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Arch {
    /// CIFAR ResNet with 3 stages × 3 basic blocks (depth 20).
    ResNet20,
    /// CIFAR ResNet with 3 stages × 5 basic blocks (depth 32).
    ResNet32,
    /// CIFAR ResNet with 3 stages × 7 basic blocks (depth 44).
    ResNet44,
    /// VGG-11 (configuration A) with a compact classifier head.
    Vgg11,
    /// LEAF-style 2-layer CNN (two 5×5 conv + pool stages and a classifier).
    Cnn2,
    /// One-hidden-layer MLP (flatten → linear(width) → ReLU → classifier).
    /// Width-elastic by construction: every hidden unit owns a disjoint
    /// parameter slice, which is what rolling sub-model extraction
    /// (FedRolex) needs to cover a wide server net window by window.
    Mlp1,
}

impl Arch {
    /// Blocks per ResNet stage (`depth = 6n + 2`); `None` for non-ResNets.
    pub fn resnet_blocks(self) -> Option<usize> {
        match self {
            Arch::ResNet20 => Some(3),
            Arch::ResNet32 => Some(5),
            Arch::ResNet44 => Some(7),
            _ => None,
        }
    }

    /// Human-readable name matching the paper's tables.
    pub fn display(self) -> &'static str {
        match self {
            Arch::ResNet20 => "ResNet-20",
            Arch::ResNet32 => "ResNet-32",
            Arch::ResNet44 => "ResNet-44",
            Arch::Vgg11 => "VGG-11",
            Arch::Cnn2 => "2-layer CNN",
            Arch::Mlp1 => "1-hidden MLP",
        }
    }

    /// The paper-scale base width for this architecture.
    pub fn paper_width(self) -> usize {
        match self {
            Arch::ResNet20 | Arch::ResNet32 | Arch::ResNet44 => 16,
            Arch::Vgg11 => 64,
            Arch::Cnn2 => 16,
            Arch::Mlp1 => 256,
        }
    }
}

/// Full description of a concrete model instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Topology.
    pub arch: Arch,
    /// Input channels (3 for CIFAR-like, 1 for MNIST-like).
    pub in_channels: usize,
    /// Square input resolution.
    pub input_hw: usize,
    /// Number of classes.
    pub classes: usize,
    /// Base width; stage widths are fixed multiples of this.
    pub width: usize,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl ModelSpec {
    /// Scaled-down spec used for actual training in this reproduction.
    pub fn scaled(arch: Arch, in_channels: usize, input_hw: usize, classes: usize, seed: u64) -> Self {
        let width = match arch {
            Arch::ResNet20 | Arch::ResNet32 | Arch::ResNet44 => 4,
            Arch::Vgg11 => 8,
            Arch::Cnn2 => 4,
            Arch::Mlp1 => 32,
        };
        ModelSpec { arch, in_channels, input_hw, classes, width, seed }
    }

    /// Paper-scale spec (full width, 32×32 or 28×28 inputs) used for
    /// parameter and communication-byte accounting.
    pub fn paper_scale(arch: Arch) -> Self {
        let (in_channels, input_hw) = match arch {
            Arch::Cnn2 | Arch::Mlp1 => (1, 28),
            _ => (3, 32),
        };
        ModelSpec {
            arch,
            in_channels,
            input_hw,
            classes: 10,
            width: arch.paper_width(),
            seed: 0,
        }
    }

    /// Construct the network for this spec, its weights drawn from the
    /// spec's seed.
    pub fn build(&self) -> Sequential {
        self.build_with(true)
    }

    /// Construct the network with all-zero weights and no draws: the
    /// skeleton [`crate::model::Model::from_state`] writes a state into.
    pub(crate) fn build_zeroed(&self) -> Sequential {
        self.build_with(false)
    }

    fn build_with(&self, draw: bool) -> Sequential {
        type Builder = fn(&ModelSpec, &mut dyn FnMut() -> Init) -> Sequential;
        let (mul, add, build): (u64, u64, Builder) = match self.arch {
            Arch::ResNet20 | Arch::ResNet32 | Arch::ResNet44 => (7919, 1, build_resnet),
            Arch::Vgg11 => (104729, 11, build_vgg11),
            Arch::Cnn2 => (31337, 3, build_cnn2),
            Arch::Mlp1 => (48611, 5, build_mlp1),
        };
        // Every parameterized layer takes the next seed of the spec's
        // sequence — or, for a skeleton, no seed at all.
        let mut seed = self.seed.wrapping_mul(mul).wrapping_add(add);
        build(self, &mut || {
            seed = seed.wrapping_add(1);
            if draw {
                Init::Seeded(seed)
            } else {
                Init::Zeros
            }
        })
    }
}

/// CIFAR ResNet: 3×3 conv stem, three stages of basic blocks with widths
/// `w, 2w, 4w` and strides `1, 2, 2`, global average pool, linear head.
fn build_resnet(spec: &ModelSpec, next: &mut dyn FnMut() -> Init) -> Sequential {
    let n = spec.arch.resnet_blocks().expect("resnet arch");
    let w = spec.width;
    let mut net = Sequential::new();
    net = conv_bn_relu(net, spec.in_channels, w, 3, 1, 1, next());
    let stages = [(w, 1usize), (2 * w, 2), (4 * w, 2)];
    let mut in_ch = w;
    for &(out_ch, first_stride) in &stages {
        for b in 0..n {
            let stride = if b == 0 { first_stride } else { 1 };
            net = net.push(BasicBlock::with_init(in_ch, out_ch, stride, next()));
            in_ch = out_ch;
        }
    }
    net.push(GlobalAvgPool::new()).push(Linear::with_init(4 * w, spec.classes, next()))
}

/// VGG-11 (configuration A): widths `[1,2,4,4,8,8,8,8] × width`, max-pool
/// after convs 1, 2, 4, 6, 8 while spatial size permits, global average
/// pool fallback, then a `8w → 8w → classes` classifier.
fn build_vgg11(spec: &ModelSpec, next: &mut dyn FnMut() -> Init) -> Sequential {
    let w = spec.width;
    let widths = [w, 2 * w, 4 * w, 4 * w, 8 * w, 8 * w, 8 * w, 8 * w];
    // Max-pool after these conv indices (0-based), the VGG-A schedule.
    let pool_after = [0usize, 1, 3, 5, 7];
    let mut net = Sequential::new();
    let mut in_ch = spec.in_channels;
    let mut hw = spec.input_hw;
    for (i, &out_ch) in widths.iter().enumerate() {
        net = conv_bn_relu(net, in_ch, out_ch, 3, 1, 1, next());
        in_ch = out_ch;
        if pool_after.contains(&i) && hw >= 2 {
            net = net.push(MaxPool2::new());
            hw /= 2;
        }
    }
    // Collapse whatever spatial extent remains, then classify.
    net = net.push(GlobalAvgPool::new());
    net.push(Linear::with_init(8 * w, 8 * w, next()))
        .push(ReLU::new())
        .push(Linear::with_init(8 * w, spec.classes, next()))
}

/// LEAF-style 2-layer CNN: two 5×5 conv (+ReLU +2×2 max-pool) stages with
/// widths `2w, 4w`, then a linear classifier on the flattened maps.
fn build_cnn2(spec: &ModelSpec, next: &mut dyn FnMut() -> Init) -> Sequential {
    let w = spec.width;
    let hw_after = spec.input_hw / 2 / 2;
    assert!(hw_after >= 1, "input {} too small for 2-layer CNN", spec.input_hw);
    Sequential::new()
        .push(Conv2d::with_init(spec.in_channels, 2 * w, 5, 1, 2, next()))
        .push(ReLU::new())
        .push(MaxPool2::new())
        .push(Conv2d::with_init(2 * w, 4 * w, 5, 1, 2, next()))
        .push(ReLU::new())
        .push(MaxPool2::new())
        .push(Flatten::new())
        .push(Linear::with_init(4 * w * hw_after * hw_after, spec.classes, next()))
}

/// One-hidden-layer MLP: flatten, `in → width` linear, ReLU, `width →
/// classes` classifier. No normalization layers, so the state is pure
/// parameters (no buffers) and each hidden unit `j` owns exactly one
/// input-weight row, one hidden bias, and one classifier column —
/// disjoint slices a rolling window can extract and scatter back.
fn build_mlp1(spec: &ModelSpec, next: &mut dyn FnMut() -> Init) -> Sequential {
    let w = spec.width;
    let in_dim = spec.in_channels * spec.input_hw * spec.input_hw;
    Sequential::new()
        .push(Flatten::new())
        .push(Linear::with_init(in_dim, w, next()))
        .push(ReLU::new())
        .push(Linear::with_init(w, spec.classes, next()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_tensor::workspace::Workspace;
    use crate::layer::Layer;
    use kemf_tensor::rng::seeded_rng;
    use kemf_tensor::Tensor;

    fn forward_shape(spec: &ModelSpec, batch: usize) -> Vec<usize> {
        let ws = &mut Workspace::new();
        let mut net = spec.build();
        let mut rng = seeded_rng(0);
        let x = Tensor::randn(&[batch, spec.in_channels, spec.input_hw, spec.input_hw], 1.0, &mut rng);
        net.forward(&x, false, ws).dims().to_vec()
    }

    #[test]
    fn resnet20_scaled_forward_shape() {
        let spec = ModelSpec::scaled(Arch::ResNet20, 3, 16, 10, 0);
        assert_eq!(forward_shape(&spec, 2), vec![2, 10]);
    }

    #[test]
    fn resnet_family_depth_ordering() {
        // Deeper ResNets have more parameters at the same width.
        let p20 = ModelSpec::scaled(Arch::ResNet20, 3, 16, 10, 0).build().param_count();
        let p32 = ModelSpec::scaled(Arch::ResNet32, 3, 16, 10, 0).build().param_count();
        let p44 = ModelSpec::scaled(Arch::ResNet44, 3, 16, 10, 0).build().param_count();
        assert!(p20 < p32 && p32 < p44, "{p20} {p32} {p44}");
    }

    #[test]
    fn vgg_scaled_forward_shape() {
        let spec = ModelSpec::scaled(Arch::Vgg11, 3, 16, 10, 0);
        assert_eq!(forward_shape(&spec, 1), vec![1, 10]);
    }

    #[test]
    fn cnn2_forward_shape_mnist_like() {
        let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0);
        assert_eq!(forward_shape(&spec, 3), vec![3, 10]);
    }

    #[test]
    fn mlp1_forward_shape_and_param_layout() {
        let spec = ModelSpec::scaled(Arch::Mlp1, 1, 12, 10, 0);
        assert_eq!(forward_shape(&spec, 3), vec![3, 10]);
        // Pure parameters: W1[w, in], b1[w], W2[classes, w], b2[classes]
        // and no normalization buffers — the layout rolling extraction
        // depends on.
        let net = spec.build();
        let in_dim = 12 * 12;
        let expected = 32 * in_dim + 32 + 10 * 32 + 10;
        assert_eq!(net.param_count(), expected);
        let mut buffers = 0;
        net.visit_buffers(&mut |_| buffers += 1);
        assert_eq!(buffers, 0, "MLP-1 must carry no running stats");
    }

    #[test]
    fn vgg_is_much_larger_than_resnets() {
        // The communication-cost headline depends on this ordering.
        let vgg = ModelSpec::paper_scale(Arch::Vgg11).build().param_count();
        let r32 = ModelSpec::paper_scale(Arch::ResNet32).build().param_count();
        let r20 = ModelSpec::paper_scale(Arch::ResNet20).build().param_count();
        assert!(vgg > 10 * r32, "VGG {vgg} vs ResNet-32 {r32}");
        assert!(r32 > r20, "ResNet-32 {r32} vs ResNet-20 {r20}");
    }

    #[test]
    fn paper_scale_resnet20_param_count_plausible() {
        // The canonical CIFAR ResNet-20 has ~0.27 M parameters.
        let p = ModelSpec::paper_scale(Arch::ResNet20).build().param_count();
        assert!((250_000..300_000).contains(&p), "ResNet-20 params {p}");
    }

    #[test]
    fn same_seed_same_weights() {
        let spec = ModelSpec::scaled(Arch::ResNet20, 3, 16, 10, 7);
        let a = spec.build();
        let b = spec.build();
        let mut wa = Vec::new();
        a.visit_params(&mut |p| wa.extend_from_slice(p.value.data()));
        let mut wb = Vec::new();
        b.visit_params(&mut |p| wb.extend_from_slice(p.value.data()));
        assert_eq!(wa, wb);
    }

    #[test]
    fn different_seed_different_weights() {
        let a = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 1).build();
        let b = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 2).build();
        let mut wa = Vec::new();
        a.visit_params(&mut |p| wa.extend_from_slice(p.value.data()));
        let mut wb = Vec::new();
        b.visit_params(&mut |p| wb.extend_from_slice(p.value.data()));
        assert_ne!(wa, wb);
    }
}
