//! Small builder helpers shared by the model definitions.

use crate::activation::ReLU;
use crate::conv2d::Conv2d;
use crate::param::Init;
use crate::sequential::{NormKind, Sequential};

/// Append `Conv → Norm → ReLU` to a sequential network.
#[allow(clippy::too_many_arguments)]
pub fn conv_norm_relu(
    net: Sequential,
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    init: Init,
    norm: NormKind,
) -> Sequential {
    net.push(Conv2d::with_init(in_ch, out_ch, kernel, stride, pad, init))
        .push_boxed(norm.build(out_ch))
        .push(ReLU::new())
}

/// Append `Conv → BatchNorm → ReLU` (paper-default norm).
pub fn conv_bn_relu(
    net: Sequential,
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    seed: u64,
) -> Sequential {
    conv_norm_relu(net, in_ch, out_ch, kernel, stride, pad, Init::Seeded(seed), NormKind::Batch)
}
