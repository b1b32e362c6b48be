//! Small builder helpers shared by the model definitions.

use crate::conv2d::Conv2d;
use crate::norm::BatchNorm2d;
use crate::param::Init;
use crate::sequential::Sequential;

/// Append `Conv → BatchNorm → ReLU` to a sequential network, the filters
/// drawn from `init`: two layers, the ReLU folded into the batch norm
/// ([`BatchNorm2d::with_relu`]).
pub fn conv_bn_relu(
    net: Sequential,
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    init: Init,
) -> Sequential {
    net.push(Conv2d::with_init(in_ch, out_ch, kernel, stride, pad, init))
        .push(BatchNorm2d::with_relu(out_ch))
}
