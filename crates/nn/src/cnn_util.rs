//! Small builder helpers shared by the model definitions.

use crate::activation::ReLU;
use crate::conv2d::Conv2d;
use crate::norm::BatchNorm2d;
use crate::param::Init;
use crate::sequential::Sequential;

/// Append `Conv → BatchNorm → ReLU` to a sequential network, the filters
/// drawn from `init`.
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
        .push(BatchNorm2d::new(out_ch))
        .push(ReLU::new())
}
