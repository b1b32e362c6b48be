//! The [`Tensor`] type: contiguous row-major `f32` storage plus a shape.
//!
//! Tensors are deliberately plain data. Arithmetic helpers that allocate a
//! result live here; the performance-critical kernels (matmul, conv,
//! softmax) live in sibling modules and operate on slices.

use crate::shape::Shape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, contiguous, row-major `f32` tensor.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Build a tensor from data and shape. Panics if the element count
    /// does not match the shape.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {:?}",
            data.len(),
            dims
        );
        Tensor { data, shape }
    }

    /// All-zeros tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor { data: vec![0.0; shape.numel()], shape }
    }

    /// All-ones tensor.
    pub fn ones(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor { data: vec![1.0; shape.numel()], shape }
    }

    /// Constant-filled tensor.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor { data: vec![value; shape.numel()], shape }
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Shape accessor.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension list.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total element count.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable data slice.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Build from pre-owned storage and shape without copying either —
    /// the allocation-free constructor used by the workspace hot path.
    pub fn from_parts(data: Vec<f32>, shape: Shape) -> Self {
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {shape:?}",
            data.len()
        );
        Tensor { data, shape }
    }

    /// Consume into storage and shape (both recyclable into a pool).
    pub fn into_parts(self) -> (Vec<f32>, Shape) {
        (self.data, self.shape)
    }

    /// Element accessor by multi-dimensional index.
    #[inline]
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element accessor by multi-dimensional index.
    #[inline]
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// Reinterpret with a new shape of identical element count.
    pub fn reshape(mut self, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(shape.numel(), self.data.len(), "reshape to {dims:?} changes element count");
        self.shape = shape;
        self
    }

    /// View the rows `[start, end)` of the leading dimension as a new tensor
    /// (copies the slice; rows of a row-major tensor are contiguous).
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        let dims = self.dims();
        assert!(!dims.is_empty(), "cannot row-slice a scalar");
        assert!(start <= end && end <= dims[0], "row slice {start}..{end} out of {}", dims[0]);
        let row: usize = dims[1..].iter().product();
        let mut new_dims = dims.to_vec();
        new_dims[0] = end - start;
        Tensor::from_vec(self.data[start * row..end * row].to_vec(), &new_dims)
    }

    /// Gather rows of the leading dimension by index (copies).
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let dims = self.dims();
        assert!(!dims.is_empty(), "cannot gather rows of a scalar");
        let row: usize = dims[1..].iter().product();
        let mut out = Vec::with_capacity(indices.len() * row);
        for &i in indices {
            assert!(i < dims[0], "gather index {i} out of {}", dims[0]);
            out.extend_from_slice(&self.data[i * row..(i + 1) * row]);
        }
        let mut new_dims = dims.to_vec();
        new_dims[0] = indices.len();
        Tensor::from_vec(out, &new_dims)
    }

    // ---- element-wise arithmetic (allocating) -------------------------

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Element-wise binary zip; shapes must match exactly.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip shape mismatch");
        Tensor {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// `self - other`.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// `self * s` (allocating).
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// `self += alpha * other`, in place (BLAS axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// `self *= s`, in place.
    pub fn scale_inplace(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Fill with a constant.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    // ---- reductions ----------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        // Pairwise-ish accumulation in f64 for stability on long buffers.
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for empty tensors).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Squared L2 norm.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>() as f32
    }

    /// L2 norm.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Dot product with another tensor of identical shape.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "dot shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a as f64) * (b as f64))
            .sum::<f64>() as f32
    }

    /// True when any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}(", self.shape.dims())?;
        let n = self.data.len().min(8);
        for (i, v) in self.data[..n].iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > n {
            write!(f, ", …")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 3]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[2, 3]).sum(), 6.0);
        assert_eq!(Tensor::full(&[4], 2.5).sum(), 10.0);
        let e = Tensor::eye(3);
        assert_eq!(e.sum(), 3.0);
        assert_eq!(e.at(&[1, 1]), 1.0);
        assert_eq!(e.at(&[0, 1]), 0.0);
    }

    #[test]
    #[should_panic]
    fn from_vec_rejects_bad_shape() {
        Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let r = t.clone().reshape(&[3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.dims(), &[3, 2]);
    }

    #[test]
    fn slice_and_gather_rows() {
        let t = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[4, 3]);
        let s = t.slice_rows(1, 3);
        assert_eq!(s.dims(), &[2, 3]);
        assert_eq!(s.data(), &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let g = t.gather_rows(&[3, 0]);
        assert_eq!(g.data(), &[9.0, 10.0, 11.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn arithmetic() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c.data(), &[7.0, 12.0]);
        assert!((a.dot(&b) - 13.0).abs() < 1e-6);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]);
        assert_eq!(t.sum(), 2.0);
        assert!((t.mean() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(t.max(), 3.0);
        assert!((t.sq_norm() - 14.0).abs() < 1e-5);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[3]);
        assert!(!t.has_non_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(t.has_non_finite());
    }
}
