//! Shape bookkeeping for row-major tensors.
//!
//! A [`Shape`] is a thin wrapper over `Vec<usize>` that caches the element
//! count and provides the index arithmetic used by the kernels. Tensors in
//! this crate are always contiguous and row-major, so strides are derived,
//! never stored.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Dimensions of a row-major tensor.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Build a shape from a dimension list. Zero-sized dimensions are
    /// permitted (they yield empty tensors).
    pub fn new(dims: &[usize]) -> Self {
        Shape { dims: dims.to_vec() }
    }

    /// Build a shape taking ownership of an existing dimension buffer —
    /// the allocation-free counterpart of [`Shape::new`] used by the
    /// workspace hot path.
    pub fn from_vec(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// Consume into the dimension buffer (for recycling into a pool).
    pub fn into_vec(self) -> Vec<usize> {
        self.dims
    }

    /// Dimension list.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Size of dimension `i`.
    #[inline]
    pub fn dim(&self, i: usize) -> usize {
        self.dims[i]
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Row-major strides (in elements) for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Flat offset of a multi-dimensional index. Panics when the index is
    /// out of range in debug builds.
    #[inline]
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.dims.len());
        let mut off = 0;
        let mut stride = 1;
        for i in (0..self.dims.len()).rev() {
            debug_assert!(index[i] < self.dims[i], "index {index:?} out of {:?}", self.dims);
            off += index[i] * stride;
            stride *= self.dims[i];
        }
        off
    }

    /// Interpret as a matrix `[rows, cols]`, flattening leading dimensions.
    /// A 1-D shape becomes `[1, n]`.
    pub fn as_matrix(&self) -> (usize, usize) {
        match self.dims.len() {
            0 => (1, 1),
            1 => (1, self.dims[0]),
            _ => {
                let cols = *self.dims.last().unwrap();
                (self.numel() / cols.max(1), cols)
            }
        }
    }

    /// `[N, C, H, W]` accessor; panics if the shape is not 4-D.
    pub fn as_nchw(&self) -> (usize, usize, usize, usize) {
        assert_eq!(self.dims.len(), 4, "expected NCHW shape, got {:?}", self.dims);
        (self.dims[0], self.dims[1], self.dims[2], self.dims[3])
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(d: &[usize]) -> Self {
        Shape::new(d)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(d: [usize; N]) -> Self {
        Shape::new(&d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_dim() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.dim(1), 3);
    }

    #[test]
    fn empty_shape_is_scalar_like() {
        let s = Shape::new(&[]);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.as_matrix(), (1, 1));
    }

    #[test]
    fn zero_dim_yields_empty() {
        let s = Shape::new(&[3, 0, 2]);
        assert_eq!(s.numel(), 0);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::new(&[2, 3, 4]);
        let strides = s.strides();
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let expect = i * strides[0] + j * strides[1] + k * strides[2];
                    assert_eq!(s.offset(&[i, j, k]), expect);
                }
            }
        }
    }

    #[test]
    fn matrix_view_flattens_leading_dims() {
        assert_eq!(Shape::new(&[2, 3, 4]).as_matrix(), (6, 4));
        assert_eq!(Shape::new(&[5]).as_matrix(), (1, 5));
        assert_eq!(Shape::new(&[7, 2]).as_matrix(), (7, 2));
    }

    #[test]
    fn nchw_accessor() {
        assert_eq!(Shape::new(&[1, 3, 8, 8]).as_nchw(), (1, 3, 8, 8));
    }

    #[test]
    #[should_panic]
    fn nchw_accessor_rejects_non_4d() {
        Shape::new(&[2, 3]).as_nchw();
    }
}
