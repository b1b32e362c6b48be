//! Reusable scratch buffers for the training hot path.
//!
//! Every training step of a convolutional model needs the same set of
//! temporaries — im2col patch matrices, GEMM outputs, activation and
//! gradient tensors. Allocating them per step puts the allocator on the
//! hot path and fragments the heap; a [`Workspace`] instead pools the
//! buffers so a steady-state step performs **zero** heap allocations: the
//! first step warms the pool, later steps recycle.
//!
//! Usage pattern:
//!
//! ```
//! use kemf_tensor::workspace::Workspace;
//!
//! let mut ws = Workspace::new();
//! let buf = ws.take(1024);          // zeroed, len == 1024
//! // ... use buf, e.g. wrap it in a Tensor ...
//! ws.recycle(buf);                  // return for reuse
//! assert_eq!(ws.fresh_allocations(), 1);
//! let again = ws.take(1024);        // pool hit: no allocation
//! assert_eq!(ws.fresh_allocations(), 1);
//! # drop(again);
//! ```
//!
//! Buffers hand ownership back and forth (`take` → `Vec`, `recycle` ←
//! `Vec`), so a pooled buffer can become a [`crate::Tensor`] via
//! `Tensor::from_vec` without copying and return to the pool through
//! `Tensor::into_vec`. The pool is best-fit on capacity: recurring shapes
//! (the steady state of training) always hit exactly.

/// One cache line of int8 codes: the allocation unit of the i8 pool, so
/// every [`I8Buf`] starts 64-byte aligned and the int8 kernels' 64-byte
/// panel loads never split across cache lines (a measurable fraction of
/// the quantized GEMM's time when the panel comes from a plain `Vec<i8>`).
#[repr(align(64))]
#[derive(Clone, Copy, Debug)]
struct CacheLine(
    // Read only through the pointer casts in I8Buf's Deref impls.
    #[allow(dead_code)] [i8; 64],
);

const ZERO_LINE: CacheLine = CacheLine([0; 64]);

/// A pooled, 64-byte-aligned `i8` scratch buffer. Derefs to `[i8]` of the
/// exact requested length, so call sites use it like a `Vec<i8>`; the
/// backing storage is whole cache lines owned by the workspace pool.
#[derive(Debug)]
pub struct I8Buf {
    raw: Vec<CacheLine>,
    len: usize,
}

impl std::ops::Deref for I8Buf {
    type Target = [i8];
    fn deref(&self) -> &[i8] {
        // SAFETY: raw holds len.div_ceil(64) initialized lines, i.e. at
        // least `len` initialized i8 bytes, and `i8` permits any bit
        // pattern at alignment 1.
        unsafe { std::slice::from_raw_parts(self.raw.as_ptr() as *const i8, self.len) }
    }
}

impl std::ops::DerefMut for I8Buf {
    fn deref_mut(&mut self) -> &mut [i8] {
        // SAFETY: as in Deref; the mutable borrow of self guards aliasing.
        unsafe { std::slice::from_raw_parts_mut(self.raw.as_mut_ptr() as *mut i8, self.len) }
    }
}

/// Size-keyed pool of scratch buffers. Not thread-safe by design — each
/// worker (client task, model) owns its own workspace.
///
/// The pool keeps every buffer handed back to it: it grows to the largest
/// set its owner has had in flight at once (a ResNet-20 training step
/// holds well over a hundred — each layer's cached activations until its
/// backward pass) and then stops, which is what makes the steady state
/// allocation-free. [`Workspace::clear`] releases the storage.
#[derive(Debug, Default)]
pub struct Workspace {
    f32_pool: Vec<Vec<f32>>,
    usize_pool: Vec<Vec<usize>>,
    i8_pool: Vec<Vec<CacheLine>>,
    fresh_f32: usize,
    fresh_usize: usize,
    fresh_i8: usize,
}

impl Workspace {
    /// Empty workspace.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// A zeroed `f32` buffer of exactly `len` elements, reusing pooled
    /// storage when a buffer of sufficient capacity exists (best fit).
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_unzeroed(len);
        buf.fill(0.0);
        buf
    }

    /// [`Workspace::take`] without the clearing pass, for callers that
    /// overwrite every element (pack panels, a layer's copy of its input,
    /// plain-store GEMM results): the contents are whatever the buffer's
    /// last user left, zeros where it had to grow.
    pub fn take_unzeroed(&mut self, len: usize) -> Vec<f32> {
        match best_fit(&self.f32_pool, len) {
            Some(idx) => {
                let mut buf = self.f32_pool.swap_remove(idx);
                buf.resize(len, 0.0);
                buf
            }
            None => {
                self.fresh_f32 += 1;
                vec![0.0; len]
            }
        }
    }

    /// Return a buffer to the pool for later reuse.
    pub fn recycle(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.f32_pool.push(buf);
        }
    }

    /// A zeroed `usize` buffer (argmax indices of pooling layers).
    pub fn take_usize(&mut self, len: usize) -> Vec<usize> {
        match best_fit(&self.usize_pool, len) {
            Some(idx) => {
                let mut buf = self.usize_pool.swap_remove(idx);
                buf.clear();
                buf.resize(len, 0);
                buf
            }
            None => {
                self.fresh_usize += 1;
                vec![0; len]
            }
        }
    }

    /// Return an index buffer to the pool.
    pub fn recycle_usize(&mut self, buf: Vec<usize>) {
        if buf.capacity() > 0 {
            self.usize_pool.push(buf);
        }
    }

    /// A zeroed, 64-byte-aligned `i8` buffer (quantized-code panels of
    /// the int8 inference path).
    pub fn take_i8(&mut self, len: usize) -> I8Buf {
        let lines = len.div_ceil(64);
        let raw = match best_fit(&self.i8_pool, lines) {
            Some(idx) => {
                let mut buf = self.i8_pool.swap_remove(idx);
                buf.clear();
                buf.resize(lines, ZERO_LINE);
                buf
            }
            None => {
                self.fresh_i8 += 1;
                vec![ZERO_LINE; lines]
            }
        };
        I8Buf { raw, len }
    }

    /// Return a code buffer to the pool.
    pub fn recycle_i8(&mut self, buf: I8Buf) {
        if buf.raw.capacity() > 0 {
            self.i8_pool.push(buf.raw);
        }
    }

    /// A zeroed pooled [`crate::Tensor`] of the given shape. Both the data
    /// buffer and the dimension vector come from the pools, so a
    /// steady-state `take_tensor`/[`Workspace::recycle_tensor`] cycle
    /// performs no heap allocation at all.
    pub fn take_tensor(&mut self, dims: &[usize]) -> crate::Tensor {
        let mut t = self.take_tensor_unzeroed(dims);
        t.data_mut().fill(0.0);
        t
    }

    /// [`Workspace::take_tensor`] without the clearing pass, for a layer
    /// that writes every element.
    pub fn take_tensor_unzeroed(&mut self, dims: &[usize]) -> crate::Tensor {
        let numel: usize = dims.iter().product();
        let data = self.take_unzeroed(numel);
        let mut d = self.take_usize(dims.len());
        d.copy_from_slice(dims);
        crate::Tensor::from_parts(data, crate::Shape::from_vec(d))
    }

    /// Return a tensor's storage (data + dims) to the pools.
    pub fn recycle_tensor(&mut self, t: crate::Tensor) {
        let (data, shape) = t.into_parts();
        self.recycle(data);
        self.recycle_usize(shape.into_vec());
    }

    /// Number of `f32` buffers created fresh (pool misses) since
    /// construction. A steady-state training step should not move this.
    pub fn fresh_allocations(&self) -> usize {
        self.fresh_f32
    }

    /// Pool-miss count for index buffers.
    pub fn fresh_usize_allocations(&self) -> usize {
        self.fresh_usize
    }

    /// Pool-miss count for quantized-code buffers.
    pub fn fresh_i8_allocations(&self) -> usize {
        self.fresh_i8
    }

    /// Buffers currently parked in the pool.
    pub fn pooled(&self) -> usize {
        self.f32_pool.len() + self.usize_pool.len() + self.i8_pool.len()
    }

    /// Drop all pooled storage (e.g. after an eval pass with odd shapes).
    pub fn clear(&mut self) {
        self.f32_pool.clear();
        self.usize_pool.clear();
        self.i8_pool.clear();
    }
}

/// Index of the pooled buffer with the smallest capacity ≥ `len`.
fn best_fit<T>(pool: &[Vec<T>], len: usize) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None;
    for (i, buf) in pool.iter().enumerate() {
        let cap = buf.capacity();
        if cap >= len && best.is_none_or(|(_, c)| cap < c) {
            best = Some((i, cap));
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_zeroes_and_sizes() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(8);
        assert_eq!(buf.len(), 8);
        assert!(buf.iter().all(|&v| v == 0.0));
        buf.fill(3.0);
        ws.recycle(buf);
        let again = ws.take(8);
        assert!(again.iter().all(|&v| v == 0.0), "recycled buffer must be re-zeroed");
    }

    #[test]
    fn steady_state_does_not_allocate() {
        let mut ws = Workspace::new();
        for _ in 0..10 {
            let a = ws.take(100);
            let b = ws.take(50);
            ws.recycle(a);
            ws.recycle(b);
        }
        assert_eq!(ws.fresh_allocations(), 2, "only the warm-up step may allocate");
    }

    #[test]
    fn best_fit_prefers_tightest_buffer() {
        let mut ws = Workspace::new();
        ws.recycle(Vec::with_capacity(1000));
        ws.recycle(Vec::with_capacity(64));
        let buf = ws.take(60);
        assert!(buf.capacity() < 1000, "should reuse the 64-capacity buffer");
        assert_eq!(ws.fresh_allocations(), 0);
    }

    #[test]
    fn mismatched_sizes_fall_back_to_fresh() {
        let mut ws = Workspace::new();
        let a = ws.take(10);
        ws.recycle(a);
        let b = ws.take(10_000); // pool buffer too small
        assert_eq!(ws.fresh_allocations(), 2);
        assert_eq!(b.len(), 10_000);
    }

    #[test]
    fn usize_pool_independent() {
        let mut ws = Workspace::new();
        let idx = ws.take_usize(16);
        ws.recycle_usize(idx);
        let again = ws.take_usize(16);
        assert_eq!(again.len(), 16);
        assert_eq!(ws.fresh_usize_allocations(), 1);
        assert_eq!(ws.fresh_allocations(), 0);
    }

    #[test]
    fn i8_pool_independent() {
        let mut ws = Workspace::new();
        let mut codes = ws.take_i8(32);
        codes.fill(7);
        ws.recycle_i8(codes);
        let again = ws.take_i8(32);
        assert_eq!(again.len(), 32);
        assert_eq!(again.as_ptr() as usize % 64, 0, "i8 buffers must be cache-line aligned");
        assert!(again.iter().all(|&v| v == 0), "recycled code buffer must be re-zeroed");
        assert_eq!(ws.fresh_i8_allocations(), 1);
        assert_eq!(ws.fresh_allocations(), 0);
    }

    #[test]
    fn a_working_set_larger_than_any_fixed_cap_still_recycles() {
        // ResNet-20 holds more than a hundred buffers between forward and
        // backward; a pool that dropped buffers past a fixed count missed
        // on every later step.
        let mut ws = Workspace::new();
        for _ in 0..3 {
            let live: Vec<_> = (0..200).map(|i| ws.take(8 + i)).collect();
            live.into_iter().for_each(|buf| ws.recycle(buf));
        }
        assert_eq!(ws.fresh_allocations(), 200, "only the first pass may allocate");
    }

    #[test]
    fn take_unzeroed_keeps_the_length_contract() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(8);
        buf.fill(3.0);
        ws.recycle(buf);
        assert_eq!(ws.take_unzeroed(6), [3.0; 6], "stale contents are allowed, the length is not");
        let mut ws = Workspace::new();
        ws.recycle(Vec::with_capacity(16));
        assert_eq!(ws.take_unzeroed(10), [0.0; 10], "growth is zero-filled");
        assert_eq!(ws.fresh_allocations(), 0);
    }

    #[test]
    fn take_tensor_is_allocation_free_at_steady_state() {
        let mut ws = Workspace::new();
        for step in 0..5 {
            let t = ws.take_tensor(&[2, 3, 4, 4]);
            assert_eq!(t.dims(), &[2, 3, 4, 4]);
            assert!(t.data().iter().all(|&v| v == 0.0));
            ws.recycle_tensor(t);
            if step == 0 {
                assert_eq!((ws.fresh_allocations(), ws.fresh_usize_allocations()), (1, 1));
            }
        }
        assert_eq!(ws.fresh_allocations(), 1, "data buffer must be reused");
        assert_eq!(ws.fresh_usize_allocations(), 1, "dims buffer must be reused");
    }

    #[test]
    fn tensor_round_trip_reuses_storage() {
        let mut ws = Workspace::new();
        let buf = ws.take(12);
        let ptr = buf.as_ptr();
        let t = crate::Tensor::from_vec(buf, &[3, 4]);
        ws.recycle(t.into_vec());
        let again = ws.take(12);
        assert_eq!(again.as_ptr(), ptr, "buffer should round-trip through Tensor unchanged");
        assert_eq!(ws.fresh_allocations(), 1);
    }
}
