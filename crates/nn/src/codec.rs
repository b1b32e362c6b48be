//! The one byte codec: every on-disk and on-wire format in the stack —
//! checkpoint bundles, the run-checkpoint `meta` and its in-flight
//! events, `QuantizedWeights` wire payloads, KMFT frames and their
//! bodies, client-store spill blobs, and the run identity a checkpoint's
//! fingerprint hashes — is written with [`Writer`] and read with
//! [`Reader`]. Everything is little-endian; a variable-length
//! section is a `u64` length or count followed by its contents.
//!
//! **The one length policy.** Input is untrusted (a file may be truncated
//! or bit-flipped, a peer hostile). [`Reader`] checks every declared
//! length or count against the bytes still unread *before* anything is
//! allocated for it, takes bulk sections as one bounds-checked slice,
//! checks that a weight snapshot's `lens` sum (and a tensor's `dims`
//! multiply) to its value count, and [`Reader::finish`] — which
//! [`decode`] ends every parse with — rejects trailing bytes. A decoder
//! built on it can neither panic nor allocate more than a small multiple
//! of its input, whatever the input says — `tests/decoders.rs` holds all
//! of them to that.
//!
//! The stack's two byte hashes live here too: [`crc32`] (frame and
//! payload integrity; the one place that chooses between the carry-less
//! multiply kernel in `kemf_tensor::simd` and the slice-by-8 table) and
//! [`fnv1a64`] (run fingerprints, filler seeds).

use crate::models::ModelSpec;
use crate::serialize::{ModelState, TensorBlob, Weights};
use kemf_tensor::simd::{self, Isa};
use std::fmt;

/// Why a byte sequence could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// A field, or a section of the declared length or count, needs
    /// `needed` bytes (saturating) where only `left` remain unread.
    Short { what: &'static str, needed: u64, left: usize },
    /// The bytes are all there but contradict each other or the format:
    /// shape mismatch, bad UTF-8, unknown tag or version, trailing bytes.
    Malformed(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Short { what, needed, left } => write!(
                f,
                "implausible or truncated {what}: needs {needed} bytes, only {left} remain"
            ),
            CodecError::Malformed(detail) => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for std::io::Error {
    fn from(e: CodecError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Append-only little-endian encoder over a `Vec<u8>`.
#[derive(Clone, Debug, Default)]
pub struct Writer(Vec<u8>);

/// Bounds-checked little-endian decoder over a byte slice; see the
/// module docs for the length policy.
#[derive(Clone, Debug)]
pub struct Reader<'a>(&'a [u8]);

/// Fixed-width scalars: `Writer::t(v)` appends the value's little-endian
/// bytes (floats by bit pattern, so NaN payloads and `-0.0` survive) and
/// `Reader::t()` takes them back.
macro_rules! scalars {
    ($($t:ident),*) => {
        impl Writer {
            $(pub fn $t(&mut self, v: $t) {
                self.raw(&v.to_le_bytes());
            })*
        }
        impl Reader<'_> {
            $(pub fn $t(&mut self) -> Result<$t, CodecError> {
                let bytes = self.take(std::mem::size_of::<$t>(), "fixed-width field")?;
                Ok($t::from_le_bytes(bytes.try_into().expect("take returned the width asked for")))
            })*
        }
    };
}
scalars!(u8, u32, u64, f32, f64);

impl Writer {
    /// Empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Empty writer with room for `bytes`.
    pub fn with_capacity(bytes: usize) -> Self {
        Writer(Vec::with_capacity(bytes))
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }

    /// The bytes encoded so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Bytes as they are, no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    /// Append `n` zero bytes and hand them back to be filled in place.
    pub fn zeros(&mut self, n: usize) -> &mut [u8] {
        let start = self.0.len();
        self.0.resize(start + n, 0);
        &mut self.0[start..]
    }

    /// A size or index, as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Length-prefixed bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        self.raw(bytes);
    }

    /// Length-prefixed UTF-8.
    pub fn string(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Count-prefixed `i8` codes, one byte each.
    pub fn i8s(&mut self, v: &[i8]) {
        self.usize(v.len());
        self.0.extend(v.iter().map(|&c| c as u8));
    }

    /// Count-prefixed sizes, each a `u64`.
    pub fn u64s(&mut self, v: &[usize]) {
        self.usize(v.len());
        self.0.extend(v.iter().flat_map(|&x| (x as u64).to_le_bytes()));
    }

    /// Count-prefixed `f32` bit patterns.
    pub fn f32s(&mut self, v: &[f32]) {
        self.usize(v.len());
        // Sized once, then filled chunk by chunk: a block copy on
        // little-endian hosts, where a per-element `extend` re-checks
        // capacity on every value.
        for (dst, x) in self.zeros(4 * v.len()).chunks_exact_mut(4).zip(v) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
    }

    /// A weight snapshot: `lens`, then `values`.
    pub fn weights(&mut self, w: &Weights) {
        self.u64s(&w.lens);
        self.f32s(&w.values);
    }

    /// A model state: `params`, then `buffers`.
    pub fn model(&mut self, s: &ModelState) {
        self.weights(&s.params);
        self.weights(&s.buffers);
    }

    /// A tensor: `dims`, then `values`.
    pub fn tensor(&mut self, t: &TensorBlob) {
        self.u64s(&t.dims);
        self.f32s(&t.values);
    }

    /// A model spec: the architecture's tag, every size, and the
    /// weight-initialization seed.
    pub fn spec(&mut self, s: &ModelSpec) {
        self.u8(s.arch as u8);
        [s.in_channels, s.input_hw, s.classes, s.width].into_iter().for_each(|v| self.usize(v));
        self.u64(s.seed);
    }

    /// A count-prefixed list of named items, each written by `item`.
    pub fn named<T>(&mut self, items: &[(String, T)], mut item: impl FnMut(&mut Self, &T)) {
        self.usize(items.len());
        for (name, value) in items {
            self.string(name);
            item(self, value);
        }
    }
}

/// Decode all of `bytes` with `parse`, then [`Reader::finish`]: a format
/// read through here cannot forget the trailing-garbage check.
pub fn decode<'a, T>(
    bytes: &'a [u8],
    parse: impl FnOnce(&mut Reader<'a>) -> Result<T, CodecError>,
) -> Result<T, CodecError> {
    let mut r = Reader::new(bytes);
    let out = parse(&mut r)?;
    r.finish()?;
    Ok(out)
}

fn le_chunks<const N: usize>(bytes: &[u8]) -> impl Iterator<Item = [u8; N]> + '_ {
    bytes.chunks_exact(N).map(|c| c.try_into().expect("chunks_exact yields N-byte chunks"))
}

fn to_usize(v: u64) -> Result<usize, CodecError> {
    usize::try_from(v).map_err(|_| CodecError::Malformed(format!("size {v} does not fit a usize")))
}

impl<'a> Reader<'a> {
    /// Decode `bytes` from the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader(bytes)
    }

    /// The next `n` bytes as they are.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if n > self.0.len() {
            return Err(CodecError::Short { what, needed: n as u64, left: self.0.len() });
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    /// Everything still unread (a frame body's payload tail).
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.0)
    }

    /// Done decoding: anything still unread is an error.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.0.len() {
            0 => Ok(()),
            extra => Err(CodecError::Malformed(format!("{extra} trailing bytes after the last section"))),
        }
    }

    /// A size or index written by [`Writer::usize`].
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        to_usize(self.u64()?)
    }

    /// A declared count of items that each occupy at least `item_bytes`:
    /// refused unless that many can still follow.
    pub fn count(&mut self, item_bytes: usize, what: &'static str) -> Result<usize, CodecError> {
        let n = self.u64()?;
        let needed = n.saturating_mul(item_bytes as u64);
        if needed > self.0.len() as u64 {
            return Err(CodecError::Short { what, needed, left: self.0.len() });
        }
        Ok(n as usize)
    }

    /// A counted list: `item` runs once per declared element, none of
    /// which can encode to fewer than `item_bytes`.
    pub fn list<T>(
        &mut self,
        item_bytes: usize,
        what: &'static str,
        mut item: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.count(item_bytes, what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// A counted list of named items (a name is at least its length).
    pub fn named<T>(
        &mut self,
        item_bytes: usize,
        what: &'static str,
        mut item: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<(String, T)>, CodecError> {
        self.list(8 + item_bytes, what, |r| Ok((r.string("name")?, item(r)?)))
    }

    /// Named model states; a model is at least four counts (32 bytes).
    pub fn models(&mut self, what: &'static str) -> Result<Vec<(String, ModelState)>, CodecError> {
        self.named(32, what, Self::model)
    }

    /// Named tensors; a tensor is at least two counts (16 bytes).
    pub fn tensors(&mut self, what: &'static str) -> Result<Vec<(String, TensorBlob)>, CodecError> {
        self.named(16, what, Self::tensor)
    }

    /// Length-prefixed bytes.
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], CodecError> {
        let n = self.count(1, what)?;
        self.take(n, what)
    }

    /// Length-prefixed UTF-8.
    pub fn string(&mut self, what: &'static str) -> Result<String, CodecError> {
        String::from_utf8(self.bytes(what)?.to_vec())
            .map_err(|_| CodecError::Malformed(format!("{what} is not UTF-8")))
    }

    /// Count-prefixed `i8` codes.
    pub fn i8s(&mut self, what: &'static str) -> Result<Vec<i8>, CodecError> {
        Ok(self.bytes(what)?.iter().map(|&b| b as i8).collect())
    }

    /// Count-prefixed sizes.
    pub fn u64s(&mut self, what: &'static str) -> Result<Vec<usize>, CodecError> {
        let n = self.count(8, what)?;
        let mut out = Vec::with_capacity(n);
        for c in le_chunks(self.take(8 * n, what)?) {
            out.push(to_usize(u64::from_le_bytes(c))?);
        }
        Ok(out)
    }

    /// Count-prefixed `f32` bit patterns.
    pub fn f32s(&mut self, what: &'static str) -> Result<Vec<f32>, CodecError> {
        let n = self.count(4, what)?;
        Ok(le_chunks(self.take(4 * n, what)?).map(f32::from_le_bytes).collect())
    }

    /// `what` values whose count must equal `expected` — the checked sum
    /// or product of the sizes read just before (`None`: it overflowed).
    fn shaped(&mut self, what: &'static str, expected: Option<usize>) -> Result<Vec<f32>, CodecError> {
        let values = self.f32s(what)?;
        if expected != Some(values.len()) {
            let n = values.len();
            return Err(CodecError::Malformed(format!("{n} {what} do not match the declared shape")));
        }
        Ok(values)
    }

    /// A weight snapshot whose `lens` sum to its value count.
    pub fn weights(&mut self) -> Result<Weights, CodecError> {
        let lens = self.u64s("lens")?;
        let total = lens.iter().try_fold(0usize, |acc, &l| acc.checked_add(l));
        Ok(Weights { values: self.shaped("values", total)?, lens })
    }

    /// A model state.
    pub fn model(&mut self) -> Result<ModelState, CodecError> {
        Ok(ModelState { params: self.weights()?, buffers: self.weights()? })
    }

    /// A tensor whose `dims` multiply to its value count.
    pub fn tensor(&mut self) -> Result<TensorBlob, CodecError> {
        let dims = self.u64s("dims")?;
        let total = dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d));
        Ok(TensorBlob { values: self.shaped("tensor values", total)?, dims })
    }
}

/// The IEEE CRC-32 polynomial, reflected.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables: `[0][b]` is the CRC state after byte `b` alone,
/// `[k][b]` after `b` and `k` zero bytes — what lets eight input bytes
/// fold into the state with eight independent lookups.
static CRC32_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// IEEE CRC-32 (reflected) of `bytes`, continuing from `crc`; `0` starts
/// a checksum, so `crc32(crc32(0, a), b)` is the CRC of `a` then `b`
/// without joining them. A socket round checksums every payload byte four
/// times in each direction, so this runs at memory speed where it can: on
/// the SIMD tiers of a host with carry-less multiply, an input of 64 bytes
/// or more has its whole 16-byte blocks folded by
/// [`simd::crc32_pclmul`] (~24 GB/s), and only the tail goes through
/// the slice-by-8 table (~1.5 GB/s). Short inputs, the scalar tier
/// (`KEMF_SIMD=scalar`, `simd::force_scalar`) and other hosts run the table
/// alone. Both routes give the same bits; the table is the reference.
pub fn crc32(crc: u32, bytes: &[u8]) -> u32 {
    let (mut state, mut tail) = (!crc, bytes);
    if bytes.len() >= 64 && simd::isa() != Isa::Scalar && simd::pclmulqdq() {
        let (blocks, rest) = bytes.split_at(bytes.len() & !15);
        state = simd::crc32_pclmul(state, blocks);
        tail = rest;
    }
    !crc32_table(state, tail)
}

/// The slice-by-8 step: the CRC register (a checksum's complement) after
/// `bytes`, eight bytes a step.
fn crc32_table(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = (u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc) as usize;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]) as usize;
        crc = t[7][lo & 0xFF]
            ^ t[6][(lo >> 8) & 0xFF]
            ^ t[5][(lo >> 16) & 0xFF]
            ^ t[4][lo >> 24]
            ^ t[3][hi & 0xFF]
            ^ t[2][(hi >> 8) & 0xFF]
            ^ t[1][(hi >> 16) & 0xFF]
            ^ t[0][hi >> 24];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The FNV-1a-64 offset basis: the `seed` of a hash that continues no
/// other.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a-64 of `bytes`, continuing from `seed`.
pub fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(seed, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_tensor::simd::ScalarGuard;
    use proptest::prelude::*;

    /// The table-free definition [`crc32`] is checked against: one
    /// conditional polynomial subtraction per input bit.
    fn crc32_bitwise(crc: u32, bytes: &[u8]) -> u32 {
        let mut crc = !crc;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// [`crc32`] of `bytes`, whole and split at `split`, on the native
    /// tier (the carry-less fold where the host has it) and the forced
    /// scalar one (the table alone).
    fn both_tiers(seed: u32, bytes: &[u8], split: usize) -> [u32; 4] {
        let run = || [crc32(seed, bytes), crc32(crc32(seed, &bytes[..split]), &bytes[split..])];
        let [whole, chained] = run();
        let _scalar = ScalarGuard::new();
        let [scalar_whole, scalar_chained] = run();
        [whole, chained, scalar_whole, scalar_chained]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Lengths cross the 64-byte floor of the fold and its 16-, 64- and
        // 128-byte block edges; offsets move every load off alignment.
        #[test]
        fn table_crc_equals_bitwise_crc_at_any_split(
            bytes in prop::collection::vec(0u8..=255, 1116),
            at in 0usize..16,
            len in 0usize..=1100,
            split in 0usize..=1100,
            seed in 0u32..=u32::MAX,
        ) {
            let bytes = &bytes[at..at + len];
            let want = crc32_bitwise(seed, bytes);
            prop_assert_eq!(both_tiers(seed, bytes, split.min(len)), [want; 4]);
        }
    }

    /// Every length up to 1100 once, so each block edge and the 64-byte
    /// floor is crossed on purpose and not by the draw.
    #[test]
    fn every_length_and_offset_matches_the_bitwise_crc() {
        let buf: Vec<u8> = (0..1116u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 21) as u8).collect();
        for len in 0..=1100 {
            let (at, seed) = (len % 16, (len as u32).wrapping_mul(0x0101_0101));
            let bytes = &buf[at..at + len];
            assert_eq!(both_tiers(seed, bytes, len / 3), [crc32_bitwise(seed, bytes); 4], "len {len}");
        }
    }

    /// An `avg_mlp_socket` payload's worth of bytes has one checksum,
    /// whichever tier computes it.
    #[test]
    fn payload_sized_crc_is_pinned_on_both_tiers() {
        let mut s = 0x243F_6A88_85A3_08D3u64;
        let bytes: Vec<u8> = (0..1_269_800)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 56) as u8
            })
            .collect();
        assert_eq!(both_tiers(0, &bytes, 640_001), [0xfe15_a396; 4]);
    }
}
