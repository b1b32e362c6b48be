//! The byte codec's own contract: every field kind round-trips, hostile
//! lengths are refused before allocation, shapes that lie are malformed,
//! and the two hashes match their published vectors. (The decoders built
//! on it are held to the same policy end to end by `tests/decoders.rs` at
//! the workspace root.)

use kemf_nn::codec::{crc32, fnv1a64, CodecError, Reader, Writer, FNV_OFFSET};
use kemf_nn::serialize::{ModelState, TensorBlob, Weights};

fn sample() -> (ModelState, TensorBlob) {
    let w = |lens: &[usize]| Weights {
        values: (0..lens.iter().sum::<usize>()).map(|i| i as f32 - 0.5).collect(),
        lens: lens.to_vec(),
    };
    let model = ModelState { params: w(&[3, 0, 2]), buffers: w(&[1]) };
    (model, TensorBlob { dims: vec![2, 2], values: vec![1.0, f32::NAN, -0.0, 4.0] })
}

#[test]
fn every_field_kind_round_trips_and_finish_sees_the_end() {
    let (model, tensor) = sample();
    let mut w = Writer::new();
    w.u8(7);
    w.u32(0xDEAD_BEEF);
    w.u64(u64::MAX);
    w.usize(42);
    w.f32(f32::NAN);
    w.f64(-0.0);
    w.string("naïve");
    w.bytes(&[1, 2, 3]);
    w.i8s(&[-128, -1, 127]);
    w.model(&model);
    w.tensor(&tensor);
    w.raw(b"tail");
    let bytes = w.into_bytes();

    let mut r = Reader::new(&bytes);
    assert_eq!(r.u8().unwrap(), 7);
    assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
    assert_eq!(r.u64().unwrap(), u64::MAX);
    assert_eq!(r.usize().unwrap(), 42);
    assert_eq!(r.f32().unwrap().to_bits(), f32::NAN.to_bits());
    assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
    assert_eq!(r.string("s").unwrap(), "naïve");
    assert_eq!(r.bytes("b").unwrap(), [1, 2, 3]);
    assert_eq!(r.i8s("i").unwrap(), [-128, -1, 127]);
    assert_eq!(r.model().unwrap(), model);
    let t = r.tensor().unwrap();
    assert_eq!(t.dims, tensor.dims);
    assert_eq!(t.values[1].to_bits(), f32::NAN.to_bits());
    assert!(matches!(r.clone().finish(), Err(CodecError::Malformed(_))), "4 bytes still unread");
    assert_eq!(r.rest(), b"tail");
    assert_eq!(r.finish(), Ok(()));
}

#[test]
fn hostile_lengths_are_refused_before_allocation() {
    for huge in [1u64 << 32, u64::MAX] {
        let mut w = Writer::new();
        w.u64(huge);
        w.raw(&[0; 24]);
        let bytes = w.into_bytes();
        let short = |r: Result<(), CodecError>| matches!(r, Err(CodecError::Short { left: 24, .. }));
        assert!(short(Reader::new(&bytes).bytes("b").map(drop)));
        assert!(short(Reader::new(&bytes).string("s").map(drop)));
        assert!(short(Reader::new(&bytes).u64s("u").map(drop)));
        assert!(short(Reader::new(&bytes).f32s("f").map(drop)));
        assert!(short(Reader::new(&bytes).weights().map(drop)));
        assert!(short(Reader::new(&bytes).tensor().map(drop)));
        assert!(short(Reader::new(&bytes).list(1, "l", |r| r.u8()).map(drop)));
    }
    let e = Reader::new(&[0; 3]).u32().unwrap_err();
    assert_eq!(e, CodecError::Short { what: "fixed-width field", needed: 4, left: 3 });
    assert!(e.to_string().contains("implausible"), "{e}");
}

#[test]
fn shapes_that_lie_are_malformed() {
    let (model, tensor) = sample();
    let mut w = Writer::new();
    w.u64s(&[2, 2]);
    w.f32s(&model.params.values); // 5 values under lens summing to 4
    assert!(matches!(Reader::new(&w.into_bytes()).weights(), Err(CodecError::Malformed(_))));
    let mut w = Writer::new();
    w.u64s(&[3, usize::MAX]); // product overflows
    w.f32s(&tensor.values);
    assert!(matches!(Reader::new(&w.into_bytes()).tensor(), Err(CodecError::Malformed(_))));
    let mut w = Writer::new();
    w.bytes(&[0xFF, 0xFE]);
    assert!(matches!(Reader::new(&w.into_bytes()).string("s"), Err(CodecError::Malformed(_))));
}

#[test]
fn hashes_match_known_vectors() {
    assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(crc32(0, b"1234"), b"56789"), 0xCBF4_3926, "chained == one-shot");
    assert_eq!(fnv1a64(FNV_OFFSET, b""), FNV_OFFSET);
    assert_eq!(fnv1a64(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(fnv1a64(FNV_OFFSET, b"foo"), b"bar"), fnv1a64(FNV_OFFSET, b"foobar"));
}
