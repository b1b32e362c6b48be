//! Hostile section lengths: a corrupt count anywhere in a checkpoint
//! bundle must come back as `InvalidData` naming the file — never reach
//! the allocator. Each case declares a count the 2³³-element cap of the
//! old guard let through (2³²), and one that overflows `count × size`
//! (`u64::MAX`), in a file of a few dozen bytes.

use kemf_nn::checkpoint::load_bundle;
use std::io::ErrorKind;

fn u64le(v: u64) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

fn name(s: &str) -> Vec<u8> {
    [u64le(s.len() as u64), s.as_bytes().to_vec()].concat()
}

/// Every section up to (excluding) the hostile count, per section.
fn prefixes() -> Vec<(&'static str, Vec<Vec<u8>>)> {
    let zero = || u64le(0);
    let one = || u64le(1);
    vec![
        ("meta", vec![]),
        ("models", vec![zero()]),
        ("string", vec![zero(), one()]),
        ("lens", vec![zero(), one(), name("m")]),
        // `values` is filled in below: its lens must sum to the count.
        ("values", vec![zero(), one(), name("m"), one()]),
        ("arrays", vec![zero(), zero()]),
        ("dims", vec![zero(), zero(), one(), name("a")]),
        ("array values", vec![zero(), zero(), one(), name("a"), one()]),
        ("scalars", vec![zero(), zero(), zero()]),
    ]
}

#[test]
fn hostile_count_in_every_section_is_invalid_data_not_an_allocation() {
    let dir = std::env::temp_dir().join(format!("kemf_hostile_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for huge in [1u64 << 32, u64::MAX] {
        for (section, prefix) in prefixes() {
            let mut bytes = b"KEMFCKPT".to_vec();
            bytes.extend_from_slice(&2u32.to_le_bytes());
            bytes.extend(prefix.concat());
            if section == "values" || section == "array values" {
                // The single len/dim agrees with the hostile value count,
                // so only the bytes-remaining bound can refuse it.
                bytes.extend(u64le(huge));
            }
            bytes.extend(u64le(huge));
            // Padding so the honest counts before the hostile one pass
            // their own bound.
            bytes.extend([0u8; 64]);
            let path = dir.join(format!("{}_{huge}.ckpt", section.replace(' ', "_")));
            std::fs::write(&path, &bytes).unwrap();
            let err = load_bundle(&path).expect_err(section);
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{section} count {huge}: {err}");
            let msg = err.to_string();
            assert!(msg.contains(path.to_str().unwrap()), "{section}: error lacks path: {msg}");
            assert!(msg.contains("implausible"), "{section} count {huge}: {msg}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lens_whose_sum_overflows_are_refused() {
    let dir = std::env::temp_dir().join(format!("kemf_hostile_sum_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut bytes = b"KEMFCKPT".to_vec();
    bytes.extend_from_slice(&2u32.to_le_bytes());
    // meta 0, one model "m", two lens that wrap to 2 when summed, 2 values.
    for part in [u64le(0), u64le(1), name("m"), u64le(2), u64le(u64::MAX), u64le(3), u64le(2)] {
        bytes.extend(part);
    }
    bytes.extend([0u8; 64]);
    let path = dir.join("wrap.ckpt");
    std::fs::write(&path, &bytes).unwrap();
    let err = load_bundle(&path).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
