//! The heap policy settled with the compute width: once
//! `kemf_tensor::par::width()` has run, memory the process frees stays in
//! glibc's arena, so a round that frees its model-sized buffers and the
//! next round that allocates them again take no page faults. The policy
//! is per process, so this file is a test binary of its own.
#![cfg(all(target_os = "linux", target_env = "gnu"))]

use std::hint::black_box;

/// The process's minor page faults so far: field 10 of `/proc/self/stat`.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("linux has /proc/self/stat");
    // `pid (comm) state ...`: count fields from the last `)`, after which
    // field 3 comes first.
    let rest = &stat[stat.rfind(')').expect("comm is parenthesised") + 1..];
    rest.split_whitespace().nth(10 - 3).and_then(|f| f.parse().ok()).expect("minflt field")
}

/// One round's worth of model-sized buffers (the `avg_mlp_socket` model
/// is 1.27 MB): allocated, every page written, all freed.
fn round() {
    let bufs: Vec<Vec<u8>> = (0..5)
        .map(|_| {
            let mut b = vec![0u8; 1_300_000];
            for i in (0..b.len()).step_by(4096) {
                b[i] = 1;
            }
            b
        })
        .collect();
    black_box(&bufs);
}

#[test]
fn freed_round_buffers_are_reused_without_faulting() {
    kemf_tensor::par::width();
    round();
    let before = minor_faults();
    const REPS: u64 = 19;
    for _ in 0..REPS {
        round();
    }
    let faults = minor_faults() - before;
    // Each repetition writes about 1,590 pages; with glibc's default
    // thresholds each of them is mapped again and faulted in.
    assert!(
        faults < REPS,
        "{faults} minor faults over {REPS} repetitions after the first: freed buffers left the heap"
    );
    assert!(kemf_tensor::par::heap_kept(), "glibc refused a threshold of the heap policy");
}
