//! `release_free_memory` returns freed heap pages that `free` alone keeps
//! resident. The only test of its binary, so no other test allocates or
//! releases while the resident set is read.

#![cfg(all(target_os = "linux", target_env = "gnu"))]

use parallel::release_free_memory;

/// Resident set of this process, in bytes.
fn resident_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<usize>().ok())
        .expect("a VmRSS line in /proc/self/status");
    kib << 10
}

#[test]
fn freed_pages_below_a_live_chunk_are_returned() {
    const MB: usize = 1 << 20;
    // 64 MB in 64 KB blocks, below glibc's mmap threshold, so they come
    // from the heap; every page is written, so every page is resident.
    let blocks: Vec<Vec<u8>> = (0..1024).map(|_| vec![1u8; 64 << 10]).collect();
    // A live chunk above the blocks keeps `free` from shrinking the heap.
    let pin = std::hint::black_box(vec![1u8; 64]);
    drop(blocks);
    let freed = resident_bytes();
    release_free_memory();
    let released = resident_bytes();
    assert!(
        freed >= released + 32 * MB,
        "resident set {} MB after freeing, {} MB after the release",
        freed / MB,
        released / MB
    );
    drop(pin);
}
