//! Fixture: serving-path panic and indexing violations, including the two
//! literal patterns (`.unwrap()`, `panic!(`) the old CI grep audit matched.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

fn serve(xs: &[u32]) -> u32 {
    let head = xs.first().unwrap();
    let tail = xs.last().expect("non-empty");
    if xs.is_empty() {
        panic!("empty batch");
    }
    head + tail + xs[0]
}

fn suppressed(xs: &[u32]) -> u32 {
    // mesa-lint: allow(serving-panic-free) -- fixture: a reasoned suppression is honored
    xs.first().unwrap() + 1
}

fn checked(xs: &[u32]) -> usize {
    assert!(!xs.is_empty(), "empty batch");
    debug_assert!(xs.len() < 1 << 20, "debug assertions stay allowed");
    xs.len()
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_inside_tests_is_exempt() {
        let v = vec![1u32];
        assert_eq!(*v.first().unwrap(), v[0]);
    }
}
