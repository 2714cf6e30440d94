//! Property tests asserting that the dense (mixed-radix flat vector) and
//! sparse (hash map) contingency kernels produce identical entropies, mutual
//! information, and table shapes on random columns — including all-missing
//! and single-category edge cases.

use proptest::prelude::*;

use mesa_repro::infotheory::JointTable;
use mesa_repro::tabular::EncodedColumn;

/// Strategy: per-row cells as `(code, present)` pairs encoded in one integer:
/// value `0` is a missing cell, `v >= 1` is code `v - 1`.
fn cells(len: usize, card: u32) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0..=card, len)
}

fn to_column(cells: &[u32], card: u32) -> EncodedColumn {
    let labels = (0..card.max(1)).map(|c| format!("v{c}")).collect();
    EncodedColumn::from_option_codes(cells.iter().map(|&v| v.checked_sub(1)), labels)
}

/// The joint table of `cols` built with an explicit dense-cell threshold
/// (`0` forces the sparse hash path).
fn table(cols: &[&EncodedColumn], weights: Option<&[f64]>, dense_cells: usize) -> JointTable {
    JointTable::build_with_threshold(cols, weights, dense_cells).unwrap()
}

/// Entropy of the joint table of `cols` built at the given threshold.
fn entropy_with(cols: &[&EncodedColumn], weights: Option<&[f64]>, dense_cells: usize) -> f64 {
    table(cols, weights, dense_cells).entropy()
}

/// `I(X;Y)` computed from one joint table built at the given threshold.
fn mi_with(
    x: &EncodedColumn,
    y: &EncodedColumn,
    weights: Option<&[f64]>,
    dense_cells: usize,
) -> f64 {
    let joint = table(&[x, y], weights, dense_cells);
    let hx = joint.marginal(&[0]).entropy();
    let hy = joint.marginal(&[1]).entropy();
    (hx + hy - joint.entropy()).max(0.0)
}

const DENSE: usize = 1 << 20;
const SPARSE: usize = 0;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Joint entropy is identical between the two layouts, with and without
    /// missing values.
    #[test]
    fn entropies_agree(
        xs in cells(70, 5),
        ys in cells(70, 3),
    ) {
        let x = to_column(&xs, 5);
        let y = to_column(&ys, 3);
        let dense = entropy_with(&[&x, &y], None, DENSE);
        let sparse = entropy_with(&[&x, &y], None, SPARSE);
        prop_assert!((dense - sparse).abs() < 1e-12, "dense={dense} sparse={sparse}");
        // single columns too
        prop_assert!((entropy_with(&[&x], None, DENSE) - entropy_with(&[&x], None, SPARSE)).abs() < 1e-12);
    }

    /// Mutual information is identical between the two layouts.
    #[test]
    fn mutual_information_agrees(
        xs in cells(80, 4),
        ys in cells(80, 4),
    ) {
        let x = to_column(&xs, 4);
        let y = to_column(&ys, 4);
        let dense = mi_with(&x, &y, None, DENSE);
        let sparse = mi_with(&x, &y, None, SPARSE);
        prop_assert!((dense - sparse).abs() < 1e-12, "dense={dense} sparse={sparse}");
    }

    /// Positive random IPW weights do not break the equivalence.
    #[test]
    fn weighted_builds_agree(
        xs in cells(60, 4),
        ys in cells(60, 2),
        ws in prop::collection::vec(0.0f64..5.0, 60),
    ) {
        let x = to_column(&xs, 4);
        let y = to_column(&ys, 2);
        let dense = table(&[&x, &y], Some(&ws), DENSE);
        let sparse = table(&[&x, &y], Some(&ws), SPARSE);
        prop_assert!((dense.total() - sparse.total()).abs() < 1e-9);
        prop_assert_eq!(dense.complete_cases(), sparse.complete_cases());
        prop_assert_eq!(dense.n_cells(), sparse.n_cells());
        prop_assert!((dense.entropy() - sparse.entropy()).abs() < 1e-12);
    }

    /// Table shape invariants agree: totals, complete cases, observed cells,
    /// and marginals.
    #[test]
    fn table_shapes_agree(
        xs in cells(50, 3),
        ys in cells(50, 3),
        zs in cells(50, 2),
    ) {
        let x = to_column(&xs, 3);
        let y = to_column(&ys, 3);
        let z = to_column(&zs, 2);
        let dense = table(&[&x, &y, &z], None, DENSE);
        let sparse = table(&[&x, &y, &z], None, SPARSE);
        prop_assert!(dense.is_dense());
        prop_assert!(!sparse.is_dense());
        prop_assert_eq!(dense.complete_cases(), sparse.complete_cases());
        prop_assert_eq!(dense.n_cells(), sparse.n_cells());
        prop_assert!((dense.total() - sparse.total()).abs() < 1e-12);
        for dims in [vec![0], vec![2], vec![0, 2], vec![2, 1]] {
            let dm = dense.marginal(&dims);
            let sm = sparse.marginal(&dims);
            prop_assert_eq!(dm.n_cells(), sm.n_cells());
            prop_assert!((dm.entropy() - sm.entropy()).abs() < 1e-12, "dims {:?}", dims);
        }
    }

    /// All-missing columns: both layouts produce the empty table, alone and
    /// jointly with an observed column.
    #[test]
    fn all_missing_edge_case(xs in cells(40, 4)) {
        let x = to_column(&xs, 4);
        let all_missing = to_column(&[0; 40], 4);
        for threshold in [DENSE, SPARSE] {
            let t = table(&[&all_missing], None, threshold);
            prop_assert!(t.is_empty());
            prop_assert_eq!(t.entropy(), 0.0);
            let joint = table(&[&x, &all_missing], None, threshold);
            prop_assert!(joint.is_empty());
            prop_assert_eq!(joint.complete_cases(), 0);
        }
    }

    /// Single-category columns: zero entropy, zero MI against anything, in
    /// both layouts.
    #[test]
    fn single_category_edge_case(xs in cells(50, 4)) {
        let x = to_column(&xs, 4);
        let constant = to_column(&[1; 50], 1);
        for threshold in [DENSE, SPARSE] {
            prop_assert_eq!(entropy_with(&[&constant], None, threshold), 0.0);
            let mi = mi_with(&x, &constant, None, threshold);
            prop_assert!(mi.abs() < 1e-12);
        }
    }
}
