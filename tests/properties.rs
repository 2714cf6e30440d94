//! Property-based tests (proptest) for the core invariants the system relies
//! on: information-theoretic identities, binning monotonicity, dataframe
//! round-trips, and explanation invariants.

use proptest::prelude::*;

use mesa_repro::infotheory::{
    ci_test, ci_test_table, conditional_entropy, conditional_mutual_information, entropy,
    joint_entropy, mutual_information, CiTestConfig, JointTable,
};
use mesa_repro::tabular::{bin_column, BinStrategy, Column, DataFrame, EncodedColumn, Value};

/// Strategy: a small categorical column as integer codes in 0..card.
fn coded_column(len: usize, card: u32) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0..card, len)
}

fn to_encoded(codes: &[u32]) -> mesa_repro::tabular::EncodedColumn {
    Column::from_i64("c", codes.iter().map(|&c| Some(c as i64)).collect()).encode()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// H(X) is non-negative and bounded by log2(cardinality).
    #[test]
    fn entropy_bounds(codes in coded_column(60, 5)) {
        let x = to_encoded(&codes);
        let h = entropy(&x, None).unwrap();
        prop_assert!(h >= 0.0);
        prop_assert!(h <= (x.cardinality().max(1) as f64).log2() + 1e-9);
    }

    /// I(X;Y) is symmetric, non-negative, and bounded by min(H(X), H(Y)).
    #[test]
    fn mutual_information_symmetry_and_bounds(
        xs in coded_column(80, 4),
        ys in coded_column(80, 4),
    ) {
        let x = to_encoded(&xs);
        let y = to_encoded(&ys);
        let ixy = mutual_information(&x, &y, None).unwrap();
        let iyx = mutual_information(&y, &x, None).unwrap();
        prop_assert!((ixy - iyx).abs() < 1e-9);
        prop_assert!(ixy >= 0.0);
        let hx = entropy(&x, None).unwrap();
        let hy = entropy(&y, None).unwrap();
        prop_assert!(ixy <= hx.min(hy) + 1e-9);
    }

    /// H(X,Y) = H(X) + H(Y|X) (chain rule) on fully observed data.
    #[test]
    fn entropy_chain_rule(
        xs in coded_column(70, 3),
        ys in coded_column(70, 4),
    ) {
        let x = to_encoded(&xs);
        let y = to_encoded(&ys);
        let joint = joint_entropy(&[&x, &y], None).unwrap();
        let chained = entropy(&x, None).unwrap()
            + conditional_entropy(&y, &[&x], None).unwrap();
        prop_assert!((joint - chained).abs() < 1e-9, "joint={joint}, chained={chained}");
    }

    /// I(X;Y|Z) is non-negative, and conditioning on X itself yields zero.
    #[test]
    fn cmi_non_negative_and_self_conditioning(
        xs in coded_column(80, 3),
        ys in coded_column(80, 3),
        zs in coded_column(80, 3),
    ) {
        let x = to_encoded(&xs);
        let y = to_encoded(&ys);
        let z = to_encoded(&zs);
        let cmi = |given: &EncodedColumn| {
            conditional_mutual_information(&x, &y, &[given], None).unwrap()
        };
        prop_assert!(cmi(&z) >= 0.0);
        prop_assert!(cmi(&x) < 1e-9);
    }

    /// Uniform per-row weights leave every estimate unchanged.
    #[test]
    fn uniform_weights_are_a_noop(
        xs in coded_column(60, 4),
        ys in coded_column(60, 4),
        scale in 0.1f64..10.0,
    ) {
        let x = to_encoded(&xs);
        let y = to_encoded(&ys);
        let w = vec![scale; xs.len()];
        let unweighted = mutual_information(&x, &y, None).unwrap();
        let weighted = mutual_information(&x, &y, Some(&w)).unwrap();
        prop_assert!((unweighted - weighted).abs() < 1e-9);
    }

    /// Binning never increases the number of distinct values and preserves
    /// the value ordering (monotone bin assignment).
    #[test]
    fn binning_is_monotone(values in prop::collection::vec(-1e6f64..1e6, 5..80), bins in 2usize..10) {
        let col = Column::from_f64("x", values.iter().map(|&v| Some(v)).collect());
        let binned = bin_column(&col, bins, BinStrategy::EqualWidth).unwrap().0;
        prop_assert!(binned.n_distinct() <= bins);
        for i in 0..values.len() {
            for j in 0..values.len() {
                if values[i] <= values[j] {
                    let bi = binned.get(i).unwrap().as_i64().unwrap();
                    let bj = binned.get(j).unwrap().as_i64().unwrap();
                    prop_assert!(bi <= bj);
                }
            }
        }
    }

    /// take + filter round-trip: filtering with an all-true mask is identity,
    /// and take preserves cell values at the selected indices.
    #[test]
    fn frame_take_preserves_cells(values in prop::collection::vec(0i64..100, 2..40)) {
        let df = DataFrame::from_columns(vec![
            Column::from_i64("a", values.iter().map(|&v| Some(v)).collect()),
            Column::from_i64("b", values.iter().map(|&v| Some(v * 2)).collect()),
        ]).unwrap();
        let all = df.filter_mask(&vec![true; values.len()]).unwrap();
        prop_assert_eq!(all.n_rows(), df.n_rows());
        let idx: Vec<usize> = (0..values.len()).rev().collect();
        let rev = df.take(&idx);
        for (new_row, &old_row) in idx.iter().enumerate() {
            prop_assert_eq!(rev.get(new_row, "a").unwrap(), Value::Int(values[old_row]));
        }
    }

    /// CSV round-trip preserves the shape and the integer cell values.
    #[test]
    fn csv_roundtrip(values in prop::collection::vec(-1000i64..1000, 1..50)) {
        let df = DataFrame::from_columns(vec![
            Column::from_i64("x", values.iter().map(|&v| Some(v)).collect()),
        ]).unwrap();
        let text = mesa_repro::tabular::write_csv_str(&df);
        let back = mesa_repro::tabular::read_csv_str(&text).unwrap();
        prop_assert_eq!(back.n_rows(), df.n_rows());
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(back.get(i, "x").unwrap(), Value::Int(v));
        }
    }

    /// `ci_test` takes its CMI from the joint table it builds for the
    /// degrees of freedom: bit for bit the standalone CMI, and the G-test of
    /// that table, over dense-layout and sealed columns, weighted and
    /// unweighted rows, 0–2 conditioning columns, nulls, all-null columns,
    /// and dense and (at high cardinality) sparse tables.
    #[test]
    fn ci_test_cmi_is_the_standalone_cmi_bitwise(
        cells in prop::collection::vec(prop::collection::vec(0u32..=40, 60), 4),
        ws in prop::collection::vec(0.0f64..4.0, 60),
        shape in (0usize..3, 0u8..2, 0u8..16, 0u8..2, 0usize..6),
    ) {
        let (n_cond, weighted, sealed_mask, high, all_null) = shape;
        // 40 × 40 cells exceed the dense threshold of 60 rows (8 · 60 + 1024).
        let cards: [u32; 4] = if high == 1 { [40, 40, 3, 2] } else { [4, 3, 3, 2] };
        let cols: Vec<EncodedColumn> = cells
            .iter()
            .zip(cards)
            .enumerate()
            .map(|(i, (cells, card))| {
                let labels = (0..card).map(|c| format!("v{c}")).collect();
                let codes = cells.iter().map(|&v| {
                    // Cell 0 is missing; column `all_null` is missing throughout.
                    v.checked_sub(1).filter(|_| i != all_null).map(|c| c % card)
                });
                let col = EncodedColumn::from_option_codes(codes, labels);
                // A mix of sealed and dense-layout columns.
                if sealed_mask & (1 << i) != 0 { col.seal() } else { col }
            })
            .collect();
        let views: Vec<&EncodedColumn> = cols.iter().collect();
        let weights = (weighted == 1).then_some(ws.as_slice());
        let config = CiTestConfig::default();
        let z = &views[2..2 + n_cond];
        let test = ci_test(views[0], views[1], z, weights, config).unwrap();
        let cmi = conditional_mutual_information(views[0], views[1], z, weights).unwrap();
        prop_assert_eq!(test.cmi.to_bits(), cmi.to_bits());
        let table = JointTable::build(&views[..2 + n_cond], weights).unwrap();
        prop_assert_eq!(table.is_dense(), high == 0);
        prop_assert_eq!(ci_test_table(&table, config), test);
    }
}
