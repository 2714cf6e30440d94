//! Property tests for the sealed column layouts: sealing must change an
//! `EncodedColumn`'s layout and nothing else — every accessor and `decode`
//! reproduce the dense-layout column exactly for every encoding and null
//! pattern — and the kernel's production block fold must produce
//! **bit-identical** counts to the row-at-a-time reference fold — on
//! shuffled and adversarially runny inputs alike, at the boundaries of the
//! narrow code widths, and on the frames MESA's preparation seals.

use proptest::prelude::*;

use mesa_repro::datagen::{
    build_kg, representative_queries, Dataset, KgConfig, World, WorldConfig,
};
use mesa_repro::infotheory::kernel::{accumulate, reference_accumulate, Accumulated};
use mesa_repro::infotheory::{conditional_mutual_information, entropy, mutual_information};
use mesa_repro::mesa::Mesa;
use mesa_repro::tabular::{Codes, EncodedColumn, Encoding};

/// Strategy: per-row cells with `0` = missing and `v >= 1` = code `v - 1`
/// (same convention as `tests/kernel_equivalence.rs`).
fn cells(len: usize, card: u32) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0..=card, len)
}

/// Expands `(value, length)` pairs into adversarially runny cells — few long
/// runs of one value each, still covering nulls (`0`). The two vectors come
/// from independent strategies (the vendored proptest has no tuple strategy);
/// the shorter one bounds the number of runs.
fn expand_runs(vals: &[u32], lens: &[usize]) -> Vec<u32> {
    vals.iter()
        .zip(lens)
        .flat_map(|(&v, &n)| std::iter::repeat_n(v, n))
        .collect()
}

fn to_column(cells: &[u32], card: u32) -> EncodedColumn {
    let labels = (0..card.max(1)).map(|c| format!("v{c}")).collect();
    EncodedColumn::from_option_codes(cells.iter().map(|&v| v.checked_sub(1)), labels)
}

/// Asserts that sealing changes the column's layout and nothing else: every
/// accessor of the sealed form — labels, validity, whole-column codes,
/// per-row random access — matches the dense-layout column; the slice width
/// of `access` is the one the recorded encoding names, at the recorded byte
/// count; `decode` round-trips exactly and a second seal changes nothing.
fn assert_seal_round_trip(col: &EncodedColumn) {
    assert!(!col.is_sealed());
    assert_eq!(col.encoding(), Encoding::Dense);
    let sealed = col.clone().seal();
    assert!(sealed.is_sealed());
    assert_eq!(sealed.len(), col.len());
    assert_eq!(sealed.cardinality(), col.cardinality());
    assert_eq!(sealed.labels(), col.labels());
    assert_eq!(sealed.validity(), col.validity());
    assert_eq!(sealed.null_count(), col.null_count());
    assert_eq!(sealed.n_present(), col.n_present());
    assert_eq!(
        sealed.codes(),
        col.codes(),
        "codes() must decode the layout"
    );
    assert_eq!(&sealed.decode(), col, "decode() must round-trip exactly");
    assert_eq!(
        sealed.clone().seal(),
        sealed,
        "sealing twice changes nothing"
    );
    for i in 0..col.len() {
        assert_eq!(sealed.code_at(i), col.code_at(i), "row {i}");
        assert_eq!(sealed.is_present(i), col.is_present(i), "row {i}");
    }
    let choice = sealed.choice();
    let (encoding, payload) = match sealed.access() {
        Codes::U8(codes) => (Encoding::Narrow, codes.len()),
        Codes::U16(codes) => (Encoding::Narrow, 2 * codes.len()),
        Codes::U32(codes) => (Encoding::Dense, 4 * codes.len()),
    };
    assert_eq!(
        sealed.encoding(),
        encoding,
        "access() must match the encoding"
    );
    assert_eq!(choice.encoding, encoding);
    assert_eq!(choice.sealed_bytes, payload);
    assert_eq!(choice.dense_bytes, 4 * col.len());
}

/// Asserts that `got` matches the reference fold's `oracle` bit for bit:
/// tallies, observed cells (keys, counts and iteration order), total weight
/// and entropy.
fn assert_bitwise_equal(got: &Accumulated, oracle: &Accumulated) {
    assert_eq!(got.complete_cases, oracle.complete_cases);
    assert_eq!(got.counts.n_cells(), oracle.counts.n_cells());
    let cells = |a: &Accumulated| -> Vec<(Vec<u32>, u64)> {
        a.counts
            .iter_keyed()
            .map(|(k, c)| (k, c.to_bits()))
            .collect()
    };
    assert_eq!(cells(got), cells(oracle));
    assert_eq!(got.total.to_bits(), oracle.total.to_bits());
    assert_eq!(
        got.counts.entropy(got.total).to_bits(),
        oracle.counts.entropy(oracle.total).to_bits()
    );
}

/// Compares the production fold over sealed and over dense-layout columns
/// with the reference fold, bit for bit, at both table layouts (dense
/// mixed-radix and sparse hash), weighted and unweighted.
fn assert_bitwise_kernel_parity(cols: &[&EncodedColumn], weights: Option<&[f64]>) {
    let sealed: Vec<EncodedColumn> = cols.iter().map(|&c| c.clone().seal()).collect();
    let sealed: Vec<&EncodedColumn> = sealed.iter().collect();
    for dense_cells in [1usize << 20, 0] {
        let reference = reference_accumulate(cols, weights, dense_cells).unwrap();
        let narrow = accumulate(&sealed, weights, dense_cells).unwrap();
        assert_bitwise_equal(&narrow, &reference);
        assert_bitwise_equal(&accumulate(cols, weights, dense_cells).unwrap(), &reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random (shuffled-leaning) columns round-trip through seal.
    #[test]
    fn seal_round_trips_random_columns(xs in cells(90, 6)) {
        assert_seal_round_trip(&to_column(&xs, 6));
    }

    /// Adversarially runny columns round-trip through seal.
    #[test]
    fn seal_round_trips_runny_columns(
        vals in prop::collection::vec(0u32..=4, 1..12),
        lens in prop::collection::vec(1usize..40, 1..12),
    ) {
        let xs = expand_runs(&vals, &lens);
        assert_seal_round_trip(&to_column(&xs, 4));
    }

    /// Sorted fully-observed integer keys round-trip (keys below 256 seal
    /// to `u8` codes, larger ones to `u16`).
    #[test]
    fn seal_round_trips_sorted_keys(ks in prop::collection::vec(0u32..5000, 1..120)) {
        let mut ks = ks.clone();
        ks.sort_unstable();
        let card = ks.last().copied().unwrap_or(0) + 1;
        let labels = (0..card).map(|c| c.to_string()).collect();
        let col = EncodedColumn::from_codes(ks, labels);
        // Keys below 5,000 fit narrow codes, so the layout is never dense.
        prop_assert_eq!(col.clone().seal().encoding(), Encoding::Narrow);
        assert_seal_round_trip(&col);
    }

    /// Kernel parity on random columns: reference fold vs production fold,
    /// unweighted, both table layouts, bit-identical.
    #[test]
    fn sealed_kernel_matches_oracle_random(
        xs in cells(80, 5),
        ys in cells(80, 3),
    ) {
        let x = to_column(&xs, 5);
        let y = to_column(&ys, 3);
        assert_bitwise_kernel_parity(&[&x, &y], None);
    }

    /// Kernel parity on adversarially runny columns (long runs, unequal run
    /// boundaries between the two columns), weighted with zeros included.
    #[test]
    fn sealed_kernel_matches_oracle_runny(
        xvals in prop::collection::vec(0u32..=4, 1..10),
        xlens in prop::collection::vec(1usize..40, 1..10),
        yvals in prop::collection::vec(0u32..=3, 1..10),
        ylens in prop::collection::vec(1usize..40, 1..10),
    ) {
        let xs = expand_runs(&xvals, &xlens);
        let ys = expand_runs(&yvals, &ylens);
        let n = xs.len().min(ys.len());
        let x = to_column(&xs[..n], 4);
        let y = to_column(&ys[..n], 3);
        assert_bitwise_kernel_parity(&[&x, &y], None);
        let w: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 0.5).collect();
        assert_bitwise_kernel_parity(&[&x, &y], Some(&w));
    }

    /// Measure-level bit identity: entropy, MI, and CMI computed over sealed
    /// columns equal the dense-layout estimates bit for bit.
    #[test]
    fn sealed_measures_are_bit_identical(
        xs in cells(70, 4),
        yvals in prop::collection::vec(0u32..=3, 1..9),
        ylens in prop::collection::vec(1usize..40, 1..9),
        zs in cells(70, 2),
    ) {
        let ys = expand_runs(&yvals, &ylens);
        let n = xs.len().min(ys.len()).min(zs.len());
        let x = to_column(&xs[..n], 4);
        let y = to_column(&ys[..n], 3);
        let z = to_column(&zs[..n], 2);
        let (sx, sy, sz) = (x.clone().seal(), y.clone().seal(), z.clone().seal());
        prop_assert_eq!(
            entropy(&x, None).unwrap().to_bits(),
            entropy(&sx, None).unwrap().to_bits()
        );
        prop_assert_eq!(
            mutual_information(&x, &y, None).unwrap().to_bits(),
            mutual_information(&sx, &sy, None).unwrap().to_bits()
        );
        prop_assert_eq!(
            conditional_mutual_information(&x, &y, &[&z], None).unwrap().to_bits(),
            conditional_mutual_information(&sx, &sy, &[&sz], None).unwrap().to_bits()
        );
    }

    /// Mixed layouts in one fold (sealed exposure, dense-layout outcome)
    /// still match the reference fold bit for bit.
    #[test]
    fn mixed_states_match_oracle(
        xvals in prop::collection::vec(0u32..=3, 1..8),
        xlens in prop::collection::vec(1usize..40, 1..8),
        ys in cells(60, 4),
    ) {
        let xs = expand_runs(&xvals, &xlens);
        let n = xs.len().min(ys.len());
        let x = to_column(&xs[..n], 3);
        let y = to_column(&ys[..n], 4);
        let sx = x.clone().seal();
        for dense_cells in [1usize << 20, 0] {
            let oracle = reference_accumulate(&[&x, &y], None, dense_cells).unwrap();
            let mixed = accumulate(&[&sx, &y], None, dense_cells).unwrap();
            prop_assert_eq!(oracle.complete_cases, mixed.complete_cases);
            prop_assert_eq!(
                oracle.counts.entropy(oracle.total).to_bits(),
                mixed.counts.entropy(mixed.total).to_bits()
            );
        }
    }

    /// Footprint sanity: sealing never increases the code payload, and
    /// columns of few codes compress.
    #[test]
    fn sealing_never_grows_the_payload(
        vals in prop::collection::vec(0u32..=3, 1..6),
        lens in prop::collection::vec(1usize..40, 1..6),
    ) {
        let xs = expand_runs(&vals, &lens);
        let col = to_column(&xs, 3);
        let choice = col.clone().seal().choice();
        prop_assert!(choice.sealed_bytes <= choice.dense_bytes);
        // three codes take one byte per row, a quarter of the dense payload
        prop_assert_eq!(choice.sealed_bytes * 4, choice.dense_bytes);
    }
}

/// A column of `len` rows over `card` codes in shuffled order (the codes of
/// neighbouring rows differ, the largest code comes first), with every
/// fifth row null when `nulls` is set.
fn boundary_column(len: usize, card: u32, nulls: bool) -> EncodedColumn {
    let labels = (0..card).map(|c| format!("v{c}")).collect();
    let codes = (0..len as u32).map(|i| {
        let code = if i % 2 == 0 {
            card - 1 - (i / 2) % card
        } else {
            i.wrapping_mul(7919) % card
        };
        (!(nulls && i % 5 == 2)).then_some(code)
    });
    EncodedColumn::from_option_codes(codes, labels)
}

/// The narrow widths switch at 256 codes (`u8` → `u16`) and 65,536 codes
/// (`u16` → dense). On both sides of each switch, at lengths around one
/// validity word, with and without nulls: the sealed column round-trips,
/// picks the expected layout and width, never outgrows the dense payload,
/// and folds bit-identically to the reference beside a dense-layout column,
/// beside a sealed constant (runny) column, and beside both, weighted and
/// unweighted, at both table layouts.
#[test]
fn narrow_width_boundaries_round_trip_and_fold_like_the_reference() {
    for card in [256u32, 257, 65_536, 65_537] {
        for len in [0usize, 1, 63, 64, 65] {
            for nulls in [false, true] {
                let case = format!("{card} codes, {len} rows, nulls {nulls}");
                let col = boundary_column(len, card, nulls);
                assert_seal_round_trip(&col);
                let sealed = col.clone().seal();
                let choice = sealed.choice();
                assert!(choice.sealed_bytes <= choice.dense_bytes, "{case}");
                let width = match card {
                    0..=256 => 1,
                    257..=65_536 => 2,
                    _ => 4,
                };
                let encoding = match width {
                    4 => Encoding::Dense,
                    _ => Encoding::Narrow,
                };
                assert_eq!(sealed.encoding(), encoding, "{case}");
                assert_eq!(choice.sealed_bytes, width * len, "{case}");
                let got = match sealed.access() {
                    Codes::U8(_) => 1,
                    Codes::U16(_) => 2,
                    Codes::U32(_) => 4,
                };
                assert_eq!(got, width, "{case}");

                // A runny (constant) column of three codes: one byte per
                // row, whatever its length.
                let runny = to_column(&vec![2; len], 3);
                let sealed_runny = runny.clone().seal();
                assert_eq!(sealed_runny.encoding(), Encoding::Narrow, "{case}");
                assert_eq!(sealed_runny.choice().sealed_bytes, len, "{case}");
                let plain = boundary_column(len, 3, !nulls);
                let weights: Vec<f64> = (0..len).map(|i| (i % 4) as f64 * 0.5).collect();
                let combos: [(&[&EncodedColumn], &[&EncodedColumn]); 3] = [
                    (&[&col, &plain], &[&sealed, &plain]),
                    (&[&col, &runny], &[&sealed, &sealed_runny]),
                    (&[&col, &runny, &plain], &[&sealed, &sealed_runny, &plain]),
                ];
                for (columns, mixed) in combos {
                    for w in [None, Some(weights.as_slice())] {
                        for dense_cells in [1usize << 20, 0] {
                            let oracle = reference_accumulate(columns, w, dense_cells).unwrap();
                            let got = accumulate(mixed, w, dense_cells).unwrap();
                            assert_bitwise_equal(&got, &oracle);
                        }
                    }
                }
            }
        }
    }
}

/// The frames MESA's preparation seals fold like the reference: on the
/// fixture of `tests/layout_invariance.rs` (the default world and knowledge
/// graph, 1,000 rows per dataset, Table 2's 14 queries), the fold of
/// `[O, T, E]` over the sealed prepared columns equals the reference fold
/// bit for bit for every candidate `E`, at both table layouts, unweighted
/// and with `E`'s IPW weights where the report has them. The prepared
/// frames include constant `type` columns, which seal to one-byte codes
/// like every column of at most 256 codes.
#[test]
fn prepared_frames_fold_like_the_reference() {
    let world = World::generate(WorldConfig::default());
    let graph = build_kg(&world, KgConfig::default());
    let frames: Vec<(Dataset, _)> = Dataset::all()
        .into_iter()
        .map(|d| (d, d.generate(&world, 1000, 1234).unwrap()))
        .collect();
    let mesa = Mesa::new();
    let (mut folds, mut weighted, mut constant_types) = (0usize, 0usize, 0usize);
    for wq in representative_queries() {
        let df = &frames.iter().find(|(d, _)| *d == wq.dataset).unwrap().1;
        let columns = wq.dataset.extraction_columns();
        let prepared = mesa.prepare(df, &wq.query, Some(&graph), columns).unwrap();
        let report = mesa.explain_prepared(&prepared).unwrap();
        let encoded = &prepared.encoded;
        assert!(encoded.is_sealed(), "{}", wq.id);
        let o = encoded.column(prepared.outcome()).unwrap();
        let t = encoded.column(prepared.exposure()).unwrap();
        for name in &prepared.candidates {
            let e = encoded.column(name).unwrap();
            if name == "type" && e.cardinality() == 1 {
                assert_eq!(e.encoding(), Encoding::Narrow, "{} {name}", wq.id);
                constant_types += 1;
            }
            let ipw = report
                .selection_bias
                .get(name)
                .and_then(|info| info.weights.as_deref());
            let cols = [o, t, e];
            for weights in std::iter::once(None).chain(ipw.map(Some)) {
                for dense_cells in [1usize << 20, 0] {
                    let oracle = reference_accumulate(&cols, weights, dense_cells).unwrap();
                    let got = accumulate(&cols, weights, dense_cells).unwrap();
                    assert_bitwise_equal(&got, &oracle);
                }
            }
            folds += 1;
            weighted += usize::from(ipw.is_some());
        }
    }
    assert!(folds > 0);
    assert!(weighted > 0, "the fixture must carry IPW weights");
    assert!(
        constant_types > 0,
        "the fixture must hold a constant `type` column"
    );
}
