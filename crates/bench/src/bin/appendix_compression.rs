//! Appendix experiment: sealed columns — per-column byte footprints (dense
//! vs sealed) and kernel timings over sealed against dense codes, per
//! dataset.
//!
//! Emits `BENCH_compression.json`. Entry labels come in two families:
//!
//! * `<dataset>/footprint/<column>/dense` and
//!   `<dataset>/footprint/<column>/<encoding>` — **bytes**, not
//!   milliseconds, carried in the `median_ms` slot of the shared schema
//!   (`reps` is 1; the label family makes the unit unambiguous). The sealed
//!   entry's label records the encoding sealing picked (`narrow` — one
//!   `u8` or `u16` per row — or `dense`).
//!   `<dataset>/footprint/total/*` sums the per-column payloads.
//! * `<dataset>/kernel/<measure>_{dense,sealed}` — wall-clock milliseconds
//!   for the same estimate computed over an unsealed frame encoded afresh
//!   from the prepared one (dense codes) and over the prepared frame, which
//!   preparation seals (narrow codes). The two are bit-identical in value;
//!   only the code width the kernel reads differs.
//!
//! The committed copy is the paper-scale (`MESA_SCALE=paper`) baseline: it
//! is the record of the footprint reduction sealing buys on every prepared
//! query, and of the sealed kernel paths holding the dense paths'
//! throughput. Sealing trades compression for fold speed: every layout is
//! a byte-aligned slice, so the sealed folds read one code per row and
//! never unpack bits.

use bench::report::BenchReport;
use bench::{prepare_workload, ExperimentData, Scale};
use datagen::representative_queries;
use infotheory::EncodedFrame;

fn main() {
    let scale = Scale::from_env();
    let data = ExperimentData::generate(scale);
    let mut report = BenchReport::new("compression");
    println!("== Appendix: sealed column footprints and kernel timings ==\n");

    let queries = representative_queries();
    for (dataset, _) in &data.frames {
        let wq = match queries.iter().find(|q| q.dataset == *dataset) {
            Some(wq) => wq,
            None => continue,
        };
        let name = dataset.name();
        let prepared = prepare_workload(&data, wq).expect("prepare");
        let unsealed = EncodedFrame::from_frame(&prepared.frame);
        assert!(!unsealed.is_sealed(), "the dense frame must stay unsealed");
        let sealed = &prepared.encoded;
        let rows = sealed.n_rows();

        // Per-column byte accounting from the sealing decisions.
        let mut dense_total = 0usize;
        let mut sealed_total = 0usize;
        for col in sealed.encoding_report() {
            dense_total += col.dense_bytes;
            sealed_total += col.sealed_bytes;
            report.record(
                &format!("{name}/footprint/{}/dense", col.name),
                rows,
                &[col.dense_bytes as f64],
            );
            report.record(
                &format!("{name}/footprint/{}/{}", col.name, col.encoding.name()),
                rows,
                &[col.sealed_bytes as f64],
            );
        }
        report.record(
            &format!("{name}/footprint/total/dense"),
            rows,
            &[dense_total as f64],
        );
        report.record(
            &format!("{name}/footprint/total/sealed"),
            rows,
            &[sealed_total as f64],
        );
        let ratio = dense_total as f64 / (sealed_total.max(1)) as f64;

        // Kernel timings: the paper's measures over the same frame in both
        // layouts. Values are bit-identical; only storage differs.
        let o = prepared.outcome();
        let t = prepared.exposure();
        let z: Vec<&str> = prepared
            .candidates
            .iter()
            .take(2)
            .map(|s| s.as_str())
            .collect();
        let mi_dense = report.time(&format!("{name}/kernel/mi_dense"), rows, 5, || {
            std::hint::black_box(unsealed.mutual_information(o, t, None).expect("mi"));
        });
        let mi_sealed = report.time(&format!("{name}/kernel/mi_sealed"), rows, 5, || {
            std::hint::black_box(sealed.mutual_information(o, t, None).expect("mi"));
        });
        let cmi_dense = report.time(&format!("{name}/kernel/cmi_dense"), rows, 5, || {
            std::hint::black_box(unsealed.cmi(o, t, &z, None).expect("cmi"));
        });
        let cmi_sealed = report.time(&format!("{name}/kernel/cmi_sealed"), rows, 5, || {
            std::hint::black_box(sealed.cmi(o, t, &z, None).expect("cmi"));
        });

        // The estimates themselves must agree bit for bit across states.
        let a = unsealed.cmi(o, t, &z, None).expect("cmi");
        let b = sealed.cmi(o, t, &z, None).expect("cmi");
        assert_eq!(a.to_bits(), b.to_bits(), "sealed CMI drifted on {name}");

        println!(
            "{name:<12} {rows:>8} rows  codes {:>9} B -> {:>8} B ({ratio:>4.1}x)  \
             MI {mi_dense:>7.3} -> {mi_sealed:>7.3} ms  CMI {cmi_dense:>7.3} -> {cmi_sealed:>7.3} ms",
            dense_total, sealed_total
        );
        for col in sealed.encoding_report() {
            println!(
                "    {:<28} {:<9} {:>9} B -> {:>8} B  ({} codes)",
                col.name,
                col.encoding.name(),
                col.dense_bytes,
                col.sealed_bytes,
                col.cardinality
            );
        }
    }

    report.write_or_warn();
}
