//! Spans recorded around the calls into each pipeline layer, and the traced
//! decomposition of one first-contact request through the public stage
//! functions `Session::explain` runs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use mesa::{
    analyze_candidates, apply_query_context, extract_and_join_with, fully_observed_columns, mcimr,
    prepare_from_joined, prune, ExtractionCache, MesaConfig, MesaReport,
};
use tabular::{AggregateQuery, DataFrame};

/// Root span of one traced request; its self time is the benchmark's own
/// glue between stages.
pub const REQUEST: &str = "mesa.request";

/// The stage spans, in pipeline order. `tabular.join` encloses the
/// `kg.extract` spans of its fetches, so its self time is the join alone.
pub const STAGES: [&str; 8] = [
    "tabular.context",
    "kg.extract",
    "tabular.join",
    "tabular.bin_encode",
    "tabular.seal",
    "mesa.prune",
    "mesa.ipw",
    "mesa.mcimr",
];

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// An in-memory span log; spans are written out once, at exit.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }

    fn open(&self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start = self.epoch.elapsed();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            request,
            parent,
            start,
            end: start,
        });
        spans.len() - 1
    }

    fn close(&self, span: usize) {
        let end = self.epoch.elapsed();
        self.spans.borrow_mut()[span].end = end;
    }

    fn in_span<R>(
        &self,
        name: &'static str,
        request: u64,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, request, Some(parent));
        let result = f();
        self.close(span);
        result
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Self time per span name (duration minus the direct children's
    /// durations) over the spans recorded since index `from`.
    pub fn self_times(&self, from: usize) -> BTreeMap<&'static str, Duration> {
        let spans = self.spans.borrow();
        let mut own: Vec<Duration> = spans[from..].iter().map(|s| s.end - s.start).collect();
        for s in &spans[from..] {
            if let Some(p) = s.parent.filter(|&p| p >= from) {
                own[p - from] = own[p - from].saturating_sub(s.end - s.start);
            }
        }
        let mut out = BTreeMap::new();
        for (s, d) in spans[from..].iter().zip(own) {
            *out.entry(s.name).or_default() += d;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"request\":{},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.request,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            )?;
        }
        out.flush()
    }
}

/// Work counts taken at the stage boundaries of traced requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub context_rows_out: usize,
    pub extract_lookups: usize,
    pub extract_misses: usize,
    pub seal_dense_bytes: usize,
    pub seal_sealed_bytes: usize,
    pub prepared_bytes: usize,
    pub prune_candidates: usize,
    pub prune_kept: usize,
    pub ipw_analysed: usize,
    pub ipw_biased: usize,
    pub ipw_weighted: usize,
    pub mcimr_evaluations: usize,
    pub mcimr_iterations: usize,
}

impl Counts {
    /// Each count under its metric name.
    pub fn named(&self) -> [(&'static str, usize); 13] {
        [
            ("tabular.context.rows_out", self.context_rows_out),
            ("kg.extract.lookups", self.extract_lookups),
            ("kg.extract.misses", self.extract_misses),
            ("tabular.seal.dense_bytes", self.seal_dense_bytes),
            ("tabular.seal.sealed_bytes", self.seal_sealed_bytes),
            ("mesa.prepared.bytes", self.prepared_bytes),
            ("mesa.prune.candidates", self.prune_candidates),
            ("mesa.prune.kept", self.prune_kept),
            ("mesa.ipw.analysed", self.ipw_analysed),
            ("mesa.ipw.biased", self.ipw_biased),
            ("mesa.ipw.weighted", self.ipw_weighted),
            ("mesa.mcimr.evaluations", self.mcimr_evaluations),
            ("mesa.mcimr.iterations", self.mcimr_iterations),
        ]
    }
}

/// Explains `query` the way `Session::explain` does on a memo miss, calling
/// each stage's public function under its own span. `cache` plays the
/// session's extraction cache.
#[allow(clippy::too_many_arguments)]
pub fn traced_explain(
    tracer: &Tracer,
    request: u64,
    df: &DataFrame,
    cache: &ExtractionCache<'_>,
    columns: &[&str],
    query: &AggregateQuery,
    config: &MesaConfig,
    counts: &mut Counts,
) -> mesa::Result<MesaReport> {
    let root = tracer.open(REQUEST, request, None);
    let result = stages(
        tracer, request, root, df, cache, columns, query, config, counts,
    );
    tracer.close(root);
    result
}

#[allow(clippy::too_many_arguments)]
fn stages(
    tracer: &Tracer,
    request: u64,
    root: usize,
    df: &DataFrame,
    cache: &ExtractionCache<'_>,
    columns: &[&str],
    query: &AggregateQuery,
    config: &MesaConfig,
    counts: &mut Counts,
) -> mesa::Result<MesaReport> {
    let filtered = tracer.in_span("tabular.context", request, root, || {
        apply_query_context(df, query)
    })?;
    counts.context_rows_out += filtered.n_rows();

    let join = tracer.open("tabular.join", request, Some(root));
    let misses_before = cache.misses();
    let mut lookups = 0;
    let joined = extract_and_join_with(&filtered, columns, |column, values, key| {
        lookups += 1;
        tracer.in_span("kg.extract", request, join, || {
            cache.get_or_extract(column, values, key, config.prepare.extraction)
        })
    });
    tracer.close(join);
    counts.extract_lookups += lookups;
    counts.extract_misses += cache.misses() - misses_before;
    let (joined, joins) = joined?;

    let mut prepared = tracer.in_span("tabular.bin_encode", request, root, || {
        prepare_from_joined(query, joined, joins, config.prepare)
    })?;
    tracer.in_span("tabular.seal", request, root, || prepared.encoded.seal());
    for column in prepared.encoded.encoding_report() {
        counts.seal_dense_bytes += column.dense_bytes;
        counts.seal_sealed_bytes += column.sealed_bytes;
    }
    counts.prepared_bytes += prepared.approx_bytes();

    let pruning = tracer.in_span("mesa.prune", request, root, || {
        prune(
            &prepared.encoded,
            &prepared.candidates,
            prepared.exposure(),
            prepared.outcome(),
            &config.pruning,
        )
    })?;
    counts.prune_candidates += prepared.candidates.len();
    counts.prune_kept += pruning.kept.len();

    let selection_bias = tracer.in_span("mesa.ipw", request, root, || {
        let features = fully_observed_columns(&prepared.frame);
        analyze_candidates(
            &prepared.encoded,
            &pruning.kept,
            prepared.outcome(),
            prepared.exposure(),
            &features,
            config.missing,
            config.pruning.ci,
        )
    })?;
    counts.ipw_analysed += pruning.kept.len();
    counts.ipw_biased += selection_bias.values().filter(|b| b.biased).count();
    counts.ipw_weighted += selection_bias
        .values()
        .filter(|b| b.weights.is_some())
        .count();

    let (explanation, trace) = tracer.in_span("mesa.mcimr", request, root, || {
        mcimr(&prepared, &pruning.kept, &selection_bias, config.mcimr)
    })?;
    counts.mcimr_evaluations += trace.n_evaluations;
    counts.mcimr_iterations += trace.n_iterations;

    Ok(MesaReport {
        explanation,
        pruning,
        selection_bias,
        trace,
        n_candidates: prepared.candidates.len(),
        n_extracted: prepared.extracted.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let tracer = Tracer::new();
        let root = tracer.open(REQUEST, 0, None);
        let join = tracer.open("tabular.join", 0, Some(root));
        tracer.in_span("kg.extract", 0, join, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        tracer.close(join);
        tracer.close(root);
        let own = tracer.self_times(0);
        let spans = tracer.spans.borrow();
        let total = spans[root].end - spans[root].start;
        let summed: Duration = own.values().sum();
        assert_eq!(summed, total);
        assert!(own["kg.extract"] >= Duration::from_millis(2));
        assert!(own["tabular.join"] < own["kg.extract"]);
    }
}
