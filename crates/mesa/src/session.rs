//! Long-lived, cross-query explanation sessions.
//!
//! A cold [`crate::Mesa::explain`] pays the full pipeline on every call — KG
//! extraction, join, binning, encoding, then the explanation search — even
//! when dozens of queries hit the same dataset. A [`Session`] is constructed
//! once per dataset (a `DataFrame`, optionally a `KnowledgeGraph`, and a
//! [`MesaConfig`]) and amortises that work across queries, the way a
//! traffic-serving deployment would, in two tiers:
//!
//! * **Extraction cache** ([`ExtractionCache`]) — the expensive KG stage
//!   (entity linking + multi-hop expansion) is keyed by
//!   `(column, hops, one-to-many policy, distinct values)`. The output of
//!   [`kg::extract_attributes`] is a pure function of exactly that key, so a
//!   cache hit is byte-identical to re-extracting — queries with different
//!   contexts select different distinct values and therefore cannot alias.
//! * **Report memo** — the finished [`MesaReport`] per canonical
//!   [`AggregateQuery::fingerprint`], so repeating a query is a hash lookup.
//!
//! A preparation (the joined, binned, encoded view of a query) lives for
//! one request: a report fill prepares, explains and drops it, and
//! [`Session::prepare`] hands its caller an owned one. Repeats are served
//! by the report memo, so a kept preparation would serve no request.
//!
//! Both tiers are [`BoundedCache`]s: entry-count and approximate byte
//! budgets ([`SessionLimits`]) evict least-recently-used entries instead of
//! letting a long-running session grow without bound, and concurrent misses
//! of the same key coalesce onto one in-flight computation instead of
//! duplicating the cold pipeline. Eviction never changes results — a
//! re-computed entry is byte-identical to the evicted one, because every
//! fill is a pure function of its key (locked by `tests/determinism.rs`).
//!
//! **Serving-grade hardening.** The public entry points ([`Session::prepare`],
//! [`Session::explain`], [`Session::explain_many`],
//! [`Session::unexplained_subgroups`]) never let a pipeline panic escape:
//! unwinds are caught at the session boundary and surfaced as
//! [`MesaError::Internal`], with the caches left consistent (a failed fill
//! is simply not cached). [`Session::explain_with_deadline`] runs a query
//! under a cooperative [`parallel::Deadline`]; the kernel fold loops,
//! extraction BFS, and pool claim boundaries all poll it, and an expired
//! deadline surfaces as [`MesaError::DeadlineExceeded`] — again with every
//! cache still usable for the next request.
//!
//! [`Session::explain_many`] batches independent queries: cached results are
//! resolved inline, distinct uncached queries fan out as one persistent-pool
//! task each ([`parallel::parallel_map_with`]), and all of them share the
//! extraction cache. The per-query pipelines' own fan-outs nest inside the
//! batch tasks on the same pool, so batch × candidate × extraction
//! parallelism composes at the pool's fixed thread count.
//!
//! The one-shot [`crate::Mesa::explain`] is a thin wrapper over a transient
//! session, so there is a single pipeline implementation; the equivalence of
//! warm and cold paths is locked by `tests/session.rs`.

use std::any::Any;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use kg::{extract_attributes, ExtractionConfig, KnowledgeGraph};
use tabular::{AggregateQuery, DataFrame};

use crate::cache::{BoundedCache, CacheBudget, CacheStats};
use crate::error::{MesaError, Result};
use crate::problem::{
    apply_query_context, extract_and_join_with, prepare_from_joined, ColumnExtraction,
    PreparedQuery,
};
use crate::subgroups::{unexplained_subgroups, Subgroup, SubgroupConfig};
use crate::system::{Mesa, MesaConfig, MesaReport};

/// Converts a caught panic payload into the structured error the session
/// boundary reports: a cooperative-deadline unwind becomes
/// [`MesaError::DeadlineExceeded`], anything else becomes
/// [`MesaError::Internal`] carrying the payload's message when it has one.
fn payload_to_error(payload: &(dyn Any + Send)) -> MesaError {
    if payload.downcast_ref::<parallel::Cancelled>().is_some() {
        MesaError::DeadlineExceeded
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        MesaError::Internal(msg.clone())
    } else if let Some(msg) = payload.downcast_ref::<&'static str>() {
        MesaError::Internal((*msg).to_string())
    } else {
        MesaError::Internal("worker panicked".to_string())
    }
}

/// Runs `f`, containing any unwind as a structured [`MesaError`]. All
/// session state `f` touches is unwind-safe by construction: the cache
/// tiers clear their in-flight slots on unwind and ignore mutex poisoning.
fn guard_panics<R>(f: impl FnOnce() -> Result<R>) -> Result<R> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(payload_to_error(payload.as_ref())),
    }
}

/// Cache key of one column extraction: the distinct values (and the name of
/// the key column embedded in the cached table) are part of the key, so two
/// queries whose contexts select different value sets — or two sessions
/// configured with different hops / one-to-many policies — can never alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ExtractionKey {
    column: String,
    key_column: String,
    config: ExtractionConfig,
    values: Vec<String>,
}

/// A concurrent, budget-bounded cache of per-column KG extractions over
/// **one** knowledge graph, keyed by `(column, key column, extraction
/// config, distinct values)`.
///
/// The graph is borrowed for the cache's lifetime: that makes the key a
/// pure function of the lookup inputs (the borrow prevents mutation, and a
/// cache can never be asked about a different graph — sharing one cache
/// across graphs is a type error rather than silent aliasing).
///
/// The cached unit is the *pre-rename* [`ColumnExtraction`]; collision
/// renames against a query's joined frame are applied per query on a
/// copy-on-write clone (see [`extract_and_join_with`]), so the shared table
/// is never mutated. Storage is a [`BoundedCache`], so entries are priced by
/// [`ColumnExtraction::approx_bytes`] and spill in LRU order under budget
/// pressure, and concurrent misses of the same key run the extraction
/// exactly once.
#[derive(Debug)]
pub struct ExtractionCache<'g> {
    graph: &'g KnowledgeGraph,
    inner: BoundedCache<ExtractionKey, ColumnExtraction>,
}

impl<'g> ExtractionCache<'g> {
    /// An unbounded cache over one knowledge graph.
    pub fn new(graph: &'g KnowledgeGraph) -> Self {
        Self::with_budget(graph, CacheBudget::unbounded())
    }

    /// A cache over one knowledge graph with an explicit budget.
    pub fn with_budget(graph: &'g KnowledgeGraph, budget: CacheBudget) -> Self {
        ExtractionCache {
            graph,
            inner: BoundedCache::new(budget),
        }
    }

    /// Returns the cached extraction for `(column, key_column, config,
    /// values)`, running [`kg::extract_attributes`] on a miss. Errors are
    /// not cached; concurrent misses of the same key extract once.
    pub fn get_or_extract(
        &self,
        column: &str,
        values: &[String],
        key_column: &str,
        config: ExtractionConfig,
    ) -> Result<ColumnExtraction> {
        let key = ExtractionKey {
            column: column.to_string(),
            key_column: key_column.to_string(),
            config,
            values: values.to_vec(),
        };
        let shared =
            self.inner
                .get_or_fill(&key, ColumnExtraction::approx_bytes, || -> Result<_> {
                    parallel::fault_point!("mesa.session.fill_extraction");
                    parallel::checkpoint();
                    let result = extract_attributes(self.graph, values, key_column, config)
                        .map_err(MesaError::from)?;
                    Ok(ColumnExtraction::from_result(result))
                })?;
        Ok((*shared).clone())
    }

    /// Number of cached extractions.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Number of lookups served from the cache.
    pub fn hits(&self) -> usize {
        self.inner.stats().hits
    }

    /// Number of lookups that ran the extraction.
    pub fn misses(&self) -> usize {
        self.inner.stats().misses
    }

    /// Full counters of the underlying cache tier.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

/// Per-tier budgets of a [`Session`]'s caches.
///
/// The defaults are generous — sized so ordinary analytical workloads never
/// evict — but finite, so a session that serves traffic for days cannot
/// grow without bound. Use [`SessionLimits::unbounded`] to restore the
/// pre-budget behaviour, or set tight budgets (e.g.
/// [`CacheBudget::entries`]) to exercise eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionLimits {
    /// Budget of the report memo (entries priced by
    /// [`MesaReport::approx_bytes`]). A report is mostly its IPW weights,
    /// one `f64` per row per weighted attribute: a 20,000-row report can
    /// hold megabytes of them.
    pub reports: CacheBudget,
    /// Budget of the extraction cache (entries priced by
    /// [`ColumnExtraction::approx_bytes`]).
    pub extraction: CacheBudget,
}

impl Default for SessionLimits {
    fn default() -> Self {
        SessionLimits {
            reports: CacheBudget {
                max_entries: Some(65536),
                max_bytes: Some(256 << 20),
            },
            extraction: CacheBudget {
                max_entries: Some(4096),
                max_bytes: Some(512 << 20),
            },
        }
    }
}

impl SessionLimits {
    /// No budgets at all: every tier keeps everything it ever computes.
    pub fn unbounded() -> Self {
        SessionLimits {
            reports: CacheBudget::unbounded(),
            extraction: CacheBudget::unbounded(),
        }
    }
}

/// Full per-tier counters of a [`Session`]'s caches, including evictions,
/// coalesced (deduplicated) misses, and approximate resident bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionCacheStats {
    /// The preparations the session ran, as `misses`; every other counter
    /// is 0, since no preparation is kept. The field stays until one
    /// snapshot of the session's counters replaces this struct.
    pub prepared: CacheStats,
    /// Counters of the report memo.
    pub reports: CacheStats,
    /// Counters of the extraction cache; `None` when the session has no
    /// knowledge graph.
    pub extraction: Option<CacheStats>,
}

/// A long-lived explanation session over one dataset.
///
/// Borrows the dataset and knowledge graph (they are read-only for the
/// session's lifetime) and owns the caches. All methods take `&self`; the
/// session is `Sync`, so one instance can serve concurrent callers — that,
/// plus [`Session::explain_many`], is the serving shape the ROADMAP's
/// traffic-serving north star asks for. Panics inside the pipeline are
/// contained at the session boundary ([`MesaError::Internal`]), and
/// per-request deadlines are available via
/// [`Session::explain_with_deadline`].
///
/// ```
/// use mesa::session::Session;
/// use mesa::MesaConfig;
/// use tabular::{AggregateQuery, DataFrameBuilder};
/// use kg::{KnowledgeGraph, Object};
///
/// let df = DataFrameBuilder::new()
///     .cat("Country", (0..120).map(|i| Some(["DE", "IT", "NG", "KE"][i % 4])).collect())
///     .float("Salary", (0..120).map(|i| Some(if i % 4 < 2 { 80.0 } else { 30.0 } + (i % 3) as f64)).collect())
///     .build().unwrap();
/// let mut g = KnowledgeGraph::new();
/// for (c, gdp) in [("DE", 50.0), ("IT", 50.0), ("NG", 6.0), ("KE", 6.0)] {
///     g.add_fact(c, "GDP per capita", Object::number(gdp));
/// }
///
/// let session = Session::new(&df, Some(&g), &["Country"], MesaConfig::default());
/// let q = AggregateQuery::avg("Country", "Salary");
/// let cold = session.explain(&q).unwrap();
/// let warm = session.explain(&q).unwrap(); // served from the report memo
/// assert_eq!(cold.explanation, warm.explanation);
/// assert_eq!(session.cache_stats().reports.hits, 1);
/// ```
#[derive(Debug)]
pub struct Session<'a> {
    df: &'a DataFrame,
    extraction_columns: Vec<String>,
    config: MesaConfig,
    /// `None` when the session has no knowledge graph; otherwise the cache
    /// carries the graph borrow itself.
    extraction: Option<ExtractionCache<'a>>,
    reports: BoundedCache<String, MesaReport>,
    /// Preparations run so far, reported as [`SessionCacheStats::prepared`].
    preparations: AtomicUsize,
    /// Their bytes, as [`PreparedQuery::approx_bytes`] prices them.
    prepared_bytes: AtomicUsize,
}

/// Bytes from which dropping a session hands the freed heap back to the
/// operating system. A one-shot session, with one preparation and one
/// report of a 20,000-row query, builds about 20 MB; a session that has
/// answered several such queries builds more.
const RELEASE_ON_DROP_BYTES: usize = 32 << 20;

/// Frees the memos and, when they and the preparations the session ran
/// came to at least 32 MiB, returns the freed pages to the operating system
/// with [`parallel::release_free_memory`]. Pool workers build part of every
/// memo and preparation, and without this the pages would stay resident in
/// the allocator heaps of whichever threads built them, even those of a
/// preparation its request already freed. Smaller sessions skip the
/// release, whose cost is a page fault per page when the memory is next
/// reused.
impl Drop for Session<'_> {
    fn drop(&mut self) {
        let built = self.prepared_bytes.load(Ordering::Relaxed)
            + self.reports.resident_bytes()
            + self
                .extraction
                .as_ref()
                .map_or(0, |cache| cache.stats().resident_bytes);
        if built < RELEASE_ON_DROP_BYTES {
            return;
        }
        self.reports = BoundedCache::new(self.reports.budget());
        self.extraction = None;
        parallel::release_free_memory();
    }
}

impl<'a> Session<'a> {
    /// A session over `df`, extracting candidate confounders for
    /// `extraction_columns` from `graph` (pass `None` to restrict candidates
    /// to the input table), under the default [`SessionLimits`].
    pub fn new(
        df: &'a DataFrame,
        graph: Option<&'a KnowledgeGraph>,
        extraction_columns: &[&str],
        config: MesaConfig,
    ) -> Self {
        Self::with_limits(
            df,
            graph,
            extraction_columns,
            config,
            SessionLimits::default(),
        )
    }

    /// A session with explicit per-tier cache budgets.
    pub fn with_limits(
        df: &'a DataFrame,
        graph: Option<&'a KnowledgeGraph>,
        extraction_columns: &[&str],
        config: MesaConfig,
        limits: SessionLimits,
    ) -> Self {
        Session {
            df,
            extraction_columns: extraction_columns.iter().map(|s| s.to_string()).collect(),
            config,
            extraction: graph.map(|g| ExtractionCache::with_budget(g, limits.extraction)),
            reports: BoundedCache::new(limits.reports),
            preparations: AtomicUsize::new(0),
            prepared_bytes: AtomicUsize::new(0),
        }
    }

    /// Per-tier cache counters: hits, misses, entries, evictions, coalesced
    /// misses and approximate resident bytes.
    pub fn cache_stats(&self) -> SessionCacheStats {
        SessionCacheStats {
            prepared: CacheStats {
                misses: self.preparations.load(Ordering::Relaxed),
                ..CacheStats::default()
            },
            reports: self.reports.stats(),
            extraction: self.extraction.as_ref().map(ExtractionCache::stats),
        }
    }

    /// Prepares a query (context, extraction through the shared cache,
    /// binning, encoding and sealing) and hands the preparation to the
    /// caller; the session keeps none of it. Pipeline panics surface as
    /// [`MesaError::Internal`].
    pub fn prepare(&self, query: &AggregateQuery) -> Result<PreparedQuery> {
        guard_panics(|| {
            self.preparations.fetch_add(1, Ordering::Relaxed);
            parallel::fault_point!("mesa.session.fill_prepared");
            parallel::checkpoint();
            let filtered = apply_query_context(self.df, query)?;
            let extraction_config = self.config.prepare.extraction;
            let (joined, joins) = match &self.extraction {
                Some(cache) => {
                    let columns: Vec<&str> =
                        self.extraction_columns.iter().map(|s| s.as_str()).collect();
                    extract_and_join_with(&filtered, &columns, |column, values, key_column| {
                        cache.get_or_extract(column, values, key_column, extraction_config)
                    })?
                }
                None => (filtered, Vec::new()),
            };
            parallel::checkpoint();
            let prepared = prepare_from_joined(query, joined, joins, self.config.prepare)?;
            self.prepared_bytes
                .fetch_add(prepared.approx_bytes(), Ordering::Relaxed);
            Ok(prepared)
        })
    }

    /// Explains a query end to end, serving repeats from the report memo.
    /// The result is shared (`Arc`); clone out of it if an owned
    /// [`MesaReport`] is needed. Pipeline panics surface as
    /// [`MesaError::Internal`] and leave the caches usable.
    pub fn explain(&self, query: &AggregateQuery) -> Result<Arc<MesaReport>> {
        self.explain_guarded(&query.fingerprint(), query)
    }

    /// Explains a query under a wall-clock budget. The deadline is polled
    /// cooperatively — at pool claim boundaries, inside the kernel fold
    /// loops, and per extraction BFS level — so an expired budget returns
    /// [`MesaError::DeadlineExceeded`] promptly instead of hanging, and the
    /// session (caches included) stays fully usable. A result that was
    /// already memoised is returned regardless of how small the budget is.
    pub fn explain_with_deadline(
        &self,
        query: &AggregateQuery,
        budget: Duration,
    ) -> Result<Arc<MesaReport>> {
        let deadline = parallel::Deadline::after(budget);
        parallel::with_deadline(&deadline, || self.explain(query))
    }

    fn explain_guarded(
        &self,
        fingerprint: &str,
        query: &AggregateQuery,
    ) -> Result<Arc<MesaReport>> {
        guard_panics(|| self.report_or_fill(fingerprint, || self.prepare(query)))
    }

    /// The memoised report for `fingerprint`; a miss explains the
    /// preparation `prepare` yields and drops it with the fill.
    fn report_or_fill<P: Borrow<PreparedQuery>>(
        &self,
        fingerprint: &str,
        prepare: impl FnOnce() -> Result<P>,
    ) -> Result<Arc<MesaReport>> {
        self.reports
            .get_or_fill(&fingerprint.to_string(), MesaReport::approx_bytes, || {
                parallel::fault_point!("mesa.session.fill_report");
                parallel::checkpoint();
                let prepared = prepare()?;
                Mesa::with_config(self.config).explain_prepared(prepared.borrow())
            })
    }

    /// Explains a batch of independent queries, returning one result per
    /// query in input order.
    ///
    /// Cached queries are resolved inline without touching the pool; the
    /// distinct uncached ones fan out as one pool task per query and share
    /// this session's extraction cache. Results are byte-identical to
    /// calling [`Session::explain`] sequentially (locked by
    /// `tests/session.rs`): every path runs the same deterministic
    /// pipeline, and duplicates within the batch are computed once. A panic
    /// inside one query's pipeline fails that query alone
    /// ([`MesaError::Internal`]); the rest of the batch completes.
    pub fn explain_many(&self, queries: &[AggregateQuery]) -> Vec<Result<Arc<MesaReport>>> {
        let fingerprints: Vec<String> = queries.iter().map(|q| q.fingerprint()).collect();
        // Resolve every already-cached query inline; collect the first
        // occurrence of each fingerprint that still needs computing.
        let mut results: Vec<Option<Result<Arc<MesaReport>>>> = Vec::with_capacity(queries.len());
        let mut misses: Vec<(usize, &str, &AggregateQuery)> = Vec::new();
        {
            let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
            for (i, (fp, query)) in fingerprints.iter().zip(queries).enumerate() {
                match self.reports.get_if_ready(fp) {
                    Some(report) => results.push(Some(Ok(report))),
                    None => {
                        if seen.insert(fp.as_str()) {
                            misses.push((i, fp.as_str(), query));
                        }
                        results.push(None);
                    }
                }
            }
        }
        // Fan the distinct uncached queries out, one pool task per query:
        // whole explanation pipelines are heavyweight items, so even a
        // two-miss batch parallelises ([`parallel::FanOut::heavy`]) while a
        // single miss stays inline on the calling thread. The fan-out
        // composes with the pipeline's inner fan-outs (candidate scoring,
        // extraction) through the shared pool instead of oversubscribing.
        // Each item is guarded individually, so one panicking pipeline
        // cannot poison the batch; the outer guard covers a deadline that
        // expires at a batch claim boundary itself. A fully warm batch
        // (no misses) never touches the pool.
        let computed: Vec<Result<Arc<MesaReport>>> = if misses.is_empty() {
            Vec::new()
        } else {
            match guard_panics(|| {
                Ok(parallel::parallel_map_with(
                    &misses,
                    parallel::FanOut::heavy(),
                    |_, &(_, fp, query)| self.explain_guarded(fp, query),
                ))
            }) {
                Ok(computed) => computed,
                Err(e) => misses.iter().map(|_| Err(e.clone())).collect(),
            }
        };
        // For each computed fingerprint: its result and whether the slot at
        // hand is the occurrence that computed it.
        let by_fingerprint: HashMap<&str, (usize, &Result<Arc<MesaReport>>)> = misses
            .iter()
            .zip(&computed)
            .map(|(&(i, fp, _), result)| (fp, (i, result)))
            .collect();
        // Fill the remaining slots. Duplicates of a computed fingerprint
        // share its result; duplicates of a *failed* one re-run through the
        // memo (errors are not cached), exactly like the sequential path.
        results
            .into_iter()
            .zip(fingerprints.iter().zip(queries))
            .enumerate()
            .map(|(i, (slot, (fp, query)))| match slot {
                Some(result) => result,
                None => match by_fingerprint.get(fp.as_str()) {
                    Some((origin, result)) if *origin == i => (*result).clone(),
                    Some((_, Ok(report))) => {
                        self.reports.record_hit();
                        Ok(report.clone())
                    }
                    _ => self.explain_guarded(fp, query),
                },
            })
            .collect()
    }

    /// Finds the top-k unexplained data subgroups (Algorithm 2) for a
    /// query's explanation. The query is prepared once; that preparation
    /// fills the report memo on a miss and feeds Algorithm 2.
    pub fn unexplained_subgroups(
        &self,
        query: &AggregateQuery,
        config: &SubgroupConfig,
    ) -> Result<Vec<Subgroup>> {
        guard_panics(|| {
            let prepared = self.prepare(query)?;
            let report = self.report_or_fill(&query.fingerprint(), || Ok(&prepared))?;
            unexplained_subgroups(&prepared, &report.explanation.attributes, config)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg::Object;
    use tabular::{DataFrameBuilder, Predicate};

    fn setup() -> (DataFrame, KnowledgeGraph) {
        let n = 240;
        let mut country = Vec::new();
        let mut region = Vec::new();
        let mut salary = Vec::new();
        for i in 0..n {
            let cid = i % 4;
            country.push(Some(["DE", "IT", "NG", "KE"][cid]));
            region.push(Some(if cid < 2 { "Europe" } else { "Africa" }));
            let base = if cid < 2 { 70.0 } else { 20.0 };
            salary.push(Some(base + (i % 7) as f64));
        }
        let df = DataFrameBuilder::new()
            .cat("Country", country)
            .cat("Region", region)
            .float("Salary", salary)
            .build()
            .unwrap();
        let mut g = KnowledgeGraph::new();
        for (c, gdp) in [("DE", 50.0), ("IT", 40.0), ("NG", 5.0), ("KE", 4.0)] {
            g.add_fact(c, "GDP per capita", Object::number(gdp));
            g.add_fact(c, "wikiID", Object::integer(1));
        }
        (df, g)
    }

    #[test]
    fn repeat_explain_is_served_from_the_memo() {
        let (df, g) = setup();
        let session = Session::new(&df, Some(&g), &["Country"], MesaConfig::default());
        let q = AggregateQuery::avg("Country", "Salary");
        let cold = session.explain(&q).unwrap();
        let warm = session.explain(&q).unwrap();
        // same shared report object, not merely an equal one
        assert!(Arc::ptr_eq(&cold, &warm));
        let stats = session.cache_stats();
        assert_eq!(stats.reports.misses, 1);
        assert_eq!(stats.reports.hits, 1);
        assert_eq!(stats.prepared.misses, 1);
        assert!(session.prepare(&q).unwrap().encoded.is_sealed());
    }

    #[test]
    fn different_contexts_share_nothing_in_the_extraction_cache() {
        let (df, g) = setup();
        let session = Session::new(&df, Some(&g), &["Country"], MesaConfig::default());
        let q_all = AggregateQuery::avg("Country", "Salary");
        let q_europe = AggregateQuery::avg("Country", "Salary")
            .with_context(Predicate::eq("Region", "Europe"));
        session.explain(&q_all).unwrap();
        session.explain(&q_europe).unwrap();
        let stats = session.cache_stats();
        // the Europe context selects a different distinct-value set, so the
        // extraction cannot be served from the cache
        let extraction = stats.extraction.unwrap();
        assert_eq!(extraction.misses, 2);
        assert_eq!(extraction.entries, 2);
        assert_eq!(stats.reports.misses, 2);
    }

    #[test]
    fn same_distinct_values_share_the_extraction() {
        let (df, g) = setup();
        let session = Session::new(&df, Some(&g), &["Country"], MesaConfig::default());
        // Both queries keep every row, so the distinct Country values match
        // and the second prepare reuses the first extraction.
        let q1 = AggregateQuery::avg("Country", "Salary");
        let q2 = AggregateQuery::avg("Region", "Salary");
        session.prepare(&q1).unwrap();
        session.prepare(&q2).unwrap();
        let stats = session.cache_stats();
        let extraction = stats.extraction.unwrap();
        assert_eq!(extraction.misses, 1);
        assert_eq!(extraction.hits, 1);
        assert_eq!(stats.prepared.misses, 2);
    }

    #[test]
    fn session_prepare_matches_cold_prepare_query() {
        let (df, g) = setup();
        let session = Session::new(&df, Some(&g), &["Country"], MesaConfig::default());
        for q in [
            AggregateQuery::avg("Country", "Salary"),
            AggregateQuery::avg("Region", "Salary"),
            AggregateQuery::avg("Country", "Salary")
                .with_context(Predicate::eq("Region", "Europe")),
        ] {
            let warm = session.prepare(&q).unwrap();
            let cold = crate::problem::prepare_query(
                &df,
                &q,
                Some(&g),
                &["Country"],
                crate::problem::PrepareConfig::default(),
            )
            .unwrap();
            assert_eq!(warm.candidates, cold.candidates, "{q}");
            assert_eq!(warm.extracted, cold.extracted, "{q}");
            assert_eq!(warm.extraction_stats, cold.extraction_stats, "{q}");
            assert_eq!(warm.frame.n_rows(), cold.frame.n_rows(), "{q}");
        }
    }

    #[test]
    fn explain_many_matches_sequential_and_dedupes() {
        let (df, g) = setup();
        let session = Session::new(&df, Some(&g), &["Country"], MesaConfig::default());
        let q1 = AggregateQuery::avg("Country", "Salary");
        let q2 = AggregateQuery::avg("Region", "Salary");
        let batch = vec![q1.clone(), q2.clone(), q1.clone()];
        let results = session.explain_many(&batch);
        assert_eq!(results.len(), 3);
        // duplicates computed once
        assert_eq!(session.cache_stats().reports.misses, 2);
        let r0 = results[0].as_ref().unwrap();
        let r2 = results[2].as_ref().unwrap();
        assert!(Arc::ptr_eq(r0, r2));
        // identical to the sequential result
        let fresh = Session::new(&df, Some(&g), &["Country"], MesaConfig::default());
        let s1 = fresh.explain(&q1).unwrap();
        assert_eq!(s1.explanation, r0.explanation);
    }

    #[test]
    fn explain_many_reports_per_query_errors() {
        let (df, g) = setup();
        let session = Session::new(&df, Some(&g), &["Country"], MesaConfig::default());
        let good = AggregateQuery::avg("Country", "Salary");
        let bad = AggregateQuery::avg("Nope", "Salary");
        let results = session.explain_many(&[good, bad]);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
    }

    #[test]
    fn sessions_without_graph_work() {
        let (df, _) = setup();
        let session = Session::new(&df, None, &[], MesaConfig::default());
        let q = AggregateQuery::avg("Country", "Salary");
        let report = session.explain(&q).unwrap();
        assert_eq!(report.n_extracted, 0);
        assert!(session.cache_stats().extraction.is_none());
    }

    #[test]
    fn extraction_cache_keys_on_config_and_values() {
        let (_, g) = setup();
        let cache = ExtractionCache::new(&g);
        let values: Vec<String> = vec!["DE".into(), "IT".into()];
        let base = ExtractionConfig::default();
        let two_hops = ExtractionConfig { hops: 2, ..base };
        let max_agg = ExtractionConfig {
            one_to_many: kg::OneToManyAgg::Max,
            ..base
        };
        cache
            .get_or_extract("Country", &values, "__key_Country", base)
            .unwrap();
        // same key: hit
        cache
            .get_or_extract("Country", &values, "__key_Country", base)
            .unwrap();
        // different hops / policy / values / column: four more entries
        cache
            .get_or_extract("Country", &values, "__key_Country", two_hops)
            .unwrap();
        cache
            .get_or_extract("Country", &values, "__key_Country", max_agg)
            .unwrap();
        let fewer: Vec<String> = vec!["DE".into()];
        cache
            .get_or_extract("Country", &fewer, "__key_Country", base)
            .unwrap();
        cache
            .get_or_extract("Origin", &values, "__key_Origin", base)
            .unwrap();
        // a different key-column name yields a different cached table
        let renamed = cache
            .get_or_extract("Country", &values, "other_key", base)
            .unwrap();
        assert!(renamed.table.has_column("other_key"));
        assert_eq!(cache.len(), 6);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 6);
    }

    #[test]
    fn one_entry_report_memo_evicts_and_recomputes_identically() {
        let (df, g) = setup();
        let limits = SessionLimits {
            reports: CacheBudget::entries(1),
            ..SessionLimits::default()
        };
        let session =
            Session::with_limits(&df, Some(&g), &["Country"], MesaConfig::default(), limits);
        let q1 = AggregateQuery::avg("Country", "Salary");
        let q2 = AggregateQuery::avg("Region", "Salary");
        let first = session.explain(&q1).unwrap();
        session.explain(&q2).unwrap(); // evicts q1's report
        let recomputed = session.explain(&q1).unwrap(); // cold again
        assert!(!Arc::ptr_eq(&first, &recomputed));
        assert_eq!(first.explanation, recomputed.explanation);
        let stats = session.cache_stats();
        assert_eq!(stats.reports.misses, 3);
        assert!(stats.reports.evictions >= 2);
        assert_eq!(stats.reports.entries, 1);
    }

    #[test]
    fn generous_default_limits_do_not_evict() {
        let (df, g) = setup();
        let session = Session::new(&df, Some(&g), &["Country"], MesaConfig::default());
        for q in [
            AggregateQuery::avg("Country", "Salary"),
            AggregateQuery::avg("Region", "Salary"),
        ] {
            session.explain(&q).unwrap();
        }
        let stats = session.cache_stats();
        assert_eq!(stats.reports.evictions, 0);
        assert_eq!(stats.extraction.unwrap().evictions, 0);
        assert!(stats.reports.resident_bytes > 0);
    }

    #[test]
    fn explain_keeps_no_preparation_and_prepare_runs_anew() {
        let (df, g) = setup();
        let session = Session::new(&df, Some(&g), &["Country"], MesaConfig::default());
        let q = AggregateQuery::avg("Country", "Salary");
        session.explain(&q).unwrap();
        let prepared = session.cache_stats().prepared;
        assert_eq!(prepared.misses, 1);
        assert_eq!(prepared.hits, 0);
        assert_eq!(prepared.entries, 0);
        assert_eq!(prepared.resident_bytes, 0);
        let first = session.prepare(&q).unwrap();
        let second = session.prepare(&q).unwrap();
        assert_eq!(session.cache_stats().prepared.misses, 3);
        assert_eq!(first.candidates, second.candidates);
        assert_eq!(first.extracted, second.extracted);
        assert_eq!(
            first.encoded.encoding_report(),
            second.encoded.encoding_report()
        );
    }

    #[test]
    fn subgroups_prepare_once_and_fill_the_report_memo() {
        let (df, g) = setup();
        let session = Session::new(&df, Some(&g), &["Country"], MesaConfig::default());
        let q = AggregateQuery::avg("Country", "Salary");
        let config = SubgroupConfig {
            min_group_size: 10,
            ..Default::default()
        };
        session.unexplained_subgroups(&q, &config).unwrap();
        let stats = session.cache_stats();
        assert_eq!(stats.prepared.misses, 1);
        assert_eq!(stats.reports.misses, 1);
        assert_eq!(stats.reports.entries, 1);
        session.explain(&q).unwrap();
        let stats = session.cache_stats();
        assert_eq!(stats.reports.hits, 1);
        assert_eq!(stats.prepared.misses, 1);
    }

    #[test]
    fn reports_are_priced_by_their_weights_and_names() {
        let (df, mut g) = setup();
        // HDI is missing for KE alone, so its missingness depends on the
        // exposure and IPW weights it.
        for (c, hdi) in [("DE", 0.95), ("IT", 0.9), ("NG", 0.5)] {
            g.add_fact(c, "HDI", Object::number(hdi));
        }
        let session = Session::new(&df, Some(&g), &["Country"], MesaConfig::mesa_minus());
        let mut priced = 0;
        let mut weights = 0;
        for q in [
            AggregateQuery::avg("Country", "Salary"),
            AggregateQuery::avg("Region", "Salary"),
        ] {
            let report = session.explain(&q).unwrap();
            let n: usize = report
                .selection_bias
                .values()
                .filter_map(|info| info.weights.as_ref())
                .map(Vec::len)
                .sum();
            assert!(report.approx_bytes() >= 8 * n);
            weights += n;
            priced += report.approx_bytes();
        }
        assert!(weights > 0, "the fixture must carry IPW weights");
        assert_eq!(session.cache_stats().reports.resident_bytes, priced);
    }

    #[test]
    fn expired_deadline_is_a_structured_error_and_session_survives() {
        let (df, g) = setup();
        let session = Session::new(&df, Some(&g), &["Country"], MesaConfig::default());
        let q = AggregateQuery::avg("Country", "Salary");
        let err = session
            .explain_with_deadline(&q, Duration::from_secs(0))
            .unwrap_err();
        assert_eq!(err, MesaError::DeadlineExceeded);
        // the failed attempt is not cached, and the session still serves
        let report = session.explain(&q).unwrap();
        let fresh = Session::new(&df, Some(&g), &["Country"], MesaConfig::default());
        assert_eq!(report.explanation, fresh.explain(&q).unwrap().explanation);
        // a memoised result is returned even under an expired deadline
        let warm = session
            .explain_with_deadline(&q, Duration::from_secs(0))
            .unwrap();
        assert!(Arc::ptr_eq(&report, &warm));
    }
}
