//! The Correlation-Explanation problem (Definition 2.1) and the prepared,
//! discretised view of the data it is solved over.
//!
//! Preparation pipeline (shared by MESA and every baseline):
//!
//! 1. apply the query context `C` (the `WHERE` clause) to the input table;
//! 2. extract attributes from the knowledge graph for each extraction
//!    column and match the column's keys to the extracted table's rows
//!    ([`extract_and_join_with`]); the result is a row map per table, and no
//!    extracted value is gathered;
//! 3. bin numeric attributes so the information-theoretic estimators can work
//!    over discrete codes ([`prepare_from_joined`]): the input table's
//!    columns row by row, and each extracted attribute — a function of its
//!    entity — once per entity, its codes written through the row map;
//! 4. encode every column once into an [`EncodedFrame`] and seal it, so
//!    every prepared frame holds compressed, immutable columns.
//!
//! Everything downstream — pruning, MCIMR, baselines, responsibility, the
//! subgroup search — operates on the resulting [`PreparedQuery`].

use std::collections::HashSet;
use std::sync::Arc;

use infotheory::EncodedFrame;
use tabular::{
    bin_frame_encoded, bin_joined, AggregateQuery, BinStrategy, DataFrame, EncodedColumn,
};

use kg::{extract_attributes, ExtractionConfig, ExtractionResult, ExtractionStats, KnowledgeGraph};

use crate::error::{MesaError, Result};

/// Binning / preparation options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrepareConfig {
    /// Number of bins for numeric attributes.
    pub n_bins: usize,
    /// Binning strategy.
    pub bin_strategy: BinStrategy,
    /// KG extraction configuration (hops, one-to-many aggregation).
    pub extraction: ExtractionConfig,
}

impl Default for PrepareConfig {
    fn default() -> Self {
        PrepareConfig {
            n_bins: 6,
            bin_strategy: BinStrategy::EqualFrequency,
            extraction: ExtractionConfig::default(),
        }
    }
}

/// A query together with the discretised data it will be explained over.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// The original query.
    pub query: AggregateQuery,
    /// The context-filtered, KG-joined, binned frame.
    pub frame: DataFrame,
    /// Encoded (discrete) view of [`PreparedQuery::frame`], sealed.
    pub encoded: EncodedFrame,
    /// Candidate attribute names `A = E ∪ T \ {O, T}`.
    pub candidates: Vec<String>,
    /// Names of the candidates that came from the knowledge graph.
    pub extracted: Vec<String>,
    /// Per-extraction-column statistics (linking success, #attributes).
    pub extraction_stats: Vec<(String, ExtractionStats)>,
}

impl PreparedQuery {
    /// Approximate resident footprint in bytes (frame + sealed encoded
    /// columns + name lists).
    pub fn approx_bytes(&self) -> usize {
        let encoded: usize = self
            .encoded
            .encoding_report()
            .iter()
            .map(|r| r.sealed_bytes)
            .sum();
        let names: usize = self
            .candidates
            .iter()
            .chain(&self.extracted)
            .map(String::len)
            .sum();
        self.frame.approx_bytes() + encoded + names + 256
    }

    /// The exposure attribute `T`.
    pub fn exposure(&self) -> &str {
        &self.query.exposure
    }

    /// The outcome attribute `O`.
    pub fn outcome(&self) -> &str {
        &self.query.outcome
    }

    /// The baseline correlation `I(O; T | C)` with an empty explanation.
    pub fn baseline_cmi(&self) -> f64 {
        self.encoded
            .mutual_information(self.outcome(), self.exposure(), None)
            .unwrap_or(0.0)
    }

    /// The explanation score `I(O; T | E, C)` for a set of attributes.
    pub fn explanation_cmi(&self, attributes: &[String], weights: Option<&[f64]>) -> Result<f64> {
        let z: Vec<&str> = attributes.iter().map(|s| s.as_str()).collect();
        Ok(self
            .encoded
            .cmi(self.outcome(), self.exposure(), &z, weights)?)
    }

    /// The Definition 2.1 objective `I(O;T|E,C) · |E|` (with `|E| = 1` used
    /// for the empty set so the empty explanation is scored by its CMI).
    pub fn objective(&self, attributes: &[String]) -> Result<f64> {
        let cmi = self.explanation_cmi(attributes, None)?;
        Ok(cmi * attributes.len().max(1) as f64)
    }
}

/// An explanation: the selected confounding attributes, their explanation
/// score, and the per-attribute degrees of responsibility.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// Selected attribute names, in selection order.
    pub attributes: Vec<String>,
    /// `I(O;T|C)` before conditioning on the explanation.
    pub baseline_cmi: f64,
    /// `I(O;T|E,C)` — the explainability score (lower is better; 0 means the
    /// correlation is fully explained).
    pub explainability: f64,
    /// Degree of responsibility per attribute (Definition 2.2), in the same
    /// order as [`Explanation::attributes`].
    pub responsibilities: Vec<f64>,
}

impl Explanation {
    /// An empty explanation (nothing selected).
    pub fn empty(baseline_cmi: f64) -> Self {
        Explanation {
            attributes: Vec::new(),
            baseline_cmi,
            explainability: baseline_cmi,
            responsibilities: Vec::new(),
        }
    }

    /// Number of selected attributes.
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// Whether the explanation is empty.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// Fraction of the baseline correlation that the explanation removes, in
    /// `[0, 1]` (1 = fully explained).
    pub fn explained_fraction(&self) -> f64 {
        if self.baseline_cmi <= 0.0 {
            return 1.0;
        }
        ((self.baseline_cmi - self.explainability) / self.baseline_cmi).clamp(0.0, 1.0)
    }

    /// `(attribute, responsibility)` pairs sorted by decreasing responsibility.
    pub fn ranked_attributes(&self) -> Vec<(String, f64)> {
        let mut pairs: Vec<(String, f64)> = self
            .attributes
            .iter()
            .cloned()
            .zip(self.responsibilities.iter().copied())
            .collect();
        pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        pairs
    }
}

/// One extraction column's contribution to the KG-join stage of
/// [`prepare_query`]: the (collision-renamed) attribute table, the row map
/// that joins it onto the frame, and its statistics.
///
/// The table's values are never gathered into the frame.
/// [`prepare_from_joined`] bins each attribute once per entity (table row)
/// and writes its frame column through [`ExtractionJoin::rows`].
#[derive(Debug, Clone)]
pub struct ExtractionJoin {
    /// The table column whose values were linked to KG entities.
    pub column: String,
    /// Name of the key column inside [`ExtractionJoin::table`].
    pub key: String,
    /// The extracted attribute table, after collision renames: one row per
    /// entity. Shared (`Arc`) so a session's extraction cache can hand the
    /// same table to many queries without copying it.
    pub table: Arc<DataFrame>,
    /// Names of the attribute columns contributed by this table.
    pub attribute_names: Vec<String>,
    /// The join's row map ([`tabular::join_rows`]): frame row `i` holds
    /// table row `rows[i]`, or no entity when its key is null or unmatched.
    pub rows: Vec<Option<usize>>,
    /// Linking/extraction statistics.
    pub stats: ExtractionStats,
}

/// The raw, pre-rename extraction output for one column's distinct values —
/// the unit a [`crate::session::Session`] caches and shares across queries.
/// It is a pure function of `(distinct values, extraction config)`: each
/// row's attributes depend only on that row's linked entity, so reusing the
/// table for another query with the same distinct values is byte-identical
/// to re-extracting.
#[derive(Debug, Clone)]
pub struct ColumnExtraction {
    /// The extracted attribute table, keyed by the extraction column's
    /// distinct values (key column first, attributes sorted by name).
    pub table: Arc<DataFrame>,
    /// Names of the attribute columns, in table order.
    pub attribute_names: Vec<String>,
    /// Linking/extraction statistics.
    pub stats: ExtractionStats,
}

impl ColumnExtraction {
    /// Approximate resident footprint in bytes, pricing entries for the
    /// session's extraction-cache budget.
    pub fn approx_bytes(&self) -> usize {
        self.table.approx_bytes() + self.attribute_names.iter().map(String::len).sum::<usize>() + 64
    }

    /// Wraps a [`kg::ExtractionResult`] for sharing.
    pub fn from_result(result: ExtractionResult) -> Self {
        let attribute_names = result.attribute_names();
        ColumnExtraction {
            table: Arc::new(result.table),
            attribute_names,
            stats: result.stats,
        }
    }
}

/// The KG extraction + join stage of [`prepare_query`], exposed on its own:
/// for each extraction column present in `df`, extracts the attributes of its
/// distinct values, renames collisions (`"<name> (<col>)"`) against the
/// frame's columns and the attributes joined so far, and matches the
/// column's keys to the table's rows. Returns `df` unchanged together with
/// each stage table and its row map, which [`prepare_from_joined`] turns
/// into binned frame columns.
pub fn extract_and_join(
    df: &DataFrame,
    graph: &KnowledgeGraph,
    extraction_columns: &[&str],
    config: ExtractionConfig,
) -> Result<(DataFrame, Vec<ExtractionJoin>)> {
    extract_and_join_with(df, extraction_columns, |_, values, key_column| {
        Ok(ColumnExtraction::from_result(extract_attributes(
            graph, values, key_column, config,
        )?))
    })
}

/// [`extract_and_join`] with the per-column extraction injected: `fetch` is
/// called as `fetch(column, distinct_values, key_column)` and may serve the
/// result from a cache (the session path) or extract on the spot (the cold
/// path). Collision renames are applied here, per query, on top of the
/// fetched (pre-rename) table — in place when the table is unshared, on a
/// copy-on-write clone when it came out of a cache.
///
/// Renames check the names of the frame [`prepare_from_joined`] assembles:
/// `df`'s columns, then each earlier table's attributes under the names
/// [`tabular::join()`] gives them. An extraction column may name such an
/// attribute; its keys are then that attribute's values.
pub fn extract_and_join_with<F>(
    df: &DataFrame,
    extraction_columns: &[&str],
    mut fetch: F,
) -> Result<(DataFrame, Vec<ExtractionJoin>)>
where
    F: FnMut(&str, &[String], &str) -> Result<ColumnExtraction>,
{
    let mut taken: HashSet<String> = df.column_names().into_iter().map(String::from).collect();
    let mut joins: Vec<ExtractionJoin> = Vec::new();
    for &col in extraction_columns {
        let Some(keys) = join_keys(df, &joins, col)? else {
            continue;
        };
        // Distinct values of the extraction column (borrowed from the
        // encoding — extraction does not need its own copy).
        let values = keys.labels();
        if values.is_empty() {
            continue;
        }
        let key = format!("__key_{col}");
        let fetched = fetch(col, values, &key)?;
        let mut table = fetched.table;
        // Avoid column collisions across extraction columns (e.g. both the
        // origin city and origin state expose a `Density` property).
        let renames: Vec<(String, String)> = fetched
            .attribute_names
            .iter()
            .filter(|name| taken.contains(name.as_str()))
            .map(|name| (name.clone(), format!("{name} ({col})")))
            .collect();
        let attribute_names = if renames.is_empty() {
            fetched.attribute_names
        } else {
            let t = Arc::make_mut(&mut table);
            for (old, new) in &renames {
                let mut c = t.drop_column(old)?;
                c.rename(new.clone());
                t.add_column(c)?;
            }
            // Renamed columns moved to the end of the table; re-read the
            // names in table order.
            t.column_names()
                .into_iter()
                .filter(|n| *n != key)
                .map(|s| s.to_string())
                .collect()
        };
        parallel::fault_point!("mesa.join");
        parallel::checkpoint();
        let rows = tabular::join_rows(&keys, &table.column(&key)?.encode());
        for name in table.column_names() {
            if name != key {
                taken.insert(tabular::join_name(name, |n| taken.contains(n)));
            }
        }
        joins.push(ExtractionJoin {
            column: col.to_string(),
            key,
            table,
            attribute_names,
            rows,
            stats: fetched.stats,
        });
    }
    Ok((df.clone(), joins))
}

/// The encoded keys of extraction column `col`: a column of `df`, or else
/// an attribute an earlier join appended under that name (its values
/// gathered through the join's row map), or `None` when neither exists.
fn join_keys(df: &DataFrame, joins: &[ExtractionJoin], col: &str) -> Result<Option<EncodedColumn>> {
    if df.has_column(col) {
        return Ok(Some(df.column(col)?.encode()));
    }
    let mut taken: HashSet<String> = df.column_names().into_iter().map(String::from).collect();
    for join in joins {
        for column in join.table.columns().filter(|c| c.name() != join.key) {
            let name = tabular::join_name(column.name(), |n| taken.contains(n));
            if name == col {
                return Ok(Some(column.take_opt(&join.rows).encode()));
            }
            taken.insert(name);
        }
    }
    Ok(None)
}

/// Prepares a query for explanation: applies the context, extracts and joins
/// KG attributes for each extraction column, bins numeric attributes, and
/// encodes everything.
///
/// * `graph` — the knowledge source; `None` restricts candidates to the input
///   table (this is how the HypDB baseline and "input-only" ablations run).
/// * `extraction_columns` — the table columns whose values are linked to KG
///   entities (Table 1's "Columns used for extraction").
pub fn prepare_query(
    df: &DataFrame,
    query: &AggregateQuery,
    graph: Option<&KnowledgeGraph>,
    extraction_columns: &[&str],
    config: PrepareConfig,
) -> Result<PreparedQuery> {
    // 1. Context.
    let filtered = apply_query_context(df, query)?;

    // 2. KG extraction + join.
    let (joined, extraction_joins) = match graph {
        Some(graph) => extract_and_join(&filtered, graph, extraction_columns, config.extraction)?,
        None => (filtered, Vec::new()),
    };

    // 3.+4. Binning + encoding + candidate assembly.
    prepare_from_joined(query, joined, extraction_joins, config)
}

/// The context stage of [`prepare_query`] on its own: validates the query
/// against the frame and applies the `WHERE` clause, rejecting an empty
/// selection.
pub fn apply_query_context(df: &DataFrame, query: &AggregateQuery) -> Result<DataFrame> {
    query.validate(df).map_err(MesaError::from)?;
    let filtered = query.apply_context(df)?;
    if filtered.is_empty() {
        return Err(MesaError::InvalidInput(format!(
            "no rows satisfy the query context {}",
            query.context.describe()
        )));
    }
    Ok(filtered)
}

/// The binning + encoding tail of [`prepare_query`], callable on the
/// output of [`extract_and_join_with`] (e.g. from a session's cached
/// extraction tables): bins the numeric columns of the base frame, appends
/// each join's attributes already binned, assembles the candidate set, seals
/// the encoded frame, and packs everything into a [`PreparedQuery`].
///
/// The attributes of each join follow the base columns in table order,
/// named as [`tabular::join()`] would name them. Each one is a function of its
/// entity, so [`tabular::bin_joined`] bins it once per entity and writes
/// its frame column and codes through the join's row map; the result equals
/// joining the tables with [`tabular::join()`] and binning the joined frame.
pub fn prepare_from_joined(
    query: &AggregateQuery,
    joined: DataFrame,
    extraction_joins: Vec<ExtractionJoin>,
    config: PrepareConfig,
) -> Result<PreparedQuery> {
    // 3. Binning, in place on the base frame. The exposure is left unbinned
    //    only if categorical; numeric exposures are binned like everything
    //    else (paper §2.1). The pass also hands back the encodings it
    //    computed along the way (bin codes of binned columns, domain-check
    //    encodings of small numeric ones).
    let (mut frame, mut encodings) = bin_frame_encoded(joined, config.n_bins, config.bin_strategy)?;
    let mut extracted_names: Vec<String> = Vec::new();
    let mut extraction_stats = Vec::new();
    for ej in extraction_joins {
        let binned = bin_joined(
            &ej.table,
            &ej.key,
            &ej.rows,
            config.n_bins,
            config.bin_strategy,
        )?;
        for (mut column, encoding) in binned {
            let name = tabular::join_name(column.name(), |n| frame.has_column(n));
            if let Some(encoding) = encoding {
                encodings.push((name.clone(), encoding));
            }
            column.rename(name);
            frame.add_column(column)?;
        }
        extracted_names.extend(ej.attribute_names);
        extraction_stats.push((ej.column, ej.stats));
    }

    // 4. Encoding + candidate assembly. Binned columns flow code-to-code:
    //    their encodings were produced by the binning passes, so only the
    //    remaining (categorical/bool) columns are encoded here.
    let mut encoded = EncodedFrame::from_frame_with(&frame, encodings)?;
    let candidates: Vec<String> = frame
        .column_names()
        .into_iter()
        .filter(|&n| n != query.exposure && n != query.outcome)
        .map(|s| s.to_string())
        .collect();
    if candidates.is_empty() {
        return Err(MesaError::NoCandidates(
            "the frame only contains the exposure and outcome".into(),
        ));
    }
    // 5. Sealing. Narrow codes shrink a preparation's codes; every
    //    estimator reads them in place through the kernel's block fold
    //    with bit-identical results.
    encoded.seal();

    Ok(PreparedQuery {
        query: query.clone(),
        frame,
        encoded,
        candidates,
        extracted: extracted_names,
        extraction_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg::Object;
    use tabular::{DataFrameBuilder, Predicate};

    fn base_frame() -> DataFrame {
        let n = 120;
        let countries = ["Germany", "Italy", "Nigeria", "Kenya"];
        let mut country = Vec::new();
        let mut continent = Vec::new();
        let mut salary = Vec::new();
        let mut gender = Vec::new();
        for i in 0..n {
            let c = countries[i % 4];
            country.push(Some(c));
            continent.push(Some(if i % 4 < 2 { "Europe" } else { "Africa" }));
            // salary driven by country "wealth": DE/IT high, NG/KE low
            let base = if i % 4 < 2 { 70.0 } else { 20.0 };
            salary.push(Some(base + (i % 7) as f64));
            gender.push(Some(if i % 3 == 0 { "W" } else { "M" }));
        }
        DataFrameBuilder::new()
            .cat("Country", country)
            .cat("Continent", continent)
            .float("Salary", salary)
            .cat("Gender", gender)
            .build()
            .unwrap()
    }

    fn graph() -> KnowledgeGraph {
        let mut g = KnowledgeGraph::new();
        for (c, gdp) in [
            ("Germany", 50.0),
            ("Italy", 40.0),
            ("Nigeria", 5.0),
            ("Kenya", 4.0),
        ] {
            g.add_fact(c, "GDP per capita", Object::number(gdp));
            g.add_fact(c, "wikiID", Object::integer(1));
        }
        g
    }

    #[test]
    fn prepare_without_graph() {
        let df = base_frame();
        let q = AggregateQuery::avg("Country", "Salary");
        let prep = prepare_query(&df, &q, None, &[], PrepareConfig::default()).unwrap();
        assert_eq!(prep.exposure(), "Country");
        assert_eq!(prep.outcome(), "Salary");
        assert!(prep.candidates.contains(&"Gender".to_string()));
        assert!(!prep.candidates.contains(&"Salary".to_string()));
        assert!(prep.extracted.is_empty());
        assert!(
            prep.baseline_cmi() > 0.1,
            "country and salary should correlate"
        );
    }

    #[test]
    fn prepare_with_graph_joins_extracted_attributes() {
        let df = base_frame();
        let q = AggregateQuery::avg("Country", "Salary");
        let prep = prepare_query(
            &df,
            &q,
            Some(&graph()),
            &["Country"],
            PrepareConfig::default(),
        )
        .unwrap();
        assert!(prep.frame.has_column("GDP per capita"));
        assert!(prep.extracted.contains(&"GDP per capita".to_string()));
        assert_eq!(prep.extraction_stats.len(), 1);
        assert_eq!(prep.extraction_stats[0].1.n_linked, 4);
        // conditioning on the extracted GDP attribute explains the correlation
        let cmi = prep
            .explanation_cmi(&["GDP per capita".to_string()], None)
            .unwrap();
        assert!(cmi < prep.baseline_cmi() * 0.6);
    }

    #[test]
    fn prepare_applies_context() {
        let df = base_frame();
        let q = AggregateQuery::avg("Country", "Salary")
            .with_context(Predicate::eq("Continent", "Europe"));
        let prep = prepare_query(&df, &q, None, &[], PrepareConfig::default()).unwrap();
        assert_eq!(prep.frame.n_rows(), 60);
        // context column became constant in the filtered frame
        assert_eq!(prep.frame.column("Continent").unwrap().n_distinct(), 1);
    }

    #[test]
    fn prepare_rejects_empty_context_and_bad_columns() {
        let df = base_frame();
        let q = AggregateQuery::avg("Country", "Salary")
            .with_context(Predicate::eq("Continent", "Atlantis"));
        assert!(prepare_query(&df, &q, None, &[], PrepareConfig::default()).is_err());
        let q = AggregateQuery::avg("Nope", "Salary");
        assert!(prepare_query(&df, &q, None, &[], PrepareConfig::default()).is_err());
    }

    #[test]
    fn objective_scales_with_cardinality() {
        let df = base_frame();
        let q = AggregateQuery::avg("Country", "Salary");
        let prep = prepare_query(
            &df,
            &q,
            Some(&graph()),
            &["Country"],
            PrepareConfig::default(),
        )
        .unwrap();
        let single = prep.objective(&["GDP per capita".to_string()]).unwrap();
        let double = prep
            .objective(&["GDP per capita".to_string(), "Gender".to_string()])
            .unwrap();
        // the pair is scored with |E| = 2
        let pair_cmi = prep
            .explanation_cmi(&["GDP per capita".to_string(), "Gender".to_string()], None)
            .unwrap();
        assert!((double - pair_cmi * 2.0).abs() < 1e-12);
        assert!(single >= 0.0);
    }

    #[test]
    fn explanation_helpers() {
        let mut e = Explanation::empty(2.0);
        assert!(e.is_empty());
        assert_eq!(e.explained_fraction(), 0.0);
        e.attributes = vec!["a".into(), "b".into()];
        e.responsibilities = vec![0.3, 0.7];
        e.explainability = 0.5;
        assert_eq!(e.len(), 2);
        assert!((e.explained_fraction() - 0.75).abs() < 1e-12);
        let ranked = e.ranked_attributes();
        assert_eq!(ranked[0].0, "b");
        let empty = Explanation::empty(0.0);
        assert_eq!(empty.explained_fraction(), 1.0);
    }

    #[test]
    fn name_collisions_are_suffixed() {
        let df = DataFrameBuilder::new()
            .cat(
                "Country",
                vec![
                    Some("Germany"),
                    Some("Italy"),
                    Some("Germany"),
                    Some("Italy"),
                ],
            )
            .cat("Gender", vec![Some("M"), Some("W"), Some("M"), Some("W")])
            .float("Salary", vec![Some(1.0), Some(2.0), Some(3.0), Some(4.0)])
            .build()
            .unwrap();
        let mut g = KnowledgeGraph::new();
        // KG property clashes with an existing dataset column name
        g.add_fact("Germany", "Gender", Object::text("n/a"));
        g.add_fact("Germany", "GDP", Object::number(1.0));
        g.add_fact("Italy", "GDP", Object::number(2.0));
        let q = AggregateQuery::avg("Country", "Salary");
        let prep =
            prepare_query(&df, &q, Some(&g), &["Country"], PrepareConfig::default()).unwrap();
        assert!(prep.frame.has_column("Gender (Country)"));
        assert!(prep.frame.has_column("Gender"));
    }
}
