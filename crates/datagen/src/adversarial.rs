//! Adversarial scenario ingredients for the differential fuzzer.
//!
//! Everything here generates *hostile* instances on purpose: columns with
//! pathological null rates (up to and including 100%), cardinalities from 2
//! to ~100k (stressing the kernel's dense/sparse crossover and the narrow
//! code widths), runny vs shuffled row orders, and knowledge graphs
//! with deep hop chains, colliding aliases and one-to-many fans (stressing
//! extraction). All sampling goes through the vendored [`rand`] `StdRng`, so
//! an entire scenario replays from a single `u64` seed.
//!
//! The structures are deliberately dumb data ("specs") separated from their
//! `materialize` step: the fuzzer's minimizer shrinks *materialized* data,
//! while specs make the generated shape printable in a failure report.

use kg::{KnowledgeGraph, Object};
use rand::rngs::StdRng;
use rand::Rng;
use tabular::Column;

/// Data type of a generated adversarial column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversarialDType {
    /// Dictionary-encoded strings.
    Cat,
    /// 64-bit integers.
    Int,
    /// 64-bit floats (never NaN — the pipeline's float totals must stay
    /// comparable bitwise).
    Float,
    /// Booleans (cardinality clamped to 2).
    Bool,
}

/// Physical row order of a generated column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Values sorted, producing long runs of equal codes.
    Runny,
    /// Values in random order, so neighbouring rows rarely repeat a code.
    Shuffled,
}

/// Shape of one adversarial column.
#[derive(Debug, Clone)]
pub struct ColumnSpec {
    /// Column name.
    pub name: String,
    /// Element type.
    pub dtype: AdversarialDType,
    /// Number of *potential* distinct non-null values (actual distinct count
    /// is bounded by the row count at materialization).
    pub cardinality: usize,
    /// Probability that any given row is null, in `0.0..=1.0`.
    pub null_rate: f64,
    /// Physical row order.
    pub layout: Layout,
}

/// Samples a cardinality log-uniformly in `2..=100_000`, so small and huge
/// dictionaries are equally likely and the dense/sparse kernel crossover is
/// exercised from both sides.
pub fn sample_cardinality(rng: &mut StdRng) -> usize {
    let exponent: f64 = rng.gen_range(1.0..16.6);
    (2.0f64.powf(exponent) as usize).clamp(2, 100_000)
}

impl ColumnSpec {
    /// Samples a random column shape: dtype mix, log-uniform cardinality,
    /// null rate 0–99% (with a small chance of an all-null column), and a
    /// coin-flip between runny and shuffled layouts.
    pub fn sample(rng: &mut StdRng, name: impl Into<String>) -> Self {
        let dtype = match rng.gen_range(0u32..4) {
            0 => AdversarialDType::Cat,
            1 => AdversarialDType::Int,
            2 => AdversarialDType::Float,
            _ => AdversarialDType::Bool,
        };
        let cardinality = match dtype {
            AdversarialDType::Bool => 2,
            _ => sample_cardinality(rng),
        };
        let null_rate = if rng.gen_bool(0.35) {
            0.0
        } else if rng.gen_bool(0.03) {
            1.0
        } else {
            rng.gen_range(0.0..0.99)
        };
        let layout = if rng.gen_bool(0.5) {
            Layout::Runny
        } else {
            Layout::Shuffled
        };
        ColumnSpec {
            name: name.into(),
            dtype,
            cardinality,
            null_rate,
            layout,
        }
    }

    /// Materializes `n_rows` rows of this column. Codes are drawn uniformly
    /// from the cardinality, sorted when the layout is runny, and nulled out
    /// independently per row at the spec's null rate.
    pub fn materialize(&self, n_rows: usize, rng: &mut StdRng) -> Column {
        let card = self.cardinality.max(1);
        let mut codes: Vec<usize> = (0..n_rows).map(|_| rng.gen_range(0..card)).collect();
        if self.layout == Layout::Runny {
            codes.sort_unstable();
        }
        let nulls: Vec<bool> = (0..n_rows).map(|_| rng.gen_bool(self.null_rate)).collect();
        let present = |i: usize| !nulls[i];
        match self.dtype {
            AdversarialDType::Cat => Column::from_str_values(
                &self.name,
                codes
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| present(i).then(|| format!("v{c}")))
                    .collect(),
            ),
            AdversarialDType::Int => Column::from_i64(
                &self.name,
                codes
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| present(i).then(|| c as i64 * 3 - card as i64))
                    .collect(),
            ),
            AdversarialDType::Float => Column::from_f64(
                &self.name,
                codes
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| present(i).then_some(c as f64 * 0.25 - 2.0))
                    .collect(),
            ),
            AdversarialDType::Bool => Column::from_bool(
                &self.name,
                codes
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| present(i).then_some(c % 2 == 0))
                    .collect(),
            ),
        }
    }
}

/// Generates the key column tying table rows to knowledge-graph entities:
/// a categorical column whose labels are the canonical entity names
/// (`E0..E{n_entities-1}`) produced by [`KgSpec::materialize`].
///
/// `n_entities == 1` produces the cardinality-1 join key hand case.
pub fn entity_key_column(
    rng: &mut StdRng,
    n_rows: usize,
    n_entities: usize,
    null_rate: f64,
    layout: Layout,
) -> Column {
    let spec = ColumnSpec {
        name: "Entity".into(),
        dtype: AdversarialDType::Cat,
        cardinality: n_entities.max(1),
        null_rate,
        layout,
    };
    // Re-label the generic "v{c}" values as entity names.
    let card = spec.cardinality;
    let mut codes: Vec<usize> = (0..n_rows).map(|_| rng.gen_range(0..card)).collect();
    if layout == Layout::Runny {
        codes.sort_unstable();
    }
    let values: Vec<Option<String>> = codes
        .into_iter()
        .map(|c| (!rng.gen_bool(null_rate)).then(|| format!("E{c}")))
        .collect();
    Column::from_str_values("Entity", values)
}

/// Shape of an adversarial knowledge graph.
#[derive(Debug, Clone)]
pub struct KgSpec {
    /// Number of base entities `E0..`.
    pub n_entities: usize,
    /// Length of the `next`-predicate hop chain hanging off every base
    /// entity (0 = attributes only, 5 = the deep-chain hand case).
    pub chain_depth: usize,
    /// Number of `fan` facts per base entity (one-to-many multiplicity).
    pub fan_out: usize,
    /// Number of attribute predicates (`num{a}` / `tag{a}`) at every chain
    /// level.
    pub attrs_per_level: usize,
    /// Size of the value pool attributes draw from: small pools give the
    /// grouped structure MCIMR needs, `2` is the degenerate binary case.
    pub value_pool: usize,
    /// Unique aliases (`aka{j}` → one entity).
    pub n_aliases: usize,
    /// Colliding aliases registered for *two* entities — these must refuse
    /// to resolve during extraction.
    pub ambiguous_aliases: usize,
}

impl KgSpec {
    /// Samples a random graph shape: 1–64 entities, chains up to 5 hops,
    /// fans up to 6 wide, and a few (possibly colliding) aliases.
    pub fn sample(rng: &mut StdRng) -> Self {
        KgSpec {
            n_entities: rng.gen_range(1..=64),
            chain_depth: rng.gen_range(0..=5),
            fan_out: rng.gen_range(0..=6),
            attrs_per_level: rng.gen_range(1..=3),
            value_pool: rng.gen_range(2..=8),
            n_aliases: rng.gen_range(0..=6),
            ambiguous_aliases: rng.gen_range(0..=2),
        }
    }

    /// Materializes the graph. Base entities are `E{i}`; chain nodes are
    /// `E{i}.h{level}` linked by the `next` predicate; every level carries
    /// `num{a}` (numeric) and `tag{a}` (text) attributes drawn from the
    /// value pool; `fan` facts give one-to-many numeric multiplicity at the
    /// base level.
    pub fn materialize(&self, rng: &mut StdRng) -> KnowledgeGraph {
        let mut graph = KnowledgeGraph::new();
        for i in 0..self.n_entities {
            let mut node = format!("E{i}");
            for level in 0..=self.chain_depth {
                for a in 0..self.attrs_per_level {
                    let v = rng.gen_range(0..self.value_pool);
                    graph.add_fact(node.clone(), format!("num{a}"), Object::number(v as f64));
                    graph.add_fact(
                        node.clone(),
                        format!("tag{a}"),
                        Object::text(format!("t{v}")),
                    );
                }
                if level == 0 {
                    for _ in 0..self.fan_out {
                        let v = rng.gen_range(0..self.value_pool);
                        graph.add_fact(node.clone(), "fan", Object::number(v as f64));
                    }
                }
                if level < self.chain_depth {
                    let next = format!("E{i}.h{}", level + 1);
                    graph.add_fact(node.clone(), "next", Object::entity(next.clone()));
                    node = next;
                }
            }
        }
        for j in 0..self.n_aliases {
            let target = rng.gen_range(0..self.n_entities.max(1));
            graph.add_alias(format!("aka{j}"), format!("E{target}"));
        }
        for j in 0..self.ambiguous_aliases {
            let a = rng.gen_range(0..self.n_entities.max(1));
            let b = (a + 1) % self.n_entities.max(1);
            graph.add_alias(format!("both{j}"), format!("E{a}"));
            graph.add_alias(format!("both{j}"), format!("E{b}"));
        }
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn column_spec_samples_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..200 {
            let spec = ColumnSpec::sample(&mut rng, format!("c{i}"));
            assert!((2..=100_000).contains(&spec.cardinality), "{spec:?}");
            assert!((0.0..=1.0).contains(&spec.null_rate), "{spec:?}");
            if spec.dtype == AdversarialDType::Bool {
                assert_eq!(spec.cardinality, 2);
            }
        }
    }

    #[test]
    fn materialize_respects_rows_and_null_rate() {
        let mut rng = StdRng::seed_from_u64(11);
        let spec = ColumnSpec {
            name: "x".into(),
            dtype: AdversarialDType::Int,
            cardinality: 10,
            null_rate: 0.5,
            layout: Layout::Shuffled,
        };
        let col = spec.materialize(4000, &mut rng);
        assert_eq!(col.len(), 4000);
        let frac = col.null_fraction();
        assert!((0.45..0.55).contains(&frac), "null fraction {frac}");
    }

    #[test]
    fn all_null_columns_materialize() {
        let mut rng = StdRng::seed_from_u64(13);
        let spec = ColumnSpec {
            name: "gone".into(),
            dtype: AdversarialDType::Float,
            cardinality: 5,
            null_rate: 1.0,
            layout: Layout::Runny,
        };
        let col = spec.materialize(64, &mut rng);
        assert_eq!(col.null_count(), 64);
    }

    #[test]
    fn runny_layout_has_fewer_transitions_than_shuffled() {
        let transitions = |col: &Column| {
            let enc = col.encode();
            enc.codes().windows(2).filter(|w| w[0] != w[1]).count()
        };
        let mut rng = StdRng::seed_from_u64(17);
        let base = ColumnSpec {
            name: "x".into(),
            dtype: AdversarialDType::Cat,
            cardinality: 8,
            null_rate: 0.0,
            layout: Layout::Runny,
        };
        let runny = base.materialize(1000, &mut rng);
        let shuffled = ColumnSpec {
            layout: Layout::Shuffled,
            ..base
        }
        .materialize(1000, &mut rng);
        assert!(transitions(&runny) < transitions(&shuffled) / 4);
    }

    #[test]
    fn entity_key_matches_graph_entities() {
        let mut rng = StdRng::seed_from_u64(19);
        let kg_spec = KgSpec {
            n_entities: 4,
            chain_depth: 2,
            fan_out: 2,
            attrs_per_level: 1,
            value_pool: 3,
            n_aliases: 1,
            ambiguous_aliases: 1,
        };
        let graph = kg_spec.materialize(&mut rng);
        let col = entity_key_column(&mut rng, 100, 4, 0.1, Layout::Shuffled);
        for v in col.iter_values() {
            if let tabular::Value::Str(name) = v {
                assert!(graph.has_entity(&name), "missing {name}");
            }
        }
    }

    #[test]
    fn deep_chain_reaches_requested_depth() {
        let mut rng = StdRng::seed_from_u64(23);
        let spec = KgSpec {
            n_entities: 2,
            chain_depth: 5,
            fan_out: 0,
            attrs_per_level: 1,
            value_pool: 2,
            n_aliases: 0,
            ambiguous_aliases: 0,
        };
        let graph = spec.materialize(&mut rng);
        assert!(graph.has_entity("E0.h5"));
        assert!(graph
            .properties("E0.h4")
            .iter()
            .any(|(p, o)| *p == "next" && matches!(o, Object::Entity(e) if e == "E0.h5")));
    }

    #[test]
    fn ambiguous_aliases_refuse_to_resolve() {
        let mut rng = StdRng::seed_from_u64(29);
        let spec = KgSpec {
            n_entities: 3,
            chain_depth: 0,
            fan_out: 0,
            attrs_per_level: 1,
            value_pool: 2,
            n_aliases: 1,
            ambiguous_aliases: 1,
        };
        let graph = spec.materialize(&mut rng);
        assert!(graph.resolve_alias("aka0").is_some());
        assert!(graph.resolve_alias("both0").is_none());
    }

    #[test]
    fn same_seed_same_graph() {
        let build = || {
            let mut rng = StdRng::seed_from_u64(31);
            let spec = KgSpec::sample(&mut rng);
            let g = spec.materialize(&mut rng);
            (spec.n_entities, g.n_triples(), g.n_entities())
        };
        assert_eq!(build(), build());
    }
}
