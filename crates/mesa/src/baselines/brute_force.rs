//! The Brute-Force baseline: the optimal solution to Definition 2.1 by
//! exhaustive search over all attribute subsets up to size `k`.
//!
//! Exponential in the number of candidates; the paper only runs it on the
//! small Covid-19 and Forbes datasets and always after pruning. It serves as
//! the gold standard for explainability scores (Figure 2).

use crate::error::{MesaError, Result};
use crate::problem::{Explanation, PreparedQuery};
use crate::responsibility::responsibilities;

/// A name-sorted copy of a subset, the tie-break key for exactly-equal
/// objectives (subsets are enumerated in candidate order, so comparing them
/// unsorted would leak the enumeration order back into the tie-break).
fn sorted(subset: &[String]) -> Vec<&str> {
    let mut names: Vec<&str> = subset.iter().map(String::as_str).collect();
    names.sort_unstable();
    names
}

const MAX_CANDIDATES: usize = 20;

/// Exhaustively searches all subsets of `candidates` with `1 ≤ |E| ≤ k` and
/// returns the one minimising the Definition 2.1 objective
/// `I(O;T|E,C) · |E|`. The search visits `2^n` subsets, so more than 20
/// candidates are refused with [`MesaError::InvalidInput`].
pub fn brute_force(
    prepared: &PreparedQuery,
    candidates: &[String],
    k: usize,
) -> Result<Explanation> {
    let n = candidates.len();
    if n > MAX_CANDIDATES {
        return Err(MesaError::InvalidInput(format!(
            "brute force searches at most {MAX_CANDIDATES} candidates, got {n}"
        )));
    }
    let baseline = prepared.baseline_cmi();
    if candidates.is_empty() || k == 0 {
        return Ok(Explanation::empty(baseline));
    }
    let k = k.min(n);
    let mut best: Option<(Vec<String>, f64, f64)> = None; // (set, objective, cmi)

    // Iterate subsets by bitmask; skip subsets larger than k.
    let max_mask: u64 = 1u64 << n;
    for mask in 1..max_mask {
        let size = mask.count_ones() as usize;
        if size > k {
            continue;
        }
        let subset: Vec<String> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| candidates[i].clone())
            .collect();
        let cmi = prepared.explanation_cmi(&subset, None)?;
        let objective = cmi * size as f64;
        // Exact objective ties are broken by the candidate names (smaller
        // name-sorted subset wins) so the reported optimum does not depend
        // on enumeration order.
        let wins = match &best {
            None => true,
            Some((best_subset, b, _)) => {
                objective < *b || (objective == *b && sorted(&subset) < sorted(best_subset))
            }
        };
        if wins {
            best = Some((subset, objective, cmi));
        }
    }

    let (attributes, _, explainability) = best.expect("at least one subset evaluated");
    let resp = responsibilities(prepared, &attributes, None)?;
    Ok(Explanation {
        attributes,
        baseline_cmi: baseline,
        explainability,
        responsibilities: resp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{prepare_query, PrepareConfig};
    use tabular::{AggregateQuery, DataFrameBuilder};

    fn prepared() -> PreparedQuery {
        let n = 240;
        let mut country = Vec::new();
        let mut gdp = Vec::new();
        let mut gini = Vec::new();
        let mut noise = Vec::new();
        let mut salary = Vec::new();
        for i in 0..n {
            let cid = i % 4;
            country.push(Some(["A", "B", "C", "D"][cid]));
            gdp.push(Some(["hi", "hi", "lo", "lo"][cid]));
            gini.push(Some(["eq", "uneq", "eq", "uneq"][cid]));
            noise.push(Some(if (i * 7) % 3 == 0 { "x" } else { "y" }));
            let s = (if cid < 2 { 80.0 } else { 30.0 }) - (if cid % 2 == 1 { 15.0 } else { 0.0 });
            salary.push(Some(s));
        }
        let df = DataFrameBuilder::new()
            .cat("Country", country)
            .cat("GDP", gdp)
            .cat("Gini", gini)
            .cat("Noise", noise)
            .float("Salary", salary)
            .build()
            .unwrap();
        prepare_query(
            &df,
            &AggregateQuery::avg("Country", "Salary"),
            None,
            &[],
            PrepareConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn finds_the_optimal_subset() {
        let p = prepared();
        let cands: Vec<String> = ["GDP", "Gini", "Noise"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = brute_force(&p, &cands, 3).unwrap();
        // GDP + Gini fully determine salary, so they explain everything and
        // adding Noise only increases the |E| factor.
        let mut sorted = e.attributes.clone();
        sorted.sort();
        assert_eq!(sorted, vec!["GDP".to_string(), "Gini".to_string()]);
        assert!(e.explainability < 0.05);
    }

    #[test]
    fn objective_is_globally_minimal() {
        let p = prepared();
        let cands: Vec<String> = ["GDP", "Gini", "Noise"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = brute_force(&p, &cands, 3).unwrap();
        let best_objective = p.objective(&e.attributes).unwrap();
        // compare against every singleton and pair explicitly
        for a in &cands {
            assert!(p.objective(std::slice::from_ref(a)).unwrap() >= best_objective - 1e-9);
            for b in &cands {
                if a != b {
                    assert!(p.objective(&[a.clone(), b.clone()]).unwrap() >= best_objective - 1e-9);
                }
            }
        }
    }

    #[test]
    fn k_limits_subset_size() {
        let p = prepared();
        let cands: Vec<String> = ["GDP", "Gini", "Noise"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = brute_force(&p, &cands, 1).unwrap();
        assert_eq!(e.len(), 1);
        assert_eq!(e.attributes[0], "GDP");
    }

    #[test]
    fn more_than_twenty_candidates_are_refused() {
        let p = prepared();
        let cands: Vec<String> = ["GDP", "Gini", "Noise"]
            .iter()
            .cycle()
            .take(MAX_CANDIDATES + 1)
            .map(|s| s.to_string())
            .collect();
        match brute_force(&p, &cands, 1) {
            Err(MesaError::InvalidInput(msg)) => assert!(msg.contains("20"), "{msg}"),
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn empty_candidates() {
        let p = prepared();
        let e = brute_force(&p, &[], 3).unwrap();
        assert!(e.is_empty());
        let e = brute_force(&p, &["GDP".to_string()], 0).unwrap();
        assert!(e.is_empty());
    }
}
