//! Conditional-independence testing and approximate functional dependencies.
//!
//! MESA uses a conditional-independence (CI) test in three places:
//!
//! * the **responsibility test** stopping rule (`O ⫫ E_{k+1} | E_k` ⇒ stop),
//! * the **low-relevance** online pruning rule (`O ⫫ E | C` and
//!   `O ⫫ E | C, T` ⇒ drop `E`),
//! * the **selection-bias** detection for extracted attributes (Prop. 3.1/3.2).
//!
//! Following HypDB (reference \[63\] of the paper) we use the G-test: the
//! statistic `G = 2·N·ln(2)·Î(X;Y|Z)` is asymptotically chi-squared with
//! `(|X|-1)(|Y|-1)·|Z|` degrees of freedom under the null hypothesis of
//! conditional independence.

use tabular::{ColumnView, EncodedColumn};

use crate::contingency::JointTable;
use crate::measures::cmi_of_table;
use crate::special::chi2_sf;

/// The outcome of a conditional-independence test.
#[derive(Debug, Clone, PartialEq)]
pub struct CiTestResult {
    /// The estimated conditional mutual information (bits).
    pub cmi: f64,
    /// The G statistic `2·N·ln(2)·Î` (natural-log scale).
    pub statistic: f64,
    /// Degrees of freedom of the null distribution.
    pub dof: f64,
    /// p-value under the chi-squared null.
    pub p_value: f64,
    /// Number of complete cases that entered the test.
    pub n: usize,
    /// Whether the null of conditional independence is *retained* at the
    /// significance level the test was run with.
    pub independent: bool,
}

/// Configuration for the CI test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CiTestConfig {
    /// Significance level; the null (independence) is rejected when
    /// `p_value < alpha`.
    pub alpha: f64,
    /// Absolute CMI floor: estimates below this are treated as independent
    /// regardless of the p-value. This guards against the G-test rejecting on
    /// huge samples where the dependence is real but negligible.
    pub min_cmi: f64,
}

impl Default for CiTestConfig {
    fn default() -> Self {
        CiTestConfig {
            alpha: 0.05,
            min_cmi: 1e-3,
        }
    }
}

/// Number of distinct codes present among complete cases of the joint table
/// for the given dimension.
fn observed_levels(table: &JointTable, dim: usize) -> usize {
    table.marginal(&[dim]).n_cells()
}

/// Runs the G-test of `X ⫫ Y | Z` on complete cases (optionally weighted).
pub fn ci_test(
    x: &EncodedColumn,
    y: &EncodedColumn,
    z: &[&EncodedColumn],
    weights: Option<&[f64]>,
    config: CiTestConfig,
) -> CiTestResult {
    let z_views: Vec<ColumnView<'_>> = z.iter().map(|&c| c.into()).collect();
    ci_test_views(x.into(), y.into(), &z_views, weights, config)
}

/// [`ci_test`] over columns in either lifecycle state (mutable or sealed).
pub fn ci_test_views(
    x: ColumnView<'_>,
    y: ColumnView<'_>,
    z: &[ColumnView<'_>],
    weights: Option<&[f64]>,
    config: CiTestConfig,
) -> CiTestResult {
    let mut all: Vec<ColumnView<'_>> = Vec::with_capacity(z.len() + 2);
    all.push(x);
    all.push(y);
    all.extend_from_slice(z);
    ci_test_table(&JointTable::build_views(&all, weights), config)
}

/// The G-test of `X ⫫ Y | Z` over a joint table already built on
/// `[X, Y, Z…]` (two dimensions test `X ⫫ Y`). The CMI, the sample size and
/// the degrees of freedom all come from this one table, so a caller that
/// needs other measures of the same columns folds the rows once.
///
/// # Panics
/// Panics if the table has fewer than two dimensions.
pub fn ci_test_table(joint: &JointTable, config: CiTestConfig) -> CiTestResult {
    let n = joint.complete_cases();
    if n == 0 {
        return CiTestResult {
            cmi: 0.0,
            statistic: 0.0,
            dof: 0.0,
            p_value: 1.0,
            n,
            independent: true,
        };
    }
    let cmi = cmi_of_table(joint);
    let levels_x = observed_levels(joint, 0).max(1);
    let levels_y = observed_levels(joint, 1).max(1);
    let levels_z: usize = if joint.n_dims() == 2 {
        1
    } else {
        joint
            .marginal(&(2..joint.n_dims()).collect::<Vec<_>>())
            .n_cells()
            .max(1)
    };
    let dof = (((levels_x - 1) * (levels_y - 1) * levels_z) as f64).max(1.0);
    // CMI is in bits; G uses natural logs.
    let statistic = 2.0 * n as f64 * std::f64::consts::LN_2 * cmi;
    let p_value = chi2_sf(statistic, dof);
    let independent = cmi < config.min_cmi || p_value >= config.alpha;
    CiTestResult {
        cmi,
        statistic,
        dof,
        p_value,
        n,
        independent,
    }
}

/// Convenience wrapper returning only the independence verdict.
pub fn is_conditionally_independent(
    x: &EncodedColumn,
    y: &EncodedColumn,
    z: &[&EncodedColumn],
    weights: Option<&[f64]>,
) -> bool {
    ci_test(x, y, z, weights, CiTestConfig::default()).independent
}

/// Tests the approximate functional dependency `X ⇒ Y`: holds when the
/// conditional entropy `H(Y | X)` is at most `epsilon` bits.
pub fn approx_functional_dependency(x: &EncodedColumn, y: &EncodedColumn, epsilon: f64) -> bool {
    crate::measures::conditional_entropy(y, &[x], None) <= epsilon
}

/// Tests whether two attributes are *logically dependent* in the paper's
/// sense: `H(Y|X) ≈ 0` **and** `H(X|Y) ≈ 0` (they determine each other, like
/// `Country` and `CountryCode`). Conditioning on such an attribute would
/// mechanically drive the CMI to zero (Lemma A.2), so MESA prunes them.
pub fn logically_equivalent(x: &EncodedColumn, y: &EncodedColumn, epsilon: f64) -> bool {
    approx_functional_dependency(x, y, epsilon) && approx_functional_dependency(y, x, epsilon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::Column;

    fn enc(vals: &[&str]) -> EncodedColumn {
        Column::from_str_values("c", vals.iter().map(|v| Some(*v)).collect()).encode()
    }

    /// Repeats a pattern to get a reasonably sized sample.
    fn repeat(pattern: &[&str], times: usize) -> EncodedColumn {
        let vals: Vec<&str> = pattern
            .iter()
            .cycle()
            .take(pattern.len() * times)
            .copied()
            .collect();
        enc(&vals)
    }

    #[test]
    fn independent_variables_retain_null() {
        let x = repeat(&["a", "a", "b", "b"], 50);
        let y = repeat(&["0", "1", "0", "1"], 50);
        let r = ci_test(&x, &y, &[], None, CiTestConfig::default());
        assert!(r.independent);
        assert!(r.p_value > 0.05 || r.cmi < 1e-3);
        assert_eq!(r.n, 200);
    }

    #[test]
    fn dependent_variables_reject_null() {
        let x = repeat(&["a", "a", "b", "b"], 50);
        let y = x.clone();
        let r = ci_test(&x, &y, &[], None, CiTestConfig::default());
        assert!(!r.independent);
        assert!(r.p_value < 0.01);
        assert!(r.cmi > 0.9);
    }

    #[test]
    fn conditionally_independent_given_confounder() {
        // X and Y are both copies of Z: dependent marginally, independent given Z.
        let z = repeat(&["u", "v", "u", "v", "w", "w"], 40);
        let x = z.clone();
        let y = z.clone();
        assert!(!is_conditionally_independent(&x, &y, &[], None));
        assert!(is_conditionally_independent(&x, &y, &[&z], None));
    }

    #[test]
    fn small_sample_does_not_reject() {
        // With only a handful of rows the G-test should not claim dependence.
        let x = enc(&["a", "b"]);
        let y = enc(&["0", "1"]);
        let r = ci_test(&x, &y, &[], None, CiTestConfig::default());
        assert!(r.independent);
    }

    #[test]
    fn empty_data_is_independent() {
        let x = Column::from_str_values("x", vec![None::<&str>, None]).encode();
        let y = x.clone();
        let r = ci_test(&x, &y, &[], None, CiTestConfig::default());
        assert!(r.independent);
        assert_eq!(r.n, 0);
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn min_cmi_floor_overrides_significance() {
        // Huge sample with a microscopic real dependence: the floor keeps it
        // classified as independent.
        let n = 5000;
        let xv: Vec<String> = (0..n).map(|i| ((i / 2) % 2).to_string()).collect();
        let mut yv: Vec<String> = (0..n).map(|i| (i % 2).to_string()).collect();
        // inject a tiny association
        for item in yv.iter_mut().take(8) {
            *item = "0".to_string();
        }
        let x =
            Column::from_str_values("x", xv.iter().map(|s| Some(s.as_str())).collect()).encode();
        let y =
            Column::from_str_values("y", yv.iter().map(|s| Some(s.as_str())).collect()).encode();
        let strict = ci_test(
            &x,
            &y,
            &[],
            None,
            CiTestConfig {
                alpha: 0.05,
                min_cmi: 0.0,
            },
        );
        let with_floor = ci_test(&x, &y, &[], None, CiTestConfig::default());
        assert!(with_floor.independent);
        // the raw test may or may not reject; the floor must make the verdict independent
        assert!(with_floor.cmi <= strict.cmi + 1e-12);
    }

    #[test]
    fn functional_dependency_detection() {
        // CountryCode -> Country (1:1 mapping)
        let code = repeat(&["DE", "US", "FR"], 30);
        let country = repeat(&["Germany", "USA", "France"], 30);
        assert!(approx_functional_dependency(&code, &country, 0.01));
        assert!(approx_functional_dependency(&country, &code, 0.01));
        assert!(logically_equivalent(&code, &country, 0.01));

        // Continent -> determined by country, but not vice versa
        let country2 = repeat(&["DE", "FR", "US", "MX"], 30);
        let continent = repeat(&["EU", "EU", "NA", "NA"], 30);
        assert!(approx_functional_dependency(&country2, &continent, 0.01));
        assert!(!approx_functional_dependency(&continent, &country2, 0.01));
        assert!(!logically_equivalent(&country2, &continent, 0.01));
    }

    #[test]
    fn dof_accounts_for_conditioning_levels() {
        let x = repeat(&["a", "b", "a", "b"], 25);
        let y = repeat(&["0", "0", "1", "1"], 25);
        let z = repeat(&["p", "q", "r", "s"], 25);
        let with_z = ci_test(&x, &y, &[&z], None, CiTestConfig::default());
        let without = ci_test(&x, &y, &[], None, CiTestConfig::default());
        assert!(with_z.dof >= without.dof);
    }
}
