//! Entropy, mutual information, conditional mutual information, and
//! interaction information — the measures MESA is built on.
//!
//! All quantities are plug-in (maximum-likelihood) estimates over discrete
//! codes, in bits (log base 2), computed on complete cases and optionally
//! re-weighted by IPW weights. This mirrors the paper's use of the Pyitlib
//! library for CMI estimation.

use tabular::{ColumnView, EncodedColumn};

use crate::contingency::JointTable;

/// Shannon entropy `H(X)` of a single encoded column.
pub fn entropy(x: &EncodedColumn, weights: Option<&[f64]>) -> f64 {
    entropy_view(x.into(), weights)
}

/// [`entropy`] over a column in either lifecycle state (mutable or sealed).
pub fn entropy_view(x: ColumnView<'_>, weights: Option<&[f64]>) -> f64 {
    JointTable::build_views(&[x], weights).entropy()
}

/// Joint Shannon entropy `H(X1, ..., Xk)` of a set of encoded columns.
pub fn joint_entropy(cols: &[&EncodedColumn], weights: Option<&[f64]>) -> f64 {
    let views: Vec<ColumnView<'_>> = cols.iter().map(|&c| c.into()).collect();
    joint_entropy_views(&views, weights)
}

/// [`joint_entropy`] over columns in either lifecycle state.
pub fn joint_entropy_views(cols: &[ColumnView<'_>], weights: Option<&[f64]>) -> f64 {
    if cols.is_empty() {
        return 0.0;
    }
    JointTable::build_views(cols, weights).entropy()
}

/// Conditional entropy `H(X | Z1, ..., Zk) = H(X, Z) - H(Z)`.
///
/// Both terms are computed on the same complete-case set (rows complete in
/// `X` and every `Z`), so the identity holds exactly.
pub fn conditional_entropy(
    x: &EncodedColumn,
    given: &[&EncodedColumn],
    weights: Option<&[f64]>,
) -> f64 {
    let given_views: Vec<ColumnView<'_>> = given.iter().map(|&c| c.into()).collect();
    conditional_entropy_views(x.into(), &given_views, weights)
}

/// [`conditional_entropy`] over columns in either lifecycle state.
pub fn conditional_entropy_views(
    x: ColumnView<'_>,
    given: &[ColumnView<'_>],
    weights: Option<&[f64]>,
) -> f64 {
    if given.is_empty() {
        return entropy_view(x, weights);
    }
    let mut all: Vec<ColumnView<'_>> = Vec::with_capacity(given.len() + 1);
    all.push(x);
    all.extend_from_slice(given);
    conditional_entropy_of_table(&JointTable::build_views(&all, weights))
}

/// `H(X | Z) = H(X, Z) - H(Z)` of a joint table built over `[X, Z…]` with at
/// least one `Z`: the table's first dimension given the others.
pub fn conditional_entropy_of_table(joint: &JointTable) -> f64 {
    let z_dims: Vec<usize> = (1..joint.n_dims()).collect();
    (joint.entropy() - joint.marginal(&z_dims).entropy()).max(0.0)
}

/// Mutual information `I(X; Y) = H(X) + H(Y) - H(X, Y)`.
///
/// Computed over rows complete in both `X` and `Y`.
pub fn mutual_information(x: &EncodedColumn, y: &EncodedColumn, weights: Option<&[f64]>) -> f64 {
    mutual_information_views(x.into(), y.into(), weights)
}

/// [`mutual_information`] over columns in either lifecycle state.
pub fn mutual_information_views(
    x: ColumnView<'_>,
    y: ColumnView<'_>,
    weights: Option<&[f64]>,
) -> f64 {
    cmi_of_table(&JointTable::build_views(&[x, y], weights))
}

/// Conditional mutual information
/// `I(X; Y | Z) = H(X, Z) + H(Y, Z) - H(X, Y, Z) - H(Z)`,
/// where `Z` is a (possibly empty) set of conditioning columns.
///
/// With an empty conditioning set this reduces to [`mutual_information`].
/// All four entropies are computed from one joint table built over rows
/// complete in every involved column, so the chain-rule identities hold
/// exactly on the estimate.
pub fn conditional_mutual_information(
    x: &EncodedColumn,
    y: &EncodedColumn,
    z: &[&EncodedColumn],
    weights: Option<&[f64]>,
) -> f64 {
    let z_views: Vec<ColumnView<'_>> = z.iter().map(|&c| c.into()).collect();
    conditional_mutual_information_views(x.into(), y.into(), &z_views, weights)
}

/// [`conditional_mutual_information`] over columns in either lifecycle state.
pub fn conditional_mutual_information_views(
    x: ColumnView<'_>,
    y: ColumnView<'_>,
    z: &[ColumnView<'_>],
    weights: Option<&[f64]>,
) -> f64 {
    let mut all: Vec<ColumnView<'_>> = Vec::with_capacity(z.len() + 2);
    all.push(x);
    all.push(y);
    all.extend_from_slice(z);
    cmi_of_table(&JointTable::build_views(&all, weights))
}

/// `I(X; Y | Z)` of a joint table built over `[X, Y, Z…]`; a two-dimensional
/// table gives `I(X; Y)`. [`conditional_mutual_information_views`],
/// [`mutual_information_views`] and the G-test all compute it here, so one
/// table yields the same bits through each.
pub(crate) fn cmi_of_table(joint: &JointTable) -> f64 {
    if joint.is_empty() {
        return 0.0;
    }
    if joint.n_dims() == 2 {
        let hx = joint.marginal(&[0]).entropy();
        let hy = joint.marginal(&[1]).entropy();
        return (hx + hy - joint.entropy()).max(0.0);
    }
    let z_dims: Vec<usize> = (2..joint.n_dims()).collect();
    let xz_dims: Vec<usize> = std::iter::once(0).chain(z_dims.iter().copied()).collect();
    let yz_dims: Vec<usize> = std::iter::once(1).chain(z_dims.iter().copied()).collect();
    let h_xyz = joint.entropy();
    let h_xz = joint.marginal(&xz_dims).entropy();
    let h_yz = joint.marginal(&yz_dims).entropy();
    let h_z = joint.marginal(&z_dims).entropy();
    (h_xz + h_yz - h_xyz - h_z).max(0.0)
}

/// Interaction information `II(X; Y; Z) = I(X; Y) - I(X; Y | Z)`.
///
/// Positive values mean `Z` explains away part of the X–Y association
/// (redundancy); negative values mean conditioning on `Z` *induces*
/// association (the XOR-like case the paper's key assumption rules out of
/// explanations).
pub fn interaction_information(
    x: &EncodedColumn,
    y: &EncodedColumn,
    z: &EncodedColumn,
    weights: Option<&[f64]>,
) -> f64 {
    interaction_information_views(x.into(), y.into(), z.into(), weights)
}

/// [`interaction_information`] over columns in either lifecycle state.
pub fn interaction_information_views(
    x: ColumnView<'_>,
    y: ColumnView<'_>,
    z: ColumnView<'_>,
    weights: Option<&[f64]>,
) -> f64 {
    // Use the same complete-case set for both terms so the difference is not
    // an artefact of different row sets.
    let joint = JointTable::build_views(&[x, y, z], weights);
    if joint.is_empty() {
        return 0.0;
    }
    let h_xy = joint.marginal(&[0, 1]).entropy();
    let h_x = joint.marginal(&[0]).entropy();
    let h_y = joint.marginal(&[1]).entropy();
    let i_xy = (h_x + h_y - h_xy).max(0.0);
    let h_xz = joint.marginal(&[0, 2]).entropy();
    let h_yz = joint.marginal(&[1, 2]).entropy();
    let h_z = joint.marginal(&[2]).entropy();
    let i_xy_given_z = (h_xz + h_yz - joint.entropy() - h_z).max(0.0);
    i_xy - i_xy_given_z
}

/// Normalised mutual information `I(X;Y) / sqrt(H(X) H(Y))` in `[0, 1]`
/// (0 when either marginal entropy is 0). Used by redundancy diagnostics.
pub fn normalized_mutual_information(
    x: &EncodedColumn,
    y: &EncodedColumn,
    weights: Option<&[f64]>,
) -> f64 {
    normalized_mutual_information_views(x.into(), y.into(), weights)
}

/// [`normalized_mutual_information`] over columns in either lifecycle state.
pub fn normalized_mutual_information_views(
    x: ColumnView<'_>,
    y: ColumnView<'_>,
    weights: Option<&[f64]>,
) -> f64 {
    let joint = JointTable::build_views(&[x, y], weights);
    let hx = joint.marginal(&[0]).entropy();
    let hy = joint.marginal(&[1]).entropy();
    if hx <= 0.0 || hy <= 0.0 {
        return 0.0;
    }
    let i = (hx + hy - joint.entropy()).max(0.0);
    (i / (hx * hy).sqrt()).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::Column;

    fn enc(vals: &[&str]) -> EncodedColumn {
        Column::from_str_values("c", vals.iter().map(|v| Some(*v)).collect()).encode()
    }

    fn enc_opt(vals: &[Option<&str>]) -> EncodedColumn {
        Column::from_str_values("c", vals.to_vec()).encode()
    }

    #[test]
    fn entropy_of_uniform_and_constant() {
        assert!((entropy(&enc(&["a", "b", "c", "d"]), None) - 2.0).abs() < 1e-12);
        assert_eq!(entropy(&enc(&["a", "a", "a"]), None), 0.0);
        assert!((entropy(&enc(&["a", "a", "b", "b"]), None) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn joint_entropy_independent_vars_adds() {
        let x = enc(&["a", "a", "b", "b"]);
        let y = enc(&["0", "1", "0", "1"]);
        assert!((joint_entropy(&[&x, &y], None) - 2.0).abs() < 1e-12);
        assert_eq!(joint_entropy(&[], None), 0.0);
    }

    #[test]
    fn conditional_entropy_identities() {
        let x = enc(&["a", "a", "b", "b"]);
        let y = enc(&["0", "1", "0", "1"]);
        // independent: H(X|Y) = H(X)
        assert!((conditional_entropy(&x, &[&y], None) - 1.0).abs() < 1e-12);
        // determined: H(X|X) = 0
        assert!(conditional_entropy(&x, &[&x], None).abs() < 1e-12);
        // no conditioning
        assert!((conditional_entropy(&x, &[], None) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mi_independent_is_zero() {
        let x = enc(&["a", "a", "b", "b"]);
        let y = enc(&["0", "1", "0", "1"]);
        assert!(mutual_information(&x, &y, None).abs() < 1e-12);
    }

    #[test]
    fn mi_identical_equals_entropy() {
        let x = enc(&["a", "b", "c", "a", "b", "c"]);
        let h = entropy(&x, None);
        assert!((mutual_information(&x, &x, None) - h).abs() < 1e-12);
    }

    #[test]
    fn mi_symmetric() {
        let x = enc(&["a", "a", "b", "b", "a", "b"]);
        let y = enc(&["0", "1", "0", "1", "1", "1"]);
        let ixy = mutual_information(&x, &y, None);
        let iyx = mutual_information(&y, &x, None);
        assert!((ixy - iyx).abs() < 1e-12);
        assert!(ixy >= 0.0);
    }

    #[test]
    fn cmi_empty_conditioning_equals_mi() {
        let x = enc(&["a", "a", "b", "b", "a", "b"]);
        let y = enc(&["0", "1", "0", "1", "1", "1"]);
        assert!(
            (conditional_mutual_information(&x, &y, &[], None) - mutual_information(&x, &y, None))
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn cmi_explains_away_confounder() {
        // Z drives both X and Y: X = Z, Y = Z. Then I(X;Y) = H(Z) > 0 but
        // I(X;Y|Z) = 0 — Z fully explains the correlation.
        let z = enc(&["u", "u", "v", "v", "u", "v", "u", "v"]);
        let x = z.clone();
        let y = z.clone();
        assert!(mutual_information(&x, &y, None) > 0.9);
        assert!(conditional_mutual_information(&x, &y, &[&z], None).abs() < 1e-12);
    }

    #[test]
    fn cmi_conditioning_on_irrelevant_keeps_mi() {
        let x = enc(&["a", "a", "b", "b", "a", "a", "b", "b"]);
        let y = x.clone();
        let noise = enc(&["p", "q", "p", "q", "q", "p", "q", "p"]);
        let i = mutual_information(&x, &y, None);
        let c = conditional_mutual_information(&x, &y, &[&noise], None);
        assert!((i - c).abs() < 1e-9);
    }

    #[test]
    fn cmi_xor_is_positive_given_z() {
        // Y = X xor Z with X, Z independent fair coins: I(X;Y)=0 but
        // I(X;Y|Z)=1 — conditioning induces dependence.
        let x = enc(&["0", "0", "1", "1"]);
        let z = enc(&["0", "1", "0", "1"]);
        let y = enc(&["0", "1", "1", "0"]);
        assert!(mutual_information(&x, &y, None).abs() < 1e-12);
        assert!((conditional_mutual_information(&x, &y, &[&z], None) - 1.0).abs() < 1e-12);
        // and the interaction information is negative
        assert!(interaction_information(&x, &y, &z, None) < -0.9);
    }

    #[test]
    fn interaction_positive_for_confounder() {
        let z = enc(&["u", "u", "v", "v", "u", "v"]);
        let x = z.clone();
        let y = z.clone();
        assert!(interaction_information(&x, &y, &z, None) > 0.9);
    }

    #[test]
    fn missing_values_complete_case() {
        let x = enc_opt(&[Some("a"), Some("b"), None, Some("a")]);
        let y = enc_opt(&[Some("0"), Some("1"), Some("0"), None]);
        // only rows 0 and 1 are complete
        let i = mutual_information(&x, &y, None);
        assert!((i - 1.0).abs() < 1e-12);
        let all_missing = enc_opt(&[None, None, None, None]);
        assert_eq!(
            conditional_mutual_information(&x, &y, &[&all_missing], None),
            0.0
        );
        assert_eq!(interaction_information(&x, &y, &all_missing, None), 0.0);
    }

    #[test]
    fn weights_change_distribution() {
        let x = enc(&["a", "b"]);
        // uniform: 1 bit; heavily skewed: less than 1 bit
        assert!((entropy(&x, Some(&[1.0, 1.0])) - 1.0).abs() < 1e-12);
        assert!(entropy(&x, Some(&[9.0, 1.0])) < 0.5);
    }

    #[test]
    fn normalized_mi_bounds() {
        let x = enc(&["a", "b", "a", "b"]);
        let y = enc(&["0", "1", "0", "1"]);
        assert!((normalized_mutual_information(&x, &y, None) - 1.0).abs() < 1e-12);
        let constant = enc(&["k", "k", "k", "k"]);
        assert_eq!(normalized_mutual_information(&x, &constant, None), 0.0);
        let indep = enc(&["0", "0", "1", "1"]);
        assert!(normalized_mutual_information(&x, &indep, None).abs() < 1e-12);
    }

    #[test]
    fn chain_rule_holds_on_estimates() {
        // I(X;Y,Z) = I(X;Y) + I(X;Z|Y) for fully observed data
        let x = enc(&["a", "a", "b", "b", "a", "b", "a", "b"]);
        let y = enc(&["0", "1", "0", "1", "1", "0", "0", "1"]);
        let z = enc(&["p", "p", "q", "q", "q", "p", "q", "p"]);
        // joint of (y,z) as a single variable via building a combined coding
        let yz_codes: Vec<Option<u32>> = y
            .iter_codes()
            .zip(z.iter_codes())
            .map(|(a, b)| match (a, b) {
                (Some(a), Some(b)) => Some(a * 2 + b),
                _ => None,
            })
            .collect();
        let yz = EncodedColumn::from_option_codes(
            yz_codes,
            vec!["00".into(), "01".into(), "10".into(), "11".into()],
        );
        let lhs = mutual_information(&x, &yz, None);
        let rhs =
            mutual_information(&x, &y, None) + conditional_mutual_information(&x, &z, &[&y], None);
        assert!(
            (lhs - rhs).abs() < 1e-9,
            "chain rule violated: {lhs} vs {rhs}"
        );
    }
}
