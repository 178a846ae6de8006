//! The correctness gate: every returned trace is re-checked by the
//! independent certifier, fixed-cell optima are pinned by the
//! expected-costs file, and brackets must be consistent.

use rbp_core::{certify, Instance};
use rbp_solvers::{Quality, Solution};
use std::collections::HashMap;

/// The pinned optima of the fixed cells, `(label, spec) → scaled cost`.
/// Only proved optima are pinned: heuristic costs (greedy, coarse) are
/// allowed to improve without touching the benchmark.
pub const EXPECTED_COSTS: &str = include_str!("../expected_costs.txt");

/// Parses [`EXPECTED_COSTS`] (`label spec cost` lines, `#` comments).
pub fn expected_costs() -> HashMap<(String, String), u128> {
    EXPECTED_COSTS
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 3, "malformed expected-costs line: {l}");
            let cost = f[2].parse().expect("expected cost is an integer");
            ((f[0].to_string(), f[1].to_string()), cost)
        })
        .collect()
}

/// Certifies `sol` on `instance`: the trace must replay legally to
/// completion at exactly the claimed cost, and a reported bracket must
/// contain the cost. Returns the certified scaled cost.
pub fn certified_cost(instance: &Instance, sol: &Solution) -> Result<u128, String> {
    let cert = certify(instance, &sol.trace).map_err(|e| e.to_string())?;
    if !cert.matches(&sol.cost) {
        return Err(format!(
            "certified (t={}, c={}) != claimed (t={}, c={})",
            cert.transfers, cert.computes, sol.cost.transfers, sol.cost.computes
        ));
    }
    let scaled = sol.scaled_cost(instance);
    if cert.scaled_cost != scaled {
        return Err(format!(
            "certified scaled cost {} != claimed {scaled}",
            cert.scaled_cost
        ));
    }
    match sol.quality {
        Quality::UpperBound { lower_bound } if lower_bound > scaled => {
            Err(format!("bracket [{lower_bound}, {scaled}] is empty"))
        }
        Quality::Infeasible => Err("reported infeasible on a feasible instance".into()),
        _ => Ok(scaled),
    }
}

/// `max(cost, 1) / max(lower_bound, 1)` for the solution's own bracket;
/// optimal solutions count as 1.
pub fn gap_ratio(instance: &Instance, sol: &Solution) -> f64 {
    match sol.quality {
        Quality::UpperBound { lower_bound } => {
            sol.scaled_cost(instance).max(1) as f64 / lower_bound.max(1) as f64
        }
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_expected_costs_file_parses_and_covers_every_fixed_optimum() {
        let costs = expected_costs();
        for (label, _) in crate::jobs::perf_cells() {
            assert!(
                costs.contains_key(&(label.clone(), "exact".into())),
                "{label}"
            );
        }
        for (label, _) in crate::jobs::mpp_cells() {
            assert!(
                costs.contains_key(&(label.clone(), "exact".into())),
                "{label}"
            );
            assert!(
                costs.contains_key(&(label.clone(), "exact@mpp:2".into())),
                "{label}"
            );
        }
    }
}
