//! Markdown design reports: everything a storage architect would hand to
//! a review board — the chosen design, its costs, how it behaves under
//! every failure scenario, device utilization, and the double-failure
//! exposure.

use std::fmt::Write as _;

use dsd_core::{Candidate, Certificate, CostAttribution, Environment, TechniqueMarginal};
use dsd_recovery::{Availability, Evaluator};
use dsd_resources::{ArrayRef, DeviceRef, TapeRef};
use dsd_units::Dollars;

/// Renders a complete markdown report for a candidate, evaluating it
/// first if needed. Every per-scenario table reads the line items of
/// one [`Candidate::attribution`].
#[must_use]
pub fn markdown(env: &Environment, candidate: &mut Candidate) -> String {
    let mut out = String::new();
    let attribution = candidate.attribution(env);
    let cost = &attribution.cost;

    let _ = writeln!(out, "# Dependable storage design report\n");
    let _ = writeln!(
        out,
        "- applications: {}\n- sites: {}\n- failure model: {}\n",
        env.workloads.len(),
        env.topology.site_count(),
        env.failures.rates()
    );

    let _ = writeln!(out, "## Chosen design\n");
    let _ = writeln!(out, "| application | class | technique | primary | mirror | config |");
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    for (app, a) in candidate.assignments() {
        let workload = &env.workloads[*app];
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} |",
            workload.name,
            workload.class_with(&env.thresholds),
            env.catalog[a.technique].name,
            a.placement.primary,
            a.placement.mirror.map_or("—".into(), |m| m.to_string()),
            a.config
        );
    }

    let _ = writeln!(out, "\n## Annual cost\n");
    let _ = writeln!(out, "| component | $/yr |");
    let _ = writeln!(out, "|---|---|");
    let _ = writeln!(out, "| amortized outlay | {} |", cost.outlay);
    let _ = writeln!(out, "| expected outage penalty | {} |", cost.penalties.outage);
    let _ = writeln!(out, "| expected loss penalty | {} |", cost.penalties.loss);
    let _ = writeln!(out, "| **total** | **{}** |", cost.total());

    let _ = writeln!(out, "\n## Cost attribution\n");
    let _ = writeln!(out, "| resource kind | items | purchase | amortized $/yr |");
    let _ = writeln!(out, "|---|---|---|---|");
    for (kind, purchase, n) in attribution.outlay_by_kind() {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} |",
            kind.label(),
            n,
            purchase,
            purchase.amortized_annual()
        );
    }
    let _ = writeln!(out, "| vault media | — | — | {} |", attribution.vault_media_annual);
    let _ = writeln!(out, "\nDominant penalty scenarios (likelihood-weighted):\n");
    let _ = writeln!(out, "| application | scenario | likelihood | weighted $/yr |");
    let _ = writeln!(out, "|---|---|---|---|");
    for item in attribution.top_items(5) {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} |",
            env.workloads[item.app].name,
            item.scope,
            item.likelihood,
            item.weighted_total()
        );
    }

    let _ = writeln!(out, "\n## Recovery behavior by scenario\n");
    let _ = writeln!(out, "| scenario | likelihood | application | path | outage | loss |");
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    for item in &attribution.penalty_items {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} |",
            item.scope,
            item.likelihood,
            env.workloads[item.app].name,
            item.path,
            item.recovery_time,
            item.loss_time
        );
    }

    let evaluator = Evaluator::new(&env.workloads, candidate.provision(), env.recovery);
    let windows = evaluator.vulnerability_windows(
        &candidate.protections(env),
        &attribution.penalty_items,
        env.failures.rates().data_object,
    );
    if !windows.is_empty() {
        let _ = writeln!(out, "\n## Double-failure exposure\n");
        let _ =
            writeln!(out, "| first failure | application | window | fallback | expected $/yr |");
        let _ = writeln!(out, "|---|---|---|---|---|");
        let mut total = Dollars::ZERO;
        for v in &windows {
            total += v.expected_annual;
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} |",
                v.scope,
                env.workloads[v.app].name,
                v.window,
                v.fallback_copy.map_or("unprotected".into(), |c| c.to_string()),
                v.expected_annual
            );
        }
        let _ = writeln!(out, "\nTotal expected exposure: **{total}** per year.");
    }

    let _ = writeln!(out, "\n## Availability\n");
    let _ = writeln!(out, "| application | expected downtime/yr | availability | nines |");
    let _ = writeln!(out, "|---|---|---|---|");
    let apps = candidate.assignments().keys().copied();
    for a in Availability::from_items(apps, &attribution.penalty_items) {
        let _ = writeln!(
            out,
            "| {} | {} | {:.5} | {:.1} |",
            env.workloads[a.app].name,
            a.expected_annual_downtime,
            a.availability,
            a.nines()
        );
    }

    let _ = writeln!(out, "\n## Device utilization\n");
    let _ = writeln!(out, "| device | bandwidth | allocated | utilization |");
    let _ = writeln!(out, "|---|---|---|---|");
    let provision = candidate.provision();
    for site in env.topology.sites() {
        for slot in 0..site.array_slots.len() {
            let r = ArrayRef { site: site.id, slot };
            if provision.array(r).is_some() {
                let d = DeviceRef::Array(r);
                let _ = writeln!(
                    out,
                    "| {} ({}) | {} | {} | {:.0}% |",
                    r,
                    site.array_slots[slot].name,
                    provision.device_bandwidth(d),
                    provision.device_alloc_bandwidth(d),
                    provision.utilization(d) * 100.0
                );
            }
        }
        for slot in 0..site.tape_slots.len() {
            let r = TapeRef { site: site.id, slot };
            if provision.tape(r).is_some() {
                let d = DeviceRef::Tape(r);
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {:.0}% |",
                    r,
                    provision.device_bandwidth(d),
                    provision.device_alloc_bandwidth(d),
                    provision.utilization(d) * 100.0
                );
            }
        }
    }
    for rid in provision.active_routes() {
        let d = DeviceRef::Route(rid);
        let route = env.topology.route(rid);
        let _ = writeln!(
            out,
            "| {} ({}—{}) | {} | {} | {:.0}% |",
            rid,
            env.topology.site(route.a).name,
            env.topology.site(route.b).name,
            provision.device_bandwidth(d),
            provision.device_alloc_bandwidth(d),
            provision.utilization(d) * 100.0
        );
    }

    out
}

/// Renders the `dsd explain` breakdown: the paper-style attribution
/// tables (outlay by resource kind, per-application dominant scenarios
/// with explicit likelihood weighting) plus the marginal cost of every
/// chosen technique against its runner-up. `top` bounds the per-app and
/// overall scenario tables; `certificate` is the relaxation lower bound
/// checked against the achieved cost.
#[must_use]
pub fn explain_text(
    env: &Environment,
    attribution: &CostAttribution,
    marginals: &[TechniqueMarginal],
    certificate: &Certificate,
    top: usize,
) -> String {
    let mut out = String::new();
    let cost = &attribution.cost;

    let _ = writeln!(out, "objective: {}", env.objective.explain(cost));
    let _ = writeln!(
        out,
        "line items reproduce the evaluated total bit-for-bit: {} = {}",
        attribution.total(),
        cost.total()
    );

    let _ = writeln!(out, "\ncertificate:");
    let _ = writeln!(out, "  relaxation lower bound: {}/yr", certificate.lower_bound);
    let _ = writeln!(out, "  achieved cost:          {}/yr", certificate.achieved);
    let _ = writeln!(out, "  optimality gap:         {:.1}%", certificate.gap_pct);
    let _ = writeln!(
        out,
        "  dominant relaxation term: {} (outlay floor {}, penalty floor {})",
        certificate.dominant_term, certificate.outlay_floor, certificate.penalty_floor
    );

    let _ = writeln!(out, "\noutlay by resource kind:");
    for (kind, purchase, n) in attribution.outlay_by_kind() {
        let _ = writeln!(
            out,
            "  {:<14} x{:<3} purchase {:<16} amortized {}/yr",
            kind.label(),
            n,
            purchase.to_string(),
            purchase.amortized_annual()
        );
    }
    let _ = writeln!(
        out,
        "  {:<14}      annual   {}/yr",
        "vault media", attribution.vault_media_annual
    );
    let _ = writeln!(out, "  annual outlay: {}", attribution.outlay_annual());

    let (outage_total, loss_total) = attribution.penalty_totals();
    let _ = writeln!(
        out,
        "\npenalties (likelihood-weighted): outage {} + loss {} = {}/yr",
        outage_total,
        loss_total,
        outage_total + loss_total
    );
    for (app, (outage, loss)) in attribution.per_app_totals() {
        let workload = &env.workloads[app];
        let _ = writeln!(out, "  {} (outage {}, loss {}):", workload.name, outage, loss);
        for item in attribution.top_items_for(app, top) {
            let _ = writeln!(
                out,
                "    {:<34} {:<12} x {:<14} -> {}/yr via {}",
                item.scope.to_string(),
                item.likelihood.to_string(),
                (item.outage_raw + item.loss_raw).to_string(),
                item.weighted_total(),
                item.path
            );
        }
    }

    let _ = writeln!(out, "\ntop {top} dominant scenarios overall:");
    let grand_total = cost.total().as_f64();
    for (rank, item) in attribution.top_items(top).iter().enumerate() {
        let share = if grand_total > 0.0 {
            item.weighted_total().as_f64() / grand_total * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  {:>2}. {:<28} {:<34} {}/yr ({share:.1}% of total)",
            rank + 1,
            env.workloads[item.app].name,
            item.scope.to_string(),
            item.weighted_total()
        );
    }

    let _ = writeln!(out, "\nmarginal cost of chosen techniques vs runner-up:");
    for m in marginals {
        match &m.runner_up {
            Some(r) => {
                let _ = writeln!(
                    out,
                    "  {:<28} {:<34} runner-up {:<34} marginal {}{}/yr",
                    env.workloads[m.app].name,
                    m.chosen,
                    r.technique,
                    if r.marginal >= 0.0 { "+" } else { "-" },
                    Dollars::new(r.marginal.abs())
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  {:<28} {:<34} no feasible alternative",
                    env.workloads[m.app].name, m.chosen
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsd_core::{Budget, DesignSolver};
    use dsd_scenarios::environments::peer_sites;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn report_contains_every_section() {
        let env = peer_sites();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut best =
            DesignSolver::new(&env).solve(Budget::iterations(20), &mut rng).best.expect("feasible");
        let report = markdown(&env, &mut best);
        for heading in [
            "# Dependable storage design report",
            "## Chosen design",
            "## Annual cost",
            "## Recovery behavior by scenario",
            "## Availability",
            "## Device utilization",
        ] {
            assert!(report.contains(heading), "missing {heading}");
        }
        assert!(report.contains("central banking"));
        assert!(report.contains("site disaster"));
        // Markdown tables are well-formed: every table row has equal pipes
        // within its section header row.
        for line in report.lines().filter(|l| l.starts_with('|')) {
            assert!(line.ends_with('|'), "unterminated row: {line}");
        }
    }

    #[test]
    fn report_includes_vulnerability_when_failover_present() {
        let env = peer_sites();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut best =
            DesignSolver::new(&env).solve(Budget::iterations(30), &mut rng).best.expect("feasible");
        let has_failover =
            best.assignments().values().any(|a| env.catalog[a.technique].is_failover());
        let report = markdown(&env, &mut best);
        assert_eq!(report.contains("## Double-failure exposure"), has_failover);
    }
}
