//! Saving and re-loading solved designs as JSON.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use dsd_core::{Candidate, ConfigurationSolver, Environment, Thoroughness};
use dsd_protection::TechniqueConfig;
use dsd_recovery::Placement;
use dsd_workload::AppId;

/// Errors raised while loading a saved design.
#[derive(Debug)]
pub enum SavedError {
    /// The JSON failed to parse.
    Parse(serde_json::Error),
    /// The design does not fit the environment it was loaded against.
    Mismatch(String),
}

impl fmt::Display for SavedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SavedError::Parse(e) => write!(f, "design parse error: {e}"),
            SavedError::Mismatch(msg) => write!(f, "design does not fit environment: {msg}"),
        }
    }
}

impl Error for SavedError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SavedError::Parse(e) => Some(e),
            SavedError::Mismatch(_) => None,
        }
    }
}

/// One application's saved protection decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SavedAssignment {
    /// Application index within the environment's workload set.
    pub app: usize,
    /// Application instance name (informational).
    pub app_name: String,
    /// Technique name (resolved against the environment's catalog on
    /// load, so designs survive catalog reordering).
    pub technique: String,
    /// Chosen configuration parameters.
    pub config: TechniqueConfig,
    /// Chosen placement.
    pub placement: Placement,
}

/// A solved design in a portable form.
///
/// Deliberately stores only the *decisions* (technique, config,
/// placement); on load the provisioning is rebuilt from the environment
/// and the configuration solver re-applies the resource-addition loop, so
/// a saved design can be re-evaluated under different failure rates or
/// policies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SavedDesign {
    /// Per-application decisions in application order.
    pub assignments: Vec<SavedAssignment>,
    /// Total annual cost at save time (informational).
    pub annual_cost_dollars: f64,
}

impl SavedDesign {
    /// Captures a solved candidate.
    ///
    /// # Panics
    ///
    /// Panics if the candidate has not been evaluated.
    #[must_use]
    pub fn from_candidate(env: &Environment, candidate: &Candidate) -> Self {
        let assignments = candidate
            .assignments()
            .iter()
            .map(|(app, a)| SavedAssignment {
                app: app.0,
                app_name: env.workloads[*app].name.clone(),
                technique: env.catalog[a.technique].name.clone(),
                config: a.config,
                placement: a.placement,
            })
            .collect();
        SavedDesign { assignments, annual_cost_dollars: candidate.cost().total().as_f64() }
    }

    /// Serializes to pretty JSON.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (it cannot for this type).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("design serializes")
    }

    /// Parses a design from JSON.
    ///
    /// # Errors
    ///
    /// [`SavedError::Parse`] on malformed JSON.
    pub fn from_json(text: &str) -> Result<Self, SavedError> {
        serde_json::from_str(text).map_err(SavedError::Parse)
    }

    /// Rebuilds an evaluated candidate against `env`, re-running the
    /// quick configuration solve to restore resource additions.
    ///
    /// # Errors
    ///
    /// [`SavedError::Mismatch`] when an application or technique is
    /// unknown, an application is assigned twice, a configuration or
    /// placement does not fit its technique, or an allocation no longer
    /// fits the environment.
    pub fn to_candidate(&self, env: &Environment) -> Result<Candidate, SavedError> {
        let mut candidate = Candidate::empty(env);
        for saved in &self.assignments {
            if saved.app >= env.workloads.len() {
                return Err(SavedError::Mismatch(format!(
                    "application index {} out of range",
                    saved.app
                )));
            }
            let mismatch = |what: &str| SavedError::Mismatch(format!("{}: {what}", saved.app_name));
            if candidate.assignment(AppId(saved.app)).is_some() {
                return Err(mismatch(&format!("application index {} assigned twice", saved.app)));
            }
            let technique = env.catalog.find(&saved.technique).ok_or_else(|| {
                SavedError::Mismatch(format!("unknown technique: {}", saved.technique))
            })?;
            if !saved.config.is_valid() {
                return Err(mismatch(&format!("invalid configuration ({})", saved.config)));
            }
            if !saved.placement.consistent_with(&env.catalog[technique]) {
                return Err(mismatch(&format!(
                    "placement does not match technique {}",
                    saved.technique
                )));
            }
            // Validate the placement's coordinates before touching the
            // provision: out-of-range sites/slots would otherwise panic
            // deep inside allocation.
            let site_count = env.topology.site_count();
            let mut arrays = vec![saved.placement.primary];
            arrays.extend(saved.placement.mirror);
            for r in arrays {
                if r.site.0 >= site_count || r.slot >= env.topology.site(r.site).array_slots.len() {
                    return Err(SavedError::Mismatch(format!(
                        "{}: array slot {r} does not exist in this environment",
                        saved.app_name
                    )));
                }
            }
            if let Some(t) = saved.placement.tape {
                if t.site.0 >= site_count || t.slot >= env.topology.site(t.site).tape_slots.len() {
                    return Err(SavedError::Mismatch(format!(
                        "{}: tape slot {t} does not exist in this environment",
                        saved.app_name
                    )));
                }
            }
            if let Some(s) = saved.placement.failover_site {
                if s.0 >= site_count {
                    return Err(SavedError::Mismatch(format!(
                        "{}: failover site {s} does not exist in this environment",
                        saved.app_name
                    )));
                }
            }
            // Assignment resolves the route between the primary and mirror
            // sites; a saved route must name that one.
            let route = saved
                .placement
                .mirror
                .and_then(|m| env.topology.route_between(saved.placement.primary.site, m.site));
            if saved.placement.route != route {
                return Err(mismatch("route does not join the primary and mirror sites"));
            }
            candidate
                .try_assign(env, AppId(saved.app), technique, saved.config, saved.placement)
                .map_err(|e| SavedError::Mismatch(format!("{}: {e}", saved.app_name)))?;
        }
        ConfigurationSolver::new(env).complete(&mut candidate, Thoroughness::Quick);
        Ok(candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsd_core::{Budget, DesignSolver};
    use dsd_scenarios::environments::peer_sites;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn solved() -> (Environment, Candidate) {
        let env = peer_sites();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let best =
            DesignSolver::new(&env).solve(Budget::iterations(20), &mut rng).best.expect("feasible");
        (env, best)
    }

    #[test]
    fn save_load_roundtrip_preserves_decisions_and_cost_scale() {
        let (env, best) = solved();
        let saved = SavedDesign::from_candidate(&env, &best);
        let json = saved.to_json();
        let reloaded = SavedDesign::from_json(&json).expect("parses");
        assert_eq!(reloaded, saved);

        let rebuilt = reloaded.to_candidate(&env).expect("fits");
        assert!(rebuilt.is_complete(&env));
        for (app, original) in best.assignments() {
            let loaded = rebuilt.assignment(*app).expect("present");
            assert_eq!(loaded.technique, original.technique);
            assert_eq!(loaded.config, original.config);
            assert_eq!(loaded.placement.primary, original.placement.primary);
            assert_eq!(loaded.placement.mirror, original.placement.mirror);
        }
        // Quick config re-solve may differ slightly in extras; costs must
        // be close (and never wildly off).
        let a = best.cost().total().as_f64();
        let b = rebuilt.cost().total().as_f64();
        assert!((a - b).abs() / a < 0.05, "{a} vs {b}");
    }

    #[test]
    fn loading_against_wrong_environment_fails_cleanly() {
        let (env, best) = solved();
        let saved = SavedDesign::from_candidate(&env, &best);
        let tiny = crate::spec::EnvironmentSpec::example();
        let mut tiny = tiny;
        tiny.sites.truncate(1); // mirror placements can no longer fit
        let wrong_env = tiny.to_environment().expect("valid spec");
        let err = saved.to_candidate(&wrong_env).unwrap_err();
        assert!(matches!(err, SavedError::Mismatch(_)));
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(matches!(SavedDesign::from_json("{nope"), Err(SavedError::Parse(_))));
    }
}
