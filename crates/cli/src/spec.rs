//! TOML environment specification.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use dsd_core::Environment;
use dsd_failure::{FailureModel, FailureRates};
use dsd_protection::TechniqueCatalog;
use dsd_resources::{DeviceSpec, NetworkSpec, Site, Topology};
use dsd_units::TimeSpan;
use dsd_units::{DollarsPerHour, Gigabytes, MegabytesPerSec, PerYear};
use dsd_workload::{PenaltyRates, PenaltySchedule, WorkloadProfile, WorkloadSet};

/// The most applications a spec may declare: the sum of every entry's
/// `count`. It is sixteen times fleet(256), the largest environment the
/// repository generates, whose one-iteration greedy solve already runs
/// for minutes (`large_fleets_are_solvable`, ignored in tier-1). Every
/// application adds scenarios that each evaluation walks and placements
/// that each greedy pass prices, so the work grows faster than the
/// count: no search over more would finish, and a typo in the billions
/// would otherwise allocate one workload per unit until the process is
/// killed.
pub const MAX_APPLICATIONS: usize = 4096;

/// Errors raised while parsing or validating a spec.
#[derive(Debug)]
pub enum SpecError {
    /// The TOML text failed to parse.
    Parse(toml::de::Error),
    /// The spec parsed but is semantically invalid.
    Invalid(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(e) => write!(f, "spec parse error: {e}"),
            SpecError::Invalid(msg) => write!(f, "invalid spec: {msg}"),
        }
    }
}

impl Error for SpecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SpecError::Parse(e) => Some(e),
            SpecError::Invalid(_) => None,
        }
    }
}

/// One application entry: either a named Table 1 profile or a fully
/// custom workload, optionally repeated `count` times.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ApplicationSpec {
    /// Built-in profile: `central-banking`, `company-web-service`,
    /// `consumer-banking`, or `student-accounts`.
    pub profile: Option<String>,
    /// Custom profile name (required when `profile` is absent).
    pub name: Option<String>,
    /// One-letter code for reports (custom profiles; default `X`).
    pub code: Option<char>,
    /// Outage penalty rate, $/hr (custom profiles).
    pub outage_per_hour: Option<f64>,
    /// Recent-loss penalty rate, $/hr (custom profiles).
    pub loss_per_hour: Option<f64>,
    /// Dataset capacity in GB (custom profiles).
    pub capacity_gb: Option<f64>,
    /// Average update rate, MB/s (custom profiles).
    pub avg_update_mbps: Option<f64>,
    /// Peak update rate, MB/s (custom profiles).
    pub peak_update_mbps: Option<f64>,
    /// Average access rate, MB/s (custom profiles).
    pub avg_access_mbps: Option<f64>,
    /// Unique-update fraction (default 0.6).
    pub unique_fraction: Option<f64>,
    /// Recovery-time objective in hours: outage up to this is free
    /// (deductible SLA schedule; requires `rpo_hours`).
    pub rto_hours: Option<f64>,
    /// Recovery-point objective in hours: loss up to this is free.
    pub rpo_hours: Option<f64>,
    /// One-time fine per breached objective (default 0).
    pub breach_fine: Option<f64>,
    /// Number of instances (default 1).
    pub count: Option<usize>,
}

/// Validates that a user-supplied numeric field is finite and
/// non-negative before it reaches an asserting constructor.
fn non_negative(value: f64, what: &str) -> Result<f64, SpecError> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(SpecError::Invalid(format!("`{what}` must be finite and non-negative: {value}")))
    }
}

impl ApplicationSpec {
    fn schedule(&self) -> Result<PenaltySchedule, SpecError> {
        match (self.rto_hours, self.rpo_hours) {
            (None, None) => Ok(PenaltySchedule::Linear),
            (Some(rto), Some(rpo)) => Ok(PenaltySchedule::Deductible {
                rto: TimeSpan::from_hours(non_negative(rto, "rto_hours")?),
                rpo: TimeSpan::from_hours(non_negative(rpo, "rpo_hours")?),
                breach_fine: dsd_units::Dollars::new(non_negative(
                    self.breach_fine.unwrap_or(0.0),
                    "breach_fine",
                )?),
            }),
            _ => Err(SpecError::Invalid("rto_hours and rpo_hours must be given together".into())),
        }
    }

    fn to_profile(&self) -> Result<WorkloadProfile, SpecError> {
        let schedule = self.schedule()?;
        if let Some(name) = &self.profile {
            let base = match name.as_str() {
                "central-banking" => WorkloadProfile::central_banking(),
                "company-web-service" => WorkloadProfile::company_web_service(),
                "consumer-banking" => WorkloadProfile::consumer_banking(),
                "student-accounts" => WorkloadProfile::student_accounts(),
                other => {
                    return Err(SpecError::Invalid(format!("unknown built-in profile: {other}")))
                }
            };
            return Ok(base.with_schedule(schedule));
        }
        let field = |v: Option<f64>, what: &str| {
            let value = v.ok_or_else(|| {
                SpecError::Invalid(format!("custom application missing `{what}`"))
            })?;
            non_negative(value, what)
        };
        let name = self
            .name
            .clone()
            .ok_or_else(|| SpecError::Invalid("application needs `profile` or `name`".into()))?;
        let unique_fraction = self.unique_fraction.unwrap_or(0.6);
        if !(unique_fraction > 0.0 && unique_fraction <= 1.0) {
            return Err(SpecError::Invalid(format!(
                "`unique_fraction` must be in (0, 1]: {unique_fraction}"
            )));
        }
        let avg_update = field(self.avg_update_mbps, "avg_update_mbps")?;
        let peak_update = field(self.peak_update_mbps, "peak_update_mbps")?;
        if peak_update < avg_update {
            return Err(SpecError::Invalid(format!(
                "`peak_update_mbps` ({peak_update}) must be at least `avg_update_mbps` ({avg_update})"
            )));
        }
        Ok(WorkloadProfile::new(
            name,
            self.code.unwrap_or('X'),
            PenaltyRates::new(
                DollarsPerHour::new(field(self.outage_per_hour, "outage_per_hour")?),
                DollarsPerHour::new(field(self.loss_per_hour, "loss_per_hour")?),
            ),
            Gigabytes::new(field(self.capacity_gb, "capacity_gb")?),
            MegabytesPerSec::new(avg_update),
            MegabytesPerSec::new(peak_update),
            MegabytesPerSec::new(field(self.avg_access_mbps, "avg_access_mbps")?),
            unique_fraction,
        )
        .with_schedule(schedule))
    }
}

/// One site entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SiteSpec {
    /// Site name.
    pub name: String,
    /// Array slots: `xp1200`, `eva800`, or `msa1500`.
    #[serde(default)]
    pub arrays: Vec<String>,
    /// Tape library slots: `high` or `med`.
    #[serde(default)]
    pub tape_libraries: Vec<String>,
    /// Compute servers available (default 0).
    #[serde(default)]
    pub compute: u32,
    /// Facility cost in dollars (default $1M, Table 3).
    pub facility_cost: Option<f64>,
}

impl SiteSpec {
    fn to_site(&self, id: usize) -> Result<Site, SpecError> {
        let mut site = Site::new(id, self.name.clone()).with_compute(self.compute);
        if let Some(cost) = self.facility_cost {
            site = site
                .with_facility_cost(dsd_units::Dollars::new(non_negative(cost, "facility_cost")?));
        }
        for a in &self.arrays {
            let spec = match a.as_str() {
                "xp1200" => DeviceSpec::xp1200(),
                "eva800" => DeviceSpec::eva800(),
                "msa1500" => DeviceSpec::msa1500(),
                other => return Err(SpecError::Invalid(format!("unknown array model: {other}"))),
            };
            site = site.with_array_slot(spec);
        }
        for t in &self.tape_libraries {
            let spec = match t.as_str() {
                "high" => DeviceSpec::tape_library_high(),
                "med" => DeviceSpec::tape_library_med(),
                other => {
                    return Err(SpecError::Invalid(format!("unknown tape library class: {other}")))
                }
            };
            site = site.with_tape_library(spec);
        }
        Ok(site)
    }
}

/// Network section: all sites are fully connected with this link class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct NetworkSpecEntry {
    /// Link class: `high` (20 MB/s, 32 links) or `med` (10 MB/s, 16).
    pub class: String,
}

/// Failure likelihood section (annualized rates).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FailureSpec {
    /// Data object failures per application per year.
    pub data_object_per_year: f64,
    /// Disk array failures per array per year.
    pub disk_array_per_year: f64,
    /// Site disasters per site per year.
    pub site_disaster_per_year: f64,
}

impl Default for FailureSpec {
    /// The paper's case-study rates.
    fn default() -> Self {
        FailureSpec {
            data_object_per_year: 1.0 / 3.0,
            disk_array_per_year: 1.0 / 3.0,
            site_disaster_per_year: 1.0 / 5.0,
        }
    }
}

/// A complete environment specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct EnvironmentSpec {
    /// Application entries.
    pub applications: Vec<ApplicationSpec>,
    /// Site entries.
    pub sites: Vec<SiteSpec>,
    /// Inter-site network (fully connected).
    pub network: NetworkSpecEntry,
    /// Failure rates (default: the paper's case study).
    #[serde(default)]
    pub failures: FailureSpec,
    /// Technique catalog: `table2` (default) or `extended`.
    pub catalog: Option<String>,
}

impl EnvironmentSpec {
    /// Parses a TOML spec.
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] on malformed TOML.
    pub fn from_toml(text: &str) -> Result<Self, SpecError> {
        toml::from_str(text).map_err(SpecError::Parse)
    }

    /// Renders the spec back to TOML (for `dsd init` scaffolding).
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (it cannot for this type).
    #[must_use]
    pub fn to_toml(&self) -> String {
        toml::to_string_pretty(self).expect("spec serializes")
    }

    /// Builds the solver environment.
    ///
    /// # Errors
    ///
    /// [`SpecError::Invalid`] when the spec is semantically broken (no
    /// applications, unknown device names, missing custom fields, ...).
    pub fn to_environment(&self) -> Result<Environment, SpecError> {
        if self.applications.is_empty() {
            return Err(SpecError::Invalid("at least one application is required".into()));
        }
        if self.sites.is_empty() {
            return Err(SpecError::Invalid("at least one site is required".into()));
        }

        let total = self
            .applications
            .iter()
            .try_fold(0usize, |total, entry| total.checked_add(entry.count.unwrap_or(1)));
        match total {
            Some(0) => {
                return Err(SpecError::Invalid(
                    "every application entry has `count = 0`; nothing to protect".into(),
                ))
            }
            Some(total) if total <= MAX_APPLICATIONS => {}
            _ => {
                return Err(SpecError::Invalid(format!(
                    "the application counts sum to more than {MAX_APPLICATIONS} applications"
                )))
            }
        }
        let mut workloads = WorkloadSet::new();
        for entry in &self.applications {
            let profile = entry.to_profile()?;
            for _ in 0..entry.count.unwrap_or(1) {
                workloads.push(profile.clone());
            }
        }

        let sites = self
            .sites
            .iter()
            .enumerate()
            .map(|(i, s)| s.to_site(i))
            .collect::<Result<Vec<_>, _>>()?;
        let network = match self.network.class.as_str() {
            "high" => NetworkSpec::high(),
            "med" => NetworkSpec::med(),
            other => return Err(SpecError::Invalid(format!("unknown network class: {other}"))),
        };
        let topology = Arc::new(Topology::fully_connected(sites, network));

        let catalog = match self.catalog.as_deref() {
            None | Some("table2") => TechniqueCatalog::table2(),
            Some("extended") => TechniqueCatalog::extended(),
            Some(other) => return Err(SpecError::Invalid(format!("unknown catalog: {other}"))),
        };

        let rates = FailureRates {
            data_object: PerYear::new(non_negative(
                self.failures.data_object_per_year,
                "data_object_per_year",
            )?),
            disk_array: PerYear::new(non_negative(
                self.failures.disk_array_per_year,
                "disk_array_per_year",
            )?),
            site_disaster: PerYear::new(non_negative(
                self.failures.site_disaster_per_year,
                "site_disaster_per_year",
            )?),
        };

        Ok(Environment::new(workloads, topology, catalog, FailureModel::new(rates)))
    }

    /// A ready-to-edit example spec (the peer-sites case study).
    #[must_use]
    pub fn example() -> Self {
        EnvironmentSpec {
            applications: vec![
                ApplicationSpec {
                    profile: Some("central-banking".into()),
                    count: Some(2),
                    ..ApplicationSpec::default()
                },
                ApplicationSpec {
                    profile: Some("company-web-service".into()),
                    count: Some(2),
                    ..ApplicationSpec::default()
                },
                ApplicationSpec {
                    profile: Some("consumer-banking".into()),
                    count: Some(2),
                    ..ApplicationSpec::default()
                },
                ApplicationSpec {
                    profile: Some("student-accounts".into()),
                    count: Some(2),
                    ..ApplicationSpec::default()
                },
            ],
            sites: ["P1", "P2"]
                .iter()
                .map(|name| SiteSpec {
                    name: (*name).into(),
                    arrays: vec!["xp1200".into(), "msa1500".into()],
                    tape_libraries: vec!["high".into()],
                    compute: 8,
                    facility_cost: None,
                })
                .collect(),
            network: NetworkSpecEntry { class: "high".into() },
            failures: FailureSpec::default(),
            catalog: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_spec_roundtrips_and_builds() {
        let spec = EnvironmentSpec::example();
        let toml_text = spec.to_toml();
        let parsed = EnvironmentSpec::from_toml(&toml_text).expect("valid");
        assert_eq!(parsed, spec);
        let env = parsed.to_environment().expect("buildable");
        assert_eq!(env.workloads.len(), 8);
        assert_eq!(env.topology.site_count(), 2);
        assert_eq!(env.catalog.len(), 9);
    }

    #[test]
    fn custom_application_parses() {
        let text = r#"
            [[applications]]
            name = "oltp"
            code = "O"
            outage_per_hour = 1000000.0
            loss_per_hour = 50000.0
            capacity_gb = 2000.0
            avg_update_mbps = 3.0
            peak_update_mbps = 30.0
            avg_access_mbps = 30.0

            [[sites]]
            name = "A"
            arrays = ["eva800"]
            tape_libraries = ["med"]
            compute = 4

            [network]
            class = "med"
        "#;
        let spec = EnvironmentSpec::from_toml(text).expect("parses");
        let env = spec.to_environment().expect("builds");
        assert_eq!(env.workloads.len(), 1);
        let app = env.workloads.iter().next().unwrap();
        assert_eq!(app.profile.name, "oltp");
        assert_eq!(app.capacity().as_f64(), 2000.0);
        assert_eq!(env.failures.rates().site_disaster.as_f64(), 0.2, "defaults applied");
    }

    #[test]
    fn sla_schedule_parses() {
        let text = r#"
            [[applications]]
            profile = "consumer-banking"
            rto_hours = 4.0
            rpo_hours = 0.5
            breach_fine = 250000.0

            [[sites]]
            name = "A"
            arrays = ["eva800"]
            tape_libraries = ["med"]
            compute = 4

            [network]
            class = "med"
        "#;
        let env = EnvironmentSpec::from_toml(text).unwrap().to_environment().unwrap();
        let app = env.workloads.iter().next().unwrap();
        match app.profile.schedule {
            PenaltySchedule::Deductible { rto, rpo, breach_fine } => {
                assert_eq!(rto.as_hours(), 4.0);
                assert_eq!(rpo.as_mins(), 30.0);
                assert_eq!(breach_fine.as_f64(), 250_000.0);
            }
            PenaltySchedule::Linear => panic!("expected deductible schedule"),
        }
    }

    #[test]
    fn lone_rto_is_rejected() {
        let text = r#"
            [[applications]]
            profile = "student-accounts"
            rto_hours = 4.0

            [[sites]]
            name = "A"

            [network]
            class = "med"
        "#;
        let err = EnvironmentSpec::from_toml(text).unwrap().to_environment().unwrap_err();
        assert!(err.to_string().contains("rto_hours and rpo_hours"));
    }

    #[test]
    fn extended_catalog_selectable() {
        let mut spec = EnvironmentSpec::example();
        spec.catalog = Some("extended".into());
        let env = spec.to_environment().unwrap();
        assert_eq!(env.catalog.len(), 14);
    }

    #[test]
    fn bad_specs_are_rejected_with_messages() {
        let mut spec = EnvironmentSpec::example();
        spec.applications.clear();
        assert!(matches!(spec.to_environment(), Err(SpecError::Invalid(_))));

        let mut spec = EnvironmentSpec::example();
        spec.sites[0].arrays.push("weird9000".into());
        let err = spec.to_environment().unwrap_err();
        assert!(err.to_string().contains("weird9000"));

        let mut spec = EnvironmentSpec::example();
        spec.network.class = "quantum".into();
        assert!(spec.to_environment().is_err());

        let missing = r#"
            [[applications]]
            name = "incomplete"

            [[sites]]
            name = "A"

            [network]
            class = "med"
        "#;
        let err = EnvironmentSpec::from_toml(missing).unwrap().to_environment().unwrap_err();
        assert!(
            err.to_string().contains("missing"),
            "incomplete custom app must name a missing field: {err}"
        );
    }

    #[test]
    fn invalid_numeric_values_become_spec_errors_not_panics() {
        // Negative failure rate.
        let mut spec = EnvironmentSpec::example();
        spec.failures.data_object_per_year = -1.0;
        let err = spec.to_environment().unwrap_err();
        assert!(err.to_string().contains("data_object_per_year"));

        // Out-of-range unique fraction on a custom profile.
        let text = r#"
            [[applications]]
            name = "x"
            outage_per_hour = 1.0
            loss_per_hour = 1.0
            capacity_gb = 10.0
            avg_update_mbps = 1.0
            peak_update_mbps = 2.0
            avg_access_mbps = 2.0
            unique_fraction = 7.0

            [[sites]]
            name = "A"

            [network]
            class = "med"
        "#;
        let err = EnvironmentSpec::from_toml(text).unwrap().to_environment().unwrap_err();
        assert!(err.to_string().contains("unique_fraction"));

        // Peak below average.
        let text = text
            .replace("peak_update_mbps = 2.0", "peak_update_mbps = 0.5")
            .replace("unique_fraction = 7.0", "unique_fraction = 0.5");
        let err = EnvironmentSpec::from_toml(&text).unwrap().to_environment().unwrap_err();
        assert!(err.to_string().contains("peak_update_mbps"));

        // Negative capacity.
        let text2 = text
            .replace("capacity_gb = 10.0", "capacity_gb = -10.0")
            .replace("peak_update_mbps = 0.5", "peak_update_mbps = 2.0");
        let err = EnvironmentSpec::from_toml(&text2).unwrap().to_environment().unwrap_err();
        assert!(err.to_string().contains("capacity_gb"));
    }

    #[test]
    fn all_zero_counts_rejected() {
        let mut spec = EnvironmentSpec::example();
        for a in &mut spec.applications {
            a.count = Some(0);
        }
        let err = spec.to_environment().unwrap_err();
        assert!(err.to_string().contains("count = 0"));
    }

    #[test]
    fn application_counts_are_capped() {
        let text =
            EnvironmentSpec::example().to_toml().replacen("count = 2", "count = 4000000000", 1);
        let err = EnvironmentSpec::from_toml(&text).unwrap().to_environment().unwrap_err();
        assert!(matches!(err, SpecError::Invalid(_)), "{err}");
        assert!(err.to_string().contains(&MAX_APPLICATIONS.to_string()), "{err}");

        // A sum that overflows is rejected the same way; the cap itself
        // is allowed.
        let mut spec = EnvironmentSpec::example();
        spec.applications[0].count = Some(usize::MAX);
        assert!(matches!(spec.to_environment(), Err(SpecError::Invalid(_))));
        let mut spec = EnvironmentSpec::example();
        spec.applications.truncate(1);
        spec.applications[0].count = Some(MAX_APPLICATIONS);
        spec.applications.push(spec.applications[0].clone());
        spec.applications[1].count = Some(1);
        assert!(spec.to_environment().is_err(), "one over the cap");
        spec.applications[1].count = Some(0);
        assert_eq!(spec.to_environment().expect("at the cap").workloads.len(), MAX_APPLICATIONS);
    }

    #[test]
    fn unknown_toml_keys_rejected() {
        let text = r#"
            typo_section = true

            [[applications]]
            profile = "central-banking"

            [[sites]]
            name = "A"

            [network]
            class = "med"
        "#;
        assert!(matches!(EnvironmentSpec::from_toml(text), Err(SpecError::Parse(_))));
    }
}
