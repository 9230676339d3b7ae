#![warn(missing_docs)]

//! Paper environments and experiment drivers.
//!
//! [`environments`] builds the two evaluation settings of the paper's §4:
//! the *peer sites* case study (eight applications on two sites, §4.3)
//! and the *fully connected four-site* scalability setting (§4.4–4.5).
//!
//! [`fleet`] generates seeded fleet-scale instances (hundreds of
//! applications, ring/mesh/hub-spoke site graphs) — the large-instance
//! benchmark substrate for the portfolio solver.
//!
//! [`experiments`] contains one driver per table/figure of the evaluation;
//! each returns structured data and renders a text table comparable to
//! the paper's (and CSV via [`experiments::csv`]), so `dsd experiment`
//! stays thin.
//!
//! # Examples
//!
//! ```
//! use dsd_scenarios::environments;
//!
//! let env = environments::peer_sites();
//! assert_eq!(env.workloads.len(), 8);
//! assert_eq!(env.topology.site_count(), 2);
//! ```

pub mod environments;
pub mod experiments;
pub mod fleet;
