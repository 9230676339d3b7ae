//! Baseline design heuristics from the paper's evaluation.
//!
//! * [`HumanHeuristic`] (§4.1) — emulates a human storage architect:
//!   class-matched techniques, applications spread uniformly over sites,
//!   configuration solver for the remaining parameters.
//! * [`RandomHeuristic`] (§4.3) — generates random feasible designs and
//!   keeps the cheapest.
//! * [`RandomSampler`] (§4.3.1) — maps the solution-space cost
//!   distribution by pure random sampling (Figure 2);
//! * [`SimulatedAnnealing`] and [`TabuSearch`] — the classic local-search
//!   metaheuristics from the related-work comparison (§5), run over the
//!   same move set as the design solver.

mod annealing;
mod human;
mod random;
mod sampler;
mod tabu;

pub use annealing::SimulatedAnnealing;
pub use human::HumanHeuristic;
pub use random::{random_design, RandomHeuristic};
pub use sampler::{histogram, HistogramBin, RandomSampler, SampleSummary};
pub use tabu::TabuSearch;
