//! `decarb-sim` — a discrete-event cloud simulator for carbon-aware
//! scheduling.
//!
//! The paper's analysis is clairvoyant and analytic; this crate provides
//! the *online* counterpart: a simulator in which jobs arrive over time,
//! datacenters have finite capacity, and pluggable policies decide where
//! and when work runs. It serves three purposes:
//!
//! 1. **Validation** — replaying a clairvoyant plan through the simulator
//!    reproduces the analytic emissions exactly (integration-tested);
//! 2. **Realism** — online policies (threshold suspend/resume, greenest
//!    and latency-SLO routers, forecast-driven deferral/suspend plans,
//!    combined spatiotemporal shifting) show how far practical schedulers
//!    fall short of the paper's upper bounds, and what suspend/resume and
//!    migration overheads cost;
//! 3. **Capacity effects** — queueing and blocking under finite capacity,
//!    which the analytic model only approximates.
//!
//! Time advances on the dataset's slot axis (hourly or finer), jumping
//! between structural events; an event calendar holds arrivals and
//! planned starts.

pub mod accounting;
pub mod cluster;
pub mod engine;
pub mod forecast_policy;
pub mod overheads;
pub mod planner_cache;
pub mod policy;
pub mod routing;
pub mod scenario;
pub mod scenario_check;
pub mod scenario_file;
pub mod snapshot;
pub mod spatiotemporal;
pub mod sweep;

pub use accounting::SimReport;
pub use cluster::{CloudView, Datacenter};
pub use engine::{SimConfig, Simulator, Stepping};
pub use forecast_policy::{ForecastDeferral, ForecastSuspend};
pub use overheads::OverheadModel;
pub use planner_cache::{CachedDeferral, PlannerCache};
pub use policy::{
    CarbonAgnostic, GreenestRouter, Placement, PlannedDeferral, Policy, ThresholdSuspend,
};
pub use routing::LatencyAwareRouter;
pub use scenario::{
    builtin_matrix, builtin_scenarios, find_scenario, run_scenarios, run_scenarios_with,
    ForecasterKind, OverheadKind, PolicyKind, RegionSet, RegionSpec, Scenario, ScenarioMatrix,
    ScenarioReport,
};
pub use scenario_check::{check_file, check_scenarios};
pub use scenario_file::{
    parse_scenario_file, parse_scenario_file_full, ScenarioFile, ScenarioFileError,
};
pub use snapshot::{PlaceDecision, PlaceError, PlaceRequest, Snapshot};
pub use spatiotemporal::SpatioTemporal;
pub use sweep::{merge_reports, MergeError, PlannedScenario, SweepError, SweepPlan};
