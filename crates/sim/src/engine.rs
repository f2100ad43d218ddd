//! The discrete-event simulation engine.
//!
//! One step loop serves every dataset. Time advances on the slot axis
//! of [`TraceSet::resolution`] (hours on hourly data, 5-minute slots on
//! a 5-minute dataset). Each step processes, in order: arrivals →
//! planned starts → run-set selection (capacity and suspend decisions)
//! → execution and accounting. Planned starts live in an event calendar
//! keyed by slot, so deferring policies cost nothing until their chosen
//! start arrives.
//!
//! By default ([`Stepping::EventDriven`]) a step jumps straight to the
//! next structural boundary — arrival, planned start, completion,
//! policy decision point (hour boundary), forced deadline flip,
//! trace-coverage edge, or horizon end — and accrues the emissions of
//! every skipped slot at once. Idle or steady spans therefore cost one
//! step instead of one per slot, which keeps a 5-minute year (105 k
//! slots) within a small factor of the hourly run instead of 12×.
//!
//! All region handling is by interned [`RegionId`]: datacenters live in
//! a dense slice (ordered lexicographically by zone code so accounting
//! order is deterministic), region→datacenter resolution is a flat
//! id-indexed table, and per-region emissions accumulate into a dense
//! buffer — the step loop performs no string hashing at all.

use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use decarb_traces::{Hour, RegionId, TimeSeries, TraceSet};
use decarb_workloads::Job;

use crate::accounting::{CompletedJob, SimReport};
use crate::cluster::{slot_in, CloudView, Datacenter, RunningJob};
use crate::overheads::OverheadModel;
use crate::policy::Policy;

/// How the engine advances time.
///
/// Both modes make the same decisions. Integer report fields (counts,
/// placements, start and finish slots) agree exactly; emissions and
/// energy agree up to float re-association of the per-span CI sums,
/// and exactly on integer-valued traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Stepping {
    /// Jump between structural events, accruing each skipped span with
    /// one CI sum per datacenter.
    #[default]
    EventDriven,
    /// Step every slot. The reference semantics the event-driven mode is
    /// tested against, and the baseline the `sim/subhourly_year` bench
    /// compares with.
    SlotPerSlot,
}

/// Simulation parameters.
///
/// `start` and `horizon` are expressed on the dataset's axis: hours for
/// hourly traces, *slots* for sub-hourly ones (a 5-minute dataset's
/// `horizon` counts 5-minute slots). `decarb-sim`'s scenario layer does
/// this conversion from wall-clock hours once at the edge.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// First simulated hour (slot index on sub-hourly axes).
    pub start: Hour,
    /// Number of slots to simulate.
    pub horizon: usize,
    /// Capacity (concurrent running jobs) of every datacenter.
    pub capacity_per_region: usize,
    /// Energy overheads for suspend/resume/migration transitions
    /// (defaults to the paper's zero-overhead idealization).
    pub overheads: OverheadModel,
    /// Time-advance strategy.
    pub stepping: Stepping,
}

impl SimConfig {
    /// Creates a zero-overhead configuration (the paper's idealization).
    pub fn new(start: Hour, horizon: usize, capacity_per_region: usize) -> Self {
        Self {
            start,
            horizon,
            capacity_per_region,
            overheads: OverheadModel::ZERO,
            stepping: Stepping::EventDriven,
        }
    }

    /// Replaces the overhead model (builder style).
    pub fn with_overheads(mut self, overheads: OverheadModel) -> Self {
        self.overheads = overheads;
        self
    }

    /// Replaces the stepping strategy (builder style).
    pub fn with_stepping(mut self, stepping: Stepping) -> Self {
        self.stepping = stepping;
        self
    }
}

/// A calendar entry: a job admitted to `region` that should start at
/// `start`.
#[derive(Debug)]
struct PlannedStart {
    start: Hour,
    seq: u64,
    job: Job,
    region: RegionId,
}

impl PartialEq for PlannedStart {
    fn eq(&self, other: &Self) -> bool {
        self.start == other.start && self.seq == other.seq
    }
}
impl Eq for PlannedStart {}
impl PartialOrd for PlannedStart {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PlannedStart {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse order: BinaryHeap is a max-heap, we need earliest first.
        other.start.cmp(&self.start).then(other.seq.cmp(&self.seq))
    }
}

/// The simulator: datacenters, an event calendar, and a policy-driven run
/// loop.
pub struct Simulator<'a> {
    traces: &'a TraceSet,
    config: SimConfig,
    /// Datacenters in lexicographic zone-code order.
    datacenters: Vec<Datacenter>,
    /// [`RegionId::index`]-indexed map into `datacenters`.
    slot_of: Vec<Option<u16>>,
    calendar: BinaryHeap<PlannedStart>,
    seq: u64,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with one datacenter per region in `regions`.
    ///
    /// # Panics
    ///
    /// Panics if a region id does not belong to `traces`' table.
    pub fn new(traces: &'a TraceSet, regions: &[RegionId], config: SimConfig) -> Self {
        let mut ids: Vec<RegionId> = regions.to_vec();
        ids.sort_by(|a, b| traces.code(*a).cmp(traces.code(*b)));
        ids.dedup();
        let mut slot_of = vec![None; traces.len()];
        let datacenters: Vec<Datacenter> = ids
            .iter()
            .enumerate()
            .map(|(slot, &id)| {
                slot_of[id.index()] = Some(slot as u16);
                Datacenter::new(id, config.capacity_per_region)
            })
            .collect();
        Self {
            traces,
            config,
            datacenters,
            slot_of,
            calendar: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Runs `jobs` (sorted or unsorted by arrival) under `policy` and
    /// returns the aggregate report.
    ///
    /// Jobs whose arrival lies outside the simulated horizon are counted
    /// as unfinished, as are jobs whose planned start lands at or past
    /// the horizon end (they are never admitted). Jobs arriving before
    /// the simulated window are treated as arriving at its first hour.
    ///
    /// The loop runs on the dataset's slot axis, whatever its
    /// resolution:
    ///
    /// * **Slot domain** — `config.start`/`horizon`, arrivals, planned
    ///   starts, and deadlines are slot indices; wall-clock job shapes
    ///   convert once via `Job::{length,slack,window}_slots_at`.
    /// * **Hourly decision cadence** — `Policy::should_run` is consulted
    ///   at hour boundaries (and once at admission), its verdict cached
    ///   on the [`RunningJob`] and replayed in between; an engine-side
    ///   forced-deadline check still runs every slot so deadlines keep
    ///   slot precision. On an hourly axis every slot is a boundary.
    /// * **Span accounting** — each datacenter sums its span's CI samples
    ///   once, and every job running there adds that sum to
    ///   `RunningJob::ci_sum`; emissions and energy convert once per
    ///   job as `(ci_sum · length_hours) / length_slots` and
    ///   `(slots_run · length_hours) / length_slots`, multiply before
    ///   divide. On integer-valued traces this is exact, which is what
    ///   makes a 12×-repeated 5-minute trace reproduce the hourly run
    ///   bit for bit.
    /// * **Event-driven spans** — time jumps to the next structural
    ///   boundary: arrival, planned start, completion, hour boundary
    ///   (only while interruptible jobs are admitted), forced-deadline
    ///   flip of a suspended job, trace-coverage edge, or horizon end.
    ///   Run sets are provably stable between those boundaries, so the
    ///   skipped slots differ only by accrual. [`Stepping::SlotPerSlot`]
    ///   caps every span at one slot.
    // decarb-analyze: hot-path
    pub fn run<P: Policy + ?Sized>(&mut self, policy: &mut P, jobs: &[Job]) -> SimReport {
        let resolution = self.traces.resolution();
        let slot_per_slot = self.config.stepping == Stepping::SlotPerSlot;
        let mut report = SimReport {
            resolution,
            ..SimReport::default()
        };
        // Sorted descending so each arrival is *moved* off the tail in
        // arrival order — no per-job clone on the placement hot path.
        let mut arrivals: Vec<Job> = jobs.to_vec();
        arrivals.sort_by_key(|j| std::cmp::Reverse((j.arrival, j.id)));
        let end = self.config.start.plus(self.config.horizon);
        let mut never_admitted = 0usize;
        let dc_count = self.datacenters.len();
        let sph = resolution.slots_per_hour() as u32;

        // Hoisted trace lookups: one series resolution per datacenter
        // for the whole run. Per-region emissions accumulate into a
        // dense per-datacenter buffer and fold into the report's map
        // once at the end; only migration overheads (charged at
        // arbitrary origin regions) touch the map mid-run.
        let dc_series: Vec<Option<&TimeSeries>> = self
            .datacenters
            .iter()
            .map(|dc| self.traces.try_series_by_id(dc.region))
            .collect();
        // Every datacenter's trace-coverage edges, ascending, with a
        // cursor past those at or before `now`: spans never cross one.
        let mut coverage_edges: Vec<u32> = dc_series
            .iter()
            .flatten()
            .flat_map(|s| [s.start().0, s.end().0])
            .collect();
        coverage_edges.sort_unstable();
        let mut edge = 0;
        let mut dc_emissions: Vec<f64> = vec![0.0; dc_count];
        let mut verdicts: Vec<bool> = Vec::with_capacity(self.config.capacity_per_region * 2);
        let mut finished: Vec<usize> = Vec::with_capacity(self.config.capacity_per_region * 2);

        let mut now = self.config.start;
        while now < end {
            let hour_boundary = now.0.is_multiple_of(sph);

            // 1. Place arrivals due now.
            while let Some(job) = arrivals.pop_if(|j| j.arrival <= now) {
                let placement = policy.place(&job, &self.view(now));
                let region = if slot_in(&self.slot_of, placement.region).is_some() {
                    placement.region
                } else {
                    job.origin
                };
                let start = placement.start.max(now);
                if start >= end {
                    // A start at or past the horizon end can never run;
                    // count it unfinished instead of parking it in the
                    // calendar.
                    never_admitted += 1;
                    continue;
                }
                self.seq += 1;
                self.calendar.push(PlannedStart {
                    start,
                    seq: self.seq,
                    job,
                    region,
                });
            }

            // 2. Admit planned starts due now; migrations (destination ≠
            // origin) pay the state-copy overhead at the origin's current
            // CI — the state leaves the origin's servers.
            while let Some(top) = self.calendar.peek_mut() {
                if top.start > now {
                    break;
                }
                let planned = PeekMut::pop(top);
                if planned.region != planned.job.origin {
                    report.migrations += 1;
                    let kwh = self.config.overheads.migration_kwh();
                    if kwh > 0.0 {
                        let ci_at = |id| self.traces.try_series_by_id(id).and_then(|s| s.at(now));
                        let ci = ci_at(planned.job.origin)
                            .or_else(|| ci_at(planned.region))
                            .unwrap_or(0.0);
                        let g = report.charge_overhead(kwh, ci);
                        *report.per_region_g.entry(planned.job.origin).or_insert(0.0) += g;
                    }
                }
                // Placement is validated at arrival time, so a missing
                // slot here means an inconsistent table; count the job
                // unfinished rather than crashing the whole shard.
                let Some(slot) = slot_in(&self.slot_of, planned.region) else {
                    never_admitted += 1;
                    continue;
                };
                self.datacenters[slot]
                    .jobs
                    .push(RunningJob::admitted_at(planned.job, resolution));
            }

            // 3. Select the run set. Interruptible verdicts refresh at
            // hour boundaries (and at admission), replay otherwise; the
            // forced-deadline check keeps slot precision either way.
            let mut any_interruptible = false;
            for k in 0..dc_count {
                verdicts.clear();
                {
                    let dc = &self.datacenters[k];
                    let view = self.view(now);
                    verdicts.extend(dc.jobs.iter().map(|rj| {
                        if !rj.job.interruptible {
                            return true;
                        }
                        match rj.verdict {
                            Some(cached) if !hour_boundary => cached,
                            _ => policy.should_run(&rj.job, rj.remaining_slots, rj.deadline, &view),
                        }
                    }));
                }
                let dc = &mut self.datacenters[k];
                let mut running = 0usize;
                let mut suspends = 0usize;
                let mut resumes = 0usize;
                for (rj, &verdict) in dc.jobs.iter_mut().zip(&verdicts) {
                    let want_run = if rj.job.interruptible {
                        any_interruptible = true;
                        rj.verdict = Some(verdict);
                        verdict || now.plus(rj.remaining_slots) >= rj.deadline
                    } else {
                        true
                    };
                    let was_suspended = rj.suspended;
                    if want_run && running < dc.capacity {
                        if was_suspended && rj.has_run() {
                            resumes += 1;
                        }
                        rj.suspended = false;
                        running += 1;
                    } else {
                        if !was_suspended && rj.remaining_slots > 0 {
                            suspends += 1;
                        }
                        rj.suspended = true;
                    }
                }
                report.suspends += suspends;
                report.resumes += resumes;
                // Checkpoint/restore energy is drawn in this region at
                // this slot.
                let kwh = suspends as f64 * self.config.overheads.suspend_kwh
                    + resumes as f64 * self.config.overheads.resume_kwh;
                if kwh > 0.0 {
                    let ci = dc_series[k].and_then(|s| s.at(now)).unwrap_or(0.0);
                    dc_emissions[k] += report.charge_overhead(kwh, ci);
                }
            }

            // 4. Find the next structural boundary. The horizon end caps
            // every span and, while interruptible jobs are admitted, so
            // does the next hour boundary: verdicts refresh each hour.
            // The O(1) candidates come first; once the span is down to
            // one slot (every step of an hourly run with interruptible
            // jobs, or with arrivals every hour) the O(jobs) scan is
            // skipped. Every candidate is strictly past `now`, so spans
            // always advance.
            let mut next = if slot_per_slot {
                now.0 + 1
            } else if any_interruptible {
                end.0.min(now.0 - now.0 % sph + sph)
            } else {
                end.0
            };
            if let Some(job) = arrivals.last() {
                next = next.min(job.arrival.0);
            }
            if let Some(top) = self.calendar.peek() {
                next = next.min(top.start.0);
            }
            while coverage_edges.get(edge).is_some_and(|&e| e <= now.0) {
                edge += 1;
            }
            if let Some(&e) = coverage_edges.get(edge) {
                next = next.min(e);
            }
            if next > now.0 + 1 {
                for rj in self.datacenters.iter().flat_map(|dc| &dc.jobs) {
                    if !rj.suspended {
                        next = next.min(now.0 + rj.remaining_slots as u32);
                    } else if rj.job.interruptible && rj.verdict == Some(false) {
                        // A suspended job's forced-deadline flip is
                        // predictable: remaining stays constant, so it
                        // fires at deadline − remaining.
                        let flip = rj.deadline.0.saturating_sub(rj.remaining_slots as u32);
                        if flip > now.0 {
                            next = next.min(flip);
                        }
                    }
                }
            }
            let span = (next.max(now.0 + 1) - now.0) as usize;

            // 5. Execute the span and account completions. Spans never
            // cross a trace-coverage edge, so a span is either covered
            // whole or a stall.
            for k in 0..dc_count {
                let dc = &mut self.datacenters[k];
                let Some(window) = dc_series[k].and_then(|s| s.window(now, span).ok()) else {
                    // Trace coverage does not reach this span: jobs
                    // selected to run can neither execute nor be
                    // accounted. Record the stall instead of silently
                    // freezing them.
                    report.stalled_hours +=
                        span * dc.jobs.iter().filter(|rj| !rj.suspended).count();
                    continue;
                };
                // Summed once, on the first running job.
                let mut span_ci = None;
                finished.clear();
                for (i, rj) in dc.jobs.iter_mut().enumerate() {
                    if rj.suspended {
                        continue;
                    }
                    if rj.started.is_none() {
                        rj.started = Some(now);
                    }
                    rj.ci_sum += *span_ci.get_or_insert_with(|| window.iter().sum::<f64>());
                    rj.remaining_slots -= span;
                    if rj.remaining_slots == 0 {
                        finished.push(i);
                    }
                }
                for &i in finished.iter().rev() {
                    let rj = dc.jobs.swap_remove(i);
                    let slots = rj.job.length_slots_at(resolution) as f64;
                    let emitted = (rj.ci_sum * rj.job.length_hours) / slots;
                    let energy = rj.job.length_hours;
                    report.total_energy_kwh += energy;
                    report.total_emissions_g += emitted;
                    dc_emissions[k] += emitted;
                    let finished_at = now.plus(span - 1);
                    report.completed.push(CompletedJob {
                        region: dc.region,
                        started: rj.started.unwrap_or(now),
                        finished: finished_at,
                        emitted_g: emitted,
                        // The window covers slots [arrival, deadline);
                        // finishing in the last window slot is on time,
                        // and zero-slack jobs delayed past their own
                        // length (e.g. by queueing) miss too.
                        missed_deadline: finished_at >= rj.deadline,
                        job: rj.job,
                    });
                }
            }

            now = now.plus(span);
        }

        // Partial work of unfinished jobs is still accounted, pro rata
        // over the slots actually executed.
        for (k, dc) in self.datacenters.iter().enumerate() {
            for rj in &dc.jobs {
                let slots = rj.job.length_slots_at(resolution);
                let run = slots - rj.remaining_slots;
                if run > 0 {
                    let energy = (run as f64 * rj.job.length_hours) / slots as f64;
                    let emitted = (rj.ci_sum * rj.job.length_hours) / slots as f64;
                    report.total_energy_kwh += energy;
                    report.total_emissions_g += emitted;
                    dc_emissions[k] += emitted;
                }
            }
        }

        // Fold the dense per-datacenter ledger into the report's map.
        for (k, &g) in dc_emissions.iter().enumerate() {
            if g != 0.0 {
                *report
                    .per_region_g
                    .entry(self.datacenters[k].region)
                    .or_insert(0.0) += g;
            }
        }

        // Whatever remains anywhere is unfinished: jobs still holding
        // work in a datacenter, planned starts not yet due, jobs whose
        // plan fell past the horizon, and arrivals never reached.
        report.unfinished = self
            .datacenters
            .iter()
            .map(|dc| dc.jobs.len())
            .sum::<usize>()
            + self.calendar.len()
            + never_admitted
            + arrivals.len();
        report
    }

    /// The read-only view handed to policies at slot `now`.
    fn view(&self, now: Hour) -> CloudView<'_> {
        CloudView {
            datacenters: &self.datacenters,
            slot_of: &self.slot_of,
            traces: self.traces,
            now,
        }
    }

    /// Returns a datacenter by region id (for inspection in tests).
    pub fn datacenter(&self, id: RegionId) -> Option<&Datacenter> {
        Some(&self.datacenters[slot_in(&self.slot_of, id)?])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CarbonAgnostic, GreenestRouter, PlannedDeferral, ThresholdSuspend};
    use decarb_core::temporal::TemporalPlanner;
    use decarb_traces::time::year_start;
    use decarb_traces::{builtin_dataset, Resolution};
    use decarb_workloads::Slack;

    /// Named policy constructors for the axis-equivalence tests.
    type PolicyTable = Vec<(&'static str, fn() -> Box<dyn Policy>)>;

    fn config(horizon: usize) -> SimConfig {
        SimConfig::new(year_start(2022), horizon, 4)
    }

    fn ids(traces: &TraceSet, codes: &[&str]) -> Vec<RegionId> {
        codes.iter().map(|c| traces.id_of(c).unwrap()).collect()
    }

    #[test]
    fn suspend_resume_overheads_are_charged() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["US-CA"]);
        let start = year_start(2022);
        let job = Job::batch(1, rs[0], start, 12.0, Slack::TenX).with_interruptible();
        // Ideal run.
        let mut ideal_sim = Simulator::new(&traces, &rs, config(24 * 30));
        let ideal = ideal_sim.run(&mut ThresholdSuspend::default(), std::slice::from_ref(&job));
        // Same policy, but every transition costs energy.
        let model = OverheadModel {
            suspend_kwh: 0.05,
            resume_kwh: 0.05,
            ..OverheadModel::ZERO
        };
        let mut costed_sim = Simulator::new(&traces, &rs, config(24 * 30).with_overheads(model));
        let costed = costed_sim.run(&mut ThresholdSuspend::default(), &[job]);
        // Decisions are identical (the policy does not see overheads), so
        // transition counts match and only the accounting differs.
        assert_eq!(ideal.suspends, costed.suspends);
        assert_eq!(ideal.resumes, costed.resumes);
        assert!(ideal.suspends > 0, "diurnal CA trace must cause suspends");
        assert_eq!(ideal.overhead_g, 0.0);
        assert!(costed.overhead_g > 0.0);
        let expected_kwh = 0.05 * (costed.suspends + costed.resumes) as f64;
        assert!((costed.overhead_kwh - expected_kwh).abs() < 1e-9);
        assert!(
            costed.total_emissions_g > ideal.total_emissions_g,
            "overheads must raise total emissions"
        );
        assert!(
            (costed.total_emissions_g - ideal.total_emissions_g - costed.overhead_g).abs() < 1e-6
        );
    }

    #[test]
    fn migration_overhead_charged_at_origin() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE", "IN-WE"]);
        let in_we = rs[1];
        let start = year_start(2022);
        let job = Job::batch(1, in_we, start, 4.0, Slack::None);
        let model = OverheadModel {
            migrate_kwh_per_gb: 0.05,
            state_gb: 50.0,
            ..OverheadModel::ZERO
        };
        let mut sim = Simulator::new(&traces, &rs, config(100).with_overheads(model));
        let report = sim.run(&mut GreenestRouter, &[job]);
        assert_eq!(report.completed_count(), 1);
        assert_eq!(report.migrations, 1);
        assert!((report.overhead_kwh - 2.5).abs() < 1e-12);
        // Charged at the origin's CI at the migration hour.
        let origin_ci = traces.series("IN-WE").unwrap().get(start);
        assert!((report.overhead_g - 2.5 * origin_ci).abs() < 1e-9);
        // The per-region ledger bills the origin.
        assert!((report.per_region_g[&in_we] - 2.5 * origin_ci).abs() < 1e-9);
    }

    #[test]
    fn local_jobs_pay_no_migration_overhead() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE"]);
        let start = year_start(2022);
        let model = OverheadModel::realistic();
        let mut sim = Simulator::new(&traces, &rs, config(50).with_overheads(model));
        let report = sim.run(
            &mut CarbonAgnostic,
            &[Job::batch(1, rs[0], start, 3.0, Slack::None)],
        );
        assert_eq!(report.migrations, 0);
        assert_eq!(report.suspends, 0);
        assert_eq!(report.overhead_g, 0.0);
    }

    #[test]
    fn completed_jobs_record_start_and_wait() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["US-CA"]);
        let start = year_start(2022);
        let job = Job::batch(9, rs[0], start, 2.0, Slack::Day);
        let mut sim = Simulator::new(&traces, &rs, config(24 * 3));
        let report = sim.run(&mut PlannedDeferral, &[job]);
        assert_eq!(report.completed_count(), 1);
        let c = &report.completed[0];
        assert!(c.started >= start);
        assert_eq!(c.wait_hours() as u32, c.started.0 - start.0);
        assert!(c.slowdown() >= 1.0);
        assert!(report.mean_slowdown() >= 1.0);
    }

    #[test]
    fn agnostic_job_emissions_match_trace() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["DE"]);
        let mut sim = Simulator::new(&traces, &rs, config(100));
        let start = year_start(2022);
        let job = Job::batch(1, rs[0], start.plus(3), 5.0, Slack::None);
        let report = sim.run(&mut CarbonAgnostic, &[job]);
        assert_eq!(report.completed_count(), 1);
        assert_eq!(report.unfinished, 0);
        let expected: f64 = traces
            .series("DE")
            .unwrap()
            .window(start.plus(3), 5)
            .unwrap()
            .iter()
            .sum();
        assert!((report.total_emissions_g - expected).abs() < 1e-9);
        assert!((report.total_energy_kwh - 5.0).abs() < 1e-9);
    }

    #[test]
    fn planned_deferral_reproduces_analytic_bound() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["US-CA"]);
        let start = year_start(2022);
        let mut sim = Simulator::new(&traces, &rs, config(24 * 10));
        let job = Job::batch(7, rs[0], start, 6.0, Slack::Day);
        let report = sim.run(&mut PlannedDeferral, &[job]);
        assert_eq!(report.completed_count(), 1);
        let planner = TemporalPlanner::new(traces.series("US-CA").unwrap());
        let expected = planner.best_deferred(start, 6, 24).cost_g;
        assert!(
            (report.emissions_of(7).unwrap() - expected).abs() < 1e-9,
            "sim {} vs analytic {}",
            report.emissions_of(7).unwrap(),
            expected
        );
    }

    #[test]
    fn capacity_queues_excess_jobs() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE"]);
        let mut sim = Simulator::new(&traces, &rs, SimConfig::new(year_start(2022), 50, 1));
        let start = year_start(2022);
        let jobs = vec![
            Job::batch(1, rs[0], start, 3.0, Slack::None),
            Job::batch(2, rs[0], start, 3.0, Slack::None),
        ];
        let report = sim.run(&mut CarbonAgnostic, &jobs);
        assert_eq!(report.completed_count(), 2);
        // Serialized: job 1 finishes at hour 2, job 2 at hour 5.
        let first = report.completed.iter().find(|c| c.job.id == 1).unwrap();
        let second = report.completed.iter().find(|c| c.job.id == 2).unwrap();
        assert_eq!(first.finished, start.plus(2));
        assert_eq!(second.finished, start.plus(5));
    }

    #[test]
    fn router_sends_batch_to_sweden() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE", "PL", "IN-WE"]);
        let mut sim = Simulator::new(&traces, &rs, config(100));
        let start = year_start(2022);
        let jobs = vec![Job::batch(1, rs[2], start, 4.0, Slack::None)];
        let report = sim.run(&mut GreenestRouter, &jobs);
        assert_eq!(report.completed[0].region, rs[0], "routed to Sweden");
        // Routed emissions far below origin emissions.
        let origin_cost: f64 = traces
            .series("IN-WE")
            .unwrap()
            .window(start, 4)
            .unwrap()
            .iter()
            .sum();
        assert!(report.total_emissions_g < origin_cost / 5.0);
    }

    #[test]
    fn threshold_policy_between_bounds() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["US-CA"]);
        let start = year_start(2022);
        let slots = 12usize;
        let job = Job::batch(3, rs[0], start, slots as f64, Slack::TenX).with_interruptible();
        assert_eq!(job.slack_hours(), 120);
        let mut sim = Simulator::new(&traces, &rs, config(24 * 30));
        let report = sim.run(&mut ThresholdSuspend::default(), &[job]);
        assert_eq!(report.completed_count(), 1);
        let emitted = report.emissions_of(3).unwrap();
        let planner = TemporalPlanner::new(traces.series("US-CA").unwrap());
        let clairvoyant = planner.best_interruptible(start, slots, 120).1;
        let baseline = planner.baseline_cost(start, slots);
        assert!(emitted >= clairvoyant - 1e-9, "below clairvoyant bound");
        // The online policy must capture some of the savings on a
        // strongly diurnal trace.
        assert!(
            emitted < baseline * 1.02,
            "online {emitted} vs baseline {baseline}"
        );
    }

    #[test]
    fn unfinished_jobs_counted() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE"]);
        let mut sim = Simulator::new(&traces, &rs, config(3));
        let start = year_start(2022);
        let jobs = vec![Job::batch(1, rs[0], start, 10.0, Slack::None)];
        let report = sim.run(&mut CarbonAgnostic, &jobs);
        assert_eq!(report.completed_count(), 0);
        assert_eq!(report.unfinished, 1);
        // Partial work is still accounted.
        assert!(report.total_energy_kwh > 0.0);
    }

    #[test]
    fn fractional_interactive_jobs_scale_energy() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE"]);
        let mut sim = Simulator::new(&traces, &rs, config(10));
        let start = year_start(2022);
        let jobs = vec![Job::interactive(1, rs[0], start)];
        let report = sim.run(&mut CarbonAgnostic, &jobs);
        assert_eq!(report.completed_count(), 1);
        assert!((report.total_energy_kwh - 0.01).abs() < 1e-12);
        let ci = traces.series("SE").unwrap().get(start);
        assert!((report.total_emissions_g - ci * 0.01).abs() < 1e-12);
    }

    #[test]
    fn short_trace_records_stalled_hours_instead_of_freezing() {
        // A trace covering only 5 of the 10 simulated hours: the 8-hour
        // job executes 5 slots, then stalls (visibly) for the remaining
        // 5 hours instead of silently freezing.
        let start = year_start(2022);
        let short = TimeSeries::new(start, vec![100.0; 5]);
        let se = decarb_traces::catalog::region("SE").unwrap().clone();
        let traces = TraceSet::from_series(vec![(se, short)]);
        let rs = ids(&traces, &["SE"]);
        let mut sim = Simulator::new(&traces, &rs, SimConfig::new(start, 10, 4));
        let report = sim.run(
            &mut CarbonAgnostic,
            &[Job::batch(1, rs[0], start, 8.0, Slack::None)],
        );
        assert_eq!(report.completed_count(), 0);
        assert_eq!(report.unfinished, 1);
        assert!((report.total_energy_kwh - 5.0).abs() < 1e-9);
        assert!((report.total_emissions_g - 500.0).abs() < 1e-9);
        assert_eq!(report.stalled_hours, 5);
    }

    #[test]
    fn full_coverage_runs_report_no_stalls() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE"]);
        let start = year_start(2022);
        let mut sim = Simulator::new(&traces, &rs, config(50));
        let report = sim.run(
            &mut CarbonAgnostic,
            &[Job::batch(1, rs[0], start, 3.0, Slack::None)],
        );
        assert_eq!(report.stalled_hours, 0);
    }

    /// A policy planning a fixed start offset from the arrival hour.
    struct StartAt(usize);
    impl Policy for StartAt {
        fn place(&mut self, job: &Job, view: &CloudView<'_>) -> crate::policy::Placement {
            crate::policy::Placement {
                region: job.origin,
                start: view.now.plus(self.0),
            }
        }
    }

    #[test]
    fn starts_at_or_past_horizon_end_are_never_admitted() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE"]);
        let start = year_start(2022);
        let job = Job::batch(1, rs[0], start, 1.0, Slack::None);
        // Planned exactly at the horizon end: never admitted, no energy.
        let mut sim = Simulator::new(&traces, &rs, config(10));
        let report = sim.run(&mut StartAt(10), std::slice::from_ref(&job));
        assert_eq!(report.completed_count(), 0);
        assert_eq!(report.unfinished, 1);
        assert_eq!(report.total_energy_kwh, 0.0);
        // One hour earlier is admissible and the 1-hour job completes.
        let mut sim = Simulator::new(&traces, &rs, config(10));
        let report = sim.run(&mut StartAt(9), &[job]);
        assert_eq!(report.completed_count(), 1);
        assert_eq!(report.unfinished, 0);
        assert_eq!(report.completed[0].finished, start.plus(9));
    }

    #[test]
    fn finishing_in_last_window_hour_is_on_time() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE"]);
        let start = year_start(2022);
        // 2-hour job, 24 h slack: window covers hours [0, 26); the last
        // permissible start is hour 24, finishing in hour 25.
        let job = Job::batch(1, rs[0], start, 2.0, Slack::Day);
        let mut sim = Simulator::new(&traces, &rs, config(100));
        let report = sim.run(&mut StartAt(24), std::slice::from_ref(&job));
        assert_eq!(report.completed_count(), 1);
        assert_eq!(report.completed[0].finished, start.plus(25));
        assert!(!report.completed[0].missed_deadline);
        assert_eq!(report.missed_deadlines(), 0);
        // One hour later finishes at hour 26 == deadline: missed.
        let mut sim = Simulator::new(&traces, &rs, config(100));
        let report = sim.run(&mut StartAt(25), &[job]);
        assert_eq!(report.completed_count(), 1);
        assert!(report.completed[0].missed_deadline);
    }

    #[test]
    fn queued_zero_slack_jobs_miss_their_deadline() {
        // Two zero-slack 3-hour jobs on a capacity-1 datacenter: the
        // first is on time, the second finishes at hour 5, past its
        // hour-3 deadline — zero slack does not exempt it.
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE"]);
        let start = year_start(2022);
        let mut sim = Simulator::new(&traces, &rs, SimConfig::new(start, 50, 1));
        let jobs = vec![
            Job::batch(1, rs[0], start, 3.0, Slack::None),
            Job::batch(2, rs[0], start, 3.0, Slack::None),
        ];
        let report = sim.run(&mut CarbonAgnostic, &jobs);
        assert_eq!(report.completed_count(), 2);
        let first = report.completed.iter().find(|c| c.job.id == 1).unwrap();
        let second = report.completed.iter().find(|c| c.job.id == 2).unwrap();
        assert!(!first.missed_deadline);
        assert!(second.missed_deadline);
        assert_eq!(report.missed_deadlines(), 1);
    }

    #[test]
    fn immediate_zero_slack_jobs_are_on_time() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE"]);
        let start = year_start(2022);
        let mut sim = Simulator::new(&traces, &rs, config(20));
        let report = sim.run(
            &mut CarbonAgnostic,
            &[Job::batch(1, rs[0], start, 5.0, Slack::None)],
        );
        assert_eq!(report.completed_count(), 1);
        assert!(!report.completed[0].missed_deadline);
    }

    #[test]
    fn invalid_placement_region_falls_back_to_origin() {
        struct BadPolicy;
        impl Policy for BadPolicy {
            fn place(&mut self, _job: &Job, view: &CloudView<'_>) -> crate::policy::Placement {
                crate::policy::Placement {
                    // An id with no deployed datacenter (and even out of
                    // the table's range).
                    region: RegionId(9999),
                    start: view.now,
                }
            }
        }
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE"]);
        let mut sim = Simulator::new(&traces, &rs, config(10));
        let start = year_start(2022);
        let report = sim.run(
            &mut BadPolicy,
            &[Job::batch(1, rs[0], start, 2.0, Slack::None)],
        );
        assert_eq!(report.completed_count(), 1);
        assert_eq!(report.completed[0].region, rs[0]);
    }

    /// A two-region dataset with integer-valued hourly traces, so the
    /// sub-hourly accounting identities ((12S·L)/12L == S, exact integer
    /// sums) hold bit for bit.
    fn integer_dataset(hours: usize) -> TraceSet {
        let start = year_start(2022);
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 900 + 50) as f64
        };
        let pairs = ["DE", "SE"]
            .iter()
            .map(|code| {
                let region = decarb_traces::catalog::region(code).unwrap().clone();
                let values: Vec<f64> = (0..hours).map(|_| next()).collect();
                (region, TimeSeries::new(start, values))
            })
            .collect();
        TraceSet::from_series(pairs)
    }

    /// Integer-length jobs on hour-aligned arrivals, mixing rigid,
    /// migratable, and interruptible shapes across both regions.
    fn equivalence_jobs(traces: &TraceSet) -> Vec<Job> {
        let de = traces.id_of("DE").unwrap();
        let se = traces.id_of("SE").unwrap();
        let start = year_start(2022);
        let mut jobs = vec![
            Job::batch(1, de, start, 4.0, Slack::None),
            Job::batch(2, de, start.plus(3), 6.0, Slack::Day),
            Job::batch(3, se, start.plus(5), 2.0, Slack::Day),
            Job::batch(4, de, start.plus(7), 12.0, Slack::Week).with_interruptible(),
            Job::batch(5, se, start.plus(7), 8.0, Slack::TenX).with_interruptible(),
            Job::batch(6, de, start.plus(30), 5.0, Slack::Day),
        ];
        for (i, job) in jobs.iter_mut().enumerate() {
            job.migratable = i % 2 == 0;
        }
        jobs
    }

    /// Maps an hourly-domain job list onto the slot axis of `traces`.
    fn jobs_on_axis(jobs: &[Job], traces: &TraceSet) -> Vec<Job> {
        let sph = traces.resolution().slots_per_hour() as u32;
        jobs.iter()
            .map(|job| {
                let mut moved = job.clone();
                moved.arrival = Hour(job.arrival.0 * sph);
                moved
            })
            .collect()
    }

    /// Runs `horizon_hours` from the start of 2022 on the slot axis of
    /// `traces`, with capacity 4.
    fn run_on_axis<P: Policy + ?Sized>(
        traces: &TraceSet,
        regions: &[RegionId],
        policy: &mut P,
        jobs: &[Job],
        horizon_hours: usize,
        stepping: Stepping,
    ) -> SimReport {
        let sph = traces.resolution().slots_per_hour();
        let start = Hour(year_start(2022).0 * sph as u32);
        let config = SimConfig::new(start, horizon_hours * sph, 4).with_stepping(stepping);
        let mut sim = Simulator::new(traces, regions, config);
        sim.run(policy, jobs)
    }

    /// The equivalence policies: rigid, deferring, suspending, routing.
    fn equivalence_policies() -> PolicyTable {
        vec![
            ("agnostic", || Box::new(CarbonAgnostic)),
            ("deferral", || Box::new(PlannedDeferral)),
            ("threshold", || Box::new(ThresholdSuspend::default())),
            ("router", || Box::new(GreenestRouter)),
        ]
    }

    /// Event-driven and slot-per-slot stepping must agree bit for bit on
    /// the integer dataset replicated at `minutes` resolution.
    fn assert_stepping_bit_identical(minutes: u32) {
        let traces = integer_dataset(24 * 40)
            .resample_to(Resolution::from_minutes(minutes).unwrap())
            .unwrap();
        let rs = ids(&traces, &["DE", "SE"]);
        let jobs = jobs_on_axis(&equivalence_jobs(&traces), &traces);
        for (name, make) in equivalence_policies() {
            let run =
                |stepping| run_on_axis(&traces, &rs, make().as_mut(), &jobs, 24 * 20, stepping);
            let slot = run(Stepping::SlotPerSlot);
            assert_same_run(&slot, &run(Stepping::EventDriven), 0.0, name);
            assert!(slot.completed_count() >= 5, "{name}: workload must run");
        }
    }

    /// Asserts two runs of one workload agree: integer fields exactly,
    /// floats within `rel` relative error (0 demands bit identity).
    fn assert_same_run(a: &SimReport, b: &SimReport, rel: f64, name: &str) {
        let close = |x: f64, y: f64| (x - y).abs() <= rel * x.abs().max(y.abs());
        let counts = |r: &SimReport| {
            let c = r.completed_count();
            (
                c,
                r.suspends,
                r.resumes,
                r.migrations,
                r.unfinished,
                r.stalled_hours,
            )
        };
        assert_eq!(counts(a), counts(b), "{name}");
        assert!(
            close(a.total_emissions_g, b.total_emissions_g),
            "{name}: {} vs {} g",
            a.total_emissions_g,
            b.total_emissions_g
        );
        assert!(close(a.total_energy_kwh, b.total_energy_kwh), "{name}");
        assert!(close(a.overhead_g, b.overhead_g), "{name}");
        assert!(close(a.overhead_kwh, b.overhead_kwh), "{name}");
        assert_eq!(a.per_region_g.len(), b.per_region_g.len(), "{name}");
        for (region, g) in &a.per_region_g {
            let other = b.per_region_g.get(region).copied();
            assert!(other.is_some_and(|h| close(*g, h)), "{name}: {region:?}");
        }
        for (x, y) in a.completed.iter().zip(&b.completed) {
            let key =
                |c: &CompletedJob| (c.job.id, c.region, c.started, c.finished, c.missed_deadline);
            assert_eq!(key(x), key(y), "{name}: same placement and slots");
            assert!(close(x.emitted_g, y.emitted_g), "{name}: job {}", x.job.id);
        }
    }

    #[test]
    fn event_driven_matches_slot_stepped_on_five_minute_axis() {
        assert_stepping_bit_identical(5);
    }

    #[test]
    fn event_driven_matches_slot_stepped_on_hourly_axis() {
        assert_stepping_bit_identical(60);
    }

    #[test]
    fn event_driven_matches_slot_stepped_on_real_valued_traces() {
        // Real-valued builtin traces, capacity 1 (so jobs queue), every
        // transition costed, and interruptible jobs that suspend and
        // resume. Spans sum CI in a different order than single slots,
        // so floats may differ by re-association only.
        let traces = builtin_dataset();
        let rs = ids(&traces, &["DE", "PL", "SE", "US-CA"]);
        let start = year_start(2022);
        let jobs: Vec<Job> = (0..24u64)
            .map(|i| {
                let (origin, arrival) = (rs[i as usize % rs.len()], start.plus(i as usize * 7));
                let length = 1.0 + (i % 9) as f64;
                let job = match i % 4 {
                    0 => Job::batch(i, origin, arrival, length, Slack::Day).with_interruptible(),
                    1 => Job::batch(i, origin, arrival, length, Slack::TenX).with_interruptible(),
                    2 => Job::interactive(i, origin, arrival),
                    _ => Job::batch(i, origin, arrival, length, Slack::Day),
                };
                Job {
                    migratable: i % 3 != 0,
                    ..job
                }
            })
            .collect();
        let overheads = OverheadModel {
            suspend_kwh: 0.03,
            resume_kwh: 0.02,
            migrate_kwh_per_gb: 0.05,
            state_gb: 20.0,
        };
        for (name, make) in equivalence_policies() {
            let run = |stepping| {
                let config = SimConfig::new(start, 24 * 14, 1)
                    .with_overheads(overheads)
                    .with_stepping(stepping);
                Simulator::new(&traces, &rs, config).run(make().as_mut(), &jobs)
            };
            let slot = run(Stepping::SlotPerSlot);
            assert_same_run(&slot, &run(Stepping::EventDriven), 1e-12, name);
            assert!(slot.completed_count() >= 20, "{name}: workload must run");
            match name {
                "threshold" => assert!(slot.suspends > 0 && slot.resumes > 0),
                "router" => assert!(slot.migrations > 0 && slot.overhead_g > 0.0),
                _ => {}
            }
        }
    }

    #[test]
    fn five_minute_replica_reproduces_hourly_run_bit_for_bit() {
        // The tentpole equivalence property at the engine level: a
        // 5-minute trace that repeats each hour's (integer) CI 12 times
        // is the same physical signal, so emissions totals must be
        // bit-identical and every placement must land on the scaled
        // slot of its hourly counterpart.
        let hourly = integer_dataset(24 * 40);
        let fine = hourly
            .resample_to(Resolution::from_minutes(5).unwrap())
            .unwrap();
        let rs_hourly = ids(&hourly, &["DE", "SE"]);
        let rs_fine = ids(&fine, &["DE", "SE"]);
        let jobs = equivalence_jobs(&hourly);
        let fine_jobs = jobs_on_axis(&jobs, &fine);
        for (name, make) in equivalence_policies() {
            let run = |traces, rs: &[RegionId], jobs: &[Job]| {
                run_on_axis(
                    traces,
                    rs,
                    make().as_mut(),
                    jobs,
                    24 * 20,
                    Stepping::EventDriven,
                )
            };
            let coarse = run(&hourly, &rs_hourly, &jobs);
            let mut fine_report = run(&fine, &rs_fine, &fine_jobs);
            // Slowdown is a ratio of same-axis quantities, so the 12×
            // scaling cancels exactly; waits are reported in hours.
            assert_eq!(
                coarse.mean_slowdown(),
                fine_report.mean_slowdown(),
                "{name}"
            );
            assert_eq!(
                coarse.mean_wait_hours(),
                fine_report.mean_wait_hours(),
                "{name}"
            );
            // Starts land on the first slot of the hourly start, and
            // finishes on the last slot of the hourly finish.
            for c in &mut fine_report.completed {
                assert_eq!((c.started.0 % 12, c.finished.0 % 12), (0, 11), "{name}");
                (c.started, c.finished) = (Hour(c.started.0 / 12), Hour(c.finished.0 / 12));
            }
            assert_same_run(&coarse, &fine_report, 0.0, name);
            assert!(coarse.completed_count() >= 5, "{name}: workload must run");
        }
    }

    #[test]
    fn datacenter_order_is_lexicographic_whatever_the_input_order() {
        let traces = builtin_dataset();
        let forward = ids(&traces, &["SE", "DE", "PL"]);
        let mut reversed = forward.clone();
        reversed.reverse();
        let a = Simulator::new(&traces, &forward, config(10));
        let b = Simulator::new(&traces, &reversed, config(10));
        let codes = |sim: &Simulator<'_>| -> Vec<String> {
            sim.datacenters
                .iter()
                .map(|dc| traces.code(dc.region).to_string())
                .collect()
        };
        assert_eq!(codes(&a), vec!["DE", "PL", "SE"]);
        assert_eq!(codes(&a), codes(&b));
        assert!(a.datacenter(forward[0]).is_some());
        assert!(a.datacenter(RegionId(9999)).is_none());
    }
}
