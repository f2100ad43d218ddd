//! Carbon and energy accounting for simulation runs.

use std::collections::HashMap;

use decarb_traces::{Hour, RegionId, Resolution};
use decarb_workloads::Job;

/// A job that finished during the simulation.
#[derive(Debug, Clone)]
pub struct CompletedJob {
    /// The job that ran.
    pub job: Job,
    /// Interned id of the zone it executed in.
    pub region: RegionId,
    /// Hour of its first executed slot.
    pub started: Hour,
    /// Hour in which its last slot executed.
    pub finished: Hour,
    /// Total emissions in g·CO2eq.
    pub emitted_g: f64,
    /// Whether the job finished after its slack deadline.
    pub missed_deadline: bool,
}

impl CompletedJob {
    /// Slots of the trace axis the job waited between arrival and first
    /// execution (hours on hourly data).
    pub fn wait_hours(&self) -> usize {
        (self.started.0.saturating_sub(self.job.arrival.0)) as usize
    }

    /// The job's slowdown: elapsed residence time over its pure execution
    /// time (1.0 means it ran immediately and uninterrupted). Assumes the
    /// hourly axis; use [`CompletedJob::slowdown_at`] on sub-hourly runs.
    pub fn slowdown(&self) -> f64 {
        self.slowdown_at(Resolution::HOURLY)
    }

    /// [`CompletedJob::slowdown`] on the axis the run stepped on:
    /// elapsed and execution time are both counted in `resolution`
    /// slots, so the ratio is axis-independent.
    pub fn slowdown_at(&self, resolution: Resolution) -> f64 {
        let elapsed = (self.finished.0 - self.job.arrival.0 + 1) as f64;
        elapsed / self.job.length_slots_at(resolution) as f64
    }
}

/// Aggregate results of a simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Jobs that completed, in completion order.
    pub completed: Vec<CompletedJob>,
    /// Jobs still unfinished when the horizon ended.
    pub unfinished: usize,
    /// Job-hours in which an admitted, non-suspended job could not
    /// execute because its region's trace had no sample for the hour
    /// (trace coverage ended before the simulated horizon). Non-zero
    /// values mean the horizon outruns the data and completion counts
    /// understate the workload.
    pub stalled_hours: usize,
    /// Total emissions across completed and partial work (g·CO2eq).
    pub total_emissions_g: f64,
    /// Total energy delivered in kWh (1 kW × executed hours, scaled for
    /// fractional jobs).
    pub total_energy_kwh: f64,
    /// Emissions per zone (g·CO2eq), keyed by interned id.
    pub per_region_g: HashMap<RegionId, f64>,
    /// Suspend transitions taken (running → suspended with work left).
    pub suspends: usize,
    /// Resume transitions taken (suspended → running after having run).
    pub resumes: usize,
    /// Cross-region migrations at admission.
    pub migrations: usize,
    /// Extra energy drawn by suspend/resume/migration overheads, kWh
    /// (included in `total_energy_kwh`).
    pub overhead_kwh: f64,
    /// Emissions of that overhead energy, g·CO2eq (included in
    /// `total_emissions_g`).
    pub overhead_g: f64,
    /// Sample resolution of the axis the run stepped on (hourly unless
    /// the dataset was sub-hourly); `started`/`finished`/waits are slot
    /// indices and counts on this axis.
    pub resolution: Resolution,
}

impl SimReport {
    /// Returns the number of completed jobs.
    pub fn completed_count(&self) -> usize {
        self.completed.len()
    }

    /// Returns the number of completed jobs that missed their deadline.
    pub fn missed_deadlines(&self) -> usize {
        self.completed.iter().filter(|c| c.missed_deadline).count()
    }

    /// Returns the average carbon-intensity of delivered energy
    /// (g·CO2eq/kWh), the comparable figure to trace means.
    pub fn average_ci(&self) -> f64 {
        if self.total_energy_kwh <= 0.0 {
            0.0
        } else {
            self.total_emissions_g / self.total_energy_kwh
        }
    }

    /// Books `kwh` of transition overhead drawn at carbon intensity `ci`
    /// into the overhead and total ledgers; returns its grams.
    pub(crate) fn charge_overhead(&mut self, kwh: f64, ci: f64) -> f64 {
        let g = kwh * ci;
        self.overhead_kwh += kwh;
        self.overhead_g += g;
        self.total_energy_kwh += kwh;
        self.total_emissions_g += g;
        g
    }

    /// Returns emissions of one completed job by id, if present.
    pub fn emissions_of(&self, job_id: u64) -> Option<f64> {
        self.completed
            .iter()
            .find(|c| c.job.id == job_id)
            .map(|c| c.emitted_g)
    }

    /// Mean wait (arrival → first run) over completed jobs, in hours
    /// whatever the run's resolution.
    pub fn mean_wait_hours(&self) -> f64 {
        if self.completed.is_empty() {
            return 0.0;
        }
        let sph = self.resolution.slots_per_hour() as f64;
        self.completed
            .iter()
            .map(|c| c.wait_hours() as f64 / sph)
            .sum::<f64>()
            / self.completed.len() as f64
    }

    /// Mean slowdown over completed jobs (1.0 = no delay, no interruption),
    /// computed on the run's own axis so it is resolution-independent.
    pub fn mean_slowdown(&self) -> f64 {
        if self.completed.is_empty() {
            return 0.0;
        }
        self.completed
            .iter()
            .map(|c| c.slowdown_at(self.resolution))
            .sum::<f64>()
            / self.completed.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decarb_workloads::Slack;

    #[test]
    fn report_aggregates() {
        let mut report = SimReport::default();
        report.completed.push(CompletedJob {
            job: Job::batch(1, RegionId(0), Hour(0), 2.0, Slack::None),
            region: RegionId(0),
            started: Hour(0),
            finished: Hour(1),
            emitted_g: 32.0,
            missed_deadline: false,
        });
        report.completed.push(CompletedJob {
            job: Job::batch(2, RegionId(1), Hour(0), 1.0, Slack::None),
            region: RegionId(1),
            started: Hour(0),
            finished: Hour(0),
            emitted_g: 650.0,
            missed_deadline: true,
        });
        report.total_emissions_g = 682.0;
        report.total_energy_kwh = 3.0;
        assert_eq!(report.completed_count(), 2);
        assert_eq!(report.missed_deadlines(), 1);
        assert!((report.average_ci() - 682.0 / 3.0).abs() < 1e-9);
        assert_eq!(report.emissions_of(1), Some(32.0));
        assert_eq!(report.emissions_of(99), None);
    }

    #[test]
    fn empty_report_is_zeroed() {
        let report = SimReport::default();
        assert_eq!(report.average_ci(), 0.0);
        assert_eq!(report.completed_count(), 0);
        assert_eq!(report.missed_deadlines(), 0);
        assert_eq!(report.mean_wait_hours(), 0.0);
        assert_eq!(report.mean_slowdown(), 0.0);
        assert_eq!(report.suspends, 0);
        assert_eq!(report.overhead_g, 0.0);
    }

    #[test]
    fn wait_and_slowdown_metrics() {
        // A 2-hour job arriving at hour 0, started at hour 3, finished at
        // hour 6 (one interruption in between): wait 3 h, slowdown 3.5.
        let c = CompletedJob {
            job: Job::batch(1, RegionId(0), Hour(0), 2.0, Slack::Day),
            region: RegionId(0),
            started: Hour(3),
            finished: Hour(6),
            emitted_g: 10.0,
            missed_deadline: false,
        };
        assert_eq!(c.wait_hours(), 3);
        assert!((c.slowdown() - 3.5).abs() < 1e-12);
        let mut report = SimReport::default();
        report.completed.push(c);
        assert!((report.mean_wait_hours() - 3.0).abs() < 1e-12);
        assert!((report.mean_slowdown() - 3.5).abs() < 1e-12);
    }
}
