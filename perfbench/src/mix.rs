//! The seeded placement-request mix: Table 1-style job shapes from
//! every catalog zone, arriving inside the evaluation year.

use decarb_sim::PlaceRequest;
use decarb_traces::time::{hours_in_year, year_start, Hour};
use decarb_traces::{builtin_catalog, TraceSet};

/// Distinct requests in one mix; the generator cycles through them.
pub const MIX_SIZE: usize = 4096;

/// Year the requests arrive in.
pub const MIX_YEAR: i32 = 2022;

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and an independent `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One job of the mix, in the API's wire units.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Origin zone code.
    pub origin: &'static str,
    /// Arrival, as a slot index on the dataset's axis.
    pub arrival: u32,
    /// Job length, hours.
    pub duration_hours: usize,
    /// Deferral budget, hours.
    pub slack_hours: usize,
    /// Round-trip budget for remote placement, ms.
    pub slo_ms: f64,
}

impl Job {
    /// The `POST /v1/place` body.
    pub fn body(&self) -> String {
        format!(
            "{{\"origin\":\"{}\",\"arrival_hour\":{},\"duration_hours\":{},\"slack_hours\":{},\"slo_ms\":{}}}",
            self.origin, self.arrival, self.duration_hours, self.slack_hours, self.slo_ms
        )
    }

    /// The full keep-alive HTTP/1.1 request.
    pub fn http(&self) -> Vec<u8> {
        let body = self.body();
        format!(
            "POST /v1/place HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    /// The same query as the in-process planner sees it.
    pub fn request(&self, data: &TraceSet) -> Option<PlaceRequest> {
        Some(PlaceRequest {
            origin: data.id_of(self.origin).ok()?,
            arrival: Hour(self.arrival),
            duration_hours: self.duration_hours,
            slack_hours: self.slack_hours,
            slo_ms: self.slo_ms,
        })
    }
}

/// The mix for `seed` on an axis with `slots_per_hour` samples per hour:
/// origins spread over every catalog zone, durations log-uniform over
/// 1–168 h (short jobs dominate, as in Table 1), slack uniform over
/// 0–168 h, SLO uniform over 0–1000 ms, arrivals uniform over the year.
pub fn generate(seed: u64, slots_per_hour: usize) -> Vec<Job> {
    let zones = builtin_catalog();
    let mut rng = Rng::new(seed, 0x004D_4958);
    let first = year_start(MIX_YEAR).0 as u64 * slots_per_hour as u64;
    let slots = (hours_in_year(MIX_YEAR) * slots_per_hour) as u64;
    (0..MIX_SIZE)
        .map(|i| Job {
            // Cycling the catalog puts every zone in the mix equally often.
            origin: zones[i % zones.len()].code.as_str(),
            arrival: (first + rng.below(slots)) as u32,
            duration_hours: (168f64.powf(rng.unit()).round() as usize).clamp(1, 168),
            slack_hours: rng.below(169) as usize,
            slo_ms: rng.below(1001) as f64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seeded_and_in_range() {
        let a = generate(7, 1);
        assert_eq!(a, generate(7, 1));
        assert_ne!(a, generate(8, 1));
        let start = year_start(MIX_YEAR).0;
        for job in &a {
            assert!((1..=168).contains(&job.duration_hours));
            assert!(job.slack_hours <= 168);
            assert!((0.0..=1000.0).contains(&job.slo_ms));
            assert!(job.arrival >= start && job.arrival < start + 8760);
        }
        let fine = generate(7, 12);
        assert!(fine.iter().all(|j| j.arrival >= start * 12));
    }
}
