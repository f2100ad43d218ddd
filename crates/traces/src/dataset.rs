//! The `TraceSet` container: every region's trace plus lookup helpers.

use std::sync::{Arc, OnceLock};

use crate::catalog;
use crate::error::TraceError;
use crate::region::{GeoGroup, Region};
use crate::series::{ChunkedPrefix, TimeSeries};
use crate::synth::{SynthConfig, Synthesizer};
use crate::table::{RegionId, RegionTable};
use crate::time::{self, Hour, Resolution};

/// A set of carbon-intensity traces over an interned [`RegionTable`].
///
/// This is the dataset object every experiment consumes. Series are
/// stored in a dense `Vec` indexed by [`RegionId`] — string lookups
/// ([`TraceSet::series`], [`TraceSet::region`]) happen only at the API
/// edge; the simulator's step loop and the planners index by id. The
/// built-in set ([`builtin_dataset`]) interns all 123 catalog regions
/// over 2020–2023; imported datasets and scenario files intern whatever
/// regions they declare.
#[derive(Debug, Clone)]
pub struct TraceSet {
    table: RegionTable,
    series: Vec<TimeSeries>,
    /// Slot length shared by every series in the set. [`Hour`] indices
    /// in this dataset are slot indices on this axis.
    resolution: Resolution,
    /// Lazily built [`ChunkedPrefix`] accelerators, one slot per series.
    /// Building one is O(series length) — noticeable at 105k-sample
    /// sub-hourly scale — so every consumer that window-sums a trace
    /// (the simulator's span accrual above all) shares one build per
    /// dataset instead of paying it per run. `OnceLock` keeps the cache
    /// race-safe under the scenario engine's thread fan-out.
    prefix_cache: Vec<OnceLock<ChunkedPrefix>>,
}

impl TraceSet {
    /// Builds a trace set by synthesizing every region in `regions`.
    ///
    /// # Panics
    ///
    /// Panics on duplicate region codes.
    pub fn synthesize(regions: Vec<Region>, config: SynthConfig) -> Self {
        let synth = Synthesizer::new(config);
        let mut set = Self {
            table: RegionTable::new(),
            series: Vec::with_capacity(regions.len()),
            resolution: Resolution::HOURLY,
            prefix_cache: Vec::new(),
        };
        for region in regions {
            let series = synth.generate(&region);
            // decarb-analyze: allow(no-panic) -- documented panicking constructor (header: # Panics on duplicate codes)
            set.table.intern(region).expect("unique region codes");
            set.series.push(series);
            set.prefix_cache.push(OnceLock::new());
        }
        set
    }

    /// Builds a trace set from explicit `(region, series)` pairs.
    ///
    /// # Panics
    ///
    /// Panics on duplicate region codes (use [`TraceSet::try_from_series`]
    /// to handle them as errors).
    pub fn from_series(pairs: Vec<(Region, TimeSeries)>) -> Self {
        // decarb-analyze: allow(no-panic) -- documented panicking variant; `try_from_series` is the fallible API
        Self::try_from_series(pairs).expect("unique region codes")
    }

    /// Fallible [`TraceSet::from_series`]: errors on duplicate codes.
    pub fn try_from_series(pairs: Vec<(Region, TimeSeries)>) -> Result<Self, TraceError> {
        let mut set = Self {
            table: RegionTable::new(),
            series: Vec::with_capacity(pairs.len()),
            resolution: Resolution::HOURLY,
            prefix_cache: Vec::new(),
        };
        for (region, series) in pairs {
            set.table.intern(region)?;
            set.series.push(series);
            set.prefix_cache.push(OnceLock::new());
        }
        Ok(set)
    }

    /// Interns `regions` that are not yet covered and synthesizes their
    /// traces with `config` — how scenario files add fully custom
    /// regions on top of an existing dataset. Regions whose code is
    /// already covered are left untouched (the dataset's trace wins).
    pub fn extend_synthesized(&mut self, regions: Vec<Region>, config: SynthConfig) {
        let synth = Synthesizer::new(config);
        let factor = self.resolution.slots_per_hour();
        for region in regions {
            if self.table.id(&region.code).is_some() {
                continue;
            }
            // The synthesizer generates hourly samples; on a sub-hourly
            // set each hour expands into its slots so the new trace
            // lives on the same axis as the rest of the dataset.
            let series = expand_series(&synth.generate(&region), factor);
            if self.table.intern(region).is_ok() {
                self.series.push(series);
                self.prefix_cache.push(OnceLock::new());
            }
        }
    }

    /// The dataset's sample resolution (hourly unless the source data
    /// declared otherwise).
    #[inline]
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Stamps the set with a sample resolution — used by ingestion
    /// (containers, CSV, sidecars) after validating that the source
    /// data really is on that axis. The caller owns the invariant that
    /// every series' `start`/`len` are slot counts at `resolution`.
    pub fn with_resolution(mut self, resolution: Resolution) -> Self {
        self.resolution = resolution;
        self
    }

    /// Re-expresses this dataset on a finer axis: every sample is
    /// repeated over the slots its original interval covers, and slot
    /// anchors are rescaled. The carbon signal is unchanged — this is
    /// exactly the "hourly data embeds losslessly in a finer axis"
    /// direction; genuinely finer information can only come from finer
    /// source data.
    pub fn resample_to(&self, resolution: Resolution) -> Result<TraceSet, TraceError> {
        if resolution.minutes() > self.resolution.minutes()
            || !self
                .resolution
                .minutes()
                .is_multiple_of(resolution.minutes())
        {
            return Err(TraceError::Resolution(format!(
                "cannot resample {} data to {} (target must evenly subdivide the source)",
                self.resolution, resolution
            )));
        }
        let factor = (self.resolution.minutes() / resolution.minutes()) as usize;
        Ok(TraceSet {
            table: self.table.clone(),
            series: self
                .series
                .iter()
                .map(|s| expand_series(s, factor))
                .collect(),
            resolution,
            prefix_cache: self.series.iter().map(|_| OnceLock::new()).collect(),
        })
    }

    /// Returns the number of regions.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Returns `true` if the set holds no regions.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The interned region table (id ↔ code ↔ metadata).
    pub fn table(&self) -> &RegionTable {
        &self.table
    }

    /// Returns the regions in intern order, indexable by
    /// [`RegionId::index`].
    pub fn regions(&self) -> &[Region] {
        self.table.regions()
    }

    /// All region ids, in intern order.
    pub fn ids(&self) -> impl Iterator<Item = RegionId> + 'static {
        self.table.ids()
    }

    /// Resolves a zone code to its dense id (the string edge).
    pub fn id_of(&self, code: &str) -> Result<RegionId, TraceError> {
        self.table
            .id(code)
            .ok_or_else(|| TraceError::UnknownRegion(code.to_string()))
    }

    /// The region metadata behind `id` (panics on a foreign id).
    #[inline]
    pub fn region_by_id(&self, id: RegionId) -> &Region {
        self.table.get(id)
    }

    /// The trace behind `id` (panics on a foreign id).
    #[inline]
    pub fn series_by_id(&self, id: RegionId) -> &TimeSeries {
        &self.series[id.index()]
    }

    /// The trace behind `id`, if the id belongs to this set.
    #[inline]
    pub fn try_series_by_id(&self, id: RegionId) -> Option<&TimeSeries> {
        self.series.get(id.index())
    }

    /// The shared [`ChunkedPrefix`] accelerator for `id`'s trace,
    /// built on first use and reused by every subsequent caller
    /// (panics on a foreign id).
    #[inline]
    pub fn chunked_prefix_by_id(&self, id: RegionId) -> &ChunkedPrefix {
        self.prefix_cache[id.index()].get_or_init(|| self.series[id.index()].chunked_prefix())
    }

    /// The zone code behind `id` (panics on a foreign id).
    #[inline]
    pub fn code(&self, id: RegionId) -> &str {
        self.table.code(id)
    }

    /// Returns the region metadata for `code`.
    pub fn region(&self, code: &str) -> Result<&Region, TraceError> {
        Ok(self.table.get(self.id_of(code)?))
    }

    /// Returns the trace for `code`.
    pub fn series(&self, code: &str) -> Result<&TimeSeries, TraceError> {
        Ok(&self.series[self.id_of(code)?.index()])
    }

    /// Iterates over `(region, series)` pairs in intern order.
    pub fn iter(&self) -> impl Iterator<Item = (&Region, &TimeSeries)> + '_ {
        self.table.regions().iter().zip(self.series.iter())
    }

    /// Iterates over `(id, region, series)` triples in intern order.
    pub fn iter_ids(&self) -> impl Iterator<Item = (RegionId, &Region, &TimeSeries)> + '_ {
        self.iter()
            .enumerate()
            .map(|(i, (r, s))| (RegionId(i as u16), r, s))
    }

    /// Returns the regions belonging to `group`.
    pub fn regions_in_group(&self, group: GeoGroup) -> Vec<&Region> {
        self.table
            .regions()
            .iter()
            .filter(|r| r.group == group)
            .collect()
    }

    /// Returns each region's mean CI over the window `[from, from+len)`.
    pub fn window_means(&self, from: Hour, len: usize) -> Result<Vec<(&Region, f64)>, TraceError> {
        self.iter()
            .map(|(region, series)| {
                let w = series.window(from, len)?;
                Ok((region, w.iter().sum::<f64>() / len as f64))
            })
            .collect()
    }

    /// Returns each region's mean CI over calendar `year`.
    pub fn annual_means(&self, year: i32) -> Vec<(&Region, f64)> {
        let start = time::year_start(year);
        let len = time::hours_in_year(year);
        self.iter()
            .map(|(region, series)| {
                let w = series
                    .window(start, len)
                    // decarb-analyze: allow(no-panic) -- every constructor synthesizes/loads full-horizon series per region
                    .expect("dataset horizon covers requested year");
                (region, w.iter().sum::<f64>() / len as f64)
            })
            .collect()
    }

    /// Returns each region's mean CI over its *whole stored range* — the
    /// fallback ranking for imported datasets that do not cover a full
    /// calendar year (see [`TraceSet::annual_means`] for the calendar
    /// version the paper's experiments use).
    pub fn stored_means(&self) -> Vec<(&Region, f64)> {
        self.iter()
            .map(|(region, series)| (region, series.mean()))
            .collect()
    }

    /// Returns the average of all regions' annual means for `year` — the
    /// paper's "global average carbon-intensity".
    pub fn global_mean(&self, year: i32) -> f64 {
        let means = self.annual_means(year);
        means.iter().map(|(_, m)| m).sum::<f64>() / means.len() as f64
    }

    /// Returns the region with the lowest annual mean in `year` (Sweden in
    /// the built-in dataset) together with that mean.
    pub fn greenest_region(&self, year: i32) -> (&Region, f64) {
        self.annual_means(year)
            .into_iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            // decarb-analyze: allow(no-panic) -- like `global_mean`, meaningless on an empty set; builtin sets never are
            .expect("dataset is non-empty")
    }
}

/// Repeats each sample of `series` `factor` times and rescales the
/// anchor, moving the series to an axis `factor`× finer.
fn expand_series(series: &TimeSeries, factor: usize) -> TimeSeries {
    if factor <= 1 {
        return series.clone();
    }
    let mut values = Vec::with_capacity(series.len() * factor);
    for &v in series.values() {
        values.extend(std::iter::repeat_n(v, factor));
    }
    TimeSeries::new(Hour(series.start().0 * factor as u32), values)
}

/// Returns the shared built-in dataset: all 123 regions, 2020–2023,
/// synthesized once per process and shared behind an `Arc`.
pub fn builtin_dataset() -> Arc<TraceSet> {
    static DATASET: OnceLock<Arc<TraceSet>> = OnceLock::new();
    DATASET
        .get_or_init(|| {
            Arc::new(TraceSet::synthesize(
                catalog::builtin_catalog().to_vec(),
                SynthConfig::default(),
            ))
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_covers_all_regions() {
        let data = builtin_dataset();
        assert_eq!(data.len(), 123);
        assert!(!data.is_empty());
        for (region, series) in data.iter() {
            assert_eq!(series.len(), time::horizon_hours(), "{}", region.code);
        }
    }

    #[test]
    fn builtin_is_shared() {
        let a = builtin_dataset();
        let b = builtin_dataset();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn id_lookups_match_string_lookups() {
        let data = builtin_dataset();
        for (id, region, series) in data.iter_ids() {
            assert_eq!(data.id_of(&region.code).unwrap(), id);
            assert_eq!(data.code(id), region.code);
            assert!(std::ptr::eq(data.region_by_id(id), region));
            assert!(std::ptr::eq(data.series_by_id(id), series));
            assert!(std::ptr::eq(
                data.series(&region.code).unwrap(),
                data.series_by_id(id)
            ));
        }
        assert!(data.try_series_by_id(RegionId(9999)).is_none());
        assert!(matches!(
            data.id_of("NOPE"),
            Err(TraceError::UnknownRegion(_))
        ));
    }

    #[test]
    fn global_mean_near_paper_value() {
        let data = builtin_dataset();
        let mean = data.global_mean(2022);
        assert!(
            (mean - 368.39).abs() < 12.0,
            "global 2022 mean {mean:.2} vs paper 368.39"
        );
    }

    #[test]
    fn greenest_region_is_sweden() {
        let data = builtin_dataset();
        let (region, mean) = data.greenest_region(2022);
        assert_eq!(region.code, "SE");
        assert!((mean - 16.0).abs() < 1.0);
    }

    #[test]
    fn lookup_errors_for_unknown_codes() {
        let data = builtin_dataset();
        assert!(matches!(
            data.series("NOPE"),
            Err(TraceError::UnknownRegion(_))
        ));
        assert!(matches!(
            data.region("NOPE"),
            Err(TraceError::UnknownRegion(_))
        ));
    }

    #[test]
    fn window_means_match_annual_means() {
        let data = builtin_dataset();
        let start = time::year_start(2022);
        let len = time::hours_in_year(2022);
        let windows = data.window_means(start, len).unwrap();
        let annual = data.annual_means(2022);
        for (w, a) in windows.iter().zip(annual.iter()) {
            assert_eq!(w.0.code, a.0.code);
            assert!((w.1 - a.1).abs() < 1e-9);
        }
    }

    #[test]
    fn group_queries() {
        let data = builtin_dataset();
        let oceania = data.regions_in_group(GeoGroup::Oceania);
        assert_eq!(oceania.len(), 7);
        assert!(oceania.iter().all(|r| r.group == GeoGroup::Oceania));
    }

    #[test]
    fn duplicate_codes_error_in_try_from_series() {
        let se = catalog::region("SE").unwrap().clone();
        let pairs = vec![
            (se.clone(), TimeSeries::new(Hour(0), vec![1.0])),
            (se, TimeSeries::new(Hour(0), vec![2.0])),
        ];
        assert!(matches!(
            TraceSet::try_from_series(pairs),
            Err(TraceError::DuplicateRegion(code)) if code == "SE"
        ));
    }

    #[test]
    fn default_resolution_is_hourly() {
        let data = builtin_dataset();
        assert!(data.resolution().is_hourly());
        assert_eq!(data.resolution(), Resolution::HOURLY);
    }

    #[test]
    fn resample_expands_each_sample_into_its_slots() {
        let se = catalog::region("SE").unwrap().clone();
        let hourly =
            TraceSet::from_series(vec![(se, TimeSeries::new(Hour(2), vec![10.0, 20.0, 30.0]))]);
        let five = Resolution::from_minutes(5).unwrap();
        let fine = hourly.resample_to(five).unwrap();
        assert_eq!(fine.resolution(), five);
        let series = fine.series("SE").unwrap();
        assert_eq!(series.start(), Hour(24), "anchor rescaled to slots");
        assert_eq!(series.len(), 36);
        assert!(series.values()[..12].iter().all(|&v| v == 10.0));
        assert!(series.values()[12..24].iter().all(|&v| v == 20.0));
        assert!(series.values()[24..].iter().all(|&v| v == 30.0));
        // Signal (time-weighted mean) is unchanged.
        assert!((series.mean() - hourly.series("SE").unwrap().mean()).abs() < 1e-12);
        // Coarsening is rejected.
        assert!(matches!(
            fine.resample_to(Resolution::HOURLY),
            Err(TraceError::Resolution(_))
        ));
        // 15-minute → 5-minute works (factor 3).
        let quarter = hourly
            .resample_to(Resolution::from_minutes(15).unwrap())
            .unwrap();
        let finer = quarter.resample_to(five).unwrap();
        assert_eq!(finer.series("SE").unwrap().len(), 36);
    }

    #[test]
    fn extend_synthesized_matches_set_resolution() {
        let se = catalog::region("SE").unwrap().clone();
        let five = Resolution::from_minutes(5).unwrap();
        let mut set = TraceSet::from_series(vec![(se, TimeSeries::new(Hour(0), vec![16.0; 24]))])
            .resample_to(five)
            .unwrap();
        set.extend_synthesized(vec![Region::user("XX-NEW")], SynthConfig::default());
        let new = set.series("XX-NEW").unwrap();
        assert_eq!(new.len(), time::horizon_hours() * 12, "expanded to slots");
        // Each synthesized hour occupies 12 equal slots.
        let v = new.values();
        assert!(v[..12].iter().all(|&x| x == v[0]));
    }

    #[test]
    fn extend_synthesized_interns_only_new_regions() {
        let se = catalog::region("SE").unwrap().clone();
        let mut set = TraceSet::from_series(vec![(se, TimeSeries::new(Hour(0), vec![16.0]))]);
        let custom = Region::user("XX-NEW");
        set.extend_synthesized(
            vec![custom, catalog::region("SE").unwrap().clone()],
            SynthConfig::default(),
        );
        assert_eq!(set.len(), 2, "SE kept its imported trace");
        assert_eq!(set.series("SE").unwrap().len(), 1);
        let new = set.series("XX-NEW").unwrap();
        assert_eq!(new.len(), time::horizon_hours(), "synthesized full span");
        assert!(new.mean() > 0.0);
    }
}
