//! Umzi index configuration.
//!
//! The level/zone assignment is configurable, exactly as §4.3 describes:
//! *"The assignment of levels to zones are configurable in Umzi. For example
//! in Figure 3, levels 0 to 5 are configured as the groomed zone, while
//! levels 6 to 9 are configured as the post-groomed zone."*

use umzi_run::ZoneId;

use crate::error::UmziError;
use crate::Result;

/// The hybrid merge policy of §5.3 (similar to Dostoevsky's lazy leveling):
/// `K` bounds the number of inactive runs per level, `T` is the size ratio
/// at which a level's active run is sealed. `K = 1` degenerates to leveling,
/// large `K` approaches tiering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergePolicy {
    /// Maximum number of inactive (sealed) runs a level may hold before
    /// they are merged into the next level's active run.
    pub k: usize,
    /// Size ratio between adjacent levels: the active run of level `L` is
    /// sealed once it is `T×` the size of an inactive run from level `L−1`.
    pub t: u64,
}

impl Default for MergePolicy {
    fn default() -> Self {
        Self { k: 4, t: 4 }
    }
}

/// A zone and its contiguous range of merge levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneConfig {
    /// Zone identity.
    pub zone: ZoneId,
    /// Lowest level of the zone.
    pub min_level: u32,
    /// Highest level of the zone (runs here are only removed by evolve/GC,
    /// never merged further).
    pub max_level: u32,
}

/// Cache-manager thresholds (§6.2).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// SSD-utilization fraction above which the manager purges runs,
    /// starting from the highest (oldest) levels.
    pub ssd_high_watermark: f64,
    /// SSD-utilization fraction below which the manager loads runs back,
    /// starting from the lowest purged level.
    pub ssd_low_watermark: f64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            ssd_high_watermark: 0.90,
            ssd_low_watermark: 0.70,
        }
    }
}

/// Background-maintenance daemon tuning: worker pool, ingest backpressure
/// watermarks, throttling and the janitor cadence. Retry, quarantine and
/// stall timings are constants ([`crate::JOB_RETRIES`],
/// [`crate::JOB_RETRY_BACKOFF`], [`crate::QUARANTINE_PROBE_INTERVAL`],
/// [`crate::STALL_TIMEOUT`]).
#[derive(Debug, Clone)]
pub struct MaintenanceConfig {
    /// Worker threads draining the maintenance job queue.
    pub workers: usize,
    /// Ingest stalls when the level-0 run count reaches this many runs.
    pub l0_high_watermark: usize,
    /// Stalled ingest resumes once the level-0 run count is back at or
    /// below this. Keep it ≥ `merge.k − 1`: merges fire only at `K` sealed
    /// runs, so a lower setting is unreachable and writers would stall
    /// until evolve GC empties the zone.
    pub l0_low_watermark: usize,
    /// Minimum pause a worker inserts after each job that did work — bounds
    /// the background IO/CPU share. `None` runs flat out.
    pub throttle: Option<std::time::Duration>,
    /// Cadence of the janitor tick (graveyard GC, deferred deprecated-block
    /// retirement, adaptive cache maintenance).
    pub janitor_interval: std::time::Duration,
    /// Whether the janitor runs adaptive SSD cache maintenance (§6.2).
    pub adaptive_cache: bool,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            l0_high_watermark: 12,
            l0_low_watermark: 6,
            throttle: None,
            janitor_interval: std::time::Duration::from_millis(100),
            adaptive_cache: true,
        }
    }
}

impl MaintenanceConfig {
    /// Validate structural invariants.
    pub fn validate(&self) -> Result<()> {
        if self.workers == 0 {
            return Err(UmziError::Config(
                "maintenance requires at least one worker".into(),
            ));
        }
        if self.l0_low_watermark > self.l0_high_watermark {
            return Err(UmziError::Config(format!(
                "maintenance watermarks must satisfy low ≤ high, got {} > {}",
                self.l0_low_watermark, self.l0_high_watermark
            )));
        }
        if self.l0_high_watermark == 0 {
            return Err(UmziError::Config(
                "l0_high_watermark must be ≥ 1 (0 would stall every write)".into(),
            ));
        }
        Ok(())
    }
}

/// Full configuration of one Umzi index instance (one per table shard).
#[derive(Debug, Clone)]
pub struct UmziConfig {
    /// Index instance name; prefixes all storage object names.
    pub name: String,
    /// Offset-array width in bits (Figure 2b); 0 disables it. Ignored for
    /// indexes without equality columns.
    pub offset_bits: u8,
    /// Merge policy parameters.
    pub merge: MergePolicy,
    /// Zones with their level ranges, in data-age order (first zone receives
    /// freshly built runs at its `min_level`).
    pub zones: Vec<ZoneConfig>,
    /// Levels whose runs are NOT written to shared storage (§6.1). Level 0
    /// must be persisted so recovery never rebuilds runs from data blocks.
    pub non_persisted_levels: Vec<u32>,
    /// Cache-manager thresholds.
    pub cache: CacheConfig,
}

impl UmziConfig {
    /// The paper's two-zone layout: groomed = levels 0–5, post-groomed =
    /// levels 6–9 (Figure 3).
    pub fn two_zone(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            offset_bits: 10,
            merge: MergePolicy::default(),
            zones: vec![
                ZoneConfig {
                    zone: ZoneId::GROOMED,
                    min_level: 0,
                    max_level: 5,
                },
                ZoneConfig {
                    zone: ZoneId::POST_GROOMED,
                    min_level: 6,
                    max_level: 9,
                },
            ],
            non_persisted_levels: Vec::new(),
            cache: CacheConfig::default(),
        }
    }

    /// Validate structural invariants.
    pub fn validate(&self) -> Result<()> {
        if self.zones.is_empty() {
            return Err(UmziError::Config("at least one zone is required".into()));
        }
        if self.zones[0].min_level != 0 {
            return Err(UmziError::Config(
                "the first zone must start at level 0".into(),
            ));
        }
        let mut expected_next = 0;
        for z in &self.zones {
            if z.min_level != expected_next {
                return Err(UmziError::Config(format!(
                    "zone {} levels must be contiguous: expected min_level {expected_next}, got {}",
                    z.zone, z.min_level
                )));
            }
            if z.max_level < z.min_level {
                return Err(UmziError::Config(format!(
                    "zone {} has max_level {} < min_level {}",
                    z.zone, z.max_level, z.min_level
                )));
            }
            expected_next = z.max_level + 1;
        }
        let mut seen = std::collections::HashSet::new();
        for z in &self.zones {
            if !seen.insert(z.zone) {
                return Err(UmziError::Config(format!("duplicate zone {}", z.zone)));
            }
        }
        if self.non_persisted_levels.contains(&0) {
            // §6.1: "Umzi requires level 0 must be persisted to ensure that
            // we do not need to rebuild any index runs from groomed data
            // blocks during recovery."
            return Err(UmziError::Config("level 0 must be persisted (§6.1)".into()));
        }
        let max_level = self.zones.last().expect("non-empty").max_level;
        for &l in &self.non_persisted_levels {
            if l > max_level {
                return Err(UmziError::Config(format!(
                    "non-persisted level {l} exceeds max level {max_level}"
                )));
            }
        }
        if self.merge.k == 0 || self.merge.t == 0 {
            return Err(UmziError::Config(
                "merge policy requires K ≥ 1 and T ≥ 1".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.cache.ssd_low_watermark)
            || !(0.0..=1.0).contains(&self.cache.ssd_high_watermark)
            || self.cache.ssd_low_watermark > self.cache.ssd_high_watermark
        {
            return Err(UmziError::Config(
                "cache watermarks must satisfy 0 ≤ low ≤ high ≤ 1".into(),
            ));
        }
        if self.offset_bits > 24 {
            return Err(UmziError::Config("offset_bits must be ≤ 24".into()));
        }
        Ok(())
    }

    /// The zone index owning `level`, if any.
    pub fn zone_of_level(&self, level: u32) -> Option<usize> {
        self.zones
            .iter()
            .position(|z| (z.min_level..=z.max_level).contains(&level))
    }

    /// Whether runs at `level` are persisted to shared storage.
    pub fn is_persisted_level(&self, level: u32) -> bool {
        !self.non_persisted_levels.contains(&level)
    }

    /// The highest configured level.
    pub fn max_level(&self) -> u32 {
        self.zones.last().map(|z| z.max_level).unwrap_or(0)
    }

    /// Storage-object name for a run.
    pub fn run_object_name(&self, run_id: u64) -> String {
        format!("{}/runs/run-{run_id:020}", self.name)
    }

    /// Storage-object prefix for this index's runs.
    pub fn run_prefix(&self) -> String {
        format!("{}/runs/", self.name)
    }

    /// Storage-object name for a manifest.
    pub fn manifest_object_name(&self, seq: u64) -> String {
        format!("{}/manifest/manifest-{seq:020}", self.name)
    }

    /// Storage-object prefix for this index's manifests.
    pub fn manifest_prefix(&self) -> String {
        format!("{}/manifest/", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_two_zone_is_valid() {
        let c = UmziConfig::two_zone("t");
        c.validate().unwrap();
        assert_eq!(c.zone_of_level(0), Some(0));
        assert_eq!(c.zone_of_level(5), Some(0));
        assert_eq!(c.zone_of_level(6), Some(1));
        assert_eq!(c.zone_of_level(9), Some(1));
        assert_eq!(c.zone_of_level(10), None);
        assert_eq!(c.max_level(), 9);
    }

    #[test]
    fn rejects_non_persisted_level_zero() {
        let mut c = UmziConfig::two_zone("t");
        c.non_persisted_levels = vec![0];
        assert!(c.validate().is_err());
        c.non_persisted_levels = vec![1, 2];
        c.validate().unwrap();
        assert!(!c.is_persisted_level(1));
        assert!(c.is_persisted_level(0));
        assert!(c.is_persisted_level(3));
    }

    #[test]
    fn rejects_gapped_zones() {
        let mut c = UmziConfig::two_zone("t");
        c.zones[1].min_level = 7; // gap at 6
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_zero_merge_params() {
        let mut c = UmziConfig::two_zone("t");
        c.merge.k = 0;
        assert!(c.validate().is_err());
        c.merge = MergePolicy { k: 1, t: 0 };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_bad_watermarks() {
        let mut c = UmziConfig::two_zone("t");
        c.cache.ssd_low_watermark = 0.95;
        c.cache.ssd_high_watermark = 0.90;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_bad_maintenance_config() {
        let mut c = MaintenanceConfig {
            workers: 0,
            ..MaintenanceConfig::default()
        };
        assert!(c.validate().is_err());
        c = MaintenanceConfig {
            l0_high_watermark: 2,
            l0_low_watermark: 4,
            ..MaintenanceConfig::default()
        };
        assert!(c.validate().is_err());
        c = MaintenanceConfig {
            l0_high_watermark: 0,
            l0_low_watermark: 0,
            ..MaintenanceConfig::default()
        };
        assert!(c.validate().is_err());
        c = MaintenanceConfig::default();
        c.validate().unwrap();
    }

    #[test]
    fn object_names_are_prefix_scoped() {
        let c = UmziConfig::two_zone("shard-7");
        assert!(c.run_object_name(3).starts_with(&c.run_prefix()));
        assert!(c.manifest_object_name(1).starts_with(&c.manifest_prefix()));
        // Zero-padded so lexicographic order == numeric order.
        assert!(c.run_object_name(9) < c.run_object_name(10));
    }
}
