//! Persisted index metadata (§5.5).
//!
//! *"After each index evolve operation, the maximum groomed blocked ID for
//! the post-groomed run list and IndexedPSN are also persisted."*
//!
//! Shared storage offers no atomic rename, so manifests are written as new
//! immutable objects with a monotonically increasing sequence number in the
//! name; recovery picks the highest-sequence manifest whose checksum
//! verifies, and older manifests are garbage collected. Runs themselves are
//! self-describing — the manifest only carries state that cannot be derived
//! from run headers.
//!
//! One watermark is stored per zone *boundary* (the paper's two-zone layout
//! has a single groomed→post-groomed watermark; §3's arbitrary-zone
//! extension needs one per adjacent pair).

use bytes::Bytes;
use umzi_encoding::hash64;
use umzi_storage::TieredStorage;

use crate::error::UmziError;
use crate::Result;

const MAGIC: &[u8; 8] = b"UMZIMAN1";
const VERSION: u16 = 1;

/// Durable index state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonic manifest sequence number.
    pub seq: u64,
    /// Last post-groom sequence number whose evolve completed.
    pub indexed_psn: u64,
    /// Next run ID to allocate.
    pub next_run_id: u64,
    /// Cache-manager state: the current cached level (§6.2).
    pub current_cached_level: u32,
    /// Per-zone-boundary watermarks: `watermarks[i]` is the maximum groomed
    /// block ID already covered by zones `> i`; runs of zone `i` whose end
    /// ID is ≤ it are ignored by queries (§5.4).
    pub watermarks: Vec<u64>,
}

impl Manifest {
    fn serialize(&self) -> Bytes {
        let mut buf = Vec::with_capacity(64 + self.watermarks.len() * 8);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&self.seq.to_le_bytes());
        buf.extend_from_slice(&self.indexed_psn.to_le_bytes());
        buf.extend_from_slice(&self.next_run_id.to_le_bytes());
        buf.extend_from_slice(&self.current_cached_level.to_le_bytes());
        buf.extend_from_slice(&(self.watermarks.len() as u16).to_le_bytes());
        for w in &self.watermarks {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        let checksum = hash64(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        Bytes::from(buf)
    }

    fn deserialize(buf: &[u8]) -> Result<Manifest> {
        let min_len = 8 + 2 + 8 * 3 + 4 + 2 + 8;
        if buf.len() < min_len {
            return Err(UmziError::ManifestCorrupt(format!(
                "too short: {} bytes",
                buf.len()
            )));
        }
        if &buf[..8] != MAGIC {
            return Err(UmziError::ManifestCorrupt("bad magic".into()));
        }
        let body = &buf[..buf.len() - 8];
        let stored = u64::from_le_bytes(buf[buf.len() - 8..].try_into().expect("8 bytes"));
        if hash64(body) != stored {
            return Err(UmziError::ManifestCorrupt("checksum mismatch".into()));
        }
        let version = u16::from_le_bytes(buf[8..10].try_into().expect("2 bytes"));
        if version != VERSION {
            return Err(UmziError::ManifestCorrupt(format!(
                "unsupported version {version}"
            )));
        }
        let u64_at = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().expect("8 bytes"));
        let seq = u64_at(10);
        let indexed_psn = u64_at(18);
        let next_run_id = u64_at(26);
        let current_cached_level = u32::from_le_bytes(buf[34..38].try_into().expect("4 bytes"));
        let n = u16::from_le_bytes(buf[38..40].try_into().expect("2 bytes")) as usize;
        if buf.len() != min_len + n * 8 - 8 + 8 {
            return Err(UmziError::ManifestCorrupt(
                "length/watermark-count mismatch".into(),
            ));
        }
        let mut watermarks = Vec::with_capacity(n);
        for i in 0..n {
            watermarks.push(u64_at(40 + i * 8));
        }
        Ok(Manifest {
            seq,
            indexed_psn,
            next_run_id,
            current_cached_level,
            watermarks,
        })
    }

    /// Persist this manifest as the object `name`. The put runs under the
    /// storage retry policy: a transient shared-storage hiccup must not fail
    /// an otherwise-complete groom or evolve.
    pub fn persist(&self, storage: &TieredStorage, name: &str) -> Result<()> {
        let data = self.serialize();
        let tel = storage.telemetry();
        let t0 = tel.start();
        let out = storage.with_retry_as(umzi_storage::OpClass::Manifest, || {
            storage.shared().put(name, data.clone())
        });
        tel.record_since(&tel.ops().manifest_io, t0);
        Ok(out?)
    }

    /// Load the newest valid manifest under `prefix`. Invalid (truncated or
    /// checksum-failing) manifests are **deleted**, not just skipped: shared
    /// storage is create-once, so a torn manifest left under its name would
    /// permanently block the recovered index from reusing that sequence
    /// number.
    pub fn load_latest(storage: &TieredStorage, prefix: &str) -> Result<Option<Manifest>> {
        let tel = storage.telemetry();
        let t0 = tel.start();
        let out = Self::load_latest_inner(storage, prefix);
        tel.record_since(&tel.ops().manifest_io, t0);
        out
    }

    fn load_latest_inner(storage: &TieredStorage, prefix: &str) -> Result<Option<Manifest>> {
        let mut names = storage.with_retry_as(umzi_storage::OpClass::Manifest, || {
            storage.shared().list(prefix)
        })?;
        names.sort();
        for name in names.iter().rev() {
            let data = storage.with_retry_as(umzi_storage::OpClass::Manifest, || {
                storage.shared().get(name)
            })?;
            if let Ok(m) = Manifest::deserialize(&data) {
                return Ok(Some(m));
            }
            // Torn manifest: free the create-once name.
            storage.delete_or_park(name);
        }
        Ok(None)
    }

    /// Delete all manifests under `prefix` except the `keep` newest.
    pub fn gc(storage: &TieredStorage, prefix: &str, keep: usize) -> Result<usize> {
        let mut names = storage.with_retry_as(umzi_storage::OpClass::Manifest, || {
            storage.shared().list(prefix)
        })?;
        names.sort();
        let n = names.len().saturating_sub(keep);
        for name in &names[..n] {
            storage.delete_or_park(name);
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64) -> Manifest {
        Manifest {
            seq,
            indexed_psn: 3,
            next_run_id: 42,
            current_cached_level: 7,
            watermarks: vec![18],
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample(5);
        assert_eq!(Manifest::deserialize(&m.serialize()).unwrap(), m);
        // Multiple watermarks (three-zone config).
        let m3 = Manifest {
            watermarks: vec![18, 7, 0],
            ..sample(6)
        };
        assert_eq!(Manifest::deserialize(&m3.serialize()).unwrap(), m3);
        // No watermarks (single-zone config).
        let m0 = Manifest {
            watermarks: vec![],
            ..sample(7)
        };
        assert_eq!(Manifest::deserialize(&m0.serialize()).unwrap(), m0);
    }

    #[test]
    fn persist_and_load_latest() {
        let storage = TieredStorage::in_memory();
        for seq in 1..=3 {
            sample(seq)
                .persist(&storage, &format!("idx/manifest/manifest-{seq:020}"))
                .unwrap();
        }
        let latest = Manifest::load_latest(&storage, "idx/manifest/")
            .unwrap()
            .unwrap();
        assert_eq!(latest.seq, 3);
    }

    #[test]
    fn corrupt_latest_falls_back_and_is_deleted() {
        let storage = TieredStorage::in_memory();
        sample(1).persist(&storage, "m/manifest-01").unwrap();
        storage
            .shared()
            .put("m/manifest-02", Bytes::from_static(b"garbage"))
            .unwrap();
        let latest = Manifest::load_latest(&storage, "m/").unwrap().unwrap();
        assert_eq!(latest.seq, 1, "corrupt newest manifest must be skipped");
        assert!(
            !storage.shared().exists("m/manifest-02"),
            "torn manifest must be deleted so its name can be reused"
        );
    }

    #[test]
    fn empty_prefix_gives_none() {
        let storage = TieredStorage::in_memory();
        assert!(Manifest::load_latest(&storage, "nothing/")
            .unwrap()
            .is_none());
    }

    #[test]
    fn gc_keeps_newest() {
        let storage = TieredStorage::in_memory();
        for seq in 1..=5 {
            sample(seq)
                .persist(&storage, &format!("m/manifest-{seq:020}"))
                .unwrap();
        }
        let deleted = Manifest::gc(&storage, "m/", 2).unwrap();
        assert_eq!(deleted, 3);
        assert_eq!(storage.shared().list("m/").unwrap().len(), 2);
    }

    #[test]
    fn tampering_detected() {
        let mut buf = sample(9).serialize().to_vec();
        buf[20] ^= 1;
        assert!(Manifest::deserialize(&buf).is_err());
    }
}
