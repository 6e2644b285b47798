//! Per-run synopses for query-time run pruning.
//!
//! §4.2: *"The synopsis contains the range (min/max values) of each key
//! column stored in this run. A run can be skipped by an index query if the
//! input value of some key column does not overlap with the range specified
//! by the synopsis."*
//!
//! Ranges are kept over the *order-preserving encodings* of each key column,
//! so overlap checks are byte comparisons. A `beginTS` range is also kept:
//! a run whose minimum `beginTS` exceeds the query timestamp contains only
//! invisible versions and is skipped (multi-version pruning).

use umzi_encoding::{encode_datum, Datum};

use crate::key::SortBound;

/// Min/max of one key column, over encoded bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRange {
    /// Smallest encoded value present.
    pub min: Vec<u8>,
    /// Largest encoded value present.
    pub max: Vec<u8>,
}

/// A run synopsis: one [`ColumnRange`] per key column (equality columns
/// first, then sort columns), plus the `beginTS` range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Synopsis {
    columns: Vec<ColumnRange>,
    min_begin_ts: u64,
    max_begin_ts: u64,
    entry_count: u64,
}

impl Synopsis {
    /// An empty synopsis for an index with `n_key_columns` key columns.
    pub fn empty(n_key_columns: usize) -> Self {
        Self {
            columns: vec![
                ColumnRange {
                    min: Vec::new(),
                    max: Vec::new()
                };
                n_key_columns
            ],
            min_begin_ts: u64::MAX,
            max_begin_ts: 0,
            entry_count: 0,
        }
    }

    /// Reassemble from persisted parts.
    pub fn from_parts(
        columns: Vec<ColumnRange>,
        min_begin_ts: u64,
        max_begin_ts: u64,
        entry_count: u64,
    ) -> Self {
        Self {
            columns,
            min_begin_ts,
            max_begin_ts,
            entry_count,
        }
    }

    /// Fold one entry's per-column encoded values and timestamp into the
    /// synopsis. `column_values[i]` is the encoded bytes of key column `i`.
    pub fn observe(&mut self, column_values: &[&[u8]], begin_ts: u64) {
        debug_assert_eq!(column_values.len(), self.columns.len());
        for (range, &val) in self.columns.iter_mut().zip(column_values) {
            if self.entry_count == 0 || val < range.min.as_slice() {
                range.min = val.to_vec();
            }
            if self.entry_count == 0 || val > range.max.as_slice() {
                range.max = val.to_vec();
            }
        }
        self.min_begin_ts = self.min_begin_ts.min(begin_ts);
        self.max_begin_ts = self.max_begin_ts.max(begin_ts);
        self.entry_count += 1;
    }

    /// Number of observed entries.
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Smallest `beginTS` present.
    pub fn min_begin_ts(&self) -> u64 {
        self.min_begin_ts
    }

    /// Largest `beginTS` present.
    pub fn max_begin_ts(&self) -> u64 {
        self.max_begin_ts
    }

    /// Per-column ranges (encoded bytes).
    pub fn columns(&self) -> &[ColumnRange] {
        &self.columns
    }

    /// Whether a query with the given equality values, sort bounds (applied
    /// to the sort columns starting at `columns[n_eq]`) and timestamp might
    /// match this run. `false` means the run can safely be skipped.
    ///
    /// Checks are *sound, not complete*: each check may only reject runs
    /// that provably contain no match.
    pub fn may_match(
        &self,
        eq_encoded: &[Vec<u8>],
        lower: &SortBound,
        upper: &SortBound,
        query_ts: u64,
    ) -> bool {
        self.may_match_encoded(
            eq_encoded,
            first_bound_encoded(lower).as_deref(),
            first_bound_encoded(upper).as_deref(),
            query_ts,
        )
    }

    /// [`Self::may_match`] with each sort bound given as the encoding of its
    /// first datum (`None` when unbounded), so a caller that checks many
    /// runs encodes its bounds once: a point lookup passes its first sort
    /// value's encoding as both.
    pub fn may_match_encoded(
        &self,
        eq_encoded: &[Vec<u8>],
        lower0: Option<&[u8]>,
        upper0: Option<&[u8]>,
        query_ts: u64,
    ) -> bool {
        if self.entry_count == 0 {
            return false;
        }
        // All versions in this run were created after the snapshot.
        if self.min_begin_ts > query_ts {
            return false;
        }
        // Equality columns: the value must fall inside each column's range.
        for (i, val) in eq_encoded.iter().enumerate() {
            let range = &self.columns[i];
            if val.as_slice() < range.min.as_slice() || val.as_slice() > range.max.as_slice() {
                return false;
            }
        }
        // First sort column: the query's [lo, hi] interval must overlap the
        // run's [min, max]. Only position 0 is independently checkable for
        // tuple-ordered bounds.
        let n_eq = eq_encoded.len();
        if let Some(range) = self.columns.get(n_eq) {
            if let Some(lo0) = lower0 {
                // Excluded vs Included both reduce to: if the bound's first
                // datum already exceeds the run max, nothing can match.
                if lo0 > range.max.as_slice() {
                    return false;
                }
            }
            if let Some(hi0) = upper0 {
                if hi0 < range.min.as_slice() {
                    return false;
                }
            }
        }
        true
    }
}

impl Synopsis {
    /// Whether any key inside the per-column bounding box
    /// `[col_mins[i], col_maxs[i]]` might be present (batched lookups, §7.2:
    /// the synopsis is checked once per query batch, not per key). Sound:
    /// only rejects runs that provably contain no key of the box.
    pub fn may_match_box(&self, col_mins: &[Vec<u8>], col_maxs: &[Vec<u8>], query_ts: u64) -> bool {
        if self.entry_count == 0 || self.min_begin_ts > query_ts {
            return false;
        }
        for (i, range) in self.columns.iter().enumerate() {
            let (Some(lo), Some(hi)) = (col_mins.get(i), col_maxs.get(i)) else {
                break;
            };
            if hi.as_slice() < range.min.as_slice() || lo.as_slice() > range.max.as_slice() {
                return false;
            }
        }
        true
    }
}

/// Encode the first datum of a sort bound, if present.
fn first_bound_encoded(bound: &SortBound) -> Option<Vec<u8>> {
    let vals = bound.values()?;
    let first = vals.first()?;
    let mut out = Vec::with_capacity(9);
    encode_datum(first, &mut out);
    Some(out)
}

/// Encode equality values into the per-column byte form used by
/// [`Synopsis::may_match`].
pub fn encode_eq_values(values: &[Datum]) -> Vec<Vec<u8>> {
    values
        .iter()
        .map(|v| {
            let mut out = Vec::with_capacity(9);
            encode_datum(v, &mut out);
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(v: i64) -> Vec<u8> {
        let mut out = Vec::new();
        encode_datum(&Datum::Int64(v), &mut out);
        out
    }

    /// Build a synopsis over (device, msg) pairs with timestamps.
    fn build(entries: &[(i64, i64, u64)]) -> Synopsis {
        let mut s = Synopsis::empty(2);
        for &(d, m, ts) in entries {
            let dv = enc(d);
            let mv = enc(m);
            s.observe(&[&dv, &mv], ts);
        }
        s
    }

    #[test]
    fn tracks_min_max() {
        let s = build(&[(4, 10, 100), (8, 2, 97), (1, 5, 103)]);
        assert_eq!(s.entry_count(), 3);
        assert_eq!(s.min_begin_ts(), 97);
        assert_eq!(s.max_begin_ts(), 103);
        assert_eq!(s.columns()[0].min, enc(1));
        assert_eq!(s.columns()[0].max, enc(8));
        assert_eq!(s.columns()[1].min, enc(2));
        assert_eq!(s.columns()[1].max, enc(10));
    }

    #[test]
    fn equality_pruning() {
        let s = build(&[(4, 1, 10), (8, 1, 10)]);
        let hit =
            |d: i64| s.may_match(&[enc(d)], &SortBound::Unbounded, &SortBound::Unbounded, 100);
        assert!(hit(4));
        assert!(hit(6), "inside [4,8] — synopsis cannot disprove");
        assert!(!hit(3));
        assert!(!hit(9));
    }

    #[test]
    fn timestamp_pruning() {
        let s = build(&[(4, 1, 100), (4, 2, 200)]);
        let q = |ts: u64| s.may_match(&[enc(4)], &SortBound::Unbounded, &SortBound::Unbounded, ts);
        assert!(!q(99), "all versions newer than snapshot");
        assert!(q(100));
        assert!(q(500));
    }

    /// A point check with the sort value encoded once answers exactly as
    /// `may_match` with that value as both inclusive bounds.
    #[test]
    fn encoded_point_check_equals_may_match() {
        let s = build(&[(4, 10, 50), (6, 20, 60)]);
        for d in 3..8 {
            for m in 8..23 {
                for ts in [40, 50, 100] {
                    let bound = SortBound::Included(vec![Datum::Int64(m)]);
                    let m0 = enc(m);
                    assert_eq!(
                        s.may_match_encoded(&[enc(d)], Some(&m0), Some(&m0), ts),
                        s.may_match(&[enc(d)], &bound, &bound, ts),
                        "({d}, {m}) at {ts}"
                    );
                }
            }
        }
    }

    #[test]
    fn sort_range_pruning() {
        let s = build(&[(4, 10, 1), (4, 20, 1)]);
        let q = |lo: SortBound, hi: SortBound| s.may_match(&[enc(4)], &lo, &hi, 100);
        assert!(!q(
            SortBound::Included(vec![Datum::Int64(21)]),
            SortBound::Included(vec![Datum::Int64(30)])
        ));
        assert!(!q(
            SortBound::Included(vec![Datum::Int64(0)]),
            SortBound::Included(vec![Datum::Int64(9)])
        ));
        assert!(q(
            SortBound::Included(vec![Datum::Int64(15)]),
            SortBound::Included(vec![Datum::Int64(16)])
        ));
        assert!(q(SortBound::Unbounded, SortBound::Unbounded));
        // Touching the boundary still matches.
        assert!(q(
            SortBound::Included(vec![Datum::Int64(20)]),
            SortBound::Unbounded
        ));
    }

    #[test]
    fn empty_synopsis_never_matches() {
        let s = Synopsis::empty(2);
        assert!(!s.may_match(
            &[enc(4)],
            &SortBound::Unbounded,
            &SortBound::Unbounded,
            u64::MAX
        ));
    }
}
