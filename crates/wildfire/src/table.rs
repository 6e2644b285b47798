//! Table definitions (§2.1).
//!
//! *"A table in Wildfire is defined with a primary key, a sharding key, and
//! optionally a partition key. Sharding key is a subset of the primary key,
//! and it is primarily used for load balancing of transaction processing ...
//! the partition key is for organizing data in a way that benefits the
//! analytics queries."* The paper's running IoT example shards by device ID
//! and partitions by date.
//!
//! A table's indexes are one list of [`IndexShape`]s: the primary at
//! position 0, the secondary indexes (§10) after it. [`TableDef::index_def`]
//! and [`TableDef::groups`] take a position in that list, so a shard builds,
//! evolves and probes every index through the same code.

use std::sync::Arc;

use umzi_encoding::{encode_datums, hash64, ColumnDef, ColumnType, Datum, IndexDef};

use crate::error::WildfireError;
use crate::Result;

/// The shape of one index of a table: the primary at position 0 of
/// [`TableDef::indexes`], the secondary indexes (the paper's §10 future
/// work) after it in declaration order.
///
/// Uniqueness of logical keys — which the multi-version reconciliation
/// machinery relies on — is obtained by appending the primary-key columns
/// to a secondary's sort columns (the AsterixDB approach the paper cites
/// [12]), so every index reuses the exact same run format and query paths.
/// Queries bind only the user-visible prefix of the sort columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexShape {
    /// Index name, unique within the table (`pk` for the primary).
    pub name: String,
    /// Equality-column indices.
    pub equality: Vec<usize>,
    /// Sort-column indices; a secondary's include the primary-key suffix.
    pub sort: Vec<usize>,
    /// Included-column indices.
    pub included: Vec<usize>,
}

/// A Wildfire table definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    name: String,
    columns: Vec<ColumnDef>,
    primary_key: Vec<usize>,
    sharding_key: Vec<usize>,
    partition_key: Option<usize>,
    /// Every index, the primary first (equality ∪ sort == primary key).
    indexes: Vec<IndexShape>,
}

/// A pending secondary-index declaration: `(name, equality, sort,
/// included)` column names, resolved to indices at `build` time.
type PendingSecondary = (String, Vec<String>, Vec<String>, Vec<String>);

/// Builder for [`TableDef`].
#[derive(Debug)]
pub struct TableDefBuilder {
    name: String,
    columns: Vec<ColumnDef>,
    primary_key: Vec<String>,
    sharding_key: Vec<String>,
    partition_key: Option<String>,
    index_equality: Vec<String>,
    index_sort: Vec<String>,
    index_included: Vec<String>,
    secondary: Vec<PendingSecondary>,
}

impl TableDef {
    /// Start building a table definition.
    pub fn builder(name: impl Into<String>) -> TableDefBuilder {
        TableDefBuilder {
            name: name.into(),
            columns: Vec::new(),
            primary_key: Vec::new(),
            sharding_key: Vec::new(),
            partition_key: None,
            index_equality: Vec::new(),
            index_sort: Vec::new(),
            index_included: Vec::new(),
            secondary: Vec::new(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All user columns.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Primary-key column indices.
    pub fn primary_key(&self) -> &[usize] {
        &self.primary_key
    }

    /// Sharding-key column indices (⊆ primary key).
    pub fn sharding_key(&self) -> &[usize] {
        &self.sharding_key
    }

    /// Partition-key column index, if any.
    pub fn partition_key(&self) -> Option<usize> {
        self.partition_key
    }

    /// Validate a row against the schema.
    pub fn check_row(&self, row: &[Datum]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(WildfireError::RowMismatch(format!(
                "table {:?}: expected {} columns, got {}",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        for (c, v) in self.columns.iter().zip(row) {
            if c.ty != v.kind() {
                return Err(WildfireError::RowMismatch(format!(
                    "column {:?}: expected {:?}, got {:?}",
                    c.name,
                    c.ty,
                    v.kind()
                )));
            }
        }
        Ok(())
    }

    /// Deterministic shard routing: hash of the sharding-key encoding.
    pub fn shard_of(&self, row: &[Datum], n_shards: usize) -> usize {
        let vals: Vec<Datum> = self.sharding_key.iter().map(|&i| row[i].clone()).collect();
        (hash64(&encode_datums(&vals)) % n_shards as u64) as usize
    }

    /// The partition value of a row (encoded partition column), or empty
    /// when the table has no partition key.
    pub fn partition_of(&self, row: &[Datum]) -> Vec<u8> {
        match self.partition_key {
            Some(i) => encode_datums(std::slice::from_ref(&row[i])),
            None => Vec::new(),
        }
    }

    /// Every index of the table: the primary at 0, then the secondary
    /// indexes in declaration order.
    pub fn indexes(&self) -> &[IndexShape] {
        &self.indexes
    }

    /// Derive the Umzi definition of index `i` (0: the primary).
    pub fn index_def(&self, i: usize) -> Arc<IndexDef> {
        let shape = &self.indexes[i];
        let mut b = IndexDef::builder(format!("{}-{}", self.name, shape.name));
        for &c in &shape.equality {
            b = b.equality(self.columns[c].name.clone(), self.columns[c].ty);
        }
        for &c in &shape.sort {
            b = b.sort(self.columns[c].name.clone(), self.columns[c].ty);
        }
        for &c in &shape.included {
            b = b.included(self.columns[c].name.clone(), self.columns[c].ty);
        }
        Arc::new(b.build().expect("validated at TableDef::build"))
    }

    /// Split a row into index `i`'s (equality, sort, included) value groups.
    pub fn groups(&self, i: usize, row: &[Datum]) -> (Vec<Datum>, Vec<Datum>, Vec<Datum>) {
        let shape = &self.indexes[i];
        let pick = |idxs: &[usize]| idxs.iter().map(|&c| row[c].clone()).collect::<Vec<_>>();
        (
            pick(&shape.equality),
            pick(&shape.sort),
            pick(&shape.included),
        )
    }

    /// Reconstruct the sharding-key values from index-key values (equality
    /// and sort groups, in index order). `None` if some sharding column is
    /// not bound — the query must then fan out to all shards.
    pub fn sharding_values_from_index(&self, eq: &[Datum], sort: &[Datum]) -> Option<Vec<Datum>> {
        let primary = &self.indexes[0];
        self.sharding_key
            .iter()
            .map(|col| {
                if let Some(p) = primary.equality.iter().position(|i| i == col) {
                    eq.get(p).cloned()
                } else if let Some(p) = primary.sort.iter().position(|i| i == col) {
                    sort.get(p).cloned()
                } else {
                    None
                }
            })
            .collect()
    }

    /// Shard routing from sharding-key values alone.
    pub fn shard_of_sharding_values(&self, values: &[Datum], n_shards: usize) -> usize {
        (hash64(&encode_datums(values)) % n_shards as u64) as usize
    }

    /// Whether equality values alone determine the shard (single-shard
    /// range scans).
    pub fn sharding_within_equality(&self) -> bool {
        self.sharding_key
            .iter()
            .all(|c| self.indexes[0].equality.contains(c))
    }
}

impl TableDefBuilder {
    /// Add a column.
    pub fn column(mut self, name: impl Into<String>, ty: ColumnType) -> Self {
        self.columns.push(ColumnDef::new(name, ty));
        self
    }

    /// Set the primary key (column names, in key order).
    pub fn primary_key(mut self, names: &[&str]) -> Self {
        self.primary_key = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Set the sharding key (must be a subset of the primary key).
    pub fn sharding_key(mut self, names: &[&str]) -> Self {
        self.sharding_key = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Set the partition key column.
    pub fn partition_key(mut self, name: &str) -> Self {
        self.partition_key = Some(name.to_string());
        self
    }

    /// Choose which primary-key columns are index *equality* columns.
    pub fn index_equality(mut self, names: &[&str]) -> Self {
        self.index_equality = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Choose which primary-key columns are index *sort* columns.
    pub fn index_sort(mut self, names: &[&str]) -> Self {
        self.index_sort = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Extra included columns for index-only queries.
    pub fn index_included(mut self, names: &[&str]) -> Self {
        self.index_included = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Add a secondary index (§10 future work) with the given equality,
    /// sort and included columns. The primary key is appended to the sort
    /// columns automatically to make logical keys unique.
    pub fn secondary_index(
        mut self,
        name: &str,
        equality: &[&str],
        sort: &[&str],
        included: &[&str],
    ) -> Self {
        self.secondary.push((
            name.to_string(),
            equality.iter().map(|s| s.to_string()).collect(),
            sort.iter().map(|s| s.to_string()).collect(),
            included.iter().map(|s| s.to_string()).collect(),
        ));
        self
    }

    /// Validate and build.
    pub fn build(self) -> Result<TableDef> {
        if self.columns.is_empty() {
            return Err(WildfireError::InvalidTable("no columns".into()));
        }
        let mut names = std::collections::HashSet::new();
        for c in &self.columns {
            if !names.insert(c.name.as_str()) {
                return Err(WildfireError::InvalidTable(format!(
                    "duplicate column {:?}",
                    c.name
                )));
            }
        }
        let resolve = |ns: &[String]| -> Result<Vec<usize>> {
            ns.iter()
                .map(|n| {
                    self.columns
                        .iter()
                        .position(|c| &c.name == n)
                        .ok_or_else(|| WildfireError::InvalidTable(format!("unknown column {n:?}")))
                })
                .collect()
        };

        let primary_key = resolve(&self.primary_key)?;
        if primary_key.is_empty() {
            return Err(WildfireError::InvalidTable("primary key required".into()));
        }
        let sharding_key = if self.sharding_key.is_empty() {
            primary_key.clone() // default: shard by the full primary key
        } else {
            resolve(&self.sharding_key)?
        };
        for i in &sharding_key {
            if !primary_key.contains(i) {
                return Err(WildfireError::InvalidTable(
                    "sharding key must be a subset of the primary key (§2.1)".into(),
                ));
            }
        }
        let partition_key = match &self.partition_key {
            Some(n) => Some(
                self.columns
                    .iter()
                    .position(|c| &c.name == n)
                    .ok_or_else(|| WildfireError::InvalidTable(format!("unknown column {n:?}")))?,
            ),
            None => None,
        };

        // Index shape defaults: equality = sharding key, sort = remaining
        // primary-key columns (the paper's IoT pattern).
        let index_equality = if self.index_equality.is_empty() {
            sharding_key.clone()
        } else {
            resolve(&self.index_equality)?
        };
        let index_sort = if self.index_sort.is_empty() {
            primary_key
                .iter()
                .copied()
                .filter(|i| !index_equality.contains(i))
                .collect()
        } else {
            resolve(&self.index_sort)?
        };
        // The index key must cover the whole primary key so point lookups
        // identify exactly one record.
        let mut key_cols: Vec<usize> = index_equality.iter().chain(&index_sort).copied().collect();
        key_cols.sort_unstable();
        key_cols.dedup();
        let mut pk_sorted = primary_key.clone();
        pk_sorted.sort_unstable();
        if key_cols != pk_sorted {
            return Err(WildfireError::InvalidTable(
                "index equality ∪ sort columns must equal the primary key".into(),
            ));
        }
        let mut indexes = vec![IndexShape {
            name: "pk".into(),
            equality: index_equality,
            sort: index_sort,
            included: resolve(&self.index_included)?,
        }];

        // Secondary indexes: resolve and append the primary-key suffix.
        let mut sec_names = std::collections::HashSet::new();
        for (name, eq_names, sort_names, inc_names) in &self.secondary {
            if !sec_names.insert(name.as_str()) {
                return Err(WildfireError::InvalidTable(format!(
                    "duplicate secondary index {name:?}"
                )));
            }
            let equality = resolve(eq_names)?;
            let mut sort = resolve(sort_names)?;
            if equality.is_empty() && sort.is_empty() {
                return Err(WildfireError::InvalidTable(format!(
                    "secondary index {name:?} has no key columns"
                )));
            }
            for &pk in &primary_key {
                if !equality.contains(&pk) && !sort.contains(&pk) {
                    sort.push(pk);
                }
            }
            indexes.push(IndexShape {
                name: name.clone(),
                equality,
                sort,
                included: resolve(inc_names)?,
            });
        }

        Ok(TableDef {
            name: self.name,
            columns: self.columns,
            primary_key,
            sharding_key,
            partition_key,
            indexes,
        })
    }
}

/// The paper's running IoT table: `device` (sharding/equality), `msg`
/// (sort), `date` partition column and a payload.
pub fn iot_table() -> TableDef {
    TableDef::builder("iot")
        .column("device", ColumnType::Int64)
        .column("msg", ColumnType::Int64)
        .column("date", ColumnType::Int64)
        .column("payload", ColumnType::Int64)
        .primary_key(&["device", "msg"])
        .sharding_key(&["device"])
        .partition_key("date")
        .index_included(&["payload"])
        .build()
        .expect("iot table is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iot_table_shape() {
        let t = iot_table();
        assert_eq!(t.primary_key(), &[0, 1]);
        assert_eq!(t.sharding_key(), &[0]);
        assert_eq!(t.partition_key(), Some(2));
        assert_eq!(
            (&t.indexes()[0].equality[..], &t.indexes()[0].sort[..]),
            (&[0][..], &[1][..])
        );
        let def = t.index_def(0);
        assert_eq!(def.equality_columns().len(), 1);
        assert_eq!(def.sort_columns().len(), 1);
        assert_eq!(def.included_columns().len(), 1);
    }

    #[test]
    fn sharding_must_be_subset_of_pk() {
        let err = TableDef::builder("t")
            .column("a", ColumnType::Int64)
            .column("b", ColumnType::Int64)
            .primary_key(&["a"])
            .sharding_key(&["b"])
            .build();
        assert!(err.is_err());
    }

    #[test]
    fn index_key_must_cover_pk() {
        let err = TableDef::builder("t")
            .column("a", ColumnType::Int64)
            .column("b", ColumnType::Int64)
            .primary_key(&["a", "b"])
            .index_equality(&["a"])
            .index_sort(&["a"]) // b missing
            .build();
        assert!(err.is_err());
    }

    #[test]
    fn row_validation() {
        let t = iot_table();
        assert!(t
            .check_row(&[
                Datum::Int64(1),
                Datum::Int64(2),
                Datum::Int64(3),
                Datum::Int64(4)
            ])
            .is_ok());
        assert!(t.check_row(&[Datum::Int64(1)]).is_err());
        assert!(t
            .check_row(&[
                Datum::Str("x".into()),
                Datum::Int64(2),
                Datum::Int64(3),
                Datum::Int64(4)
            ])
            .is_err());
    }

    #[test]
    fn shard_routing_is_deterministic_and_by_sharding_key_only() {
        let t = iot_table();
        let row1 = [
            Datum::Int64(7),
            Datum::Int64(1),
            Datum::Int64(0),
            Datum::Int64(0),
        ];
        let row2 = [
            Datum::Int64(7),
            Datum::Int64(99),
            Datum::Int64(5),
            Datum::Int64(5),
        ];
        assert_eq!(
            t.shard_of(&row1, 8),
            t.shard_of(&row2, 8),
            "same device ⇒ same shard"
        );
        let spread: std::collections::HashSet<usize> = (0..100)
            .map(|d| {
                t.shard_of(
                    &[
                        Datum::Int64(d),
                        Datum::Int64(0),
                        Datum::Int64(0),
                        Datum::Int64(0),
                    ],
                    8,
                )
            })
            .collect();
        assert!(spread.len() > 1, "devices spread across shards");
    }

    #[test]
    fn partition_value_from_date() {
        let t = iot_table();
        let p1 = t.partition_of(&[
            Datum::Int64(1),
            Datum::Int64(2),
            Datum::Int64(20190326),
            Datum::Int64(0),
        ]);
        let p2 = t.partition_of(&[
            Datum::Int64(9),
            Datum::Int64(7),
            Datum::Int64(20190326),
            Datum::Int64(1),
        ]);
        assert_eq!(p1, p2, "same date ⇒ same partition");
    }
}
