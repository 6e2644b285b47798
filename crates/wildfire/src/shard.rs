//! A table shard: the unit of grooming, post-grooming and indexing (§2.1).
//!
//! Each shard owns a live zone (committed log), the groomed and post-groomed
//! data blocks, and one Umzi index instance (§3: *"each Umzi index structure
//! instance serves a single table shard"*). The groom and post-groom
//! operations live here; background scheduling is in [`crate::engine`].

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use umzi_core::{EvolveNotice, UmziConfig, UmziIndex};
use umzi_encoding::Datum;
use umzi_run::{IndexEntry, KeyLayout, Rid, ZoneId};
use umzi_storage::{context, OpClass, Priority, StorageError, TieredStorage};

use crate::colblock::{serialize_deltas, ColumnBlock, EndTsDelta};
use crate::error::WildfireError;
use crate::livezone::CommittedLog;
use crate::table::TableDef;
use crate::timestamps::{compose_begin_ts, MAX_COMMIT_SEQ};
use crate::Result;

/// Shard configuration.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Umzi index configuration (its `name` should be unique per shard; the
    /// shard constructor derives it from the prefix when left empty).
    pub umzi: UmziConfig,
    /// Maximum committed-log records consumed per groom cycle (bounds the
    /// commit-sequence bits of `beginTS`).
    pub groom_batch_limit: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            umzi: UmziConfig::two_zone(""),
            groom_batch_limit: 200_000,
        }
    }
}

/// Outcome of one groom operation (§2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroomReport {
    /// The new groomed block's ID.
    pub block_id: u64,
    /// Rows groomed.
    pub rows: usize,
    /// Largest `beginTS` assigned.
    pub max_begin_ts: u64,
    /// Serialized size of the groomed columnar block written — what the
    /// groom physically moved (the daemon's `bytes_moved` accounting).
    pub block_bytes: u64,
}

/// Outcome of one post-groom operation (§2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostGroomReport {
    /// Post-groom sequence number.
    pub psn: u64,
    /// Consumed groomed-block range.
    pub groomed_range: (u64, u64),
    /// Rows re-organized.
    pub rows: usize,
    /// Post-groomed blocks written (one per partition).
    pub blocks: usize,
    /// Replaced older versions whose `endTS` was set.
    pub closed_versions: usize,
    /// Total serialized size of the post-groomed blocks written.
    pub block_bytes: u64,
}

struct BlockEntry {
    block: Arc<ColumnBlock>,
    object: String,
}

#[derive(Default)]
struct Registry {
    blocks: HashMap<(ZoneId, u64), BlockEntry>,
    /// Groomed blocks deprecated by a post-groom, keyed by the PSN whose
    /// evolve makes them unreachable for new queries; deleted one PSN later
    /// (grace period for in-flight queries holding pre-evolve run lists).
    deprecated: BTreeMap<u64, Vec<(ZoneId, u64)>>,
}

/// One table shard.
pub struct Shard {
    shard_id: usize,
    table: Arc<TableDef>,
    storage: Arc<TieredStorage>,
    index: Arc<UmziIndex>,
    /// Secondary indexes (§10 future work), in table-definition order;
    /// maintained by the same groom/post-groom/evolve pipeline.
    secondary: Vec<Arc<UmziIndex>>,
    config: ShardConfig,
    prefix: String,
    live: CommittedLog,
    registry: Mutex<Registry>,
    /// Next groomed-block ID (block IDs start at 1).
    groom_epoch: AtomicU64,
    /// Last created groomed-block ID (0 = none yet).
    groomed_hi: AtomicU64,
    /// Last groomed-block ID consumed by a post-groom.
    post_groomed_hi: AtomicU64,
    next_psn: AtomicU64,
    pg_block_seq: AtomicU64,
    /// Published but not yet evolved notices, by PSN (the "metadata" the
    /// post-groomer publishes and the indexer polls, Figure 5). One notice
    /// per index: primary first, then secondaries in table order.
    pending_evolves: Mutex<BTreeMap<u64, Vec<EvolveNotice>>>,
    /// Highest published PSN (MaxPSN in Figure 5).
    max_psn: AtomicU64,
    /// Largest assigned `beginTS` — the default snapshot for reads.
    current_ts: AtomicU64,
    /// Serializes groom cycles (one groomer per shard, §2.1).
    groom_lock: Mutex<()>,
    /// Serializes post-groom cycles.
    post_groom_lock: Mutex<()>,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("id", &self.shard_id)
            .field("table", &self.table.name())
            .field("groomed_hi", &self.groomed_hi.load(Ordering::Relaxed))
            .finish()
    }
}

impl Shard {
    /// Create a fresh shard with its Umzi index.
    pub fn create(
        storage: Arc<TieredStorage>,
        table: Arc<TableDef>,
        shard_id: usize,
        mut config: ShardConfig,
    ) -> Result<Arc<Shard>> {
        let prefix = format!("{}/s{shard_id}", table.name());
        if config.umzi.name.is_empty() {
            config.umzi.name = format!("{prefix}/index");
        }
        config.groom_batch_limit = config.groom_batch_limit.min(MAX_COMMIT_SEQ as usize);
        let index =
            UmziIndex::create(Arc::clone(&storage), table.index_def(), config.umzi.clone())?;
        let mut secondary = Vec::new();
        for (i, s) in table.secondary_indexes().iter().enumerate() {
            let mut cfg = config.umzi.clone();
            cfg.name = format!("{prefix}/sidx-{}", s.name);
            secondary.push(UmziIndex::create(
                Arc::clone(&storage),
                table.secondary_index_def(i),
                cfg,
            )?);
        }
        Ok(Arc::new(Shard {
            shard_id,
            table,
            storage,
            index,
            secondary,
            config,
            prefix,
            live: CommittedLog::new(),
            registry: Mutex::new(Registry::default()),
            groom_epoch: AtomicU64::new(1),
            groomed_hi: AtomicU64::new(0),
            post_groomed_hi: AtomicU64::new(0),
            next_psn: AtomicU64::new(1),
            pg_block_seq: AtomicU64::new(1),
            pending_evolves: Mutex::new(BTreeMap::new()),
            max_psn: AtomicU64::new(0),
            current_ts: AtomicU64::new(0),
            groom_lock: Mutex::new(()),
            post_groom_lock: Mutex::new(()),
        }))
    }

    /// Shard ID.
    pub fn shard_id(&self) -> usize {
        self.shard_id
    }

    /// The table definition.
    pub fn table(&self) -> &Arc<TableDef> {
        &self.table
    }

    /// The shard's primary Umzi index.
    pub fn index(&self) -> &Arc<UmziIndex> {
        &self.index
    }

    /// The shard's secondary indexes, in table-definition order.
    pub fn secondary_indexes(&self) -> &[Arc<UmziIndex>] {
        &self.secondary
    }

    /// Look up a secondary index by name.
    pub fn secondary_index(&self, name: &str) -> Option<&Arc<UmziIndex>> {
        let (i, _) = self.table.secondary_index(name)?;
        self.secondary.get(i)
    }

    /// The storage hierarchy.
    pub fn storage(&self) -> &Arc<TieredStorage> {
        &self.storage
    }

    /// The live zone (committed log).
    pub fn live(&self) -> &CommittedLog {
        &self.live
    }

    /// The largest assigned `beginTS` — the default read snapshot.
    pub fn read_ts(&self) -> u64 {
        self.current_ts.load(Ordering::Acquire)
    }

    /// Highest published post-groom sequence number (MaxPSN, Figure 5).
    pub fn max_psn(&self) -> u64 {
        self.max_psn.load(Ordering::Acquire)
    }

    /// Last created groomed-block ID.
    pub fn groomed_hi(&self) -> u64 {
        self.groomed_hi.load(Ordering::Acquire)
    }

    /// Commit a batch of upserts as one transaction.
    pub fn upsert(&self, rows: Vec<Vec<Datum>>) -> Result<u64> {
        for row in &rows {
            self.table.check_row(row)?;
        }
        Ok(self.live.commit(rows))
    }

    // ------------------------------------------------------------------
    // Groom (§2.1)
    // ------------------------------------------------------------------

    /// One groom cycle: drain the committed log, assign monotonic `beginTS`,
    /// write a groomed columnar block, and build a level-0 index run (§5.2).
    ///
    /// A failure before the primary index run is published loses no row:
    /// the drained batch goes back to the head of the committed log with
    /// its commit sequences, and a block already written is unregistered
    /// and its object deleted or parked, so the next groom indexes every
    /// row under a fresh block ID. A failure building a secondary index's
    /// run, after the primary run is published, is not rolled back.
    pub fn groom(&self) -> Result<Option<GroomReport>> {
        let _g = self.groom_lock.lock();
        let batch = self.live.drain(self.config.groom_batch_limit);
        if batch.is_empty() {
            return Ok(None);
        }
        let block_id = self.groom_epoch.fetch_add(1, Ordering::AcqRel);

        let rows: Vec<Vec<Datum>> = batch.iter().map(|r| r.row.clone()).collect();
        // beginTS: groom epoch high bits, within-cycle commit order low bits.
        let begin_ts: Vec<u64> = (0..rows.len())
            .map(|i| compose_begin_ts(block_id, i as u64))
            .collect();
        let max_begin_ts = *begin_ts.last().expect("non-empty batch");

        let block_bytes = match self.groom_primary(block_id, &rows, &begin_ts) {
            Ok(bytes) => bytes,
            Err(e) => {
                self.live.requeue_front(batch);
                return Err(e);
            }
        };
        // Secondary indexes follow the same build path (§10 future work).
        for (si, sidx) in self.secondary.iter().enumerate() {
            let mut entries = Vec::with_capacity(rows.len());
            for (i, row) in rows.iter().enumerate() {
                let (eq, sort, included) = self.table.secondary_groups(si, row);
                entries.push(IndexEntry::new(
                    sidx.layout(),
                    &eq,
                    &sort,
                    begin_ts[i],
                    Rid::new(ZoneId::GROOMED, block_id, i as u32),
                    &included,
                )?);
            }
            sidx.build_groomed_run(entries, block_id, block_id)?;
        }

        self.groomed_hi.store(block_id, Ordering::Release);
        self.current_ts.fetch_max(max_begin_ts, Ordering::AcqRel);
        Ok(Some(GroomReport {
            block_id,
            rows: rows.len(),
            max_begin_ts,
            block_bytes,
        }))
    }

    /// The part of a groom that fails cleanly: write and register groomed
    /// block `block_id`, then publish the primary index run over it (the
    /// groomer also builds indexes over the groomed data, §2.1). Returns
    /// the block's serialized size. On error nothing of it remains: a
    /// registered block is unregistered before its object is deleted or
    /// parked, and no run points into it.
    fn groom_primary(&self, block_id: u64, rows: &[Vec<Datum>], begin_ts: &[u64]) -> Result<u64> {
        let kinds = self.table.columns().iter().map(|c| c.ty).collect();
        let block = Arc::new(ColumnBlock::build(
            kinds,
            rows,
            begin_ts.to_vec(),
            vec![None; rows.len()],
        )?);
        let object = format!("{}/blocks/g-{block_id:020}", self.prefix);
        let payload = block.serialize();
        let block_bytes = payload.len() as u64;
        self.put_block(&object, payload)?;
        let key = (ZoneId::GROOMED, block_id);
        self.registry.lock().blocks.insert(
            key,
            BlockEntry {
                block,
                object: object.clone(),
            },
        );

        let index = || -> Result<()> {
            let mut entries = Vec::with_capacity(rows.len());
            for (i, row) in rows.iter().enumerate() {
                let (eq, sort, included) = self.table.index_groups(row);
                entries.push(IndexEntry::new(
                    self.index.layout(),
                    &eq,
                    &sort,
                    begin_ts[i],
                    Rid::new(ZoneId::GROOMED, block_id, i as u32),
                    &included,
                )?);
            }
            self.index.build_groomed_run(entries, block_id, block_id)?;
            Ok(())
        };
        if let Err(e) = index() {
            self.registry.lock().blocks.remove(&key);
            delete_or_park(&self.storage, &object);
            return Err(e);
        }
        Ok(block_bytes)
    }

    // ------------------------------------------------------------------
    // Post-groom (§2.1)
    // ------------------------------------------------------------------

    /// One post-groom cycle: re-organize all groomed blocks since the last
    /// cycle into partition-ordered post-groomed blocks, set `prevRID` on
    /// the new records and `endTS` on the versions they replace, and publish
    /// the evolve notice for the indexer (Figure 5).
    pub fn post_groom(&self) -> Result<Option<PostGroomReport>> {
        let _g = self.post_groom_lock.lock();
        let lo = self.post_groomed_hi.load(Ordering::Acquire) + 1;
        let hi = self.groomed_hi.load(Ordering::Acquire);
        if lo > hi {
            return Ok(None);
        }

        /// Chain heads resolved per index batch probe: bounds the probe's
        /// key, prefix and result vectors, which would otherwise be as long
        /// as the batch and set the daemon thread's high-water mark.
        const HEADS_PER_PROBE: usize = 4096;

        // Gather the batch in beginTS order.
        struct Rec {
            row: Vec<Datum>,
            begin_ts: u64,
        }
        let mut recs: Vec<Rec> = Vec::new();
        {
            let reg = self.registry.lock();
            for block_id in lo..=hi {
                let Some(entry) = reg.blocks.get(&(ZoneId::GROOMED, block_id)) else {
                    continue; // an empty groom cycle produced no block
                };
                for i in 0..entry.block.n_rows() {
                    recs.push(Rec {
                        row: entry.block.row(i)?,
                        begin_ts: entry.block.begin_ts(i),
                    });
                }
            }
        }

        // Partition by the OLAP-friendly partition key, preserving beginTS
        // order within each partition; assign post-groomed RIDs.
        let mut partitions: BTreeMap<Vec<u8>, Vec<usize>> = BTreeMap::new();
        for (i, rec) in recs.iter().enumerate() {
            partitions
                .entry(self.table.partition_of(&rec.row))
                .or_default()
                .push(i);
        }
        let mut rid_of: Vec<Rid> = vec![Rid::new(ZoneId::POST_GROOMED, 0, 0); recs.len()];
        let mut block_ids: Vec<u64> = Vec::with_capacity(partitions.len());
        for members in partitions.values() {
            let block_id = self.pg_block_seq.fetch_add(1, Ordering::AcqRel);
            block_ids.push(block_id);
            for (offset, &i) in members.iter().enumerate() {
                rid_of[i] = Rid::new(ZoneId::POST_GROOMED, block_id, offset as u32);
            }
        }

        // Index entries over the post-groomed rows (same beginTS, new RIDs)
        // — built before the blocks so the rows can then move, not clone,
        // into them.
        type Groups = (Vec<Datum>, Vec<Datum>, Vec<Datum>);
        let entries_of = |idx: &UmziIndex, groups: &dyn Fn(&[Datum]) -> Groups| {
            let entry = |(rec, &rid): (&Rec, &Rid)| {
                let (eq, sort, included) = groups(&rec.row);
                IndexEntry::new(idx.layout(), &eq, &sort, rec.begin_ts, rid, &included)
            };
            recs.iter()
                .zip(&rid_of)
                .map(entry)
                .collect::<umzi_run::Result<Vec<_>>>()
        };
        let entries = entries_of(&self.index, &|row| self.table.index_groups(row))?;

        // Version chains. The index's key columns are exactly the primary
        // key, and an entry key is `logical key ∥ ¬beginTS`: in entry-key
        // order every record's versions lie side by side, newest first, and
        // the chain heads — each key's oldest version in the batch — come
        // out in index-key order.
        let mut prev_of: Vec<Option<Rid>> = vec![None; recs.len()];
        let mut end_of: Vec<Option<u64>> = vec![None; recs.len()];
        let logical = |i: usize| KeyLayout::logical_key(&entries[i].key);
        let mut order: Vec<usize> = (0..recs.len()).collect();
        order.sort_by(|&a, &b| entries[a].key.cmp(&entries[b].key));
        let mut closed_versions = 0usize;
        let mut heads: Vec<usize> = Vec::new();
        for chain in order.chunk_by(|&a, &b| logical(a) == logical(b)) {
            for w in chain.windows(2) {
                let (newer, older) = (w[0], w[1]);
                prev_of[newer] = Some(rid_of[older]);
                end_of[older] = Some(recs[newer].begin_ts);
                closed_versions += 1;
            }
            heads.push(chain[chain.len() - 1]);
        }
        drop(order);

        // Each head's predecessor is the newest indexed version older than
        // the head (§2.1: the post-groomer uses the index for the RIDs of
        // replaced records): one sorted batch probe per chunk of heads, at
        // the single snapshot "just before the batch". That equals a lookup
        // at each head's own `beginTS − 1`: every version between the two
        // snapshots belongs to this batch, and the head is its key's oldest
        // version in the batch, so no such version exists. It also lets the
        // synopsis prune every run built from the batch alone. Chunks bound
        // the probe and result vectors; deltas come out in index-key order.
        let mut deltas: Vec<EndTsDelta> = Vec::new();
        if let Some(snapshot) = recs.first().and_then(|r| r.begin_ts.checked_sub(1)) {
            // Maintenance: the probes run on this thread, no query fan-out.
            let _background =
                context::enter(context::current().with_priority(Priority::Background));
            for chunk in heads.chunks(HEADS_PER_PROBE) {
                let keys: Vec<(Vec<Datum>, Vec<Datum>)> = chunk
                    .iter()
                    .map(|&head| {
                        let (eq, sort, _) = self.table.index_groups(&recs[head].row);
                        (eq, sort)
                    })
                    .collect();
                let found = self.index.batch_lookup(&keys, snapshot)?;
                // One lock per chunk to close the in-memory images that are
                // resident.
                let reg = self.registry.lock();
                for (&head, prev) in chunk.iter().zip(found) {
                    let Some(prev) = prev else { continue };
                    let (prev_rid, end_ts) = (prev.rid()?, recs[head].begin_ts);
                    prev_of[head] = Some(prev_rid);
                    deltas.push(EndTsDelta {
                        rid: prev_rid,
                        end_ts,
                    });
                    closed_versions += 1;
                    if let Some(entry) = reg.blocks.get(&(prev_rid.zone, prev_rid.block_id)) {
                        entry.block.set_end_ts(prev_rid.offset as usize, end_ts);
                    }
                }
            }
        }

        let psn = self.next_psn.fetch_add(1, Ordering::AcqRel);
        let n_rows = recs.len();
        let notice = |entries| EvolveNotice {
            psn,
            groomed_lo: lo,
            groomed_hi: hi,
            entries,
        };
        let mut notices = vec![notice(entries)];
        for (si, sidx) in self.secondary.iter().enumerate() {
            let groups = |row: &[Datum]| self.table.secondary_groups(si, row);
            notices.push(notice(entries_of(sidx, &groups)?));
        }

        // Write one (large) post-groomed block per partition.
        let kinds: Vec<_> = self.table.columns().iter().map(|c| c.ty).collect();
        let mut block_bytes = 0u64;
        {
            let mut reg = self.registry.lock();
            for (members, block_id) in partitions.values().zip(&block_ids) {
                let begin: Vec<u64> = members.iter().map(|&i| recs[i].begin_ts).collect();
                let prev: Vec<Option<Rid>> = members.iter().map(|&i| prev_of[i]).collect();
                let rows: Vec<Vec<Datum>> = members
                    .iter()
                    .map(|&i| std::mem::take(&mut recs[i].row))
                    .collect();
                let block = ColumnBlock::build(kinds.clone(), &rows, begin, prev)?;
                for (offset, &i) in members.iter().enumerate() {
                    if let Some(end) = end_of[i] {
                        block.set_end_ts(offset, end);
                    }
                }
                let object = format!("{}/blocks/p-{block_id:020}", self.prefix);
                let payload = block.serialize();
                block_bytes += payload.len() as u64;
                self.put_block(&object, payload)?;
                reg.blocks.insert(
                    (ZoneId::POST_GROOMED, *block_id),
                    BlockEntry {
                        block: Arc::new(block),
                        object,
                    },
                );
            }
            // Deprecate the consumed groomed blocks; deletion is deferred
            // until one PSN after the evolve lands (in-flight query grace).
            let dep: Vec<(ZoneId, u64)> = (lo..=hi).map(|b| (ZoneId::GROOMED, b)).collect();
            reg.deprecated.insert(psn, dep);
        }

        // Persist cross-batch endTS closures as a sidecar delta object.
        if !deltas.is_empty() {
            let name = format!("{}/deltas/d-{psn:020}", self.prefix);
            let payload = serialize_deltas(&deltas);
            self.storage.with_retry_as(OpClass::Delta, || {
                self.storage.shared().put(&name, payload.clone())
            })?;
        }

        // Publish for the indexer (Figure 5): metadata first, then MaxPSN.
        self.pending_evolves.lock().insert(psn, notices);
        self.max_psn.store(psn, Ordering::Release);
        self.post_groomed_hi.store(hi, Ordering::Release);

        Ok(Some(PostGroomReport {
            psn,
            groomed_range: (lo, hi),
            rows: n_rows,
            blocks: block_ids.len(),
            closed_versions,
            block_bytes,
        }))
    }

    // ------------------------------------------------------------------
    // Indexer side (Figure 5)
    // ------------------------------------------------------------------

    /// Apply every pending evolve whose PSN is next in order (the indexer's
    /// poll loop body: `evolve while IndexedPSN < MaxPSN`). Returns how many
    /// evolve operations ran.
    pub fn apply_pending_evolves(&self) -> Result<usize> {
        let mut applied = 0;
        while self.index.indexed_psn() < self.max_psn() {
            let next = self.index.indexed_psn() + 1;
            let Some(notices) = self.pending_evolves.lock().remove(&next) else {
                break; // published but not yet enqueued (racing post-groom)
            };
            let mut notices = notices.into_iter();
            let primary_notice = notices.next().expect("primary notice");
            // Secondaries evolve FIRST: the primary's IndexedPSN gates both
            // post-groom resumption and deprecated-block cleanup, so after a
            // crash the secondaries can only be AHEAD, and a regenerated
            // notice they already applied is safely skipped below.
            for (sidx, notice) in self.secondary.iter().zip(notices) {
                match sidx.evolve(notice) {
                    Ok(_) => {}
                    Err(umzi_core::UmziError::PsnOutOfOrder { expected, got })
                        if expected > got => {} // already applied pre-crash
                    Err(e) => return Err(e.into()),
                }
            }
            self.index.evolve(primary_notice)?;
            applied += 1;
            self.cleanup_deprecated(next.saturating_sub(1))?;
        }
        Ok(applied)
    }

    /// Janitor entry point: retire every deferred deprecated groomed block
    /// whose evolve has landed and which no index run — live **or still in
    /// a graveyard** — covers any more. Unlike the evolve-path cleanup
    /// (which waits one PSN as an in-flight-query grace period), this is
    /// exact: a graveyard run keeps its blocks alive precisely as long as a
    /// pre-GC reader could still resolve RIDs through it, so deferred
    /// blocks are reclaimed as soon as run GC finishes instead of waiting
    /// for the next evolve. Returns the number of blocks deleted.
    pub fn retire_deprecated_blocks(&self) -> Result<usize> {
        self.cleanup_deprecated_inner(self.index.indexed_psn(), true)
    }

    /// Delete deprecated groomed blocks whose deprecating PSN is ≤ `up_to`
    /// — but only once no surviving index run can still hand out RIDs into
    /// them. Merged groomed runs may span the evolve watermark, so their
    /// entries keep referencing groomed blocks below it until the runs are
    /// garbage-collected; such blocks stay in the deprecated set and are
    /// retried on the next cleanup (and by the janitor's
    /// [`Shard::retire_deprecated_blocks`]).
    fn cleanup_deprecated(&self, up_to: u64) -> Result<()> {
        self.cleanup_deprecated_inner(up_to, false)?;
        Ok(())
    }

    fn cleanup_deprecated_inner(&self, up_to: u64, check_graveyards: bool) -> Result<usize> {
        // A groomed block is still referenced while any groomed-zone run of
        // the primary or a secondary index covers its ID. Snapshot the run
        // ranges once, BEFORE taking the registry lock — fetch_row takes the
        // same lock on every read, so no per-block work may happen under it.
        let mut live_ranges: Vec<(u64, u64)> = std::iter::once(&self.index)
            .chain(self.secondary.iter())
            .flat_map(|idx| {
                idx.zones()
                    .iter()
                    .filter(|z| z.config.zone == ZoneId::GROOMED)
                    .flat_map(|z| z.list.snapshot())
                    .map(|run| run.groomed_range())
                    .collect::<Vec<_>>()
            })
            .collect();
        if check_graveyards {
            // The janitor skips the one-PSN grace period, so it must treat
            // unlinked-but-undeleted runs as coverage: an in-flight query
            // that snapshotted the lists before run GC can still resolve
            // RIDs through them.
            for idx in std::iter::once(&self.index).chain(self.secondary.iter()) {
                live_ranges.extend(idx.graveyard_groomed_ranges());
            }
        }
        let covered = |id: u64| live_ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&id));
        let victims: Vec<BlockEntry> = {
            let mut reg = self.registry.lock();
            let psns: Vec<u64> = reg.deprecated.range(..=up_to).map(|(p, _)| *p).collect();
            let mut out = Vec::new();
            for psn in psns {
                let mut keep = Vec::new();
                for key in reg.deprecated.remove(&psn).unwrap_or_default() {
                    if key.0 == ZoneId::GROOMED && covered(key.1) {
                        keep.push(key);
                        continue;
                    }
                    if let Some(entry) = reg.blocks.remove(&key) {
                        out.push(entry);
                    }
                }
                if !keep.is_empty() {
                    reg.deprecated.insert(psn, keep);
                }
            }
            out
        };
        let deleted = victims.len();
        for entry in victims {
            delete_or_park(&self.storage, &entry.object);
        }
        Ok(deleted)
    }

    /// Persist a column block to shared storage. Blocks are served from
    /// the in-RAM registry and recovery reads them straight from shared
    /// storage, so they never enter the chunk tiers — whose SSD occupancy is
    /// what §6.2's cache manager weighs when it purges index runs.
    fn put_block(&self, object: &str, payload: Bytes) -> Result<()> {
        self.storage.with_retry_as(OpClass::BlockFetch, || {
            self.storage.shared().put(object, payload.clone())
        })?;
        Ok(())
    }

    /// Deprecated groomed blocks awaiting deferred deletion (observability).
    pub fn deprecated_block_count(&self) -> usize {
        self.registry
            .lock()
            .deprecated
            .values()
            .map(|v| v.len())
            .sum()
    }

    // ------------------------------------------------------------------
    // Record access
    // ------------------------------------------------------------------

    /// Fetch the row a RID points at, with its hidden columns
    /// `(row, beginTS, endTS, prevRID)`.
    pub fn fetch_row(&self, rid: Rid) -> Result<(Vec<Datum>, u64, u64, Option<Rid>)> {
        let reg = self.registry.lock();
        let entry = reg
            .blocks
            .get(&(rid.zone, rid.block_id))
            .ok_or_else(|| WildfireError::DanglingRid(format!("{rid}")))?;
        let i = rid.offset as usize;
        if i >= entry.block.n_rows() {
            return Err(WildfireError::DanglingRid(format!("{rid}")));
        }
        Ok((
            entry.block.row(i)?,
            entry.block.begin_ts(i),
            entry.block.end_ts(i),
            entry.block.prev_rid(i),
        ))
    }

    /// Number of registered data blocks per zone `(groomed, post-groomed)`.
    pub fn block_counts(&self) -> (usize, usize) {
        let reg = self.registry.lock();
        let g = reg
            .blocks
            .keys()
            .filter(|(z, _)| *z == ZoneId::GROOMED)
            .count();
        let p = reg
            .blocks
            .keys()
            .filter(|(z, _)| *z == ZoneId::POST_GROOMED)
            .count();
        (g, p)
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    /// Rebuild a shard from shared storage: recover the index, reopen data
    /// blocks, and replay `endTS` deltas. Un-groomed live-zone data and
    /// unpublished post-grooms are lost, exactly as in Wildfire (the log is
    /// replicated there; replication is out of scope here).
    pub fn recover(
        storage: Arc<TieredStorage>,
        table: Arc<TableDef>,
        shard_id: usize,
        mut config: ShardConfig,
    ) -> Result<Arc<Shard>> {
        let prefix = format!("{}/s{shard_id}", table.name());
        if config.umzi.name.is_empty() {
            config.umzi.name = format!("{prefix}/index");
        }
        config.groom_batch_limit = config.groom_batch_limit.min(MAX_COMMIT_SEQ as usize);
        let index =
            UmziIndex::recover(Arc::clone(&storage), table.index_def(), config.umzi.clone())?;
        let mut secondary = Vec::new();
        for (i, s) in table.secondary_indexes().iter().enumerate() {
            let mut cfg = config.umzi.clone();
            cfg.name = format!("{prefix}/sidx-{}", s.name);
            secondary.push(UmziIndex::recover(
                Arc::clone(&storage),
                table.secondary_index_def(i),
                cfg,
            )?);
        }

        let mut registry = Registry::default();
        let mut groomed_max = 0u64;
        let mut pg_max = 0u64;
        for object in storage.with_retry_as(OpClass::BlockFetch, || {
            storage.shared().list(&format!("{prefix}/blocks/"))
        })? {
            let data =
                storage.with_retry_as(OpClass::BlockFetch, || storage.shared().get(&object))?;
            let block = match ColumnBlock::deserialize(&data) {
                Ok(b) => Arc::new(b),
                Err(_) => {
                    // Torn put from a groom that died mid-write: nothing
                    // references it (the groom never committed a run), and
                    // storage is create-once, so delete it to free the name.
                    delete_or_park(&storage, &object);
                    continue;
                }
            };
            let file = object.rsplit('/').next().unwrap_or("");
            let (zone, id) = match file.split_once('-') {
                Some(("g", id)) => (
                    ZoneId::GROOMED,
                    id.parse::<u64>().map_err(|_| {
                        WildfireError::DanglingRid(format!("bad block name {object}"))
                    })?,
                ),
                Some(("p", id)) => (
                    ZoneId::POST_GROOMED,
                    id.parse::<u64>().map_err(|_| {
                        WildfireError::DanglingRid(format!("bad block name {object}"))
                    })?,
                ),
                _ => continue,
            };
            match zone {
                ZoneId::GROOMED => groomed_max = groomed_max.max(id),
                _ => pg_max = pg_max.max(id),
            }
            registry
                .blocks
                .insert((zone, id), BlockEntry { block, object });
        }
        // Replay endTS closures.
        for object in storage.with_retry_as(OpClass::Delta, || {
            storage.shared().list(&format!("{prefix}/deltas/"))
        })? {
            let data = storage.with_retry_as(OpClass::Delta, || storage.shared().get(&object))?;
            let deltas = match crate::colblock::deserialize_deltas(&data) {
                Ok(d) => d,
                Err(_) => {
                    // Torn delta sidecar: the post-groom that wrote it
                    // failed, so its PSN was never published. Free the name.
                    delete_or_park(&storage, &object);
                    continue;
                }
            };
            for delta in deltas {
                if let Some(entry) = registry.blocks.get(&(delta.rid.zone, delta.rid.block_id)) {
                    if (delta.rid.offset as usize) < entry.block.n_rows() {
                        entry
                            .block
                            .set_end_ts(delta.rid.offset as usize, delta.end_ts);
                    }
                }
            }
        }

        let covered = index.covered_groomed_hi(0).unwrap_or(0);
        let indexed_psn = index.indexed_psn();
        let max_ts = compose_begin_ts(groomed_max, MAX_COMMIT_SEQ);
        Ok(Arc::new(Shard {
            shard_id,
            table,
            storage,
            index,
            secondary,
            config,
            prefix,
            live: CommittedLog::new(),
            registry: Mutex::new(registry),
            groom_epoch: AtomicU64::new(groomed_max + 1),
            groomed_hi: AtomicU64::new(groomed_max),
            post_groomed_hi: AtomicU64::new(covered),
            next_psn: AtomicU64::new(indexed_psn + 1),
            pg_block_seq: AtomicU64::new(pg_max + 1),
            pending_evolves: Mutex::new(BTreeMap::new()),
            max_psn: AtomicU64::new(indexed_psn),
            current_ts: AtomicU64::new(if groomed_max > 0 { max_ts } else { 0 }),
            groom_lock: Mutex::new(()),
            post_groom_lock: Mutex::new(()),
        }))
    }
}

/// Delete an unreferenced block or delta object from shared storage. A
/// failed delete is counted and parked for the janitor's re-attempt
/// ([`TieredStorage::retry_leaked_deletes`]), never dropped: nothing else
/// still knows the name.
fn delete_or_park(storage: &TieredStorage, object: &str) {
    if let Err(e) = storage.with_retry_as(OpClass::Gc, || storage.shared().delete(object)) {
        if !matches!(e, StorageError::NotFound { .. }) {
            storage.note_gc_delete_failure(object);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::iot_table;
    use crate::timestamps::OPEN_END_TS;
    use umzi_core::ReconcileStrategy;
    use umzi_run::SortBound;

    fn row(device: i64, msg: i64, date: i64, payload: i64) -> Vec<Datum> {
        vec![
            Datum::Int64(device),
            Datum::Int64(msg),
            Datum::Int64(date),
            Datum::Int64(payload),
        ]
    }

    fn shard() -> Arc<Shard> {
        let storage = Arc::new(TieredStorage::in_memory());
        Shard::create(storage, Arc::new(iot_table()), 0, ShardConfig::default()).unwrap()
    }

    #[test]
    fn groom_builds_block_and_run() {
        let s = shard();
        s.upsert(vec![row(1, 1, 100, 10), row(2, 1, 100, 20)])
            .unwrap();
        let report = s.groom().unwrap().unwrap();
        assert_eq!(report.block_id, 1);
        assert_eq!(report.rows, 2);
        assert!(
            report.block_bytes > 0,
            "groom must account the serialized block size"
        );
        assert_eq!(s.block_counts(), (1, 0));
        assert_eq!(s.index().run_count(), 1);
        // Empty groom is a no-op.
        assert!(s.groom().unwrap().is_none());

        // Index points at the block; fetch resolves the row.
        let hit = s
            .index()
            .point_lookup(&[Datum::Int64(2)], &[Datum::Int64(1)], s.read_ts())
            .unwrap()
            .unwrap();
        let (r, begin, end, prev) = s.fetch_row(hit.rid().unwrap()).unwrap();
        assert_eq!(r, row(2, 1, 100, 20));
        assert_eq!(begin, hit.begin_ts);
        assert_eq!(end, crate::timestamps::OPEN_END_TS);
        assert_eq!(prev, None);
    }

    #[test]
    fn last_writer_wins_within_groom() {
        let s = shard();
        s.upsert(vec![row(1, 1, 100, 10)]).unwrap();
        s.upsert(vec![row(1, 1, 100, 99)]).unwrap(); // same PK, later commit
        s.groom().unwrap().unwrap();
        let hit = s
            .index()
            .point_lookup(&[Datum::Int64(1)], &[Datum::Int64(1)], s.read_ts())
            .unwrap()
            .unwrap();
        let (r, ..) = s.fetch_row(hit.rid().unwrap()).unwrap();
        assert_eq!(r[3], Datum::Int64(99), "later commit wins");
    }

    #[test]
    fn post_groom_partitions_and_links_versions() {
        let s = shard();
        // Two grooms; second updates (1,1).
        s.upsert(vec![row(1, 1, 100, 10), row(2, 1, 200, 20)])
            .unwrap();
        s.groom().unwrap().unwrap();
        s.upsert(vec![row(1, 1, 100, 11)]).unwrap();
        s.groom().unwrap().unwrap();

        let report = s.post_groom().unwrap().unwrap();
        assert_eq!(report.psn, 1);
        assert_eq!(report.groomed_range, (1, 2));
        assert_eq!(report.rows, 3);
        assert_eq!(report.blocks, 2, "partitioned by date: 100 and 200");
        assert_eq!(report.closed_versions, 1, "(1,1)@g1 replaced by (1,1)@g2");
        assert!(
            report.block_bytes > 0,
            "post-groom must account the serialized block sizes"
        );

        // Evolve applies in order.
        assert_eq!(s.apply_pending_evolves().unwrap(), 1);
        assert_eq!(s.index().indexed_psn(), 1);

        // All groomed runs are covered: the index now answers from the
        // post-groomed zone.
        let hit = s
            .index()
            .point_lookup(&[Datum::Int64(1)], &[Datum::Int64(1)], s.read_ts())
            .unwrap()
            .unwrap();
        let rid = hit.rid().unwrap();
        assert_eq!(rid.zone, ZoneId::POST_GROOMED);
        let (r, _, end, prev) = s.fetch_row(rid).unwrap();
        assert_eq!(r[3], Datum::Int64(11));
        assert_eq!(end, crate::timestamps::OPEN_END_TS);
        // prevRID chains to the replaced version, whose endTS is closed.
        let prev_rid = prev.expect("version chain");
        let (old_row, old_begin, old_end, _) = s.fetch_row(prev_rid).unwrap();
        assert_eq!(old_row[3], Datum::Int64(10));
        assert_eq!(
            old_end, hit.begin_ts,
            "replaced version closed at successor's beginTS"
        );
        assert!(old_begin < hit.begin_ts);
    }

    /// Upsert one row per `(device = msg % 4, msg)` key, in order, and groom
    /// them into one block; returns each row's `(msg, beginTS)`.
    fn groom_msgs(s: &Shard, msgs: &[i64], payload: &mut i64) -> Vec<(i64, u64)> {
        let rows = msgs.iter().map(|&m| {
            *payload += 1;
            row(m % 4, m, 100 + m % 3, *payload)
        });
        s.upsert(rows.collect()).unwrap();
        let block_id = s.groom().unwrap().unwrap().block_id;
        let ts = |i| compose_begin_ts(block_id, i as u64);
        msgs.iter().enumerate().map(|(i, &m)| (m, ts(i))).collect()
    }

    fn delta_object(s: &Shard, psn: u64) -> bytes::Bytes {
        let name = format!("{}/deltas/d-{psn:020}", s.prefix);
        s.storage.shared().get(&name).unwrap()
    }

    /// The sorted batch probe at "just before the batch" finds, for every
    /// chain head, exactly what a point lookup at that head's own
    /// `beginTS − 1` finds — whether the predecessor sits in a post-groomed
    /// run, in a groomed run whose evolve has not been applied yet (daemon
    /// lag), in a merged groomed run that mixes batch and pre-batch blocks,
    /// or nowhere — and in-batch versions chain to each other.
    #[test]
    fn post_groom_matches_per_head_point_lookup_oracle() {
        let s = shard();
        let mut payload = 0;
        let range = |r: std::ops::Range<i64>| r.collect::<Vec<i64>>();
        // PSN 1, evolved: these versions answer from a post-groomed run.
        groom_msgs(&s, &range(0..40), &mut payload);
        groom_msgs(&s, &range(30..50), &mut payload);
        s.post_groom().unwrap().unwrap();
        assert_eq!(s.apply_pending_evolves().unwrap(), 1);
        // PSN 2, published but not evolved: the index still answers these
        // from groomed runs 3 and 4.
        groom_msgs(&s, &range(20..60), &mut payload);
        groom_msgs(&s, &range(50..70), &mut payload);
        s.post_groom().unwrap().unwrap();
        // The batch: blocks 5..=8, with repeats inside one groom and across
        // grooms, old keys from every earlier state and brand-new keys.
        let mut batch: Vec<(i64, u64)> = Vec::new();
        let mut first = range(0..10);
        first.extend([5, 35, 36, 55, 65, 100, 101, 5]);
        batch.extend(groom_msgs(&s, &first, &mut payload));
        batch.extend(groom_msgs(&s, &[5, 35, 66, 101, 200, 201], &mut payload));
        batch.extend(groom_msgs(&s, &range(60..75), &mut payload));
        batch.extend(groom_msgs(&s, &[200, 5, 69, 300], &mut payload));
        // Merge groomed runs across the batch boundary.
        assert!(s.index().drain_merges().unwrap() > 0);
        let spans_boundary = |r: &Arc<umzi_run::Run>| {
            r.zone() == ZoneId::GROOMED && r.groomed_range().0 <= 4 && r.groomed_range().1 >= 5
        };
        assert!(s.index().all_runs().iter().flatten().any(spans_boundary));

        // Oracle, before the post-groom: versions per key oldest first, and
        // the per-head point lookup the post-groomer used to issue.
        let mut versions: BTreeMap<i64, Vec<u64>> = BTreeMap::new();
        for &(m, ts) in &batch {
            versions.entry(m).or_default().push(ts);
        }
        let lookup = |m: i64, ts: u64| {
            let hit = s
                .index()
                .point_lookup(&[Datum::Int64(m % 4)], &[Datum::Int64(m)], ts)
                .unwrap();
            hit.map(|h| h.rid().unwrap())
        };
        let want_prev: BTreeMap<i64, Option<Rid>> = versions
            .iter()
            .map(|(&m, v)| (m, lookup(m, v[0] - 1)))
            .collect();
        let zones: Vec<Option<ZoneId>> = want_prev.values().map(|p| p.map(|r| r.zone)).collect();
        for kind in [None, Some(ZoneId::GROOMED), Some(ZoneId::POST_GROOMED)] {
            assert!(
                zones.contains(&kind),
                "no head with predecessor in {kind:?}"
            );
        }

        let report = s.post_groom().unwrap().unwrap();
        assert_eq!(report.groomed_range, (5, 8));
        assert_eq!(report.rows, batch.len());
        let found = want_prev.values().flatten().count();
        assert_eq!(report.closed_versions, batch.len() - versions.len() + found);

        // Every new record, through the RID its index entry carries.
        let rid_at: BTreeMap<u64, Rid> = s.pending_evolves.lock()[&report.psn][0]
            .entries
            .iter()
            .map(|e| (e.begin_ts().unwrap(), e.rid().unwrap()))
            .collect();
        let mut want_deltas: Vec<(Vec<u8>, EndTsDelta)> = Vec::new();
        for (&m, v) in &versions {
            for (i, ts) in v.iter().enumerate() {
                let (r, begin, end, prev) = s.fetch_row(rid_at[ts]).unwrap();
                assert_eq!((&r[1], begin), (&Datum::Int64(m), *ts));
                assert_eq!(end, v.get(i + 1).copied().unwrap_or(OPEN_END_TS), "msg {m}");
                let want = if i == 0 {
                    want_prev[&m]
                } else {
                    Some(rid_at[&v[i - 1]])
                };
                assert_eq!(prev, want, "msg {m} version {i}");
            }
            if let Some(rid) = want_prev[&m] {
                assert_eq!(
                    s.fetch_row(rid).unwrap().2,
                    v[0],
                    "predecessor of msg {m} closed"
                );
                let key = s
                    .index()
                    .layout()
                    .build_key(&[Datum::Int64(m % 4)], &[Datum::Int64(m)], 0)
                    .unwrap();
                want_deltas.push((key, EndTsDelta { rid, end_ts: v[0] }));
            }
        }
        // The sidecar holds exactly those closures, in index-key order.
        want_deltas.sort_by(|a, b| a.0.cmp(&b.0));
        let want_deltas: Vec<EndTsDelta> = want_deltas.into_iter().map(|(_, d)| d).collect();
        let got = crate::colblock::deserialize_deltas(&delta_object(&s, report.psn)).unwrap();
        assert_eq!(got, want_deltas);
    }

    /// `EndTsDelta`s are emitted in index-key order, so the same input
    /// writes the same sidecar bytes — not one `HashMap` iteration order
    /// per process and per map.
    #[test]
    fn same_rows_write_byte_identical_delta_objects() {
        let delta = || {
            let s = shard();
            let msgs: Vec<i64> = (0..300).collect();
            for _ in 0..2 {
                groom_msgs(&s, &msgs, &mut 0);
                s.post_groom().unwrap().unwrap();
                s.apply_pending_evolves().unwrap();
            }
            delta_object(&s, 2)
        };
        let first = delta();
        assert_eq!(
            crate::colblock::deserialize_deltas(&first).unwrap().len(),
            300
        );
        assert_eq!(first, delta());
    }

    #[test]
    fn time_travel_after_post_groom() {
        let s = shard();
        s.upsert(vec![row(7, 1, 100, 1)]).unwrap();
        s.groom().unwrap().unwrap();
        let ts_v1 = s.read_ts();
        s.upsert(vec![row(7, 1, 100, 2)]).unwrap();
        s.groom().unwrap().unwrap();
        s.post_groom().unwrap().unwrap();
        s.apply_pending_evolves().unwrap();

        // Latest sees v2; a snapshot at ts_v1 sees v1.
        let latest = s
            .index()
            .point_lookup(&[Datum::Int64(7)], &[Datum::Int64(1)], s.read_ts())
            .unwrap()
            .unwrap();
        let (r, ..) = s.fetch_row(latest.rid().unwrap()).unwrap();
        assert_eq!(r[3], Datum::Int64(2));

        let old = s
            .index()
            .point_lookup(&[Datum::Int64(7)], &[Datum::Int64(1)], ts_v1)
            .unwrap()
            .unwrap();
        let (r, ..) = s.fetch_row(old.rid().unwrap()).unwrap();
        assert_eq!(r[3], Datum::Int64(1));
    }

    #[test]
    fn range_scan_spans_zones_consistently() {
        let s = shard();
        s.upsert((0..20).map(|m| row(5, m, 100 + m % 2, m)).collect())
            .unwrap();
        s.groom().unwrap().unwrap();
        s.post_groom().unwrap().unwrap();
        s.apply_pending_evolves().unwrap();
        // New groomed data on top of the post-groomed zone.
        s.upsert((20..30).map(|m| row(5, m, 100, m)).collect())
            .unwrap();
        s.groom().unwrap().unwrap();

        let out = s
            .index()
            .range_scan(
                &umzi_core::RangeQuery {
                    equality: vec![Datum::Int64(5)],
                    lower: SortBound::Unbounded,
                    upper: SortBound::Unbounded,
                    query_ts: s.read_ts(),
                },
                ReconcileStrategy::PriorityQueue,
            )
            .unwrap();
        assert_eq!(
            out.len(),
            30,
            "unified view across groomed + post-groomed zones"
        );
    }

    #[test]
    fn deprecated_blocks_cleaned_after_grace() {
        let s = shard();
        s.upsert(vec![row(1, 1, 100, 1)]).unwrap();
        s.groom().unwrap().unwrap();
        s.post_groom().unwrap().unwrap();
        s.apply_pending_evolves().unwrap();
        // Grace: groomed block of psn 1 still present until psn 2 evolves.
        assert_eq!(s.block_counts().0, 1);

        s.upsert(vec![row(1, 2, 100, 2)]).unwrap();
        s.groom().unwrap().unwrap();
        s.post_groom().unwrap().unwrap();
        s.apply_pending_evolves().unwrap();
        assert_eq!(
            s.block_counts().0,
            1,
            "psn-1 groomed block deleted, psn-2's in grace"
        );
    }

    /// ROADMAP "Deprecated groomed-block GC": the janitor retires deferred
    /// deprecated blocks as soon as the covering runs are actually gone —
    /// no second evolve required — while graveyard coverage keeps them
    /// alive for readers still holding pre-evolve run lists.
    #[test]
    fn janitor_retires_deferred_blocks_without_next_evolve() {
        let s = shard();
        s.upsert(vec![row(1, 1, 100, 1)]).unwrap();
        s.groom().unwrap().unwrap();
        // A "query" holding the pre-evolve run list: its runs can still
        // resolve RIDs into the groomed block.
        let held = s.index().zones()[0].list.snapshot();
        s.post_groom().unwrap().unwrap();
        s.apply_pending_evolves().unwrap();
        assert_eq!(s.block_counts().0, 1, "grace period defers deletion");

        // Janitor pass while the reader is alive: the GC'd run sits in the
        // graveyard (still referenced), so the block must survive.
        s.index().collect_garbage().unwrap();
        assert_eq!(s.retire_deprecated_blocks().unwrap(), 0);
        assert_eq!(s.block_counts().0, 1, "graveyard coverage protects reader");

        // Reader gone → run GC completes → the janitor retires the block,
        // with no intervening evolve.
        drop(held);
        s.index().collect_garbage().unwrap();
        assert_eq!(s.retire_deprecated_blocks().unwrap(), 1);
        assert_eq!(s.block_counts().0, 0, "retired without a second evolve");
        assert_eq!(s.deprecated_block_count(), 0);
    }

    /// A groomed block that recovery registered is deleted straight from
    /// shared storage when it retires — a failing length probe must not make
    /// it leak uncounted: the object is either gone or parked for the
    /// janitor's re-delete.
    #[test]
    fn recovered_block_retire_deletes_or_parks_under_len_faults() {
        use umzi_storage::{
            FaultInjectingStore, FaultOp, FaultPlan, InMemoryObjectStore, LatencyModel,
            ObjectStore, SharedStorage, TieredConfig,
        };
        let faulty = Arc::new(FaultInjectingStore::new(
            Arc::new(InMemoryObjectStore::new()),
            FaultPlan::none().with_transient(FaultOp::Len, 1.0),
        ));
        faulty.set_armed(false);
        let storage = Arc::new(TieredStorage::new(
            SharedStorage::new(
                Arc::clone(&faulty) as Arc<dyn ObjectStore>,
                LatencyModel::off(),
            ),
            TieredConfig::default(),
        ));
        let table = Arc::new(iot_table());
        let config = ShardConfig::default();
        let s = Shard::create(Arc::clone(&storage), Arc::clone(&table), 0, config.clone()).unwrap();
        s.upsert(vec![row(1, 1, 100, 1)]).unwrap();
        s.groom().unwrap().unwrap();
        drop(s);
        storage.simulate_crash();
        let s = Shard::recover(Arc::clone(&storage), table, 0, config).unwrap();
        let block = format!("{}/blocks/g-{:020}", s.prefix, 1);

        faulty.set_armed(true);
        s.post_groom().unwrap().unwrap();
        s.apply_pending_evolves().unwrap();
        s.index().collect_garbage().unwrap();
        assert_eq!(s.retire_deprecated_blocks().unwrap(), 1);
        let gone = storage.shared().get(&block).is_err();
        let parked = storage.leaked_gc_objects().contains(&block);
        assert!(gone || parked, "{block} neither deleted nor parked");
    }

    /// A shard whose `nth` shared-storage put after setup fails, with
    /// retries off so that one fault fails the operation. Returns the
    /// store and the number of puts setup made.
    fn shard_failing_put(nth: u64) -> (Arc<Shard>, Arc<umzi_storage::FaultInjectingStore>, u64) {
        use umzi_storage::{
            FaultEvent, FaultInjectingStore, FaultOp, FaultPlan, InMemoryObjectStore, LatencyModel,
            ObjectStore, RetryConfig, SharedStorage, TieredConfig,
        };
        let create = |plan: FaultPlan| {
            let faulty = Arc::new(FaultInjectingStore::new(
                Arc::new(InMemoryObjectStore::new()),
                plan,
            ));
            let storage = Arc::new(TieredStorage::new(
                SharedStorage::new(
                    Arc::clone(&faulty) as Arc<dyn ObjectStore>,
                    LatencyModel::off(),
                ),
                TieredConfig {
                    retry: RetryConfig::disabled(),
                    ..TieredConfig::default()
                },
            ));
            let s = Shard::create(storage, Arc::new(iot_table()), 0, ShardConfig::default());
            let puts = faulty.stats().ops[FaultOp::Put.index()];
            (s.unwrap(), faulty, puts)
        };
        // Setup is deterministic: count its puts on a healthy store first.
        let (_, _, setup) = create(FaultPlan::none());
        let op = FaultOp::Put;
        create(FaultPlan::none().with_event(FaultEvent::TransientAt {
            op,
            nth: setup + nth,
        }))
    }

    /// A groom whose `nth` put (1: the block, 2: the primary run) fails
    /// must lose nothing: its rows go back to the live zone in commit
    /// order, no block stays registered or stored, and the next groom
    /// indexes every row with every `blocks/` object registered.
    fn failed_groom_put_loses_nothing(nth: u64) {
        let (s, faulty, setup) = shard_failing_put(nth);
        let stored_blocks_are_registered = || {
            let mut listed = s.storage.shared().list(&format!("{}/blocks/", s.prefix));
            let mut registered: Vec<String> = s
                .registry
                .lock()
                .blocks
                .values()
                .map(|e| e.object.clone())
                .collect();
            registered.sort();
            listed.as_mut().unwrap().sort();
            assert_eq!(
                listed.unwrap(),
                registered,
                "orphan or missing block object"
            );
        };
        s.upsert(vec![row(1, 1, 100, 10), row(2, 1, 100, 20)])
            .unwrap();
        s.upsert(vec![row(1, 1, 100, 99)]).unwrap(); // same key, later commit

        assert!(s.groom().is_err());
        let puts = faulty.stats().ops[umzi_storage::FaultOp::Put.index()] - setup;
        assert_eq!(puts, nth, "the groom failed at put #{nth}");
        assert_eq!(s.live().len(), 3, "the failed groom's rows are back");
        assert_eq!((s.block_counts(), s.index().run_count()), ((0, 0), 0));
        stored_blocks_are_registered();

        assert_eq!(s.groom().unwrap().unwrap().rows, 3);
        assert!(s.live().is_empty());
        stored_blocks_are_registered();
        for (device, payload) in [(1, 99), (2, 20)] {
            let hit = s
                .index()
                .point_lookup(&[Datum::Int64(device)], &[Datum::Int64(1)], s.read_ts())
                .unwrap()
                .unwrap();
            let (r, ..) = s.fetch_row(hit.rid().unwrap()).unwrap();
            assert_eq!(r[3], Datum::Int64(payload), "device {device}");
        }
    }

    #[test]
    fn groom_requeues_its_batch_when_the_block_put_fails() {
        failed_groom_put_loses_nothing(1);
    }

    #[test]
    fn groom_retracts_its_block_when_the_run_put_fails() {
        failed_groom_put_loses_nothing(2);
    }

    #[test]
    fn shard_recovery_preserves_queries() {
        let storage = Arc::new(TieredStorage::in_memory());
        let table = Arc::new(iot_table());
        let s = Shard::create(
            Arc::clone(&storage),
            Arc::clone(&table),
            0,
            ShardConfig::default(),
        )
        .unwrap();
        s.upsert((0..10).map(|m| row(3, m, 100, m * 10)).collect())
            .unwrap();
        s.groom().unwrap().unwrap();
        s.upsert(vec![row(3, 0, 100, 999)]).unwrap();
        s.groom().unwrap().unwrap();
        s.post_groom().unwrap().unwrap();
        s.apply_pending_evolves().unwrap();
        let snapshot_ts = s.read_ts();
        drop(s);
        storage.simulate_crash();

        let s = Shard::recover(storage, table, 0, ShardConfig::default()).unwrap();
        let hit = s
            .index()
            .point_lookup(&[Datum::Int64(3)], &[Datum::Int64(0)], snapshot_ts)
            .unwrap()
            .unwrap();
        let (r, ..) = s.fetch_row(hit.rid().unwrap()).unwrap();
        assert_eq!(r[3], Datum::Int64(999), "updated payload survives recovery");
        // New grooms don't collide with recovered block IDs.
        s.upsert(vec![row(3, 100, 100, 1)]).unwrap();
        s.groom().unwrap().unwrap();
    }
}
