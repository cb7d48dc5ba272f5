//! End-to-end data integrity: the rot registry, verified-read repair,
//! bit-rot planting, and the background scrubber.  Planting and the
//! scrubber walk the same stored units ([`DaosSystem::units_from`]).

use super::{chunk_dkey_hash, dkey_hash, DaosError, DaosSystem};
use crate::class::ObjectClass;
use crate::container::ContainerId;
use crate::data::{ArrayData, CsumMismatch, ObjData};
use crate::oid::Oid;
use crate::pool::TargetId;
use simkit::Step;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

/// Which stored copies of each datum are currently bit-rotten.
///
/// The data layer stores one logical copy per chunk/value, so a rot
/// event flips the physical byte **once** and this registry records
/// which replica shards / EC cells the rot notionally hit.  Verified
/// reads and the scrubber recompute checksums to *detect* the flip,
/// then consult the registry to decide repairability: replication
/// repairs while at least one replica is clean, erasure coding while
/// the distinct rotten cells fit within `p`, and plain sharding never.
/// Repair re-flips the registered byte (xor with `0xFF` is an
/// involution), modelling a rewrite from the reconstructed content,
/// and drops the entry.  Every entry therefore corresponds to exactly
/// one still-flipped physical byte — the invariant that makes repair
/// by re-flip sound.
// simlint::sim_state — replay-visible simulation state
#[derive(Debug, Clone, Default)]
pub(super) struct RotState {
    /// Array rot: `(container, object)` → flipped byte offset → shard
    /// copies hit (replica index, or derived EC data-cell index).
    extents: BTreeMap<(u32, Oid), BTreeMap<u64, BTreeSet<u64>>>,
    /// EC parity rot: `(container, object)` → set of `(chunk offset,
    /// parity cell index)` flips — parity bytes no logical offset
    /// addresses.
    parity: BTreeMap<(u32, Oid), BTreeSet<(u64, u64)>>,
    /// KV rot: `(container, object)` → key → replica copies hit.
    kv: BTreeMap<(u32, Oid), BTreeMap<Vec<u8>, BTreeSet<u64>>>,
}

impl RotState {
    pub(super) fn touches(&self, key: &(u32, Oid)) -> bool {
        self.extents.contains_key(key) || self.parity.contains_key(key) || self.kv.contains_key(key)
    }

    /// Forget an object's rot (punched, or its container destroyed).
    pub(super) fn forget_object(&mut self, key: &(u32, Oid)) {
        self.extents.remove(key);
        self.parity.remove(key);
        self.kv.remove(key);
    }

    /// Keep an array object's data and parity flips whose offset passes
    /// `keep` (parity flips are keyed by their chunk's first byte);
    /// entries left empty are dropped, so the registry only ever names
    /// still-flipped bytes.
    pub(super) fn retain_array(&mut self, key: &(u32, Oid), keep: impl Fn(u64) -> bool) {
        if let Some(m) = self.extents.get_mut(key) {
            m.retain(|&o, _| keep(o));
            if m.is_empty() {
                self.extents.remove(key);
            }
        }
        if let Some(s) = self.parity.get_mut(key) {
            s.retain(|&(o, _)| keep(o));
            if s.is_empty() {
                self.parity.remove(key);
            }
        }
    }

    /// Forget the rot on one KV value (rewritten, removed or repaired).
    pub(super) fn clear_kv(&mut self, key: &(u32, Oid), k: &[u8]) {
        if let Some(m) = self.kv.get_mut(key) {
            m.remove(k);
            if m.is_empty() {
                self.kv.remove(key);
            }
        }
    }
}

/// End-to-end checksum activity counters ([`DaosSystem::csum_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CsumStats {
    /// Chunk/value verifications performed (reads, writes, scrubber).
    pub verified: u64,
    /// Rotten shard copies (replica copies / EC cells) detected.
    pub detected: u64,
    /// Rotten shard copies transparently repaired.
    pub repaired: u64,
    /// Bytes rewritten by transparent repair.
    // simlint::dim(bytes)
    pub repaired_bytes: u64,
    /// Verification units whose rot exceeded the class redundancy: the
    /// access fails with [`DaosError::BadChecksum`] instead of serving.
    pub unrepairable: u64,
    /// Corrupt payloads served to clients.  **Must stay zero** — the
    /// verified read path refuses rather than serves; the counter
    /// exists so the `CounterCeiling` SLO rule can witness the
    /// invariant in every run report.
    pub served_corrupt: u64,
}

impl CsumStats {
    /// Publish the checksum counters into a telemetry registry as
    /// `daos.csum.*` counters recorded at `at`.  No-op on a disabled
    /// registry.
    pub fn publish(&self, tel: &mut simkit::Telemetry, at: simkit::SimTime) {
        tel.add_counters(
            at,
            &[
                ("daos.csum.verified", self.verified),
                ("daos.csum.detected", self.detected),
                ("daos.csum.repaired", self.repaired),
                // simlint::dim(bytes)
                ("daos.csum.repaired_bytes", self.repaired_bytes),
                ("daos.csum.unrepairable", self.unrepairable),
                ("daos.csum.served_corrupt", self.served_corrupt),
            ],
        );
    }
}

/// Progress of the background scrubber ([`DaosSystem::scrub_progress`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Scan units verified (array chunks and KV values).
    pub units_scanned: u64,
    /// Stored bytes the scan read.
    // simlint::dim(bytes)
    pub bytes_scanned: u64,
    /// Rotten copies the scrubber detected (before any read hit them).
    pub detected: u64,
    /// Rotten copies the scrubber repaired.
    pub repaired: u64,
    /// Units whose rot exceeded the class redundancy; left in place for
    /// reads to refuse loudly and the durability oracle to name.
    pub unrepairable: u64,
    /// Waves emitted.
    pub waves: u64,
    /// Full passes completed over the scan domain.
    pub passes: u64,
}

impl ScrubReport {
    /// Publish scrubber progress into a telemetry registry as
    /// `daos.scrub.*` counters recorded at `at`.  No-op on a disabled
    /// registry.
    pub fn publish(&self, tel: &mut simkit::Telemetry, at: simkit::SimTime) {
        tel.add_counters(
            at,
            &[
                ("daos.scrub.units_scanned", self.units_scanned),
                // simlint::dim(bytes)
                ("daos.scrub.bytes_scanned", self.bytes_scanned),
                ("daos.scrub.detected", self.detected),
                ("daos.scrub.repaired", self.repaired),
                ("daos.scrub.unrepairable", self.unrepairable),
                ("daos.scrub.waves", self.waves),
                ("daos.scrub.passes", self.passes),
            ],
        );
    }
}

/// One stored unit: a written array chunk (by index) or a KV key.
#[derive(Debug, Clone)]
enum Unit {
    Chunk(u64),
    Key(Vec<u8>),
}

/// A position in the stored-unit walk: `(container, object, unit)`.
type UnitCursor = (u32, Oid, Unit);

/// The background scrubber's bookkeeping: whether a pass is running,
/// the resume cursor, and cumulative progress.  Replay-visible
/// simulation state — the cursor is exactly what makes a pass resume
/// byte-identically after a mid-scrub crash.
// simlint::sim_state — replay-visible simulation state
#[derive(Debug, Clone, Default)]
pub(super) struct ScrubState {
    active: bool,
    /// Next unit to scan; `None` while active means start from the
    /// beginning.
    cursor: Option<UnitCursor>,
    report: ScrubReport,
}

/// Wrap repair copies as a `csum.repair` span ([`Step::Noop`] when the
/// repair carried no billable movement, e.g. no servable clean source).
fn repair_span(bytes: u64, moves: Vec<Step>) -> Step {
    if moves.is_empty() {
        Step::Noop
    } else {
        Step::span("csum", "repair", bytes, Step::par(moves))
    }
}

impl DaosSystem {
    /// Checksum activity counters so far ([`CsumStats::publish`] for
    /// telemetry).
    pub fn csum_stats(&self) -> CsumStats {
        self.csum
    }

    /// Verify a KV value's stored checksum and transparently repair rot
    /// the replication still covers.  Returns the repair cost step
    /// ([`Step::Noop`] when the value is clean or absent) or
    /// [`DaosError::BadChecksum`] when the rot exceeds redundancy.
    // simlint::panic_root — integrity path runs under injected faults: must never panic
    pub(super) fn kv_verify_repair(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        key: &[u8],
        group: &[TargetId],
    ) -> Result<Step, DaosError> {
        let verdict = self.kv(cid, oid)?.verify(key);
        if verdict.is_some() {
            self.csum.verified += 1;
        }
        if verdict == Some(false) {
            self.repair_kv_rot(cid, oid, key, group)
        } else {
            Ok(Step::Noop)
        }
    }

    /// Repair a KV value whose checksum failed: re-flip the registered
    /// rot (the xor involution restores the original byte, modelling a
    /// rewrite from a clean replica) and charge the replica-to-replica
    /// copy; refuse with [`DaosError::BadChecksum`] when every replica
    /// is rotten or the damage is unknown to the registry.
    // simlint::panic_root — integrity path runs under injected faults: must never panic
    // simlint::allow(hot-alloc) — repair path: runs only when rot was detected, not per I/O
    fn repair_kv_rot(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        key: &[u8],
        group: &[TargetId],
    ) -> Result<Step, DaosError> {
        let rkey = (cid.0, oid);
        let rotten: BTreeSet<u64> = self
            .rot
            .kv
            .get(&rkey)
            .and_then(|m| m.get(key))
            .cloned()
            .unwrap_or_default();
        self.csum.detected += rotten.len().max(1) as u64;
        if rotten.is_empty() || rotten.len() >= group.len() {
            self.csum.unrepairable += 1;
            return Err(DaosError::BadChecksum);
        }
        let kv = self.kv_mut(cid, oid)?;
        kv.corrupt_value(key);
        let bytes = kv.get(key).map_or(0, |v| v.len());
        self.rot.clear_kv(&rkey, key);
        let copies = rotten.len() as u64;
        self.csum.repaired += copies;
        self.csum.repaired_bytes += bytes * copies;
        // cost: a clean replica feeds a rewrite of each rotten one
        let moves = self.repair_moves(group, &rotten, 1, (bytes as f64).max(64.0));
        Ok(repair_span(bytes * copies, moves))
    }

    /// Verify stored checksums over every chunk `[offset, offset+len)`
    /// touches and transparently repair what the redundancy covers.
    // simlint::panic_root — integrity path runs under injected faults: must never panic
    pub(super) fn array_verify_repair(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        offset: u64,
        len: u64,
    ) -> Result<Step, DaosError> {
        let a = self.array(cid, oid)?;
        let checked = a
            .chunks_in_range(offset, len)
            .filter(|&c| a.chunk_written(c));
        let checked = checked.count() as u64;
        let bad = a.verify_range(offset, len);
        self.csum.verified += checked;
        if bad.is_empty() {
            return Ok(Step::Noop);
        }
        self.repair_array_rot(cid, oid, &bad)
    }

    /// Pre-write verification: partially-overwritten chunks fold their
    /// existing bytes into the new chunk, so they must verify (and be
    /// repaired) first; fully-covered chunks are replaced wholesale,
    /// which heals latent rot — their registry entries are dropped so a
    /// later repair cannot re-flip fresh bytes.
    // simlint::panic_root — integrity path runs under injected faults: must never panic
    pub(super) fn array_prewrite_integrity(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        offset: u64,
        len: u64,
    ) -> Result<Step, DaosError> {
        let a = self.array(cid, oid)?;
        let cs = a.chunk_size();
        let mut full: BTreeSet<u64> = BTreeSet::new();
        let mut checked = 0u64;
        let mut bad = Vec::new();
        for c in a.chunks_in_range(offset, len) {
            let lo = c * cs;
            if offset <= lo && offset + len >= lo + cs {
                full.insert(c);
            } else if a.chunk_written(c) {
                checked += 1;
                if let Some(mm) = a.verify_chunk(c) {
                    bad.push(mm);
                }
            }
        }
        self.csum.verified += checked;
        let repair = if bad.is_empty() {
            Step::Noop
        } else {
            self.repair_array_rot(cid, oid, &bad)?
        };
        if !full.is_empty() {
            self.rot
                .retain_array(&(cid.0, oid), |o| !full.contains(&(o / cs)));
        }
        Ok(repair)
    }

    /// Repair rotten array chunks: re-flip every registered flip
    /// (restoring the bytes the surviving redundancy reconstructs),
    /// clear the registry, and charge the reconstruction copies through
    /// the rebuild machinery.  Refuses with [`DaosError::BadChecksum`]
    /// when a chunk's rot exceeds its class redundancy — the caller
    /// must not serve (or fold in) its bytes.
    // simlint::panic_root — integrity path runs under injected faults: must never panic
    // simlint::allow(hot-alloc) — repair path: runs only when rot was detected, not per I/O
    fn repair_array_rot(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        mismatches: &[CsumMismatch],
    ) -> Result<Step, DaosError> {
        let layout = self.obj(cid, oid)?.layout.clone();
        let cs = self.array(cid, oid)?.chunk_size();
        let class = layout.class;
        let ec = self.ec_for(class);
        let rkey = (cid.0, oid);
        let mut moves: Vec<Step> = Vec::new();
        let mut span_bytes = 0u64;
        for mm in mismatches {
            let chunk = mm.chunk;
            let lo = chunk * cs;
            let group = layout.group_for(chunk_dkey_hash(chunk));
            let extents = self.rot.extents.get(&rkey);
            let flips: Vec<u64> = extents
                .map(|m| m.range(lo..lo + cs).map(|(&o, _)| o).collect())
                .unwrap_or_default();
            let parity_flips: Vec<(u64, u64)> = self
                .rot
                .parity
                .get(&rkey)
                .map(|s| {
                    s.iter()
                        .copied()
                        .filter(|&(o, _)| o / cs == chunk)
                        .collect()
                })
                .unwrap_or_default();
            // rotten copy indices: EC trusts the recomputed per-cell
            // verdict; replication derives them from the registry
            let rotten: BTreeSet<u64> = match class {
                ObjectClass::ErasureCoded { .. } => mm.cells.iter().map(|&c| c as u64).collect(),
                _ => extents
                    .map(|m| {
                        m.range(lo..lo + cs)
                            .flat_map(|(_, s)| s.iter().copied())
                            .collect()
                    })
                    .unwrap_or_default(),
            };
            self.csum.detected += rotten.len().max(1) as u64;
            let known = !flips.is_empty() || !parity_flips.is_empty();
            let repairable = known
                && match class {
                    ObjectClass::Sharded(_) | ObjectClass::ShardedMax => false,
                    ObjectClass::Replicated { .. } => {
                        !rotten.is_empty() && rotten.len() < group.len()
                    }
                    ObjectClass::ErasureCoded { p, .. } => rotten.len() <= p as usize,
                };
            if !repairable {
                self.csum.unrepairable += 1;
                return Err(DaosError::BadChecksum);
            }
            let a = self.array_mut(cid, oid)?;
            for &o in &flips {
                a.corrupt_at(o);
            }
            if let Some(ec) = ec.as_ref() {
                for &(o, pi) in &parity_flips {
                    a.corrupt_parity_at(o, pi as usize, ec);
                }
            }
            debug_assert!(a.verify_chunk(chunk).is_none(), "repair left chunk rotten");
            self.rot.retain_array(&rkey, |o| o / cs != chunk);
            self.csum.repaired += rotten.len() as u64;
            // cost: read enough clean copies, rewrite each rotten shard
            // (a replica, or an EC cell rebuilt from k clean cells)
            let (needed, bytes) = match class {
                ObjectClass::ErasureCoded { k, .. } => (k as usize, cs.div_ceil(k as u64)),
                _ => (1, cs),
            };
            let copies = self.repair_moves(group, &rotten, needed, bytes as f64);
            self.csum.repaired_bytes += bytes * copies.len() as u64;
            span_bytes += bytes * copies.len() as u64;
            moves.extend(copies);
        }
        Ok(repair_span(span_bytes, moves))
    }

    /// Repair copies for the `rotten` copies of `group`: the first
    /// `needed` clean, servable members feed one server-to-server copy
    /// of `bytes` onto each rotten copy's member.  Empty when fewer than
    /// `needed` clean sources remain.
    fn repair_moves(
        &self,
        group: &[TargetId],
        rotten: &BTreeSet<u64>,
        needed: usize,
        bytes: f64,
    ) -> Vec<Step> {
        let sources: Vec<TargetId> = group
            .iter()
            .enumerate()
            .filter(|&(i, &t)| !rotten.contains(&(i as u64)) && self.pool.is_servable(t))
            .map(|(_, &t)| t)
            .take(needed)
            .collect();
        if sources.len() < needed {
            return Vec::new();
        }
        rotten
            .iter()
            .map(|&r| self.rebuild_move(&sources, group[r as usize % group.len()], bytes))
            .collect()
    }

    /// Every stored unit from `from` on (from the start when `None`),
    /// in container / object / unit order: written array chunks by
    /// index, KV keys in key order, each with its object's data.  The
    /// one enumeration behind bit-rot placement and the scrubber.  A
    /// cursor names a unit, not a position, so a walk resumed after
    /// earlier units were removed still starts at the first unit not
    /// yet visited.
    fn units_from<'a>(
        &'a self,
        from: Option<&'a UnitCursor>,
    ) -> impl Iterator<Item = (ContainerId, Oid, &'a ObjData, Unit)> + 'a {
        let (c0, o0) = from.map_or((0, None), |(c, o, _)| (*c, Some(*o)));
        self.containers
            .iter()
            .flatten()
            .filter(move |cont| cont.id.0 >= c0)
            .flat_map(move |cont| {
                let lo = match o0 {
                    Some(o) if cont.id.0 == c0 => Bound::Included(o),
                    _ => Bound::Unbounded,
                };
                let objects = cont.objects.range((lo, Bound::Unbounded));
                objects.map(move |(&oid, entry)| (cont.id, oid, &entry.data))
            })
            .flat_map(move |(cid, oid, data)| {
                let at = from
                    .filter(|(c, o, _)| (*c, *o) == (cid.0, oid))
                    .map(|(_, _, u)| u);
                let (chunks, keys) = match data {
                    ObjData::Array(a) => {
                        let c0 = match at {
                            Some(Unit::Chunk(c)) => *c,
                            _ => 0,
                        };
                        (Some(a.written_chunks().filter(move |&c| c >= c0)), None)
                    }
                    ObjData::Kv(kv) => {
                        let k0: &[u8] = match at {
                            Some(Unit::Key(k)) => k,
                            _ => &[],
                        };
                        let keys = kv.list(b"").into_iter();
                        (None, Some(keys.filter(move |k| k.as_slice() >= k0)))
                    }
                };
                let chunks = chunks.into_iter().flatten().map(Unit::Chunk);
                let keys = keys.into_iter().flatten().map(Unit::Key);
                chunks.chain(keys).map(move |u| (cid, oid, data, u))
            })
    }

    /// Apply a bit-rot fault: deterministically select the `locus`-th
    /// stored unit (written array chunks holding bytes and KV values,
    /// in container / object / unit order) and flip one stored byte of
    /// its `shard`-th copy (replica index; for EC objects, cell index —
    /// parity cells included).  Re-rotting the same copy is idempotent;
    /// rotting *another* copy of an already-rotten unit extends the
    /// damage toward (and past) the redundancy limit.  Returns `false`
    /// when the pool stores no rot-able bytes (e.g. Sized data mode).
    // simlint::panic_root — fault-handling path: must never panic
    // simlint::allow(hot-alloc) — fault application: runs once per injected fault, not per event
    pub fn apply_bit_rot(&mut self, locus: u64, shard: u64) -> bool {
        let mut units: Vec<(ContainerId, Oid, Unit)> = self
            .units_from(None)
            .filter(|(_, _, data, unit)| match (data, unit) {
                (ObjData::Array(a), Unit::Chunk(c)) => a.chunk_stored_bytes(*c) > 0,
                _ => true,
            })
            .map(|(cid, oid, _, unit)| (cid, oid, unit))
            .collect();
        if units.is_empty() {
            return false;
        }
        let idx = (locus % units.len() as u64) as usize;
        match units.swap_remove(idx) {
            (cid, oid, Unit::Chunk(c)) => self.plant_chunk_rot(cid, oid, c, locus, shard),
            (cid, oid, Unit::Key(k)) => self.plant_kv_rot(cid, oid, &k, shard),
        }
    }

    /// Plant rot on one copy of an array chunk: pick a stored byte of
    /// the addressed replica/cell deterministically from `locus` and
    /// flip it (first copy only — further copies extend the registry's
    /// shard set without flipping again).
    // simlint::panic_root — fault-handling path: must never panic
    fn plant_chunk_rot(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        chunk: u64,
        locus: u64,
        shard: u64,
    ) -> bool {
        let (Ok(entry), Ok(a)) = (self.obj(cid, oid), self.array(cid, oid)) else {
            return false;
        };
        let (class, cs) = (entry.layout.class, a.chunk_size());
        let rf = entry.layout.group_for(chunk_dkey_hash(chunk)).len().max(1) as u64;
        let lo = chunk * cs;
        match class {
            ObjectClass::Sharded(_) | ObjectClass::ShardedMax => {
                self.plant_extent_rot(cid, oid, lo + chunk_dkey_hash(locus) % cs, 0)
            }
            ObjectClass::Replicated { .. } => {
                self.plant_extent_rot(cid, oid, lo + chunk_dkey_hash(locus) % cs, shard % rf)
            }
            ObjectClass::ErasureCoded { k, p } => {
                let (k, p) = (k as u64, p as u64);
                let cell = shard % (k + p);
                if cell >= k {
                    return self.plant_parity_rot(cid, oid, lo, cell - k);
                }
                let cell_len = cs.div_ceil(k);
                // land inside the addressed data cell, clamped to the
                // chunk's logical bytes (the tail cell carries padding)
                let mut within = cell * cell_len + chunk_dkey_hash(locus) % cell_len;
                if within >= cs {
                    within = cell * cell_len;
                }
                if within >= cs {
                    within = 0;
                }
                self.plant_extent_rot(cid, oid, lo + within, within / cell_len)
            }
        }
    }

    /// Flip the stored byte at `offset` (first copy only) and record
    /// the hit shard copy.  Returns `false` when no real byte backs
    /// the offset.
    // simlint::panic_root — fault-handling path: must never panic
    pub(super) fn plant_extent_rot(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        offset: u64,
        shard: u64,
    ) -> bool {
        let rkey = (cid.0, oid);
        let already = self
            .rot
            .extents
            .get(&rkey)
            .is_some_and(|m| m.contains_key(&offset));
        if !already && !self.array_mut(cid, oid).is_ok_and(|a| a.corrupt_at(offset)) {
            return false;
        }
        self.rot
            .extents
            .entry(rkey)
            .or_default()
            .entry(offset)
            .or_default()
            .insert(shard);
        true
    }

    /// Flip one byte of parity cell `parity_idx` in the chunk holding
    /// `offset` (first hit only) and record it.  Returns `false` for
    /// non-EC objects or out-of-range parity indices.
    // simlint::panic_root — fault-handling path: must never panic
    pub(super) fn plant_parity_rot(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        offset: u64,
        parity_idx: u64,
    ) -> bool {
        let rkey = (cid.0, oid);
        let (Ok(entry), Ok(a)) = (self.obj(cid, oid), self.array(cid, oid)) else {
            return false;
        };
        let (class, cs) = (entry.layout.class, a.chunk_size());
        let lo = offset / cs * cs;
        if self
            .rot
            .parity
            .get(&rkey)
            .is_some_and(|s| s.contains(&(lo, parity_idx)))
        {
            return true;
        }
        let Some(ec) = self.ec_for(class) else {
            return false;
        };
        let flip = |a: &mut ArrayData| a.corrupt_parity_at(lo, parity_idx as usize, &ec);
        if !self.array_mut(cid, oid).is_ok_and(flip) {
            return false;
        }
        self.rot
            .parity
            .entry(rkey)
            .or_default()
            .insert((lo, parity_idx));
        true
    }

    /// Flip a stored KV value byte (first copy only) and record the hit
    /// replica.  Returns `false` for absent or Sized values.
    // simlint::panic_root — fault-handling path: must never panic
    pub(super) fn plant_kv_rot(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        key: &[u8],
        shard: u64,
    ) -> bool {
        let rf = match self.obj(cid, oid) {
            Ok(entry) => entry.layout.group_for(dkey_hash(key)).len().max(1) as u64,
            Err(_) => return false,
        };
        let rkey = (cid.0, oid);
        let already = self.rot.kv.get(&rkey).is_some_and(|m| m.contains_key(key));
        if !already && !self.kv_mut(cid, oid).is_ok_and(|kv| kv.corrupt_value(key)) {
            return false;
        }
        self.rot
            .kv
            .entry(rkey)
            .or_default()
            .entry(key.to_vec())
            .or_default()
            .insert(shard % rf);
        true
    }

    // ---- background scrubber ----------------------------------------------------

    /// Start (or restart) a scrub pass from the beginning of the scan
    /// domain.  Drive it with [`DaosSystem::scrub_wave`].
    pub fn scrub_start(&mut self) {
        self.scrub.active = true;
        self.scrub.cursor = None;
    }

    /// Whether a scrub pass is in progress.
    pub fn scrub_active(&self) -> bool {
        self.scrub.active
    }

    /// Scrubber progress so far ([`ScrubReport::publish`] for
    /// telemetry).
    pub fn scrub_progress(&self) -> ScrubReport {
        self.scrub.report
    }

    /// Emit the next scrub wave: verify up to `max_units` stored units
    /// (array chunks and KV values) in container/object/unit order from
    /// the resume cursor, repairing what the redundancy covers, as one
    /// `scrub.wave` span of target-local disk reads plus any repair
    /// copies — all competing with foreground traffic through the same
    /// fairshare NVMe/engine resources.  Rot beyond redundancy is
    /// counted and **left in place**: reads refuse it loudly and the
    /// durability oracle names it.  Returns `None` when the pass is
    /// complete.  The cursor is replay-visible state, so a pass resumes
    /// byte-identically after a crash.
    // simlint::panic_root — scrub path runs under injected faults: must never panic
    // simlint::allow(hot-alloc) — wave construction: runs once per scrub wave (bounded by max_units), not per engine event
    pub fn scrub_wave(&mut self, max_units: usize) -> Option<Step> {
        assert!(max_units > 0);
        if !self.scrub.active {
            return None;
        }
        // the wave's units, plus the one the next wave resumes at
        let mut work: Vec<(ContainerId, Oid, Unit)> = self
            .units_from(self.scrub.cursor.as_ref())
            .map(|(cid, oid, _, unit)| (cid, oid, unit))
            .take(max_units + 1)
            .collect();
        self.scrub.cursor = if work.len() > max_units {
            work.pop().map(|(cid, oid, unit)| (cid.0, oid, unit))
        } else {
            None
        };
        if self.scrub.cursor.is_none() {
            self.scrub.active = false;
            self.scrub.report.passes += 1;
        }
        if work.is_empty() {
            return None;
        }
        let mut reads: Vec<Step> = Vec::new();
        let mut repairs: Vec<Step> = Vec::new();
        let mut wave_bytes = 0u64;
        for (cid, oid, unit) in work {
            let Ok(entry) = self.obj(cid, oid) else {
                continue;
            };
            let (group, bytes, per_member, chunk_size) = match (&entry.data, &unit) {
                (ObjData::Array(a), Unit::Chunk(c)) => {
                    let group = entry.layout.group_for(chunk_dkey_hash(*c)).to_vec();
                    let bytes = a.chunk_stored_bytes(*c);
                    let per_member = match entry.layout.class {
                        ObjectClass::ErasureCoded { .. } => {
                            bytes as f64 / group.len().max(1) as f64
                        }
                        _ => bytes as f64,
                    };
                    (group, bytes, per_member, a.chunk_size())
                }
                (ObjData::Kv(kv), Unit::Key(k)) => {
                    let bytes = kv.get(k).map_or(0, |v| v.len());
                    let group = entry.layout.group_for(dkey_hash(k)).to_vec();
                    (group, bytes, (bytes as f64).max(64.0), 0)
                }
                _ => continue,
            };
            self.scrub.report.units_scanned += 1;
            self.scrub.report.bytes_scanned += bytes;
            wave_bytes += bytes;
            reads.push(self.scrub_read_cost(&group, per_member));
            let before = self.csum;
            let repair = match &unit {
                Unit::Chunk(c) => self.array_verify_repair(cid, oid, c * chunk_size, chunk_size),
                Unit::Key(k) => self.kv_verify_repair(cid, oid, k, &group),
            };
            // beyond-redundancy rot is counted and left in place: reads
            // refuse it, the oracle names it (a clean unit's repair is a
            // no-op, which the wave's step drops)
            if let Ok(step) = repair {
                repairs.push(step);
            }
            let after = self.csum;
            self.scrub.report.detected += after.detected - before.detected;
            self.scrub.report.repaired += after.repaired - before.repaired;
            self.scrub.report.unrepairable += after.unrepairable - before.unrepairable;
        }
        self.scrub.report.waves += 1;
        let wave = Step::seq([Step::par(reads), Step::seq(repairs)]);
        Some(Step::span("scrub", "wave", wave_bytes, wave))
    }

    /// Target-local scan cost: each servable group member reads its
    /// share of the stored bytes straight off its NVMe through the
    /// engine — no client or network involvement, but full contention
    /// with foreground traffic on the shared fairshare resources.
    fn scrub_read_cost(&self, group: &[TargetId], bytes_each: f64) -> Step {
        let reads: Vec<Step> = group
            .iter()
            .filter(|&&t| self.pool.is_servable(t))
            .map(|&t| {
                let srv = &self.topo.servers[t.server as usize];
                let res = &self.srv_res[t.server as usize];
                let dev = self.dev_for(t);
                Step::seq([
                    Step::transfer(
                        bytes_each,
                        [srv.nvme_r[dev], srv.nvme_r_pool, res.engine_xfer],
                    ),
                    Step::delay(self.cal.nvme_read_lat_ns),
                ])
            })
            .collect();
        Step::par(reads)
    }
}

#[cfg(test)]
mod tests {
    use crate::data::DataMode;
    use crate::system::tests::{exec, with_container};
    use crate::ObjectClass;
    use cluster::payload::Payload;

    #[test]
    fn scrub_pass_resumes_at_its_key_after_an_earlier_key_is_removed() {
        let (mut sched, mut sys, cid) = with_container(3, DataMode::Full);
        let (kv, s) = sys.kv_create(0, cid, ObjectClass::RP_2).unwrap();
        exec(&mut sched, s);
        for i in 0..8u8 {
            let key = format!("k/{i:04}");
            let s = sys
                .kv_put(0, cid, kv, key.as_bytes(), Payload::Bytes(vec![i; 100]))
                .unwrap();
            exec(&mut sched, s);
        }
        assert!(sys.inject_corrupt_kv(cid, kv, b"k/0004", 0));
        sys.scrub_start();
        let s = sys.scrub_wave(4).unwrap();
        exec(&mut sched, s);
        // a key the pass already scanned goes away between waves
        let s = sys.kv_remove(0, cid, kv, b"k/0000").unwrap();
        exec(&mut sched, s);
        while let Some(s) = sys.scrub_wave(4) {
            exec(&mut sched, s);
        }
        let r = sys.scrub_progress();
        assert_eq!((r.units_scanned, r.passes), (8, 1), "{r:?}");
        assert_eq!(
            (r.detected, r.repaired),
            (1, 1),
            "k/0004 was never verified"
        );
    }
}
