//! Durability audit: the acked-write ledger, the read-back and
//! redundancy oracles, and the planted-violation hooks that prove the
//! oracles catch what they claim to.

use super::{DaosError, DaosSystem};
use crate::container::ContainerId;
use crate::ledger::{
    content_digest, AckedValue, DurabilityLedger, OracleKind, OracleReport, Violation,
};
use crate::oid::Oid;
use crate::ObjectClass;
use cluster::payload::ReadPayload;

impl DaosSystem {
    /// Start recording acknowledged writes for the durability oracles.
    /// Call once after deploy, before the workload; the ledger is then
    /// maintained by every mutating data path and consumed by
    /// [`DaosSystem::verify_durability`].
    // simlint::allow(digest-taint) — oracle bookkeeping: written by data paths, never read by them; cannot alter any schedule
    pub fn enable_ledger(&mut self) {
        self.ledger = Some(DurabilityLedger::new());
    }

    /// The acked-write ledger, when enabled.
    pub fn ledger(&self) -> Option<&DurabilityLedger> {
        self.ledger.as_ref()
    }

    /// Targets of the current map that cannot serve I/O.  Only these can
    /// hold an undetected crash, so they bound the auditor's retry
    /// budget ([`DaosSystem::verify_durability`]).
    fn down_targets(&self) -> usize {
        self.pool.total_targets() - self.pool.servable_count()
    }

    /// Read every acknowledged write back through the owning API and
    /// report anything missing, wrong, or unservable.
    ///
    /// The auditor behaves like any client: its reads observe
    /// still-undetected crashes ([`DaosError::TargetDown`]) and retry
    /// against the refreshed pool map, exactly as application reads do.
    /// Content is compared byte-for-byte in Full data mode and by
    /// length in Sized mode.  Returned [`simkit::Step`] costs are
    /// discarded — this is an offline audit, run after quiescence, that
    /// must not perturb the simulated schedule.
    // simlint::allow(digest-taint) — offline audit: cost steps are discarded and only crash-detection bookkeeping is touched, after the workload has quiesced
    pub fn verify_durability(&mut self, client: usize) -> OracleReport {
        // reads never touch the ledger, so the audit borrows it out of
        // the system instead of copying every acked byte
        let Some(ledger) = self.ledger.take() else {
            return OracleReport::default();
        };
        let mut report = OracleReport::default();
        for ((cid, oid, key), acked) in ledger.kv_entries() {
            report.checked_kv += 1;
            let subject = format!(
                "cont {} obj {} key {:?}",
                cid.0,
                oid,
                String::from_utf8_lossy(key)
            );
            self.audit_read(&mut report, (*cid, *oid), subject, acked, |sys| {
                sys.kv_get(client, *cid, *oid, key).map(|(read, _)| read)
            });
        }
        for ((cid, oid), extents) in ledger.extent_entries() {
            for (&offset, acked) in extents {
                report.checked_extents += 1;
                let subject = format!(
                    "cont {} obj {} extent [{}, {})",
                    cid.0,
                    oid,
                    offset,
                    offset + acked.len()
                );
                self.audit_read(&mut report, (*cid, *oid), subject, acked, |sys| {
                    sys.array_read(client, *cid, *oid, offset, acked.len())
                        .map(|(read, _)| read)
                });
            }
        }
        self.ledger = Some(ledger);
        report
    }

    /// One audited read-back of `acked` on `object`: retry past crash
    /// detections, then record a violation for a wrong, corrupt or
    /// failed read.
    fn audit_read(
        &mut self,
        report: &mut OracleReport,
        (cid, oid): (ContainerId, Oid),
        subject: String,
        acked: &AckedValue,
        mut read: impl FnMut(&mut Self) -> Result<ReadPayload, DaosError>,
    ) {
        let mut got = read(self);
        // first touches of crashed targets fail once per client;
        // detection is monotone per (client, target), so the retry
        // budget is the number of down targets in the *current* map,
        // re-read each attempt — membership changes (drained servers
        // retired mid-audit, servers added) neither inflate nor starve it
        let mut detections = 0;
        while matches!(got, Err(DaosError::TargetDown)) && detections < self.down_targets() {
            detections += 1;
            got = read(self);
        }
        let (oracle, detail) = match got {
            Ok(read) => match content_mismatch(acked, &read) {
                Some(detail) => (self.mismatch_kind(cid, oid), detail),
                None => return,
            },
            Err(DaosError::BadChecksum) => (
                OracleKind::Corruption,
                format!(
                    "acked {} bytes, checksum mismatch with rot beyond redundancy",
                    acked.len()
                ),
            ),
            Err(e) => (
                OracleKind::AckedDurability,
                format!("acked {} bytes, read failed: {e:?}", acked.len()),
            ),
        };
        report.violations.push(Violation {
            oracle,
            subject,
            detail,
        });
    }

    /// Classify a read-back content mismatch: rot the registry still
    /// names is **Corruption** — bytes silently wrong, not lost; a
    /// mismatch on a redundant class otherwise means fail-over or
    /// reconstruction served bad bytes; on a plain class it is a
    /// straight durability loss.
    fn mismatch_kind(&self, cid: ContainerId, oid: Oid) -> OracleKind {
        if self.rot.touches(&(cid.0, oid)) {
            return OracleKind::Corruption;
        }
        match self.obj(cid, oid).map(|e| e.layout.class) {
            Ok(ObjectClass::Replicated { .. }) | Ok(ObjectClass::ErasureCoded { .. }) => {
                OracleKind::Reconstruction
            }
            _ => OracleKind::AckedDurability,
        }
    }

    /// Check that every shard group of every live object is fully
    /// redundant again (no down members) — the post-rebuild invariant
    /// behind the paper's time-to-redundancy-restored measurements.
    pub fn verify_redundancy(&self) -> OracleReport {
        let mut report = OracleReport::default();
        for cont in self.containers.iter().flatten() {
            for (oid, entry) in &cont.objects {
                for (g, group) in entry.layout.groups.iter().enumerate() {
                    report.checked_groups += 1;
                    let down: Vec<String> = group
                        .iter()
                        .filter(|&&t| !self.pool.is_up(t))
                        .map(|t| format!("{}.{}", t.server, t.target))
                        .collect();
                    if !down.is_empty() {
                        report.violations.push(Violation {
                            oracle: OracleKind::RedundancyRestored,
                            subject: format!("cont {} obj {} group {g}", cont.id.0, oid),
                            detail: format!("down members after rebuild: {}", down.join(", ")),
                        });
                    }
                }
            }
        }
        report
    }

    /// Remove one acked KV entry behind the ledger's back — a
    /// **planted-violation test hook** for the oracle self-tests, never
    /// called by any data path.  Returns `false` when the entry does
    /// not exist.
    // simlint::allow(digest-taint) — planted-violation test hook: deliberately corrupts state to prove the oracles catch it
    pub fn inject_drop_acked_kv(&mut self, cid: ContainerId, oid: Oid, key: &[u8]) -> bool {
        self.kv_mut(cid, oid).is_ok_and(|kv| kv.remove(key))
    }

    /// Flip one stored byte — a **planted-rot test hook**; see
    /// [`crate::ArrayData::corrupt_at`].  For Array objects the flip
    /// lands at `offset` (inside one data cell for EC); for Key-Value
    /// objects it lands in the value of the `offset`-th key (sorted
    /// order).  The rot registry records the damage against shard copy
    /// 0, so verified reads detect it and repair it when redundancy
    /// allows.  Returns `false` when no real byte backs the offset.
    // simlint::allow(digest-taint) — planted-violation test hook: deliberately corrupts state to prove the oracles catch it
    pub fn inject_corrupt_extent(&mut self, cid: ContainerId, oid: Oid, offset: u64) -> bool {
        let key = match self.kv(cid, oid) {
            Ok(kv) => {
                let keys = kv.list(b"");
                if keys.is_empty() {
                    return false;
                }
                keys[(offset % keys.len() as u64) as usize].clone()
            }
            Err(DaosError::WrongObjectType) => return self.plant_extent_rot(cid, oid, offset, 0),
            Err(_) => return false,
        };
        self.plant_kv_rot(cid, oid, &key, 0)
    }

    /// Flip one stored byte of a specific replica/cell copy — the
    /// beyond-redundancy planting hook: calling it for every shard of a
    /// location rots the datum past what repair can recover.
    // simlint::allow(digest-taint) — planted-violation test hook: deliberately corrupts state to prove the oracles catch it
    pub fn inject_corrupt_replica(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        offset: u64,
        shard: u64,
    ) -> bool {
        self.plant_extent_rot(cid, oid, offset, shard)
    }

    /// Flip one byte of EC parity cell `parity_idx` in the chunk
    /// holding `offset` — the planted-rot hook for cells no logical
    /// byte offset addresses.
    // simlint::allow(digest-taint) — planted-violation test hook: deliberately corrupts state to prove the oracles catch it
    pub fn inject_corrupt_parity(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        offset: u64,
        parity_idx: u64,
    ) -> bool {
        self.plant_parity_rot(cid, oid, offset, parity_idx)
    }

    /// Flip a stored byte of a KV value's `shard`-th replica copy.
    // simlint::allow(digest-taint) — planted-violation test hook: deliberately corrupts state to prove the oracles catch it
    pub fn inject_corrupt_kv(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        key: &[u8],
        shard: u64,
    ) -> bool {
        self.plant_kv_rot(cid, oid, key, shard)
    }
}

/// Compare an acked value against what a verification read returned:
/// byte-for-byte when both sides carry bytes, by length otherwise
/// (Sized mode tracks no content).  `None` means they agree.
fn content_mismatch(acked: &AckedValue, read: &ReadPayload) -> Option<String> {
    let read_len = read.len();
    if acked.len() != read_len {
        return Some(format!(
            "acked {} bytes, read {} bytes",
            acked.len(),
            read_len
        ));
    }
    match (acked, read) {
        (AckedValue::Bytes(b), ReadPayload::Bytes(rb)) if b != rb => {
            let first = b.iter().zip(rb.iter()).position(|(x, y)| x != y);
            Some(format!(
                "content differs at byte {} of {} (acked digest {:#018x}, read digest {:#018x})",
                first.unwrap_or(0),
                b.len(),
                content_digest(b),
                content_digest(rb),
            ))
        }
        _ => None,
    }
}
