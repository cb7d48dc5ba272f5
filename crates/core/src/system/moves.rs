//! Pool membership changes (exclusion, crash and restart, server add
//! and drain) and the background shard movement that follows them:
//! rebuild after a loss, rebalance after a membership change, and the
//! migration waves that ship a rebalance.
//!
//! One planner ([`DaosSystem::plan_moves`]) walks every shard-group
//! member and asks a per-caller destination policy where it goes:
//! replacement of fully-down members for rebuild, drain and reintegration
//! targets for rebalance.  One emitter ([`DaosSystem::emit_wave`]) ships
//! the planned moves in key order, checking each against the current
//! layout and pool map.  Rebuild drains its plan at once, 32 moves per
//! wave; migration keeps its plan as replay-visible state and ships one
//! wave per call.

use super::{DaosSystem, ServerRes};
use crate::class::ObjectClass;
use crate::container::ContainerId;
use crate::data::ObjData;
use crate::oid::Oid;
use crate::pool::{PoolMap, TargetId, TargetState};
use crate::rebuild::{pick_replacement, RebuildReport};
use simkit::{Scheduler, Step};
use std::collections::{BTreeMap, BTreeSet};

/// One planned shard move, addressed by `(container, object, group,
/// member)` so re-planning after a crash overwrites rather than
/// duplicates.  The key orders the pending set deterministically, which
/// makes wave emission (and therefore the replay digest) independent of
/// planning order.
type MoveKey = (u32, Oid, usize, usize);

/// Sources, destination and bytes of one planned shard move.  Each
/// source reads `bytes` and the destination writes `bytes`.
#[derive(Debug, Clone)]
struct MovePlan {
    sources: Vec<TargetId>,
    dst: TargetId,
    // simlint::dim(bytes)
    bytes: f64,
}

/// The background data-migration engine's bookkeeping: planned moves not
/// yet shipped, plus progress counters.  Lives inside [`DaosSystem`] and
/// is therefore replay-visible simulation state: waves pop moves in key
/// order, and every wave is validated against the *current* pool map and
/// layouts, so a crash (and the rebuild it triggers) simply invalidates
/// the stale moves — migration resumes with whatever is still correct.
#[derive(Debug, Clone, Default)]
pub(super) struct MigrationState {
    pending: BTreeMap<MoveKey, MovePlan>,
    progress: MigrationProgress,
}

/// Progress of the background migration engine
/// ([`DaosSystem::migration_progress`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MigrationProgress {
    /// Moves shipped in completed waves.
    pub moves_done: usize,
    /// Planned moves dropped at wave time because a crash/rebuild made
    /// them stale (object gone, layout remapped, destination down).
    pub moves_dropped: usize,
    /// Logical bytes shipped by completed waves.
    // simlint::dim(bytes)
    pub moved_bytes: f64,
}

impl MigrationProgress {
    /// Publish migration progress into a telemetry registry as
    /// `daos.migration.*` counters recorded at `at`.  Wave activity over
    /// time is already visible through the engine's span-open counters
    /// (`span.migration.wave`); these totals add the dropped-move and
    /// shipped-byte bookkeeping only the migration engine knows.  No-op
    /// on a disabled registry.
    pub fn publish(&self, tel: &mut simkit::Telemetry, at: simkit::SimTime) {
        tel.add_counters(
            at,
            &[
                ("daos.migration.moves_done", self.moves_done as u64),
                ("daos.migration.moves_dropped", self.moves_dropped as u64),
                // simlint::dim(bytes)
                ("daos.migration.moved_bytes", self.moved_bytes as u64),
            ],
        );
    }
}

/// Outcome of a rebalance planning pass
/// ([`DaosSystem::rebalance_plan`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RebalanceReport {
    /// Objects examined across all containers.
    pub objects_scanned: usize,
    /// Shard moves planned (layouts already remapped).
    pub moves_planned: usize,
    /// Logical bytes the planned moves will ship.
    // simlint::dim(bytes)
    pub bytes_planned: f64,
    /// Drained shards left in place because no destination was
    /// available; they are lost when the drain completes.
    pub moves_skipped: usize,
}

impl DaosSystem {
    /// The one move planner: walk every shard-group member of every live
    /// object in [`MoveKey`] order and ask `policy` where it goes.  The
    /// policy sees the pool map, the object's class, the member's group
    /// as remapped so far, the member's key, and its bytes: the object's
    /// logical size split over its groups (and over the `k` data cells
    /// for EC).  A planned move remaps the member at plan time — reads
    /// follow the new layout at once while the copy is modelled as
    /// background traffic.  Returns the objects scanned and the planned
    /// moves in key order.
    fn plan_moves(
        &mut self,
        mut policy: impl FnMut(&PoolMap, ObjectClass, &[TargetId], MoveKey, f64) -> Option<MovePlan>,
    ) -> (usize, Vec<(MoveKey, MovePlan)>) {
        let pool = &self.pool;
        let mut objects = 0;
        let mut plans = Vec::new();
        for cont in self.containers.iter_mut().flatten() {
            for (&oid, entry) in cont.objects.iter_mut() {
                objects += 1;
                let class = entry.layout.class;
                let obj_bytes = match &entry.data {
                    ObjData::Array(a) => a.size() as f64,
                    ObjData::Kv(kv) => kv.len() as f64 * 512.0,
                };
                let group_share = obj_bytes / entry.layout.groups.len().max(1) as f64;
                let bytes = match class {
                    ObjectClass::ErasureCoded { k, .. } => group_share / k as f64,
                    _ => group_share,
                };
                for (g, group) in entry.layout.groups.iter_mut().enumerate() {
                    for m in 0..group.len() {
                        let key = (cont.id.0, oid, g, m);
                        if let Some(plan) = policy(pool, class, group, key, bytes) {
                            group[m] = plan.dst;
                            plans.push((key, plan));
                        }
                    }
                }
            }
        }
        (objects, plans)
    }

    /// The one wave emitter: pop up to `max_moves` moves from `queue` in
    /// [`MoveKey`] order and check each against the current layout and
    /// pool map.  A move whose object is gone, whose member was remapped
    /// elsewhere, or whose destination cannot serve is stale and
    /// dropped.  A move whose sources all died is re-sourced from a
    /// servable member of its group (redundant classes can still feed
    /// the copy), or dropped when none remains — an unreplicated shard
    /// with a dead source is lost, and the durability oracle names it.
    /// Returns the wave's server-to-server copies and the bytes they
    /// ship; `None` when nothing in the queue could ship.
    fn emit_wave(
        &self,
        queue: &mut BTreeMap<MoveKey, MovePlan>,
        max_moves: usize,
        progress: &mut MigrationProgress,
    ) -> Option<(Vec<Step>, f64)> {
        let mut moves: Vec<Step> = Vec::new();
        let mut wave_bytes = 0.0;
        while moves.len() < max_moves {
            let Some(((cid, oid, g, m), plan)) = queue.pop_first() else {
                break;
            };
            let group = match self.obj(ContainerId(cid), oid) {
                Ok(entry) => entry.layout.groups.get(g),
                Err(_) => None,
            };
            let live = group.is_some_and(|grp| grp.get(m) == Some(&plan.dst))
                && self.pool.is_servable(plan.dst);
            let servable = |t: &TargetId| self.pool.is_servable(*t);
            let mut sources: Vec<TargetId> =
                plan.sources.iter().copied().filter(servable).collect();
            if sources.is_empty() {
                sources = group
                    .into_iter()
                    .flatten()
                    .copied()
                    .filter(|t| *t != plan.dst && servable(t))
                    .take(1)
                    .collect();
            }
            if !live || sources.is_empty() {
                progress.moves_dropped += 1;
                continue;
            }
            wave_bytes += plan.bytes;
            moves.push(self.rebuild_move(&sources, plan.dst, plan.bytes));
            progress.moves_done += 1;
            progress.moved_bytes += plan.bytes;
        }
        (!moves.is_empty()).then_some((moves, wave_bytes))
    }

    /// Re-protect every object affected by excluded targets: degraded
    /// shard-group members are remapped to healthy replacement targets
    /// and the surviving data is copied/reconstructed onto them,
    /// server-to-server.  Returns the report and the op chain modelling
    /// the data movement (submit it to account for rebuild time; real
    /// DAOS runs this in the background while serving degraded I/O).
    // simlint::panic_root — fault-handling path: must never panic
    // simlint::amortized — rebuild runs once per fault, not per event; its planning cost amortizes across the whole degraded window it repairs
    pub fn rebuild(&mut self) -> (RebuildReport, Step) {
        let mut report = RebuildReport::default();
        let (objects, plans) = self.plan_moves(|pool, class, group, (.., m), bytes| {
            let t = group[m];
            // repair fully-down members only: drained and reintegrating
            // targets still serve their shards and are the migration
            // engine's responsibility
            if pool.is_servable(t) {
                return None;
            }
            // the copy reads one surviving replica, or k surviving cells
            let needed = match class {
                ObjectClass::Sharded(_) | ObjectClass::ShardedMax => None,
                ObjectClass::Replicated { .. } => Some(1),
                ObjectClass::ErasureCoded { k, .. } => Some(k as usize),
            };
            let sources: Vec<TargetId> = group
                .iter()
                .copied()
                .filter(|&x| pool.is_servable(x))
                .take(needed.unwrap_or(0))
                .collect();
            let dst = match needed {
                Some(n) if sources.len() == n => pick_replacement(pool, group, t),
                _ => None,
            };
            let Some(dst) = dst else {
                report.shards_lost += 1;
                return None;
            };
            report.shards_rebuilt += 1;
            report.bytes_moved += bytes;
            Some(MovePlan {
                sources,
                dst,
                bytes,
            })
        });
        report.objects_scanned = objects;
        // ship the moves that carry bytes, throttled into waves so a mass
        // rebuild does not model as one infinitely-wide burst
        let mut queue: BTreeMap<MoveKey, MovePlan> =
            plans.into_iter().filter(|(_, p)| p.bytes > 0.0).collect();
        let mut progress = MigrationProgress::default();
        let mut waves: Vec<Step> = Vec::new();
        while let Some((moves, _)) = self.emit_wave(&mut queue, 32, &mut progress) {
            waves.push(Step::par(moves));
        }
        let moved = report.bytes_moved as u64;
        (
            report,
            Step::span("rebuild", "scan", moved, Step::seq(waves)),
        )
    }

    /// Server-to-server shard move: read `bytes` off each source (the
    /// surviving cells/replica), ship them to the destination server,
    /// write the rebuilt `bytes` there.
    // simlint::panic_root — fault-handling path: must never panic
    pub(super) fn rebuild_move(&self, sources: &[TargetId], dst: TargetId, bytes: f64) -> Step {
        let dsts = &self.topo.servers[dst.server as usize];
        let dres = &self.srv_res[dst.server as usize];
        let ddev = self.dev_for(dst);
        let reads = sources
            .iter()
            .map(|&src| {
                let ssrv = &self.topo.servers[src.server as usize];
                let sres = &self.srv_res[src.server as usize];
                let sdev = self.dev_for(src);
                Step::transfer(
                    bytes,
                    [
                        ssrv.nvme_r[sdev],
                        ssrv.nvme_r_pool,
                        sres.engine_xfer,
                        ssrv.nic_tx,
                        dsts.nic_rx,
                    ],
                )
            })
            .collect::<Vec<_>>();
        Step::span(
            "rebuild",
            "move",
            bytes as u64,
            Step::seq([
                Step::delay(self.cal.net_rtt_ns),
                Step::par(reads),
                Step::transfer(
                    bytes,
                    [dres.engine_xfer, dsts.nvme_w[ddev], dsts.nvme_w_pool],
                ),
                Step::delay(self.cal.nvme_write_lat_ns),
            ]),
        )
    }

    // ---- membership changes & the migration engine ------------------------------

    /// Exclude a target: new placements avoid it and reads of its shards
    /// go degraded (replica fail-over / EC reconstruction).
    // simlint::allow(digest-taint) — admin/API surface not yet driven by any digest scenario; wire into a scenario before relying on replay to witness it
    pub fn exclude_target(&mut self, t: TargetId) {
        self.pool.exclude(t);
    }

    /// Exclude every target of a server node.
    // simlint::allow(digest-taint) — admin/API surface not yet driven by any digest scenario; wire into a scenario before relying on replay to witness it
    pub fn exclude_server(&mut self, server: u16) {
        self.pool.exclude_server(server);
    }

    /// Reintegrate a target.
    // simlint::allow(digest-taint) — admin/API surface not yet driven by any digest scenario; wire into a scenario before relying on replay to witness it
    pub fn reintegrate_target(&mut self, t: TargetId) {
        self.pool.reintegrate(t);
    }

    /// A target crashes *mid-run* (fault injection): excluded like
    /// [`DaosSystem::exclude_target`], but the failure is initially
    /// **undetected** — the first data-path operation from each client
    /// node that touches the target fails with
    /// [`DaosError::TargetDown`], and only the retry (against the
    /// refreshed pool map) takes the degraded path.
    // simlint::panic_root — fault-handling path: must never panic
    pub fn crash_target(&mut self, t: TargetId) {
        self.pool.exclude(t);
        self.undetected.entry(t).or_default();
    }

    /// A crashed target returns: reintegrated and no longer reported as
    /// newly-down to any client.
    // simlint::panic_root — fault-handling path: must never panic
    pub fn restart_target(&mut self, t: TargetId) {
        self.pool.reintegrate(t);
        self.undetected.remove(&t);
    }

    /// Add a server to the pool online (`dmg system join` + extend).
    /// The topology must have spare hardware (deploys over fewer servers
    /// than the topology holds leave room to grow).  The new engine's
    /// service resources are created in `sched`; its targets join in
    /// `Reint` state — they receive migrated shards and serve them, but
    /// new layouts skip them until [`DaosSystem::finish_rebalance`]
    /// promotes them.  Returns the new server's rank.
    // simlint::allow(digest-taint) — membership op: driven by fault-plan actions, whose canonical encoding is already folded into the replay digest at install time
    pub fn add_server(&mut self, sched: &mut Scheduler) -> u16 {
        let s = self.pool.server_count();
        assert!(
            s < self.topo.server_count(),
            "topology has no spare server hardware to add"
        );
        let rank = self.pool.add_server();
        self.srv_res.push(ServerRes::new(sched, &self.cal, s));
        rank
    }

    /// Start draining a server (`dmg pool drain`): its targets keep
    /// serving their shards but leave new layouts; plan a rebalance to
    /// move the shards off, then [`DaosSystem::finish_rebalance`]
    /// retires them.
    // simlint::allow(digest-taint) — membership op: driven by fault-plan actions, whose canonical encoding is already folded into the replay digest at install time
    pub fn drain_server(&mut self, server: u16) {
        self.pool.drain_server(server);
    }

    /// Plan the data migration for the current membership: every shard
    /// on a draining target moves off it, and when reintegrating targets
    /// exist (a newly added server), a proportional share of the shards
    /// on up targets moves onto them — consistent-hashing-style minimal
    /// movement, so growing 4→5 servers relocates ≈1/5th of the data.
    ///
    /// Layouts are remapped at plan time (the same modelling shortcut as
    /// [`DaosSystem::rebuild`]): reads follow the new layout immediately
    /// while the planned moves model the background copy cost.  Ship the
    /// moves with [`DaosSystem::migration_wave`]; a crash between waves
    /// only invalidates the moves it made stale.
    // simlint::panic_root — membership-change path: must never panic
    // simlint::amortized — planning runs once per membership change, not per event; its scan amortizes across the whole rebalance it plans
    pub fn rebalance_plan(&mut self) -> RebalanceReport {
        // migration destinations: reintegrating targets in linear order
        let reint: Vec<TargetId> = (0..self.pool.total_targets())
            .map(|i| self.pool.target_at(i))
            .filter(|&t| self.pool.state(t) == TargetState::Reint)
            .collect();
        let total = self.pool.total_targets() as u64;
        let mut report = RebalanceReport::default();
        let (objects, plans) = self.plan_moves(|pool, _, group, (_, oid, g, m), bytes| {
            let from = group[m];
            let h = move_hash(&oid, g, m);
            let dst = match pool.state(from) {
                // drained shards must leave: prefer the new server's
                // targets, else any up target via the rebuild replacement
                // policy, else the shard stays and is lost when the drain
                // retires
                TargetState::Drain => pick_reint_dest(pool, group, from, &reint, h)
                    .or_else(|| pick_replacement(pool, group, from)),
                // minimal movement onto a new server: member moves iff
                // its hash lands in the added slice
                TargetState::Up if !reint.is_empty() && h % total < reint.len() as u64 => {
                    pick_reint_dest(pool, group, from, &reint, h)
                }
                _ => None,
            };
            let Some(dst) = dst else {
                if pool.state(from) == TargetState::Drain {
                    report.moves_skipped += 1;
                }
                return None;
            };
            report.moves_planned += 1;
            report.bytes_planned += bytes;
            Some(MovePlan {
                sources: vec![from],
                dst,
                bytes,
            })
        });
        report.objects_scanned = objects;
        // re-planning overwrites: the newest layout decision wins
        self.migration.pending.extend(plans);
        report
    }

    /// Emit the next migration wave: up to `max_moves` pending moves,
    /// validated against the *current* layouts and pool map, as one
    /// parallel step of server-to-server copies competing with
    /// foreground traffic through the same NIC/engine/NVMe resources.
    /// Stale moves (object punched, layout remapped by a crash-triggered
    /// rebuild, destination no longer servable) are dropped and counted
    /// — this is what makes migration resumable after a crash.  Returns
    /// `None` when nothing remains to ship.
    // simlint::panic_root — migration path runs under injected faults: must never panic
    // simlint::allow(hot-alloc) — wave construction: runs once per migration wave (bounded by max_moves), not per engine event
    pub fn migration_wave(&mut self, max_moves: usize) -> Option<Step> {
        assert!(max_moves > 0);
        let mut state = std::mem::take(&mut self.migration);
        let wave = self.emit_wave(&mut state.pending, max_moves, &mut state.progress);
        self.migration = state;
        let (moves, bytes) = wave?;
        Some(Step::span(
            "migrate",
            "wave",
            bytes as u64,
            Step::par(moves),
        ))
    }

    /// Planned moves not yet shipped.
    pub fn migration_pending(&self) -> usize {
        self.migration.pending.len()
    }

    /// Progress of the migration engine so far.
    pub fn migration_progress(&self) -> MigrationProgress {
        self.migration.progress
    }

    /// Complete the rebalance: retire fully-drained targets
    /// (`Drain` → `Down`) and promote reintegrating ones (`Reint` →
    /// `Up`).  Call once [`DaosSystem::migration_pending`] reaches zero;
    /// any shard the planner could not move off a drained target becomes
    /// unavailable here, which is exactly what the durability oracles
    /// are watching for.
    // simlint::allow(digest-taint) — membership op: driven by fault-plan actions, whose canonical encoding is already folded into the replay digest at install time
    pub fn finish_rebalance(&mut self) {
        self.pool.retire_drained();
        self.pool.promote_reint();
    }
}

/// Deterministic per-shard hash deciding whether (and where) a shard
/// moves during a rebalance.  A pure function of the shard's identity,
/// so replanning after a crash reproduces the same decisions.
fn move_hash(oid: &Oid, g: usize, m: usize) -> u64 {
    simkit::SplitMix64::new(oid.placement_hash() ^ ((g as u64) << 20) ^ (m as u64 + 1)).next_u64()
}

/// Destination among the reintegrating targets only, preserving
/// fault-domain spread (no server already used by the group); `None`
/// when every reintegrating target collides with the group's servers.
fn pick_reint_dest(
    pool: &PoolMap,
    group: &[TargetId],
    from: TargetId,
    reint: &[TargetId],
    hash: u64,
) -> Option<TargetId> {
    let used: BTreeSet<u16> = group
        .iter()
        .copied()
        .filter(|&t| t != from && pool.is_servable(t))
        .map(|t| t.server)
        .collect();
    let fresh: Vec<TargetId> = reint
        .iter()
        .copied()
        .filter(|t| !used.contains(&t.server))
        .collect();
    if fresh.is_empty() {
        return None;
    }
    Some(fresh[(hash % fresh.len() as u64) as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DataMode;
    use crate::ledger::OracleKind;
    use crate::system::tests::{exec, pool_with_spares};
    use crate::system::DaosError;
    use cluster::payload::Payload;

    fn drive_migration(sched: &mut Scheduler, sys: &mut DaosSystem) -> usize {
        let mut waves = 0;
        while let Some(step) = sys.migration_wave(16) {
            exec(sched, step);
            waves += 1;
        }
        assert_eq!(sys.migration_pending(), 0);
        waves
    }

    #[test]
    fn online_add_server_rebalances_minimally() {
        let (mut sched, mut sys, cid) = pool_with_spares(5, 4, DataMode::Full);
        sys.enable_ledger();
        let (oid, s) = sys.array_create(0, cid, ObjectClass::SX, 1 << 16).unwrap();
        exec(&mut sched, s);
        let mut rng = simkit::SplitMix64::new(7);
        let mut data = vec![0u8; 1 << 20];
        rng.fill_bytes(&mut data);
        let s = sys
            .array_write(0, cid, oid, 0, Payload::Bytes(data.clone()))
            .unwrap();
        exec(&mut sched, s);
        let v0 = sys.pool().version();
        let rank = sys.add_server(&mut sched);
        assert_eq!(rank, 4);
        assert!(sys.pool().version() > v0);
        assert_eq!(sys.pool().server_count(), 5);
        // new targets serve but don't place yet
        assert_eq!(sys.pool().up_count(), 4 * sys.cal().targets_per_server);
        let report = sys.rebalance_plan();
        let total_members: usize = 5 * sys.cal().targets_per_server;
        // minimal movement: roughly 1/5th of the shard population moves,
        // certainly not all of it
        assert!(report.moves_planned > 0, "growth must move something");
        assert!(
            report.moves_planned < total_members / 2,
            "moved {} of {} members — not minimal",
            report.moves_planned,
            total_members
        );
        let waves = drive_migration(&mut sched, &mut sys);
        assert!(waves >= 1);
        sys.finish_rebalance();
        assert_eq!(sys.pool().up_count(), 5 * sys.cal().targets_per_server);
        // data survives the move and the new layout serves it
        let (r, s) = sys.array_read(0, cid, oid, 0, 1 << 20).unwrap();
        exec(&mut sched, s);
        assert_eq!(r.bytes().unwrap(), &data[..]);
        assert!(sys.verify_durability(0).ok());
        assert!(sys.verify_redundancy().ok());
        let progress = sys.migration_progress();
        assert_eq!(progress.moves_done, report.moves_planned);
        assert!(progress.moved_bytes > 0.0);
    }

    #[test]
    fn drain_server_evacuates_and_retires() {
        let (mut sched, mut sys, cid) = pool_with_spares(3, 3, DataMode::Full);
        sys.enable_ledger();
        let (oid, s) = sys
            .array_create(0, cid, ObjectClass::RP_2, 1 << 16)
            .unwrap();
        exec(&mut sched, s);
        let mut rng = simkit::SplitMix64::new(9);
        let mut data = vec![0u8; 400_000];
        rng.fill_bytes(&mut data);
        let s = sys
            .array_write(0, cid, oid, 0, Payload::Bytes(data.clone()))
            .unwrap();
        exec(&mut sched, s);
        sys.drain_server(1);
        // drained targets still serve while migration runs
        let (r, s) = sys.array_read(0, cid, oid, 0, 400_000).unwrap();
        exec(&mut sched, s);
        assert_eq!(r.bytes().unwrap(), &data[..]);
        let report = sys.rebalance_plan();
        assert!(report.moves_planned > 0);
        assert_eq!(report.moves_skipped, 0, "2 healthy servers can host RP_2");
        drive_migration(&mut sched, &mut sys);
        sys.finish_rebalance();
        // the drained server is retired and no live layout references it
        assert_eq!(sys.pool().up_count(), 2 * sys.cal().targets_per_server);
        for i in 0..sys.pool().total_targets() {
            let t = sys.pool().target_at(i);
            if t.server == 1 {
                assert!(!sys.pool().is_servable(t));
            }
        }
        assert!(sys.verify_durability(0).ok());
        assert!(sys.verify_redundancy().ok());
        let (r, s) = sys.array_read(0, cid, oid, 0, 400_000).unwrap();
        exec(&mut sched, s);
        assert_eq!(r.bytes().unwrap(), &data[..]);
    }

    #[test]
    fn destination_crash_mid_migration_loses_unreplicated_shard() {
        let (mut sched, mut sys, cid) = pool_with_spares(2, 2, DataMode::Full);
        sys.enable_ledger();
        let (oid, s) = sys.array_create(0, cid, ObjectClass::S1, 1 << 16).unwrap();
        exec(&mut sched, s);
        let s = sys
            .array_write(0, cid, oid, 0, Payload::Bytes(vec![42u8; 100_000]))
            .unwrap();
        exec(&mut sched, s);
        let home = sys.obj(cid, oid).unwrap().layout.groups[0][0];
        sys.drain_server(home.server);
        let report = sys.rebalance_plan();
        assert!(report.moves_planned >= 1);
        // the migration destination dies before the wave ships
        let dst = sys.obj(cid, oid).unwrap().layout.groups[0][0];
        assert_ne!(dst.server, home.server);
        sys.crash_target(dst);
        // every move to the dead destination is dropped as stale
        assert!(sys.migration_wave(16).is_none() || sys.migration_progress().moves_dropped > 0);
        while let Some(step) = sys.migration_wave(16) {
            exec(&mut sched, step);
        }
        sys.finish_rebalance();
        // an unreplicated shard whose destination died is gone — the
        // durability oracle must name the loss
        let audit = sys.verify_durability(0);
        assert!(
            audit
                .violations
                .iter()
                .any(|v| v.oracle == OracleKind::AckedDurability),
            "expected an acked-durability violation, got: {:?}",
            audit.violations
        );
    }

    /// Drain the server holding an object's first shard, then crash
    /// every target of that server — the planned sources — before any
    /// wave ships.
    fn drain_then_crash_sources(class: ObjectClass) -> (DaosSystem, RebalanceReport) {
        let (mut sched, mut sys, cid) = pool_with_spares(3, 3, DataMode::Full);
        sys.enable_ledger();
        let (oid, s) = sys.array_create(0, cid, class, 1 << 16).unwrap();
        exec(&mut sched, s);
        let s = sys
            .array_write(0, cid, oid, 0, Payload::Bytes(vec![7u8; 300_000]))
            .unwrap();
        exec(&mut sched, s);
        let home = sys.obj(cid, oid).unwrap().layout.groups[0][0].server;
        sys.drain_server(home);
        let report = sys.rebalance_plan();
        assert!(report.moves_planned >= 1);
        for target in 0..sys.cal().targets_per_server as u16 {
            sys.crash_target(TargetId {
                server: home,
                target,
            });
        }
        drive_migration(&mut sched, &mut sys);
        (sys, report)
    }

    #[test]
    fn dead_source_is_resourced_from_the_surviving_group() {
        // RP_2: the surviving replica feeds every copy
        let (mut sys, report) = drain_then_crash_sources(ObjectClass::RP_2);
        let progress = sys.migration_progress();
        assert_eq!(progress.moves_done, report.moves_planned);
        assert_eq!(progress.moves_dropped, 0);
        sys.finish_rebalance();
        assert!(sys.verify_durability(0).ok());
        // S1: no other copy exists, so the same move is dropped
        let (sys, report) = drain_then_crash_sources(ObjectClass::S1);
        let progress = sys.migration_progress();
        assert_eq!(progress.moves_done, 0);
        assert_eq!(progress.moves_dropped, report.moves_planned);
    }

    #[test]
    fn migration_resumes_after_crash_and_rebuild() {
        let (mut sched, mut sys, cid) = pool_with_spares(4, 3, DataMode::Full);
        sys.enable_ledger();
        let mut rng = simkit::SplitMix64::new(11);
        let mut oids = Vec::new();
        for _ in 0..6 {
            let (oid, s) = sys
                .array_create(0, cid, ObjectClass::RP_2, 1 << 16)
                .unwrap();
            exec(&mut sched, s);
            let mut data = vec![0u8; 200_000];
            rng.fill_bytes(&mut data);
            let s = sys
                .array_write(0, cid, oid, 0, Payload::Bytes(data.clone()))
                .unwrap();
            exec(&mut sched, s);
            oids.push((oid, data));
        }
        sys.add_server(&mut sched);
        sys.drain_server(0);
        let report = sys.rebalance_plan();
        assert!(report.moves_planned > 0);
        // ship one wave, then a target crashes mid-migration
        if let Some(step) = sys.migration_wave(4) {
            exec(&mut sched, step);
        }
        let victim = TargetId {
            server: 1,
            target: 0,
        };
        sys.crash_target(victim);
        let (_rep, step) = sys.rebuild();
        exec(&mut sched, step);
        // migration resumes: stale moves (remapped by the rebuild or
        // aimed at the dead target) drop, the rest ship
        drive_migration(&mut sched, &mut sys);
        sys.finish_rebalance();
        for (oid, data) in &oids {
            // reads may observe the crash once, then go degraded
            let mut got = sys.array_read(0, cid, *oid, 0, data.len() as u64);
            while matches!(got, Err(DaosError::TargetDown)) {
                got = sys.array_read(0, cid, *oid, 0, data.len() as u64);
            }
            let (r, s) = got.unwrap();
            exec(&mut sched, s);
            assert_eq!(r.bytes().unwrap(), &data[..]);
        }
        assert!(sys.verify_durability(0).ok());
    }
}
