//! The deployed DAOS system: pool + engines + the libdaos-style API.
//!
//! [`DaosSystem`] couples three things:
//!
//! 1. **logical state** — containers, objects, their payloads
//!    ([`crate::data`]), placement ([`crate::pool`]);
//! 2. **service resources** — one RPC/data-processing pipe per engine and
//!    one request-service per target, layered on the [`cluster`]
//!    hardware, plus the pool's fixed-size metadata replica group;
//! 3. **the API** — each operation mutates logical state immediately and
//!    returns a [`Step`] op-chain whose execution models the operation's
//!    time: client software overhead, a network round trip, per-target
//!    request service, shared data movement through NIC/engine/NVMe, and
//!    device latency.
//!
//! Benchmarks submit the returned steps to the scheduler; nothing in this
//! crate talks to the engine directly, which keeps all semantics unit
//! testable without simulation.  Membership changes with rebuild and
//! rebalance live in `moves`, checksums and the scrubber in `integrity`,
//! and the durability oracles in `audit`.

mod audit;
mod integrity;
mod moves;

pub use integrity::{CsumStats, ScrubReport};
pub use moves::{MigrationProgress, RebalanceReport};

use crate::class::ObjectClass;
use crate::container::{Container, ContainerId, ContainerProps, ObjectEntry};
use crate::data::{ArrayData, CellAvailability, DataError, DataMode, KvData, ObjData};
use crate::ec::ErasureCode;
use crate::ledger::DurabilityLedger;
use crate::oid::{Oid, FLAG_KV};
use crate::pool::{PoolMap, TargetId};
use cluster::payload::{Payload, ReadPayload};
use cluster::{units, Calibration, Topology};
use integrity::{RotState, ScrubState};
use moves::MigrationState;
use simkit::{ResourceId, Scheduler, Step};
use std::collections::{BTreeMap, BTreeSet};

/// Errors surfaced by the DAOS API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DaosError {
    /// Unknown container id.
    NoSuchContainer,
    /// Unknown object id.
    NoSuchObject,
    /// KV operation on an Array object (or vice versa).
    WrongObjectType,
    /// Object class not usable for this object kind (e.g. EC Key-Values).
    InvalidClass,
    /// Data lives on down targets and cannot be served.
    // simlint::terminal_error — data loss is final; no retry can serve it
    Unavailable,
    /// Key not found.
    NoSuchKey,
    /// The operation exceeded its per-op timeout budget (transient:
    /// retry with backoff).
    Timeout,
    /// The addressed target crashed and this client had not yet observed
    /// the failure; the pool map is refreshed and a retry takes the
    /// degraded path (replica fail-over / EC reconstruction).
    TargetDown,
    /// A stored checksum failed verification and the rot exceeds the
    /// class redundancy, so the verified read refuses to serve the
    /// bytes.  Classified transient (a scrub repair or rewrite may heal
    /// the extent between attempts), but when nothing heals it the
    /// retry budget exhausts and the failure surfaces loudly — bad
    /// bytes are never returned.
    BadChecksum,
    /// Generic injected transient failure (fault plans).
    Retriable,
}

impl From<DataError> for DaosError {
    fn from(e: DataError) -> Self {
        match e {
            DataError::Unavailable => DaosError::Unavailable,
        }
    }
}

/// Per-engine service resources.
#[derive(Debug, Clone)]
struct ServerRes {
    /// RPC/data processing pipe of the engine (bytes/s, both directions).
    engine_xfer: ResourceId,
    /// Per-target request service (ops/s).
    tgt_svc: Vec<ResourceId>,
}

impl ServerRes {
    /// Create server `s`'s engine pipe and per-target services.
    fn new(sched: &mut Scheduler, cal: &Calibration, s: usize) -> ServerRes {
        ServerRes {
            engine_xfer: sched.add_resource(format!("daos{s}.engine"), cal.engine_xfer_bw),
            tgt_svc: (0..cal.targets_per_server)
                .map(|t| sched.add_resource(format!("daos{s}.tgt{t}"), cal.target_svc_iops))
                .collect(),
        }
    }
}

/// A deployed DAOS pool with its API.
// simlint::sim_state — replay-visible simulation state
pub struct DaosSystem {
    topo: Topology,
    cal: Calibration,
    pool: PoolMap,
    mode: DataMode,
    containers: Vec<Option<Container>>,
    srv_res: Vec<ServerRes>,
    /// The pool metadata / container service replica group: a fixed-size
    /// service that does NOT scale with the server count.
    pool_md_svc: ResourceId,
    ec_cache: BTreeMap<(u8, u8), ErasureCode>,
    /// Crashed targets ([`DaosSystem::crash_target`]) mapped to the
    /// client nodes that have already observed the failure.  The first
    /// data-path op from each client node touching such a target fails
    /// with [`DaosError::TargetDown`] — modelling the RPC timeout and
    /// pool-map refresh — after which that client uses degraded paths.
    /// Administrative exclusion ([`DaosSystem::exclude_target`]) is
    /// already propagated through the pool map and triggers no error.
    undetected: BTreeMap<TargetId, BTreeSet<usize>>,
    /// Per-server extra completion latency (ns) injected by
    /// delayed-completion faults; applied to every data-path op chain
    /// touching the server's targets.
    extra_delay: BTreeMap<u16, u64>,
    /// Shadow record of acknowledged writes for the durability oracles
    /// ([`DaosSystem::enable_ledger`]).  `None` (the default) costs
    /// nothing; when enabled it is written by the data paths but never
    /// read by them, so it cannot alter any schedule.
    ledger: Option<DurabilityLedger>,
    /// The background data-migration engine (rebalance after server
    /// add/drain).
    migration: MigrationState,
    /// Which stored copies are currently bit-rotten (see [`RotState`]).
    rot: RotState,
    /// End-to-end checksum activity counters.
    csum: CsumStats,
    /// The background scrubber (cursor + progress).
    scrub: ScrubState,
}

impl DaosSystem {
    /// Deploy a pool over the first `servers` nodes of `topo`, creating
    /// the engine service resources in `sched`.
    pub fn deploy(
        topo: &Topology,
        sched: &mut Scheduler,
        servers: usize,
        mode: DataMode,
    ) -> DaosSystem {
        assert!(servers >= 1 && servers <= topo.server_count());
        let cal = topo.cal.clone();
        let srv_res = (0..servers)
            .map(|s| ServerRes::new(sched, &cal, s))
            .collect();
        let pool_md_svc = sched.add_resource("daos.pool_md", cal.pool_md_iops);
        DaosSystem {
            topo: topo.clone(),
            pool: PoolMap::new(servers, cal.targets_per_server),
            cal,
            mode,
            containers: Vec::new(),
            srv_res,
            pool_md_svc,
            ec_cache: BTreeMap::new(),
            undetected: BTreeMap::new(),
            extra_delay: BTreeMap::new(),
            ledger: None,
            migration: MigrationState::default(),
            rot: RotState::default(),
            csum: CsumStats::default(),
            scrub: ScrubState::default(),
        }
    }

    /// The pool map (health, placement).
    pub fn pool(&self) -> &PoolMap {
        &self.pool
    }

    /// The hardware topology the pool is deployed on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Data mode the system was deployed with.
    pub fn data_mode(&self) -> DataMode {
        self.mode
    }

    /// Calibration in effect.
    pub fn cal(&self) -> &Calibration {
        &self.cal
    }

    /// Number of engines (server nodes) in the pool.
    pub fn server_count(&self) -> usize {
        self.pool.server_count()
    }

    /// Inject (or with `extra_ns == 0` clear) a per-server completion
    /// delay: every data-path op chain touching one of the server's
    /// targets pays `extra_ns` on top of its modelled cost.  Backs the
    /// delayed-completion fault action.
    // simlint::panic_root — fault-handling path: must never panic
    pub fn set_extra_delay(&mut self, server: u16, extra_ns: u64) {
        if extra_ns == 0 {
            self.extra_delay.remove(&server);
        } else {
            self.extra_delay.insert(server, extra_ns);
        }
    }

    /// Observe crashes: the first op from each client node touching a
    /// crashed-but-undetected target fails once with
    /// [`DaosError::TargetDown`].  Called by every data-path operation
    /// *before* any state mutation, so a retried op re-executes cleanly.
    fn check_detection(&mut self, client: usize, group: &[TargetId]) -> Result<(), DaosError> {
        if self.undetected.is_empty() {
            return Ok(());
        }
        for t in group {
            if let Some(seen) = self.undetected.get_mut(t) {
                if seen.insert(client) {
                    return Err(DaosError::TargetDown);
                }
            }
        }
        Ok(())
    }

    // ---- cost-chain helpers ------------------------------------------------

    fn client_overhead(&self) -> Step {
        Step::delay(self.cal.libdaos_op_ns)
    }

    fn rtt(&self) -> Step {
        Step::delay(self.cal.net_rtt_ns)
    }

    fn dev_for(&self, t: TargetId) -> usize {
        t.target as usize % self.topo.servers[t.server as usize].nvme_w.len()
    }

    /// Request service + data movement + device latency for a write of
    /// `bytes` from `client` to target `t`.
    fn write_to_target(&self, client: usize, t: TargetId, bytes: f64) -> Step {
        let srv = &self.topo.servers[t.server as usize];
        let res = &self.srv_res[t.server as usize];
        let cli = &self.topo.clients[client];
        let dev = self.dev_for(t);
        // small writes land in the engine's write-ahead log (DRAM-backed
        // on these VMs) and skip the bulk device latency
        let lat = if bytes >= self.cal.bulk_io_threshold {
            self.cal.nvme_write_lat_ns
        } else {
            self.cal.small_write_lat_ns
        };
        let lat = lat + self.extra_delay.get(&t.server).copied().unwrap_or(0);
        Step::span(
            "target",
            "write",
            bytes as u64,
            Step::seq([
                self.tgt_request_sized(t, bytes),
                Step::transfer(
                    bytes,
                    [
                        cli.nic_tx,
                        srv.nic_rx,
                        res.engine_xfer,
                        srv.nvme_w[dev],
                        srv.nvme_w_pool,
                    ],
                ),
                Step::delay(lat),
            ]),
        )
    }

    /// Request-service cost at a target.  Small operations contend on
    /// the shared per-target service (the Fig. 2 IOPS ceilings); bulk
    /// transfers, whose service time is negligible against their data
    /// movement, pay it as a fixed delay — halving the simulator's event
    /// count for bandwidth workloads without changing where they
    /// saturate.
    fn tgt_request_sized(&self, t: TargetId, bytes: f64) -> Step {
        if bytes >= self.cal.bulk_io_threshold {
            Step::delay(units::ops_interval_ns(self.cal.target_svc_iops))
        } else {
            Step::transfer(
                1.0,
                [self.srv_res[t.server as usize].tgt_svc[t.target as usize]],
            )
        }
    }

    /// Request service + data movement + device latency for a read of
    /// `bytes` from target `t` to `client`.
    fn read_from_target(&self, client: usize, t: TargetId, bytes: f64) -> Step {
        let srv = &self.topo.servers[t.server as usize];
        let res = &self.srv_res[t.server as usize];
        let cli = &self.topo.clients[client];
        let dev = self.dev_for(t);
        let extra = self.extra_delay.get(&t.server).copied().unwrap_or(0);
        Step::span(
            "target",
            "read",
            bytes as u64,
            Step::seq([
                self.tgt_request_sized(t, bytes),
                Step::delay(self.cal.nvme_read_lat_ns + extra),
                Step::transfer(
                    bytes,
                    [
                        srv.nvme_r[dev],
                        srv.nvme_r_pool,
                        res.engine_xfer,
                        srv.nic_tx,
                        cli.nic_rx,
                    ],
                ),
            ]),
        )
    }

    /// `n` operations against the pool metadata replica group.
    pub fn pool_md_op(&self, n: f64) -> Step {
        Step::seq([self.rtt(), Step::transfer(n, [self.pool_md_svc])])
    }

    // ---- containers ---------------------------------------------------------

    /// Create a container.  A collective over all engines plus a pool
    /// metadata transaction — the cost that makes container-per-process
    /// designs expensive at scale.
    pub fn cont_create(&mut self, _client: usize, props: ContainerProps) -> (ContainerId, Step) {
        let id = ContainerId(self.containers.len() as u32);
        self.containers.push(Some(Container::new(id, props)));
        let collective = self.cal.cont_collective_ns_per_server * self.pool.server_count() as u64;
        let step = Step::span(
            "libdaos",
            "cont_create",
            0,
            Step::seq([
                self.client_overhead(),
                self.pool_md_op(1.0),
                Step::delay(collective),
            ]),
        );
        (id, step)
    }

    /// Open an existing container (pool metadata transaction).
    // simlint::allow(digest-taint) — admin/API surface not yet driven by any digest scenario; wire into a scenario before relying on replay to witness it
    pub fn cont_open(&mut self, _client: usize, id: ContainerId) -> Result<Step, DaosError> {
        let c = self.cont_mut(id)?;
        c.open_handles += 1;
        Ok(Step::seq([self.client_overhead(), self.pool_md_op(1.0)]))
    }

    /// Close a container handle.
    pub fn cont_close(&mut self, _client: usize, id: ContainerId) -> Result<Step, DaosError> {
        let c = self.cont_mut(id)?;
        c.open_handles = c.open_handles.saturating_sub(1);
        Ok(Step::seq([self.client_overhead(), self.rtt()]))
    }

    /// Destroy a container and all its objects.
    // simlint::allow(digest-taint) — admin/API surface not yet driven by any digest scenario; wire into a scenario before relying on replay to witness it
    pub fn cont_destroy(&mut self, _client: usize, id: ContainerId) -> Result<Step, DaosError> {
        let slot = self
            .containers
            .get_mut(id.0 as usize)
            .ok_or(DaosError::NoSuchContainer)?;
        let Some(cont) = slot.take() else {
            return Err(DaosError::NoSuchContainer);
        };
        for &oid in cont.objects.keys() {
            self.rot.forget_object(&(id.0, oid));
        }
        if let Some(l) = self.ledger.as_mut() {
            l.record_cont_destroy(id);
        }
        Ok(Step::seq([self.client_overhead(), self.pool_md_op(1.0)]))
    }

    /// Take a container snapshot; returns its epoch.
    // simlint::allow(digest-taint) — admin/API surface not yet driven by any digest scenario; wire into a scenario before relying on replay to witness it
    pub fn snapshot_create(
        &mut self,
        _client: usize,
        id: ContainerId,
    ) -> Result<(u64, Step), DaosError> {
        let step = Step::seq([self.client_overhead(), self.pool_md_op(1.0)]);
        let c = self.cont_mut(id)?;
        Ok((c.snapshot(), step))
    }

    /// Destroy a container snapshot.
    // simlint::allow(digest-taint) — admin/API surface not yet driven by any digest scenario; wire into a scenario before relying on replay to witness it
    pub fn snapshot_destroy(
        &mut self,
        _client: usize,
        id: ContainerId,
        epoch: u64,
    ) -> Result<Step, DaosError> {
        let step = Step::seq([self.client_overhead(), self.pool_md_op(1.0)]);
        let c = self.cont_mut(id)?;
        if c.snapshot_destroy(epoch) {
            Ok(step)
        } else {
            Err(DaosError::NoSuchKey)
        }
    }

    /// Snapshot epochs of a container.
    pub fn snapshot_list(&self, id: ContainerId) -> Result<Vec<u64>, DaosError> {
        Ok(self.cont(id)?.snapshots.clone())
    }

    fn cont(&self, id: ContainerId) -> Result<&Container, DaosError> {
        self.containers
            .get(id.0 as usize)
            .and_then(|c| c.as_ref())
            .ok_or(DaosError::NoSuchContainer)
    }

    fn cont_mut(&mut self, id: ContainerId) -> Result<&mut Container, DaosError> {
        self.containers
            .get_mut(id.0 as usize)
            .and_then(|c| c.as_mut())
            .ok_or(DaosError::NoSuchContainer)
    }

    // simlint::allow(hot-alloc) — clones the per-class codec config at object-create time only
    fn ec_for(&mut self, class: ObjectClass) -> Option<ErasureCode> {
        match class {
            ObjectClass::ErasureCoded { k, p } => Some(
                self.ec_cache
                    .entry((k, p))
                    .or_insert_with(|| ErasureCode::new(k as usize, p as usize))
                    .clone(),
            ),
            _ => None,
        }
    }

    // ---- objects --------------------------------------------------------------

    /// Create an Array object.  Object creation is client-local in DAOS:
    /// the OID is generated and the layout computed without any RPC.
    // simlint::allow(hot-alloc) — create-time layout ownership; runs once per object, not per I/O
    pub fn array_create(
        &mut self,
        _client: usize,
        cid: ContainerId,
        class: ObjectClass,
        chunk_size: u64,
    ) -> Result<(Oid, Step), DaosError> {
        let data = ObjData::Array(ArrayData::new(chunk_size));
        self.obj_create(cid, class, 0, data)
    }

    /// Create a Key-Value object.
    // simlint::allow(hot-alloc) — create-time layout ownership; runs once per object, not per I/O
    pub fn kv_create(
        &mut self,
        _client: usize,
        cid: ContainerId,
        class: ObjectClass,
    ) -> Result<(Oid, Step), DaosError> {
        if !class.supports_kv() {
            return Err(DaosError::InvalidClass);
        }
        self.obj_create(cid, class, FLAG_KV, ObjData::Kv(KvData::new()))
    }

    /// Allocate an OID with `flags` in container `cid`, place it, and
    /// store `data` under it.
    fn obj_create(
        &mut self,
        cid: ContainerId,
        class: ObjectClass,
        flags: u16,
        data: ObjData,
    ) -> Result<(Oid, Step), DaosError> {
        let c = self
            .containers
            .get_mut(cid.0 as usize)
            .and_then(|c| c.as_mut())
            .ok_or(DaosError::NoSuchContainer)?;
        let oid = c.alloc.next(class, flags);
        let layout = self.pool.layout_salted(&oid, class, cid.0 as u64 + 1);
        c.objects.insert(oid, ObjectEntry { layout, data });
        Ok((oid, self.client_overhead()))
    }

    /// Remove an object entirely (`daos_obj_punch`).
    pub fn obj_punch(
        &mut self,
        _client: usize,
        cid: ContainerId,
        oid: Oid,
    ) -> Result<Step, DaosError> {
        let c = self.cont_mut(cid)?;
        c.objects.remove(&oid).ok_or(DaosError::NoSuchObject)?;
        self.rot.forget_object(&(cid.0, oid));
        if let Some(l) = self.ledger.as_mut() {
            l.record_punch(cid, oid);
        }
        Ok(Step::seq([self.client_overhead(), self.rtt()]))
    }

    /// Number of live objects in a container.
    pub fn object_count(&self, cid: ContainerId) -> Result<usize, DaosError> {
        Ok(self.cont(cid)?.object_count())
    }

    // ---- Key-Value API -----------------------------------------------------------

    /// The shard group `key` hashes to, after `client` observed any
    /// crash among its members.
    fn kv_group(
        &mut self,
        client: usize,
        cid: ContainerId,
        oid: Oid,
        key: &[u8],
    ) -> Result<Vec<TargetId>, DaosError> {
        let group = self
            .obj(cid, oid)?
            .layout
            .group_for(dkey_hash(key))
            .to_vec();
        self.check_detection(client, &group)?;
        Ok(group)
    }

    /// Where a degraded KV update lands: the servable members (drained
    /// and reintegrating targets still accept updates for shards they
    /// hold).  A fully-down group cannot accept the update.
    fn servable_members(&self, group: &[TargetId]) -> Result<Vec<TargetId>, DaosError> {
        let up: Vec<TargetId> = group
            .iter()
            .copied()
            .filter(|&t| self.pool.is_servable(t))
            .collect();
        if up.is_empty() {
            return Err(DaosError::Unavailable);
        }
        Ok(up)
    }

    /// Insert/update a key.  The value lands on the dkey's shard group;
    /// replicated classes write every replica in parallel.
    // simlint::allow(hot-alloc) — op construction: the owned key/value ride the op chain; arena-allocated chains are ROADMAP item 2
    pub fn kv_put(
        &mut self,
        client: usize,
        cid: ContainerId,
        oid: Oid,
        key: &[u8],
        value: Payload,
    ) -> Result<Step, DaosError> {
        let bytes = value.len() as f64;
        let group = self.kv_group(client, cid, oid, key)?;
        let up = self.servable_members(&group)?;
        // clone for the ledger before the payload moves into the store
        let acked = self.ledger.is_some().then(|| value.clone());
        self.kv_mut(cid, oid)?.put(key, value);
        // the value (and its checksum) were replaced wholesale: latent
        // rot in the old value is healed, so its registry entry must go
        // before it could mis-direct a later repair re-flip
        self.rot.clear_kv(&(cid.0, oid), key);
        if let (Some(l), Some(v)) = (self.ledger.as_mut(), acked) {
            l.record_kv_put(cid, oid, key, &v);
        }
        let writes = up
            .iter()
            .map(|&t| self.write_to_target(client, t, bytes.max(64.0)))
            .collect::<Vec<_>>();
        Ok(Step::span(
            "libdaos",
            "kv_put",
            bytes as u64,
            Step::seq([self.client_overhead(), self.rtt(), Step::par(writes)]),
        ))
    }

    /// Fetch a key's value.  Reads from the first up replica.
    // simlint::allow(hot-alloc) — op construction: the owned key rides the op chain; arena-allocated chains are ROADMAP item 2
    pub fn kv_get(
        &mut self,
        client: usize,
        cid: ContainerId,
        oid: Oid,
        key: &[u8],
    ) -> Result<(ReadPayload, Step), DaosError> {
        let group = self.kv_group(client, cid, oid, key)?;
        // verified read: recompute the stored value checksum and
        // transparently repair rot the replication still covers; rot on
        // every replica refuses loudly instead of serving bad bytes
        let repair = self.kv_verify_repair(cid, oid, key, &group)?;
        let read = match self.kv(cid, oid)?.get(key).ok_or(DaosError::NoSuchKey)? {
            Payload::Bytes(b) => ReadPayload::Bytes(b.clone()),
            Payload::Sized(n) => ReadPayload::Sized(*n),
        };
        let t = group
            .iter()
            .copied()
            .find(|&t| self.pool.is_servable(t))
            .ok_or(DaosError::Unavailable)?;
        let bytes = (read.len() as f64).max(64.0);
        let step = Step::span(
            "libdaos",
            "kv_get",
            read.len(),
            Step::seq([
                self.client_overhead(),
                self.rtt(),
                repair,
                self.read_from_target(client, t, bytes),
            ]),
        );
        Ok((read, step))
    }

    /// Remove a key.
    // simlint::allow(hot-alloc) — op construction: the owned key rides the op chain; arena-allocated chains are ROADMAP item 2
    pub fn kv_remove(
        &mut self,
        client: usize,
        cid: ContainerId,
        oid: Oid,
        key: &[u8],
    ) -> Result<Step, DaosError> {
        let group = self.kv_group(client, cid, oid, key)?;
        let up = self.servable_members(&group)?;
        if !self.kv_mut(cid, oid)?.remove(key) {
            return Err(DaosError::NoSuchKey);
        }
        self.rot.clear_kv(&(cid.0, oid), key);
        if let Some(l) = self.ledger.as_mut() {
            l.record_kv_remove(cid, oid, key);
        }
        let ops = up
            .iter()
            .map(|&t| self.write_to_target(client, t, 64.0))
            .collect::<Vec<_>>();
        Ok(Step::span(
            "libdaos",
            "kv_remove",
            0,
            Step::seq([self.client_overhead(), self.rtt(), Step::par(ops)]),
        ))
    }

    /// List keys with a prefix.  One round trip per shard group plus the
    /// key bytes off one target of each group.
    // simlint::allow(digest-taint) — query op: `&mut self` is handle/step bookkeeping only; no replay-visible state changes
    pub fn kv_list(
        &mut self,
        client: usize,
        cid: ContainerId,
        oid: Oid,
        prefix: &[u8],
    ) -> Result<(Vec<Vec<u8>>, Step), DaosError> {
        let keys = self.kv(cid, oid)?.list(prefix);
        let key_bytes: f64 = keys.iter().map(|k| k.len() as f64).sum::<f64>().max(64.0);
        let groups = &self.obj(cid, oid)?.layout.groups;
        let per_group_bytes = key_bytes / groups.len() as f64;
        let reads = groups
            .iter()
            .filter_map(|g| g.iter().copied().find(|&t| self.pool.is_servable(t)))
            .map(|t| self.read_from_target(client, t, per_group_bytes))
            .collect::<Vec<_>>();
        let step = Step::span(
            "libdaos",
            "kv_list",
            key_bytes as u64,
            Step::seq([self.client_overhead(), self.rtt(), Step::par(reads)]),
        );
        Ok((keys, step))
    }

    // ---- Array API -------------------------------------------------------------

    /// Write `payload` at `offset`.  Chunks map to shard groups by chunk
    /// index; replication writes every replica, erasure coding writes
    /// `k + p` cells of `chunk/k` bytes each (plus client-side encode
    /// time) — the mechanics behind the paper's ½ and ⅔ redundancy
    /// write bandwidths.
    // simlint::allow(hot-alloc) — op construction: the payload clone rides the op chain; arena-allocated chains are ROADMAP item 2
    pub fn array_write(
        &mut self,
        client: usize,
        cid: ContainerId,
        oid: Oid,
        offset: u64,
        payload: Payload,
    ) -> Result<Step, DaosError> {
        let mode = self.mode;
        let len = payload.len();
        if len == 0 {
            return Ok(Step::Noop);
        }
        let layout = self.obj(cid, oid)?.layout.clone();
        let class = layout.class;
        let ec = self.ec_for(class);
        let group_bytes = group_bytes(self.array(cid, oid)?, offset, len, |c| {
            layout.group_index(chunk_dkey_hash(c))
        });
        // fault detection and write availability, before the mutation:
        // a failing write must leave the store untouched so a retry
        // re-executes cleanly
        for &g in group_bytes.keys() {
            self.check_detection(client, &layout.groups[g])?;
        }
        for &g in group_bytes.keys() {
            let group = &layout.groups[g];
            let up = group.iter().filter(|&&t| self.pool.is_servable(t)).count();
            let writable = match class {
                ObjectClass::Sharded(_) | ObjectClass::ShardedMax => {
                    self.pool.is_servable(group[0])
                }
                ObjectClass::Replicated { .. } => up >= 1,
                ObjectClass::ErasureCoded { k, .. } => up >= k as usize,
            };
            if !writable {
                return Err(DaosError::Unavailable);
            }
        }
        // verified read-modify-write: a partially-overwritten chunk
        // folds its existing bytes into the new chunk, so those bytes
        // must verify (and be repaired) first — rot beyond redundancy
        // fails the write here, before any mutation.  Fully-covered
        // chunks are replaced wholesale, which heals latent rot.
        let repair = self.array_prewrite_integrity(cid, oid, offset, len)?;
        self.array_mut(cid, oid)?
            .write(offset, &payload, mode, ec.as_ref());
        if let Some(l) = self.ledger.as_mut() {
            l.record_array_write(cid, oid, offset, &payload);
        }
        // build the cost chain
        let mut group_steps = Vec::with_capacity(group_bytes.len());
        let mut encode_bytes = 0.0;
        for (g, bytes) in group_bytes {
            let group = &layout.groups[g];
            let per_target = match class {
                ObjectClass::Sharded(_) | ObjectClass::ShardedMax => {
                    group_steps.push(self.write_to_target(client, group[0], bytes));
                    continue;
                }
                ObjectClass::Replicated { .. } => bytes,
                ObjectClass::ErasureCoded { k, .. } => {
                    encode_bytes += bytes;
                    bytes / k as f64
                }
            };
            // degraded mode: down members receive nothing until rebuild
            // re-protects the group
            let writes = group
                .iter()
                .filter(|&&t| self.pool.is_servable(t))
                .map(|&t| self.write_to_target(client, t, per_target))
                .collect::<Vec<_>>();
            group_steps.push(Step::par(writes));
        }
        let encode = if encode_bytes > 0.0 {
            Step::delay(units::secs_to_ns(encode_bytes / self.cal.ec_encode_bw))
        } else {
            Step::Noop
        };
        Ok(Step::span(
            "libdaos",
            "array_write",
            len,
            Step::seq([
                self.client_overhead(),
                encode,
                self.rtt(),
                repair,
                Step::par(group_steps),
            ]),
        ))
    }

    /// Read `len` bytes at `offset`.  Replicated chunks fail over to an
    /// up replica; erasure-coded chunks with lost cells read `k`
    /// surviving cells and pay a reconstruction delay.
    // simlint::allow(hot-alloc) — op construction plus degraded-path shard selection; per submitted op, not per engine event
    pub fn array_read(
        &mut self,
        client: usize,
        cid: ContainerId,
        oid: Oid,
        offset: u64,
        len: u64,
    ) -> Result<(ReadPayload, Step), DaosError> {
        if len == 0 {
            return Ok((ReadPayload::Sized(0), Step::Noop));
        }
        // fault detection: observe crashes on every group this range
        // touches before serving anything
        if !self.undetected.is_empty() {
            let layout = &self.obj(cid, oid)?.layout;
            let touched: Vec<Vec<TargetId>> = self
                .array(cid, oid)?
                .chunks_in_range(offset, len)
                .map(|c| layout.group_for(chunk_dkey_hash(c)).to_vec())
                .collect();
            for g in &touched {
                self.check_detection(client, g)?;
            }
        }
        // verified read: recompute stored checksums over the touched
        // chunks and transparently repair what the redundancy still
        // covers; rot beyond redundancy refuses loudly instead of
        // serving bad bytes
        let repair = self.array_verify_repair(cid, oid, offset, len)?;
        let mode = self.mode;
        let class = self.obj(cid, oid)?.layout.class;
        let ec = self.ec_for(class);
        let layout = &self.obj(cid, oid)?.layout;
        let arr = self.array(cid, oid)?;
        let pool = &self.pool;
        // availability of a chunk's group, as the data layer sees it
        let avail = |chunk: u64| -> CellAvailability {
            let group = layout.group_for(chunk_dkey_hash(chunk));
            let servable = match class {
                ObjectClass::Sharded(_) | ObjectClass::ShardedMax => pool.is_servable(group[0]),
                ObjectClass::Replicated { .. } => group.iter().any(|&t| pool.is_servable(t)),
                ObjectClass::ErasureCoded { .. } => {
                    return CellAvailability::Mask(
                        group.iter().map(|&t| pool.is_servable(t)).collect(),
                    )
                }
            };
            if servable {
                CellAvailability::All
            } else {
                CellAvailability::Unavailable
            }
        };
        let data = arr.read(offset, len, mode, ec.as_ref(), &avail)?;
        // cost: per touched group, read bytes from the serving target(s)
        let gb = group_bytes(arr, offset, len, |c| layout.group_index(c));
        let mut group_steps = Vec::with_capacity(gb.len());
        let mut decode_bytes = 0.0;
        for (g, bytes) in gb {
            let group = &layout.groups[g];
            let mut servable = group.iter().copied().filter(|&t| pool.is_servable(t));
            match class {
                ObjectClass::Sharded(_) | ObjectClass::ShardedMax => {
                    group_steps.push(self.read_from_target(client, group[0], bytes));
                }
                ObjectClass::Replicated { .. } => {
                    let t = servable.next().ok_or(DaosError::Unavailable)?;
                    group_steps.push(self.read_from_target(client, t, bytes));
                }
                ObjectClass::ErasureCoded { k, .. } => {
                    // the first k servable members are the data cells
                    // when those are healthy; otherwise read k surviving
                    // cells and reconstruct
                    let k = k as usize;
                    let cells: Vec<TargetId> = servable.take(k).collect();
                    if cells.len() < k {
                        return Err(DaosError::Unavailable);
                    }
                    if cells[..] != group[..k] {
                        decode_bytes += bytes;
                    }
                    let cell = bytes / k as f64;
                    let reads = cells
                        .iter()
                        .map(|&t| self.read_from_target(client, t, cell))
                        .collect::<Vec<_>>();
                    group_steps.push(Step::par(reads));
                }
            }
        }
        let decode = if decode_bytes > 0.0 {
            Step::delay(units::secs_to_ns(decode_bytes / self.cal.ec_encode_bw))
        } else {
            Step::Noop
        };
        let step = Step::span(
            "libdaos",
            "array_read",
            len,
            Step::seq([
                self.client_overhead(),
                self.rtt(),
                repair,
                Step::par(group_steps),
                decode,
            ]),
        );
        Ok((data, step))
    }

    /// Query the array size (highest written byte + 1).  Costs a round
    /// trip and a request-service op — exactly the per-read overhead
    /// Field I/O pays and fdb-hammer avoids (§III-B).
    // simlint::allow(hot-alloc) — clones the object handle for the metadata op chain
    pub fn array_get_size(
        &mut self,
        client: usize,
        cid: ContainerId,
        oid: Oid,
    ) -> Result<(u64, Step), DaosError> {
        let size = self.array(cid, oid)?.size();
        let t = self
            .obj(cid, oid)?
            .layout
            .groups
            .iter()
            .flatten()
            .copied()
            .find(|&t| self.pool.is_servable(t))
            .ok_or(DaosError::Unavailable)?;
        let step = Step::span(
            "libdaos",
            "array_get_size",
            0,
            Step::seq([
                self.client_overhead(),
                self.rtt(),
                self.read_from_target(client, t, 64.0),
            ]),
        );
        Ok((size, step))
    }

    /// Truncate/extend an array.
    // simlint::allow(digest-taint) — admin/API surface not yet driven by any digest scenario; wire into a scenario before relying on replay to witness it
    pub fn array_set_size(
        &mut self,
        client: usize,
        cid: ContainerId,
        oid: Oid,
        size: u64,
    ) -> Result<Step, DaosError> {
        let t = self.obj(cid, oid)?.layout.groups[0][0];
        let a = self.array_mut(cid, oid)?;
        a.set_size(size);
        let cs = a.chunk_size();
        // truncation drops whole chunks; their rot entries must go with
        // them (the registry only ever names still-flipped bytes)
        let cut = size.div_ceil(cs) * cs;
        self.rot.retain_array(&(cid.0, oid), |o| o < cut);
        if let Some(l) = self.ledger.as_mut() {
            l.record_truncate(cid, oid, size);
        }
        let step = Step::span(
            "libdaos",
            "array_set_size",
            0,
            Step::seq([
                self.client_overhead(),
                self.rtt(),
                self.write_to_target(client, t, 64.0),
            ]),
        );
        Ok(step)
    }

    // ---- container attributes -----------------------------------------------

    /// Set a user attribute on a container (`daos cont set-attr`): one
    /// pool-metadata transaction.
    // simlint::allow(digest-taint) — admin/API surface not yet driven by any digest scenario; wire into a scenario before relying on replay to witness it
    pub fn cont_set_attr(
        &mut self,
        _client: usize,
        id: ContainerId,
        name: &str,
        value: &[u8],
    ) -> Result<Step, DaosError> {
        let step = Step::seq([self.client_overhead(), self.pool_md_op(1.0)]);
        let c = self.cont_mut(id)?;
        c.attrs.insert(name.to_string(), value.to_vec());
        Ok(step)
    }

    /// Read a user attribute.
    // simlint::allow(digest-taint) — query op: `&mut self` is handle/step bookkeeping only; no replay-visible state changes
    pub fn cont_get_attr(
        &mut self,
        _client: usize,
        id: ContainerId,
        name: &str,
    ) -> Result<(Vec<u8>, Step), DaosError> {
        let step = Step::seq([self.client_overhead(), self.pool_md_op(1.0)]);
        let c = self.cont(id)?;
        let v = c.attrs.get(name).cloned().ok_or(DaosError::NoSuchKey)?;
        Ok((v, step))
    }

    /// List a container's user attribute names.
    // simlint::allow(digest-taint) — query op: `&mut self` is handle/step bookkeeping only; no replay-visible state changes
    pub fn cont_list_attrs(
        &mut self,
        _client: usize,
        id: ContainerId,
    ) -> Result<(Vec<String>, Step), DaosError> {
        let step = Step::seq([self.client_overhead(), self.pool_md_op(1.0)]);
        let c = self.cont(id)?;
        Ok((c.attrs.keys().cloned().collect(), step))
    }

    /// Enumerate a container's object ids (`daos cont list-objects`):
    /// one request-service op per engine holding object metadata.
    // simlint::allow(digest-taint) — query op: `&mut self` is handle/step bookkeeping only; no replay-visible state changes
    pub fn obj_list(
        &mut self,
        client: usize,
        cid: ContainerId,
    ) -> Result<(Vec<Oid>, Step), DaosError> {
        let servers = self.pool.server_count();
        let reads: Vec<Step> = (0..servers)
            .map(|s| {
                self.read_from_target(
                    client,
                    TargetId {
                        server: s as u16,
                        target: 0,
                    },
                    256.0,
                )
            })
            .collect();
        let c = self.cont(cid)?;
        let mut oids: Vec<Oid> = c.objects.keys().copied().collect();
        oids.sort();
        Ok((
            oids,
            Step::seq([self.client_overhead(), self.rtt(), Step::par(reads)]),
        ))
    }

    // ---- space accounting -------------------------------------------------------

    /// Pool usage summary (`dmg pool query`): logical bytes stored per
    /// object kind and totals.
    pub fn pool_query(&self) -> PoolInfo {
        let mut info = PoolInfo {
            servers: self.pool.server_count(),
            targets_total: self.pool.total_targets(),
            targets_up: self.pool.up_count(),
            containers: 0,
            objects: 0,
            array_bytes: 0.0,
            kv_entries: 0,
        };
        for cont in self.containers.iter().flatten() {
            info.containers += 1;
            info.objects += cont.objects.len();
            for entry in cont.objects.values() {
                match &entry.data {
                    ObjData::Array(a) => info.array_bytes += a.size() as f64,
                    ObjData::Kv(kv) => info.kv_entries += kv.len(),
                }
            }
        }
        info
    }

    fn obj(&self, cid: ContainerId, oid: Oid) -> Result<&ObjectEntry, DaosError> {
        self.cont(cid)?
            .objects
            .get(&oid)
            .ok_or(DaosError::NoSuchObject)
    }

    fn obj_mut(&mut self, cid: ContainerId, oid: Oid) -> Result<&mut ObjectEntry, DaosError> {
        self.cont_mut(cid)?
            .objects
            .get_mut(&oid)
            .ok_or(DaosError::NoSuchObject)
    }

    /// An Array object's payload ([`DaosError::WrongObjectType`] for a
    /// Key-Value object).
    fn array(&self, cid: ContainerId, oid: Oid) -> Result<&ArrayData, DaosError> {
        match &self.obj(cid, oid)?.data {
            ObjData::Array(a) => Ok(a),
            ObjData::Kv(_) => Err(DaosError::WrongObjectType),
        }
    }

    fn array_mut(&mut self, cid: ContainerId, oid: Oid) -> Result<&mut ArrayData, DaosError> {
        match &mut self.obj_mut(cid, oid)?.data {
            ObjData::Array(a) => Ok(a),
            ObjData::Kv(_) => Err(DaosError::WrongObjectType),
        }
    }

    /// A Key-Value object's payload ([`DaosError::WrongObjectType`] for
    /// an Array object).
    fn kv(&self, cid: ContainerId, oid: Oid) -> Result<&KvData, DaosError> {
        match &self.obj(cid, oid)?.data {
            ObjData::Kv(kv) => Ok(kv),
            ObjData::Array(_) => Err(DaosError::WrongObjectType),
        }
    }

    fn kv_mut(&mut self, cid: ContainerId, oid: Oid) -> Result<&mut KvData, DaosError> {
        match &mut self.obj_mut(cid, oid)?.data {
            ObjData::Kv(kv) => Ok(kv),
            ObjData::Array(_) => Err(DaosError::WrongObjectType),
        }
    }
}

/// Pool usage summary returned by [`DaosSystem::pool_query`].
#[derive(Debug, Clone, PartialEq)]
pub struct PoolInfo {
    /// Engines in the pool.
    pub servers: usize,
    /// Total targets.
    pub targets_total: usize,
    /// Targets currently serving I/O.
    pub targets_up: usize,
    /// Live containers.
    pub containers: usize,
    /// Live objects across all containers.
    pub objects: usize,
    /// Logical Array bytes stored.
    // simlint::dim(bytes)
    pub array_bytes: f64,
    /// Key-Value entries stored.
    pub kv_entries: usize,
}

/// Array chunks use their index as dkey; DAOS hashes it before routing,
/// which is what spreads a sequential writer's consecutive chunks
/// non-contiguously over the targets.
pub fn chunk_dkey_hash(chunk: u64) -> u64 {
    let mut z = chunk ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Bytes of `[offset, offset+len)` per shard group of `arr`, keyed by
/// the group index `group_of` maps each touched chunk to.
fn group_bytes(
    arr: &ArrayData,
    offset: u64,
    len: u64,
    group_of: impl Fn(u64) -> usize,
) -> BTreeMap<usize, f64> {
    let cs = arr.chunk_size();
    let mut bytes: BTreeMap<usize, f64> = BTreeMap::new();
    for chunk in arr.chunks_in_range(offset, len) {
        let seg = (offset + len).min((chunk + 1) * cs) - offset.max(chunk * cs);
        *bytes.entry(group_of(chunk)).or_default() += seg as f64;
    }
    bytes
}

/// Distribution key hash (DAOS hashes dkeys to route to shards).
pub fn dkey_hash(key: &[u8]) -> u64 {
    // FNV-1a, then a finaliser mix.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::ClusterSpec;
    use simkit::{run, OpId, World};

    struct Sink;
    impl World for Sink {
        fn on_op_complete(&mut self, _op: OpId, _sched: &mut Scheduler) {}
    }

    /// A pool over the first `servers` of `topo_servers` server nodes
    /// (the rest is spare hardware for online adds) and one client
    /// node, holding one container.
    pub(super) fn pool_with_spares(
        topo_servers: usize,
        servers: usize,
        mode: DataMode,
    ) -> (Scheduler, DaosSystem, ContainerId) {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(topo_servers, 1).build(&mut sched);
        let mut sys = DaosSystem::deploy(&topo, &mut sched, servers, mode);
        let (cid, s) = sys.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        (sched, sys, cid)
    }

    /// A pool over `servers` server nodes and one client node, holding
    /// one container.
    pub(super) fn with_container(
        servers: usize,
        mode: DataMode,
    ) -> (Scheduler, DaosSystem, ContainerId) {
        pool_with_spares(servers, servers, mode)
    }

    /// Run `step` to completion.
    pub(super) fn exec(sched: &mut Scheduler, step: Step) {
        sched.submit(step, OpId(0));
        run(sched, &mut Sink);
    }

    #[test]
    fn kv_round_trip_full_mode() {
        let (mut sched, mut sys, cid) = with_container(2, DataMode::Full);
        let (kv, s) = sys.kv_create(0, cid, ObjectClass::S1).unwrap();
        exec(&mut sched, s);
        let s = sys
            .kv_put(0, cid, kv, b"key1", Payload::Bytes(vec![1, 2, 3]))
            .unwrap();
        exec(&mut sched, s);
        let (v, s) = sys.kv_get(0, cid, kv, b"key1").unwrap();
        exec(&mut sched, s);
        assert_eq!(v.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(
            sys.kv_get(0, cid, kv, b"nope").unwrap_err(),
            DaosError::NoSuchKey
        );
        let (keys, _) = sys.kv_list(0, cid, kv, b"key").unwrap();
        assert_eq!(keys, vec![b"key1".to_vec()]);
        let s = sys.kv_remove(0, cid, kv, b"key1").unwrap();
        exec(&mut sched, s);
        assert_eq!(
            sys.kv_get(0, cid, kv, b"key1").unwrap_err(),
            DaosError::NoSuchKey
        );
    }

    #[test]
    fn ec_kv_rejected() {
        let (_sched, mut sys, cid) = with_container(2, DataMode::Full);
        assert_eq!(
            sys.kv_create(0, cid, ObjectClass::EC_2P1).unwrap_err(),
            DaosError::InvalidClass
        );
    }

    #[test]
    fn array_write_read_full_mode() {
        let (mut sched, mut sys, cid) = with_container(2, DataMode::Full);
        let (oid, s) = sys.array_create(0, cid, ObjectClass::SX, 1 << 16).unwrap();
        exec(&mut sched, s);
        let mut rng = simkit::SplitMix64::new(1);
        let mut data = vec![0u8; 200_000];
        rng.fill_bytes(&mut data);
        let s = sys
            .array_write(0, cid, oid, 1000, Payload::Bytes(data.clone()))
            .unwrap();
        exec(&mut sched, s);
        let (r, s) = sys.array_read(0, cid, oid, 1000, 200_000).unwrap();
        exec(&mut sched, s);
        assert_eq!(r.bytes().unwrap(), &data[..]);
        let (size, _) = sys.array_get_size(0, cid, oid).unwrap();
        assert_eq!(size, 201_000);
    }

    #[test]
    fn single_process_write_bandwidth_is_sane() {
        // One client streaming 1 MiB ops to a 1-server pool: bandwidth
        // must be below the server's SSD aggregate and well above zero.
        let (mut sched, mut sys, cid) = with_container(1, DataMode::Sized);
        let (oid, s) = sys.array_create(0, cid, ObjectClass::SX, 1 << 20).unwrap();
        exec(&mut sched, s);
        let n = 64u64;
        let mib = 1u64 << 20;
        let t0 = sched.now();
        for i in 0..n {
            let s = sys
                .array_write(0, cid, oid, i * mib, Payload::Sized(mib))
                .unwrap();
            exec(&mut sched, s);
        }
        let bw = (n * mib) as f64 / sched.now().secs_since(t0);
        // A sequential QD1 writer is bound by one NVMe device's burst
        // bandwidth (sustained share × burst headroom) plus fixed per-op
        // latencies.
        let cal = cluster::Calibration::default();
        let dev_bw = cal.nvme_dev_write_bw() * cal.nvme_dev_burst;
        assert!(bw > 0.8 * dev_bw, "bw {} too low", bw / cluster::GIB);
        assert!(
            bw <= dev_bw * 1.01,
            "bw {} exceeds device",
            bw / cluster::GIB
        );
    }

    #[test]
    fn ec_write_amplification_visible_in_time() {
        // Writing with EC_2P1 moves 1.5x the bytes: with everything else
        // equal the sustained stream takes ~1.5x longer than S1 when the
        // device is the bottleneck... but S1 uses ONE device while EC
        // uses three; compare instead against monitor byte accounting.
        let mut sched = Scheduler::with_monitor();
        let topo = ClusterSpec::new(2, 1).build(&mut sched);
        let mut sys = DaosSystem::deploy(&topo, &mut sched, 2, DataMode::Sized);
        let (cid, s) = sys.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let (oid, s) = sys
            .array_create(0, cid, ObjectClass::EC_2P1, 1 << 20)
            .unwrap();
        exec(&mut sched, s);
        let s = sys
            .array_write(0, cid, oid, 0, Payload::Sized(1 << 20))
            .unwrap();
        exec(&mut sched, s);
        // total bytes through all NVMe write resources = 1.5 MiB
        let total: f64 = topo
            .servers
            .iter()
            .flat_map(|s| s.nvme_w.iter())
            .map(|&r| sched.monitor().units(r))
            .sum();
        assert!(
            (total - 1.5 * (1u64 << 20) as f64).abs() < 1.0,
            "EC wrote {total} bytes"
        );
    }

    #[test]
    fn replication_failover_and_ec_reconstruction() {
        let (mut sched, mut sys, cid) = with_container(3, DataMode::Full);
        // replicated KV
        let (kv, s) = sys.kv_create(0, cid, ObjectClass::RP_2).unwrap();
        exec(&mut sched, s);
        let s = sys
            .kv_put(0, cid, kv, b"k", Payload::Bytes(vec![9; 100]))
            .unwrap();
        exec(&mut sched, s);
        // EC array
        let (arr, s) = sys.array_create(0, cid, ObjectClass::EC_2P1, 4096).unwrap();
        exec(&mut sched, s);
        let mut rng = simkit::SplitMix64::new(2);
        let mut data = vec![0u8; 8192];
        rng.fill_bytes(&mut data);
        let s = sys
            .array_write(0, cid, arr, 0, Payload::Bytes(data.clone()))
            .unwrap();
        exec(&mut sched, s);

        // kill one entire server
        sys.exclude_server(0);

        let (v, s) = sys.kv_get(0, cid, kv, b"k").unwrap();
        exec(&mut sched, s);
        assert_eq!(v.len(), 100, "replica failover");
        let (r, s) = sys.array_read(0, cid, arr, 0, 8192).unwrap();
        exec(&mut sched, s);
        assert_eq!(r.bytes().unwrap(), &data[..], "EC reconstruction");
    }

    #[test]
    fn unreplicated_data_unavailable_after_exclusion() {
        let (mut sched, mut sys, cid) = with_container(1, DataMode::Full);
        let (oid, s) = sys.array_create(0, cid, ObjectClass::S1, 4096).unwrap();
        exec(&mut sched, s);
        let s = sys
            .array_write(0, cid, oid, 0, Payload::Bytes(vec![1; 4096]))
            .unwrap();
        exec(&mut sched, s);
        let t = sys.obj(cid, oid).unwrap().layout.groups[0][0];
        sys.exclude_target(t);
        assert_eq!(
            sys.array_read(0, cid, oid, 0, 4096).unwrap_err(),
            DaosError::Unavailable
        );
    }

    #[test]
    fn snapshots_and_destroy() {
        let (mut sched, mut sys, cid) = with_container(1, DataMode::Sized);
        let (e1, s) = sys.snapshot_create(0, cid).unwrap();
        exec(&mut sched, s);
        let (e2, s) = sys.snapshot_create(0, cid).unwrap();
        exec(&mut sched, s);
        assert_eq!(sys.snapshot_list(cid).unwrap(), vec![e1, e2]);
        let s = sys.snapshot_destroy(0, cid, e1).unwrap();
        exec(&mut sched, s);
        assert_eq!(sys.snapshot_list(cid).unwrap(), vec![e2]);
        let s = sys.cont_destroy(0, cid).unwrap();
        exec(&mut sched, s);
        assert_eq!(
            sys.snapshot_list(cid).unwrap_err(),
            DaosError::NoSuchContainer
        );
    }

    #[test]
    fn dkey_hash_spreads() {
        let mut buckets = [0u32; 8];
        for i in 0..8000u32 {
            let k = format!("key/{i}");
            buckets[(dkey_hash(k.as_bytes()) % 8) as usize] += 1;
        }
        for &b in &buckets {
            assert!((800..1200).contains(&b), "{buckets:?}");
        }
    }

    #[test]
    fn wrong_type_errors() {
        let (mut sched, mut sys, cid) = with_container(1, DataMode::Full);
        let (kv, s) = sys.kv_create(0, cid, ObjectClass::S1).unwrap();
        exec(&mut sched, s);
        let (arr, s) = sys.array_create(0, cid, ObjectClass::S1, 4096).unwrap();
        exec(&mut sched, s);
        assert_eq!(
            sys.array_write(0, cid, kv, 0, Payload::Sized(10))
                .unwrap_err(),
            DaosError::WrongObjectType
        );
        assert_eq!(
            sys.kv_put(0, cid, arr, b"k", Payload::Sized(1))
                .unwrap_err(),
            DaosError::WrongObjectType
        );
        assert_eq!(
            sys.array_get_size(0, cid, kv).unwrap_err(),
            DaosError::WrongObjectType
        );
    }

    #[test]
    fn punch_removes_object() {
        let (mut sched, mut sys, cid) = with_container(1, DataMode::Sized);
        let (oid, s) = sys.array_create(0, cid, ObjectClass::S1, 4096).unwrap();
        exec(&mut sched, s);
        assert_eq!(sys.object_count(cid).unwrap(), 1);
        let s = sys.obj_punch(0, cid, oid).unwrap();
        exec(&mut sched, s);
        assert_eq!(sys.object_count(cid).unwrap(), 0);
        assert!(sys.obj_punch(0, cid, oid).is_err());
    }

    #[test]
    fn container_attributes_round_trip() {
        let (mut sched, mut sys, cid) = with_container(1, DataMode::Sized);
        let s = sys.cont_set_attr(0, cid, "owner", b"ecmwf").unwrap();
        exec(&mut sched, s);
        let s = sys.cont_set_attr(0, cid, "cycle", b"00z").unwrap();
        exec(&mut sched, s);
        let (v, s) = sys.cont_get_attr(0, cid, "owner").unwrap();
        exec(&mut sched, s);
        assert_eq!(v, b"ecmwf");
        let (names, s) = sys.cont_list_attrs(0, cid).unwrap();
        exec(&mut sched, s);
        assert_eq!(names, vec!["cycle", "owner"]);
        assert_eq!(
            sys.cont_get_attr(0, cid, "missing").unwrap_err(),
            DaosError::NoSuchKey
        );
    }

    #[test]
    fn object_listing_enumerates_oids() {
        let (mut sched, mut sys, cid) = with_container(2, DataMode::Sized);
        let mut created = Vec::new();
        for _ in 0..4 {
            let (oid, s) = sys.array_create(0, cid, ObjectClass::S1, 1 << 20).unwrap();
            exec(&mut sched, s);
            created.push(oid);
        }
        let (kv, s) = sys.kv_create(0, cid, ObjectClass::S1).unwrap();
        exec(&mut sched, s);
        created.push(kv);
        created.sort();
        let (listed, s) = sys.obj_list(0, cid).unwrap();
        exec(&mut sched, s);
        assert_eq!(listed, created);
    }
}
