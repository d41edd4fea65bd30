//! Multi-tenant hosting: several named engines behind one listener.
//!
//! Each [`Tenant`] owns its engine **and its own [`EngineService`]** —
//! worker pool, bounded queue, result cache. That per-tenant service is
//! the isolation mechanism: a tenant that saturates its queue sheds its
//! own load with `429`s while the other tenants' workers, queues and
//! caches are untouched. The server reaches a tenant by its path alone,
//! `/t/<name>/{match,mutate,metrics}`; see [`crate::server`].
//!
//! A submission never blocks: a full queue sheds it with
//! [`MpqError::Overloaded`], so no connection thread is ever parked
//! inside a tenant's queue, which is exactly the coupling multi-tenancy
//! exists to prevent. The wire answer to a full queue is
//! `429 Too Many Requests` with a `Retry-After` estimate, never a
//! stalled socket.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mpq_core::{Engine, EngineService, MpqError, ServiceClient, ServiceConfig, Ticket};
use mpq_ta::FunctionSet;

use crate::codec::WireMutation;
use mpq_rtree::PointSet;

/// Configuration for one hosted tenant.
///
/// Its defaults are [`ServiceConfig::default`]'s — the queue, the cache's
/// entry bound and its byte bound — so a tenant behind `mpq serve
/// --listen` queues and caches as an in-process service does. Two
/// fields are the tenant's own: one worker, and the ignored `shards`.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Worker threads of this tenant's service (0 = one per core).
    /// Default 1.
    pub workers: usize,
    /// Bounded submission-queue capacity ([`ServiceConfig::queue_capacity`]).
    pub queue_capacity: usize,
    /// Result-cache entry budget, 0 disabling the cache
    /// ([`ServiceConfig::cache_capacity`]).
    pub cache_capacity: usize,
    /// Result-cache byte budget, in heap bytes
    /// ([`ServiceConfig::cache_max_bytes`]). It bounds cached results
    /// only: the one seed the tenant's service keeps while its cache is
    /// on lives beside them (see [`mpq_core::seed`]).
    pub cache_max_bytes: usize,
    /// **Ledger-only stub, ignored**: every engine is one tree (see
    /// "Ledger-only names" in the `mpq_core` crate docs).
    pub shards: usize,
}

impl Default for TenantConfig {
    fn default() -> Self {
        let service = ServiceConfig::default();
        TenantConfig {
            workers: 1,
            queue_capacity: service.queue_capacity,
            cache_capacity: service.cache_capacity,
            cache_max_bytes: service.cache_max_bytes,
            shards: 1,
        }
    }
}

impl TenantConfig {
    fn service_config(&self) -> ServiceConfig {
        ServiceConfig::default()
            .workers(self.workers)
            .queue_capacity(self.queue_capacity)
            .cache_capacity(self.cache_capacity)
            .cache_max_bytes(self.cache_max_bytes)
    }
}

/// One hosted [`Engine`] with its private service.
///
/// ## Health and degraded mode
///
/// Storage health is the engine's (see [`mpq_core::HealthState`]): it
/// is degraded exactly while its WAL is wedged, refuses mutations with
/// [`MpqError::StorageDegraded`] meanwhile — the server answers `503`
/// with a `Retry-After` of [`Engine::retry_after`] — and keeps serving
/// reads from its pinned epoch and the result cache. A mutation that
/// failed cleanly (rolled back) fails alone: the next one is attempted.
/// The engine paces its repairs; a disk-backed tenant runs a **repair
/// loop** that calls [`Engine::checkpoint`] whenever one is due, and
/// the first success restores `healthy`. An in-memory engine's storage
/// cannot fail, so its tenant runs no loop.
pub struct Tenant {
    name: String,
    service: EngineService,
    client: ServiceClient,
    /// The repair loop of a disk-backed tenant: dropping the sender
    /// stops it.
    repair: Option<(Sender<()>, thread::JoinHandle<()>)>,
}

impl Drop for Tenant {
    fn drop(&mut self) {
        if let Some((stop, handle)) = self.repair.take() {
            drop(stop);
            let _ = handle.join();
        }
    }
}

/// How often the repair loop asks the engine whether a repair is due.
/// Bounds repair latency, nothing else: the engine paces the repairs.
const REPAIR_POLL: Duration = Duration::from_millis(10);

/// Run `engine`'s due repairs until the returned sender is dropped.
fn spawn_repair(engine: Arc<Engine>) -> (Sender<()>, thread::JoinHandle<()>) {
    let (stop, stopped) = mpsc::channel();
    let handle = thread::Builder::new()
        .name("mpq-net-repair".to_string())
        .spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(REPAIR_POLL) {
                if !engine.health().is_healthy() && engine.retry_after().is_zero() {
                    // A checkpoint is the repair: it truncates (un-wedges)
                    // the WAL, and the engine records its outcome.
                    let _ = engine.checkpoint();
                }
            }
        })
        .expect("spawn repair thread");
    (stop, handle)
}

impl Tenant {
    /// The tenant's route name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The hosted engine (for request building and direct evaluation in
    /// tests).
    pub fn engine(&self) -> &Arc<Engine> {
        self.service.engine()
    }

    /// A cloneable submission handle to this tenant's service.
    pub fn client(&self) -> &ServiceClient {
        &self.client
    }

    /// Build and submit a match request against the hosted engine — the
    /// submission path the wire layer uses.
    pub(crate) fn submit_match(
        &self,
        functions: &FunctionSet,
        exclude: &[u64],
        capacities: Option<&[u32]>,
        deadline: Duration,
    ) -> Result<Ticket, MpqError> {
        let mut req = (self.engine().request(functions)).exclude(exclude.iter().copied());
        if let Some(caps) = capacities {
            req = req.capacities(caps);
        }
        self.client.submit_with(req, deadline)
    }

    /// Snapshot of this tenant's service metrics.
    pub fn metrics(&self) -> mpq_core::ServiceMetrics {
        self.service.metrics()
    }

    /// Worker count of this tenant's pool (for `Retry-After` math).
    pub fn workers(&self) -> usize {
        self.service.workers()
    }

    /// Apply a wire mutation to the hosted engine.
    ///
    /// Returns `(oid, version)` — `oid` only for inserts; `version` is
    /// the engine's [`inventory_version`](Engine::inventory_version)
    /// after the mutation, which every committed mutation raises.
    pub(crate) fn mutate(&self, mutation: &WireMutation) -> Result<(Option<u64>, u64), MpqError> {
        let engine = self.engine();
        let oid = match mutation {
            WireMutation::Insert(point) => engine.insert_object(point).map(Some),
            WireMutation::Remove(oid) => engine.remove_object(*oid).map(|()| None),
            WireMutation::Update(oid, point) => engine.update_object(*oid, point).map(|()| None),
        }?;
        Ok((oid, engine.inventory_version()))
    }
}

/// `true` iff `name` is usable in a route: non-empty ASCII
/// `[A-Za-z0-9_-]`.
pub(crate) fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

/// The set of tenants a server hosts, keyed by route name.
#[derive(Default)]
pub struct TenantRegistry {
    tenants: BTreeMap<String, Arc<Tenant>>,
}

impl TenantRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Host a pre-built `engine` as tenant `name`, spawning its service.
    ///
    /// Fails with [`MpqError::UnsupportedRequest`] on an invalid or
    /// duplicate name.
    pub fn add_engine(
        &mut self,
        name: &str,
        engine: Arc<Engine>,
        config: TenantConfig,
    ) -> Result<(), MpqError> {
        if !valid_tenant_name(name) {
            return Err(MpqError::UnsupportedRequest(
                "tenant names must be non-empty [A-Za-z0-9_-]",
            ));
        }
        if self.tenants.contains_key(name) {
            return Err(MpqError::UnsupportedRequest("duplicate tenant name"));
        }
        let repair = engine
            .data_dir()
            .is_some()
            .then(|| spawn_repair(Arc::clone(&engine)));
        let service = EngineService::spawn(engine, config.service_config());
        let client = service.client();
        self.tenants.insert(
            name.to_string(),
            Arc::new(Tenant {
                name: name.to_string(),
                service,
                client,
                repair,
            }),
        );
        Ok(())
    }

    /// Build an in-memory engine over `objects` and host it.
    pub fn add_objects(
        &mut self,
        name: &str,
        objects: &PointSet,
        config: TenantConfig,
    ) -> Result<(), MpqError> {
        let engine = Engine::builder().objects(objects).build()?;
        self.add_engine(name, Arc::new(engine), config)
    }

    /// Host a disk-backed tenant rooted at `data_dir`. If the directory
    /// already holds a persisted inventory it is **reopened** (WAL
    /// replay included); otherwise a fresh engine over `objects` is
    /// created there — see
    /// [`EngineBuilder::open_or_build`](mpq_core::EngineBuilder::open_or_build).
    /// `objects` may be `None` only when reopening. A directory in an
    /// older layout — `K` shards under a `shards.mpq` manifest, or a
    /// page file checkpointed without the id bound — is refused with
    /// [`MpqError::UnsupportedRequest`], untouched; commit `cd313ab` is
    /// the last that opens it.
    pub fn add_persistent(
        &mut self,
        name: &str,
        objects: Option<&PointSet>,
        data_dir: PathBuf,
        config: TenantConfig,
    ) -> Result<(), MpqError> {
        let mut builder = Engine::builder().data_dir(data_dir);
        if let Some(objects) = objects {
            builder = builder.objects(objects);
        }
        self.add_engine(name, builder.open_or_build()?, config)
    }

    /// Look up a tenant by name.
    pub fn get(&self, name: &str) -> Option<&Arc<Tenant>> {
        self.tenants.get(name)
    }

    /// Iterate tenants in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Tenant>> {
        self.tenants.values()
    }

    /// Number of hosted tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// `true` iff no tenants are hosted.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_datagen::WorkloadBuilder;

    fn small_objects() -> PointSet {
        WorkloadBuilder::new()
            .objects(50)
            .functions(4)
            .dim(2)
            .seed(7)
            .build()
            .objects
    }

    #[test]
    fn a_tenant_defaults_to_the_services_knobs() {
        let (tenant, service) = (TenantConfig::default(), ServiceConfig::default());
        assert_eq!(tenant.queue_capacity, service.queue_capacity);
        assert_eq!(tenant.cache_capacity, service.cache_capacity);
        assert_eq!(tenant.cache_max_bytes, service.cache_max_bytes);
        // ...and the one service a default tenant spawns is configured so.
        let spawned = tenant.service_config();
        assert_eq!(
            (
                spawned.workers,
                spawned.queue_capacity,
                spawned.cache_capacity
            ),
            (1, service.queue_capacity, service.cache_capacity)
        );
        assert_eq!(spawned.cache_max_bytes, service.cache_max_bytes);
    }

    #[test]
    fn hosts_tenants_and_routes_by_name() {
        let objects = small_objects();
        let mut reg = TenantRegistry::new();
        reg.add_objects("alpha", &objects, TenantConfig::default())
            .unwrap();
        reg.add_objects("beta", &objects, TenantConfig::default())
            .unwrap();
        assert_eq!(reg.len(), 2);
        assert!(reg.get("alpha").is_some());
        assert!(reg.get("gamma").is_none());

        let names: Vec<_> = reg.iter().map(|t| t.name().to_string()).collect();
        assert_eq!(names, ["alpha", "beta"]);
    }

    #[test]
    fn rejects_bad_and_duplicate_names() {
        let objects = small_objects();
        let mut reg = TenantRegistry::new();
        for bad in ["", "a b", "x/y", "héllo"] {
            assert!(reg
                .add_objects(bad, &objects, TenantConfig::default())
                .is_err());
        }
        reg.add_objects("dup", &objects, TenantConfig::default())
            .unwrap();
        assert!(reg
            .add_objects("dup", &objects, TenantConfig::default())
            .is_err());
    }

    #[test]
    fn tenant_services_answer_requests() {
        let w = WorkloadBuilder::new()
            .objects(50)
            .functions(4)
            .dim(2)
            .seed(7)
            .build();
        let engine = Arc::new(Engine::builder().objects(&w.objects).build().unwrap());
        let mut reg = TenantRegistry::new();
        reg.add_engine("t", Arc::clone(&engine), TenantConfig::default())
            .unwrap();
        let tenant = reg.get("t").unwrap();
        let ticket = tenant
            .client()
            .submit(tenant.engine().request(&w.functions))
            .unwrap();
        let m = ticket.wait().unwrap();
        assert_eq!(m.len(), 4);

        // The ack version is the engine's inventory version.
        let (_, acked) = tenant
            .mutate(&WireMutation::Insert(vec![0.3, 0.7]))
            .unwrap();
        assert_eq!(acked, engine.inventory_version());
    }

    /// Only storage that can fail gets a repair loop: an in-memory
    /// tenant spawns its workers alone.
    #[test]
    fn only_a_persistent_tenant_runs_a_repair_loop() {
        let objects = small_objects();
        let dir = std::env::temp_dir().join(format!("mpq-tenant-repair-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut reg = TenantRegistry::new();
        reg.add_objects("mem", &objects, TenantConfig::default())
            .unwrap();
        reg.add_persistent("disk", Some(&objects), dir.clone(), TenantConfig::default())
            .unwrap();
        assert!(reg.get("mem").unwrap().repair.is_none());
        assert!(reg.get("disk").unwrap().repair.is_some());
        drop(reg);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
