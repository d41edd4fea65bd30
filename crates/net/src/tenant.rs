//! Multi-tenant hosting: several named engines behind one listener.
//!
//! Each [`Tenant`] owns its engine **and its own [`EngineService`]** —
//! worker pool, bounded queue, result cache. That per-tenant service is
//! the isolation mechanism: a tenant that saturates its queue sheds its
//! own load with `429`s while the other tenants' workers, queues and
//! caches are untouched. The server routes by path (`/t/<name>/match`)
//! or by the `X-Mpq-Tenant` header; see [`crate::server`].
//!
//! A submission never blocks: a full queue sheds it with
//! [`MpqError::Overloaded`], so no connection thread is ever parked
//! inside a tenant's queue, which is exactly the coupling multi-tenancy
//! exists to prevent. The wire answer to a full queue is
//! `429 Too Many Requests` with a `Retry-After` estimate, never a
//! stalled socket.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mpq_core::{
    Engine, EngineService, HealthMonitor, MpqError, ServiceClient, ServiceConfig, SubmitOptions,
    Ticket,
};
use mpq_ta::FunctionSet;

use crate::codec::WireMutation;
use mpq_rtree::PointSet;

/// Configuration for one hosted tenant.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Worker threads of this tenant's service (0 = one per core).
    pub workers: usize,
    /// Bounded submission-queue capacity.
    pub queue_capacity: usize,
    /// Result-cache entry budget (0 disables the cache). Default 64, as
    /// [`ServiceConfig`]'s.
    pub cache_capacity: usize,
    /// Result-cache byte budget. It bounds cached results only: the
    /// one seed the tenant's service keeps while its cache is on lives
    /// beside them (see [`mpq_core::seed`]).
    pub cache_max_bytes: usize,
    /// **Ledger-only stub, ignored**: every engine is one tree (see
    /// "Ledger-only names" in the `mpq_core` crate docs).
    pub shards: usize,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            workers: 1,
            queue_capacity: 64,
            cache_capacity: 64,
            cache_max_bytes: 32 * 1024 * 1024,
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
/// The tenant's [`HealthMonitor`] (shared with its service) tracks
/// storage health: a mutation that fails on a storage error flips the
/// tenant to `Degraded` (escalating to `Failed` after repeated
/// failures), after which further mutations are refused up front —
/// the server answers `503` with a `Retry-After` from the monitor's
/// backoff — while reads keep serving from the engine's pinned epoch
/// snapshot and result cache. A background **recovery probe** thread
/// retries [`Engine::checkpoint`] with capped exponential backoff;
/// the first success restores `Healthy`.
pub struct Tenant {
    name: String,
    service: EngineService,
    client: ServiceClient,
    probe_stop: Arc<AtomicBool>,
    probe_handle: Option<thread::JoinHandle<()>>,
}

impl Drop for Tenant {
    fn drop(&mut self) {
        self.probe_stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.probe_handle.take() {
            let _ = handle.join();
        }
    }
}

/// How often the recovery-probe thread checks whether a probe is due.
/// Bounds probe latency and tenant-drop latency, nothing else — the
/// actual retry pacing is the monitor's exponential backoff.
const PROBE_POLL: Duration = Duration::from_millis(10);

fn spawn_probe(
    engine: Arc<Engine>,
    health: Arc<HealthMonitor>,
    stop: Arc<AtomicBool>,
) -> thread::JoinHandle<()> {
    thread::Builder::new()
        .name("mpq-net-probe".to_string())
        .spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                if health.probe_due() {
                    health.begin_probe();
                    // A checkpoint is the repair primitive: it flushes
                    // the dirty pages, commits a new header and
                    // truncates (un-wedging) the WAL.
                    match engine.checkpoint() {
                        Ok(()) => health.report_success(),
                        Err(_) => {
                            let _ = health.report_failure();
                        }
                    }
                }
                thread::sleep(PROBE_POLL);
            }
        })
        .expect("spawn probe thread")
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
        options: SubmitOptions,
    ) -> Result<Ticket, MpqError> {
        let mut req = (self.engine().request(functions)).exclude(exclude.iter().copied());
        if let Some(caps) = capacities {
            req = req.capacities(caps);
        }
        self.client.submit_with(req, options)
    }

    /// Snapshot of this tenant's service metrics.
    pub fn metrics(&self) -> mpq_core::ServiceMetrics {
        self.service.metrics()
    }

    /// Worker count of this tenant's pool (for `Retry-After` math).
    pub fn workers(&self) -> usize {
        self.service.workers()
    }

    /// The tenant's health monitor (shared with its service, so
    /// `/metrics` and `/healthz` report the same state).
    pub fn health(&self) -> &Arc<HealthMonitor> {
        self.service.health()
    }

    /// Apply a wire mutation to the hosted engine.
    ///
    /// Returns `(oid, version)` — `oid` only for inserts; `version` is
    /// the engine's [`inventory_version`](Engine::inventory_version)
    /// after the mutation, which every committed mutation raises.
    /// Storage failures ([`MpqError::Io`], [`MpqError::StorageDegraded`])
    /// are reported to the health monitor, and while the tenant is not
    /// healthy further mutations are refused up front with
    /// [`MpqError::StorageDegraded`] so a broken device is not hammered
    /// by every client. Validation errors pass through untouched — they
    /// say nothing about storage.
    pub(crate) fn mutate(&self, mutation: &WireMutation) -> Result<(Option<u64>, u64), MpqError> {
        if !self.health().state().is_healthy() {
            return Err(MpqError::StorageDegraded);
        }
        let engine = self.engine();
        let result = match mutation {
            WireMutation::Insert(point) => engine.insert_object(point).map(Some),
            WireMutation::Remove(oid) => engine.remove_object(*oid).map(|()| None),
            WireMutation::Update(oid, point) => engine.update_object(*oid, point).map(|()| None),
        };
        match result {
            Ok(oid) => {
                self.health().report_success();
                Ok((oid, engine.inventory_version()))
            }
            Err(e @ (MpqError::Io(_) | MpqError::StorageDegraded)) => {
                let _ = self.health().report_failure();
                Err(e)
            }
            Err(e) => Err(e),
        }
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
        let service = EngineService::spawn(Arc::clone(&engine), config.service_config());
        let client = service.client();
        let probe_stop = Arc::new(AtomicBool::new(false));
        let probe_handle = spawn_probe(
            engine,
            Arc::clone(service.health()),
            Arc::clone(&probe_stop),
        );
        self.tenants.insert(
            name.to_string(),
            Arc::new(Tenant {
                name: name.to_string(),
                service,
                client,
                probe_stop,
                probe_handle: Some(probe_handle),
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
    /// replay included, an old `K`-shard layout migrated); otherwise a
    /// fresh engine over `objects` is created there — see
    /// [`EngineBuilder::open_or_build`](mpq_core::EngineBuilder::open_or_build).
    /// `objects` may be `None` only when reopening.
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

    /// The single tenant, if exactly one is hosted — lets clients of a
    /// single-tenant server post to plain `/match` without naming it.
    pub(crate) fn sole_tenant(&self) -> Option<&Arc<Tenant>> {
        if self.tenants.len() == 1 {
            self.tenants.values().next()
        } else {
            None
        }
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
        assert!(reg.sole_tenant().is_none());

        let names: Vec<_> = reg.iter().map(|t| t.name().to_string()).collect();
        assert_eq!(names, ["alpha", "beta"]);
    }

    #[test]
    fn sole_tenant_only_with_exactly_one() {
        let objects = small_objects();
        let mut reg = TenantRegistry::new();
        assert!(reg.sole_tenant().is_none());
        reg.add_objects("only", &objects, TenantConfig::default())
            .unwrap();
        assert_eq!(reg.sole_tenant().unwrap().name(), "only");
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
}
