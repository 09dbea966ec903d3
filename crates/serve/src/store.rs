//! The resident matrix store: bounded, tenant-accounted, LRU-by-bytes.
//!
//! ASaP's prefetching (and tier-2's specialization) only pay off when
//! the matrix is already resident — re-parsing a MatrixMarket body or
//! re-running a generator per request wastes the very memory bandwidth
//! the kernels are tuned to saturate. The store keeps resolved
//! [`SparseTensor`]s hot across requests under three hard rules:
//!
//! 1. **Byte ceiling.** Total resident bytes never exceed the
//!    configured ceiling. Admission is governed by an
//!    [`asap_ir::Budget`] with a byte limit: an entry larger than one
//!    shard's share is a typed [`StoreError::Oversized`] (HTTP 413),
//!    never an allocation attempt. The bytes counted are
//!    [`SparseTensor::footprint_bytes`], which is what the tensor's
//!    arrays occupy on the heap (they are stored at index width), so
//!    the ceiling bounds resident memory, not a nominal size.
//! 2. **Tenant quotas.** Every resident byte is charged to the
//!    inserting tenant ([`TenantState::try_charge_bytes`]); over-quota
//!    inserts are [`StoreError::TenantQuota`] (HTTP 429). Eviction
//!    refunds the owner.
//! 3. **Pinned-while-running.** A request executing against an entry
//!    holds a pin ([`Resident`]); pinned entries are never evicted, so
//!    eviction can only reclaim memory that is genuinely idle. If every
//!    entry in the target shard is pinned, admission fails closed with
//!    [`StoreError::Busy`] (HTTP 429) rather than over-committing.
//!
//! Shards are independently locked and poison-recovering in the same
//! idiom as the compile cache: a panic mid-mutation discards that
//! shard's (reproducible) entries, refunds their tenants, counts the
//! recovery, and clears the flag.
//!
//! A store built with `total_bytes == 0` is disabled: [`admit`]
//! passes tensors through unpinned and every request pays the
//! re-parse/re-generate path — the A/B contrast the tenancy benchmark
//! measures.
//!
//! [`admit`]: MatrixStore::admit

use crate::tenant::TenantState;
use asap_ir::Budget;
use asap_tensor::SparseTensor;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Fixed shard count: enough to keep worker threads off each other's
/// locks, small enough that per-shard ceilings stay useful.
pub const STORE_SHARDS: usize = 8;

/// Typed admission failures; each maps to one HTTP status.
#[derive(Debug, PartialEq, Eq)]
pub enum StoreError {
    /// Entry is larger than a shard's byte share (→ 413). It could
    /// never become resident, at any load.
    Oversized { bytes: u64, limit: u64 },
    /// The inserting tenant is out of resident-byte quota (→ 429).
    TenantQuota { bytes: u64, quota: u64 },
    /// Every candidate eviction victim is pinned by a running request
    /// (→ 429): back off and retry.
    Busy,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Oversized { bytes, limit } => write!(
                f,
                "matrix of {bytes} bytes exceeds the store's per-entry limit of {limit} bytes"
            ),
            StoreError::TenantQuota { bytes, quota } => write!(
                f,
                "admitting {bytes} bytes would exceed the tenant's resident quota of {quota} bytes"
            ),
            StoreError::Busy => {
                write!(f, "store shard fully pinned by running requests; retry")
            }
        }
    }
}

struct Entry {
    tensor: Arc<SparseTensor>,
    bytes: u64,
    pins: u32,
    last_used: u64,
    tenant: Arc<TenantState>,
}

#[derive(Default)]
struct Shard {
    map: HashMap<String, Entry>,
    bytes: u64,
}

/// A tensor handed out by the store. While this value lives, the backing
/// entry (if any) is pinned and cannot be evicted; dropping it unpins.
pub struct Resident {
    pub tensor: Arc<SparseTensor>,
    /// True when the tensor came out of the store rather than being
    /// built for this request.
    pub store_hit: bool,
    pub bytes: u64,
    /// Held solely for its `Drop` (unpin) side effect.
    #[allow(dead_code)]
    pin: Option<Pin>,
}

impl std::fmt::Debug for Resident {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resident")
            .field("store_hit", &self.store_hit)
            .field("bytes", &self.bytes)
            .field("pinned", &self.pin.is_some())
            .finish_non_exhaustive()
    }
}

struct Pin {
    store: Arc<MatrixStore>,
    shard: usize,
    key: String,
}

impl Drop for Pin {
    fn drop(&mut self) {
        self.store.unpin(self.shard, &self.key);
    }
}

pub struct MatrixStore {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard byte ceiling (total ceiling / shard count).
    shard_ceiling: u64,
    /// Admission governor: `check_bytes` against the per-entry limit
    /// rides the same typed machinery as execution budgets.
    admission: Budget,
    tick: AtomicU64,
}

impl MatrixStore {
    /// `total_bytes == 0` disables residency entirely.
    pub fn new(total_bytes: u64) -> MatrixStore {
        let shard_ceiling = total_bytes / STORE_SHARDS as u64;
        MatrixStore {
            shards: (0..STORE_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            shard_ceiling,
            admission: Budget::unlimited().with_bytes(shard_ceiling),
            tick: AtomicU64::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.shard_ceiling > 0
    }

    /// The largest entry [`admit`](MatrixStore::admit) accepts, for
    /// callers that can size a matrix before building it; `u64::MAX`
    /// when the store is disabled and admits nothing anyway.
    pub fn entry_limit(&self) -> u64 {
        if self.enabled() {
            self.shard_ceiling
        } else {
            u64::MAX
        }
    }

    fn shard_of(&self, key: &str) -> usize {
        (asap_core::fingerprint64(key.as_bytes()) % STORE_SHARDS as u64) as usize
    }

    /// Lock one shard, recovering from poisoning by discarding its
    /// entries (reproducible from their sources), refunding the owning
    /// tenants, and clearing the flag — the compile-cache idiom.
    fn lock_shard(&self, idx: usize) -> MutexGuard<'_, Shard> {
        match self.shards[idx].lock() {
            Ok(g) => g,
            Err(poisoned) => {
                let mut g = poisoned.into_inner();
                for e in g.map.values() {
                    e.tenant.uncharge_bytes(e.bytes);
                }
                g.map.clear();
                g.bytes = 0;
                asap_obs::counter_inc("serve.store.poison_recoveries");
                self.shards[idx].clear_poison();
                g
            }
        }
    }

    fn touch(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// The one residency sequence: the resident under `key` if there is
    /// one, else `build`'s tensor admitted on `tenant`'s account. A
    /// disabled store keeps nothing, so it never asks for the key — for
    /// an inline body that is a digest over every byte.
    pub(crate) fn resident<E: From<StoreError>>(
        self: &Arc<Self>,
        key: impl FnOnce() -> String,
        tenant: &Arc<TenantState>,
        build: impl FnOnce() -> Result<Arc<SparseTensor>, E>,
    ) -> Result<Resident, E> {
        let key = if self.enabled() { key() } else { String::new() };
        if let Some(r) = self.lookup(&key) {
            return Ok(r);
        }
        Ok(self.admit(&key, build()?, tenant)?)
    }

    /// Look up a resident tensor, pinning it for the caller.
    pub fn lookup(self: &Arc<Self>, key: &str) -> Option<Resident> {
        if !self.enabled() {
            return None;
        }
        let idx = self.shard_of(key);
        let tick = self.touch();
        let mut g = self.lock_shard(idx);
        let e = g.map.get_mut(key)?;
        e.last_used = tick;
        e.pins += 1;
        asap_obs::counter_inc("serve.store.hits");
        Some(Resident {
            tensor: e.tensor.clone(),
            store_hit: true,
            bytes: e.bytes,
            pin: Some(Pin {
                store: self.clone(),
                shard: idx,
                key: key.to_string(),
            }),
        })
    }

    /// Admit a freshly-built tensor under `key`, charged to `tenant`.
    /// On success the entry is resident and pinned for the caller.
    ///
    /// With the store disabled this is a pass-through: the tensor is
    /// returned unpinned and nothing becomes resident.
    pub fn admit(
        self: &Arc<Self>,
        key: &str,
        tensor: Arc<SparseTensor>,
        tenant: &Arc<TenantState>,
    ) -> Result<Resident, StoreError> {
        let bytes = tensor.footprint_bytes() as u64;
        if !self.enabled() {
            asap_obs::counter_inc("serve.store.misses");
            return Ok(Resident {
                tensor,
                store_hit: false,
                bytes,
                pin: None,
            });
        }
        if self.admission.check_bytes(bytes).is_err() {
            asap_obs::counter_inc("serve.store.rejected_oversized");
            return Err(StoreError::Oversized {
                bytes,
                limit: self.shard_ceiling,
            });
        }
        if let Err(quota) = tenant.try_charge_bytes(bytes) {
            asap_obs::counter_inc("serve.store.rejected_quota");
            return Err(StoreError::TenantQuota { bytes, quota });
        }
        let idx = self.shard_of(key);
        let tick = self.touch();
        let mut g = self.lock_shard(idx);
        if let Some(e) = g.map.get_mut(key) {
            // Raced with another worker building the same matrix: keep
            // the incumbent, refund our charge, pin the winner.
            tenant.uncharge_bytes(bytes);
            e.last_used = tick;
            e.pins += 1;
            asap_obs::counter_inc("serve.store.hits");
            return Ok(Resident {
                tensor: e.tensor.clone(),
                store_hit: true,
                bytes: e.bytes,
                pin: Some(Pin {
                    store: self.clone(),
                    shard: idx,
                    key: key.to_string(),
                }),
            });
        }
        // Evict idle LRU entries until the newcomer fits the ceiling.
        while g.bytes.saturating_add(bytes) > self.shard_ceiling {
            let victim = g
                .map
                .iter()
                .filter(|(_, e)| e.pins == 0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(vk) = victim else {
                tenant.uncharge_bytes(bytes);
                asap_obs::counter_inc("serve.store.rejected_busy");
                return Err(StoreError::Busy);
            };
            let e = g.map.remove(&vk).expect("victim key just observed");
            g.bytes -= e.bytes;
            e.tenant.uncharge_bytes(e.bytes);
            asap_obs::counter_inc("serve.store.evictions");
        }
        g.bytes += bytes;
        g.map.insert(
            key.to_string(),
            Entry {
                tensor: tensor.clone(),
                bytes,
                pins: 1,
                last_used: tick,
                tenant: tenant.clone(),
            },
        );
        asap_obs::counter_inc("serve.store.misses");
        // Release the shard before publishing: the occupancy gauges sum
        // every shard, and this lock is not reentrant.
        drop(g);
        self.publish_gauges();
        Ok(Resident {
            tensor,
            store_hit: false,
            bytes,
            pin: Some(Pin {
                store: self.clone(),
                shard: idx,
                key: key.to_string(),
            }),
        })
    }

    fn unpin(&self, idx: usize, key: &str) {
        let mut g = self.lock_shard(idx);
        // The entry may be gone: poison recovery clears shards even
        // under pins (the Arc in the Resident keeps execution safe).
        if let Some(e) = g.map.get_mut(key) {
            e.pins = e.pins.saturating_sub(1);
        }
    }

    /// Total resident bytes across shards.
    pub fn bytes(&self) -> u64 {
        (0..self.shards.len())
            .map(|i| self.lock_shard(i).bytes)
            .sum()
    }

    /// Total resident entries across shards.
    pub fn entries(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.lock_shard(i).map.len())
            .sum()
    }

    /// The hard global ceiling (shard ceiling × shard count).
    pub fn ceiling(&self) -> u64 {
        self.shard_ceiling * self.shards.len() as u64
    }

    /// `serve.store.bytes` is resident heap bytes: the sum of
    /// `footprint_bytes()` over the entries, each the `len · elem_bytes`
    /// of its arrays (DESIGN.md §14.2).
    fn publish_gauges(&self) {
        asap_obs::gauge_set("serve.store.bytes", self.bytes() as i64);
        asap_obs::gauge_set("serve.store.entries", self.entries() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{TenantQuotas, TenantRegistry};
    use asap_matrices::gen;
    use asap_tensor::Format;

    fn tensor(n: usize, deg: usize) -> Arc<SparseTensor> {
        let tri = gen::erdos_renyi(n, deg, 1);
        let coo = tri.try_to_coo_f64().unwrap();
        Arc::new(SparseTensor::try_from_coo(&coo, Format::csr()).unwrap())
    }

    fn registry() -> TenantRegistry {
        TenantRegistry::new(TenantQuotas {
            store_bytes: 0, // unlimited; quota behaviour has its own test
            ..TenantQuotas::default()
        })
    }

    #[test]
    fn lookup_miss_then_admit_then_hit() {
        let store = Arc::new(MatrixStore::new(64 * 1024 * 1024));
        let reg = registry();
        let t = reg.default_tenant();
        assert!(store.lookup("ref:a").is_none());
        let r = store.admit("ref:a", tensor(256, 4), &t).unwrap();
        assert!(!r.store_hit);
        drop(r);
        let r2 = store.lookup("ref:a").expect("resident after admit");
        assert!(r2.store_hit);
        assert_eq!(store.entries(), 1);
        assert!(store.bytes() > 0);
    }

    #[test]
    fn ceiling_is_never_exceeded_and_lru_evicts_idle() {
        let one = tensor(256, 4).footprint_bytes() as u64;
        // Room for ~3 entries per shard; everything hashes where it
        // hashes, so just assert the global invariant under churn.
        let store = Arc::new(MatrixStore::new(one * 3 * STORE_SHARDS as u64));
        let reg = registry();
        let t = reg.default_tenant();
        for i in 0..64 {
            let r = store.admit(&format!("ref:m{i}"), tensor(256, 4), &t);
            // Unpinned immediately; later inserts may evict it.
            drop(r);
            assert!(
                store.bytes() <= store.ceiling(),
                "resident {} > ceiling {}",
                store.bytes(),
                store.ceiling()
            );
        }
        assert!(
            asap_obs::counter_get("serve.store.evictions") > 0,
            "churn at 64 inserts into a ~24-entry store must evict"
        );
    }

    #[test]
    fn oversized_is_typed_not_allocated() {
        let store = Arc::new(MatrixStore::new(8 * 1024)); // 1 KiB/shard
        let reg = registry();
        let t = reg.default_tenant();
        match store.admit("ref:big", tensor(4096, 8), &t) {
            Err(StoreError::Oversized { limit, .. }) => assert_eq!(limit, 1024),
            other => panic!("expected Oversized, got {:?}", other.map(|r| r.bytes)),
        }
        assert_eq!(store.entries(), 0);
        assert_eq!(
            t.resident_bytes.load(Ordering::Relaxed),
            0,
            "no charge leaks"
        );
    }

    #[test]
    fn tenant_quota_rejects_and_refunds() {
        let small = tensor(256, 4).footprint_bytes() as u64;
        let reg = TenantRegistry::new(TenantQuotas {
            store_bytes: small + small / 2,
            ..TenantQuotas::default()
        });
        let t = reg.resolve(Some("capped")).unwrap();
        let store = Arc::new(MatrixStore::new(64 * 1024 * 1024));
        let _held = store.admit("ref:first", tensor(256, 4), &t).unwrap();
        match store.admit("ref:second", tensor(256, 4), &t) {
            Err(StoreError::TenantQuota { quota, .. }) => {
                assert_eq!(quota, small + small / 2)
            }
            other => panic!("expected TenantQuota, got {:?}", other.map(|r| r.bytes)),
        }
        assert_eq!(
            t.resident_bytes.load(Ordering::Relaxed),
            small,
            "failed insert refunded its charge"
        );
    }

    #[test]
    fn pinned_entries_survive_eviction_pressure() {
        let one = tensor(256, 4).footprint_bytes() as u64;
        let store = Arc::new(MatrixStore::new(one * STORE_SHARDS as u64)); // 1 entry/shard
        let reg = registry();
        let t = reg.default_tenant();
        let pinned = store.admit("ref:pinned", tensor(256, 4), &t).unwrap();
        // Every further insert that lands on the same shard must fail
        // Busy (its only victim is pinned), never evict the pinned one.
        let mut busied = 0;
        for i in 0..32 {
            match store.admit(&format!("ref:n{i}"), tensor(256, 4), &t) {
                Err(StoreError::Busy) => busied += 1,
                Ok(r) => drop(r),
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(
            busied > 0,
            "32 keys over 8 shards must collide with the pin"
        );
        assert!(
            store.lookup("ref:pinned").is_some(),
            "pin protected the entry"
        );
        drop(pinned);
        assert!(store.bytes() <= store.ceiling());
    }

    #[test]
    fn drop_of_resident_unpins() {
        let one = tensor(256, 4).footprint_bytes() as u64;
        let store = Arc::new(MatrixStore::new(one * STORE_SHARDS as u64));
        let reg = registry();
        let t = reg.default_tenant();
        let r = store.admit("ref:a", tensor(256, 4), &t).unwrap();
        drop(r);
        // After unpin, an insert hashing to the same shard can evict it.
        for i in 0..32 {
            let _ = store.admit(&format!("ref:x{i}"), tensor(256, 4), &t);
        }
        assert!(store.bytes() <= store.ceiling());
    }

    #[test]
    fn disabled_store_passes_through() {
        let store = Arc::new(MatrixStore::new(0));
        let reg = registry();
        let t = reg.default_tenant();
        assert!(!store.enabled());
        let r = store.admit("ref:a", tensor(128, 2), &t).unwrap();
        assert!(!r.store_hit);
        assert!(store.lookup("ref:a").is_none(), "nothing becomes resident");
        assert_eq!(store.entries(), 0);
        drop(r);
    }

    #[test]
    fn poisoned_shard_recovers_and_refunds() {
        let store = Arc::new(MatrixStore::new(64 * 1024 * 1024));
        let reg = registry();
        let t = reg.default_tenant();
        drop(store.admit("ref:a", tensor(256, 4), &t).unwrap());
        let charged = t.resident_bytes.load(Ordering::Relaxed);
        assert!(charged > 0);
        let idx = store.shard_of("ref:a");
        let poisoner = store.clone();
        let _ = std::thread::spawn(move || {
            let _g = poisoner.shards[idx].lock().unwrap();
            panic!("deliberate poison");
        })
        .join();
        assert!(store.shards[idx].is_poisoned());
        let before = asap_obs::counter_get("serve.store.poison_recoveries");
        assert!(store.lookup("ref:a").is_none(), "entries discarded");
        assert!(!store.shards[idx].is_poisoned());
        assert_eq!(
            asap_obs::counter_get("serve.store.poison_recoveries"),
            before + 1
        );
        assert_eq!(
            t.resident_bytes.load(Ordering::Relaxed),
            0,
            "recovery refunded the cleared entry"
        );
        drop(store.admit("ref:a", tensor(256, 4), &t).unwrap());
        assert!(store.lookup("ref:a").is_some(), "shard keeps working");
    }
}
