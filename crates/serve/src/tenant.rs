//! Tenant identity, quotas, and accounting.
//!
//! Every request is attributed to a tenant, named by the
//! `X-Asap-Tenant` header (anonymous traffic falls into
//! [`DEFAULT_TENANT`]). A tenant is the unit of isolation for the whole
//! serving layer:
//!
//! - **request quota** — a token bucket (`rps` sustained, `burst`
//!   headroom) refilled on demand; an empty bucket is a per-tenant 429
//!   with a computed `Retry-After`, and never affects other tenants;
//! - **byte quota** — resident bytes the tenant may hold in the matrix
//!   store ([`crate::store`]); charged on insert, refunded on eviction;
//! - **weight** — the tenant's share in the deficit-round-robin queue
//!   ([`crate::queue::TenantScheduler`]) and its survival rank in the
//!   brownout ladder (lowest weights are shed first).
//!
//! The registry is bounded: a hostile client cannot mint unbounded
//! tenants (each costs two leaked metric names) — past
//! [`TenantQuotas::max_tenants`] new names are a typed rejection.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// The tenant anonymous requests are accounted under.
pub const DEFAULT_TENANT: &str = "default";

/// Cap on tenant-name length (header values are hostile input).
pub const MAX_TENANT_NAME: usize = 64;

/// Per-tenant policy knobs, set once at server construction.
#[derive(Debug, Clone)]
pub struct TenantQuotas {
    /// Sustained requests/second per tenant (0 = unlimited).
    pub rps: f64,
    /// Token-bucket burst capacity (requests above the sustained rate a
    /// quiet tenant may fire at once).
    pub burst: f64,
    /// Resident matrix-store bytes one tenant may hold (0 = unlimited).
    pub store_bytes: u64,
    /// Hard cap on distinct tenants; beyond it, new names are rejected.
    pub max_tenants: usize,
    /// Per-name scheduling weights; unlisted tenants get weight 1.
    pub weights: Vec<(String, u32)>,
}

impl Default for TenantQuotas {
    fn default() -> TenantQuotas {
        TenantQuotas {
            rps: 0.0,
            burst: 16.0,
            store_bytes: 16 * 1024 * 1024,
            max_tenants: 64,
            weights: Vec::new(),
        }
    }
}

/// Why a tenant could not be resolved.
#[derive(Debug)]
pub enum TenantError {
    /// The header value is not a valid tenant name (→ 400).
    BadName(String),
    /// The registry is at `max_tenants` (→ 429; pick an existing name).
    TooMany(usize),
}

impl std::fmt::Display for TenantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantError::BadName(n) => write!(
                f,
                "invalid tenant name {n:?}: expected 1..={MAX_TENANT_NAME} chars of [A-Za-z0-9._-]"
            ),
            TenantError::TooMany(cap) => {
                write!(f, "tenant registry full ({cap}); reuse an existing tenant")
            }
        }
    }
}

#[derive(Debug)]
struct TokenBucket {
    tokens: f64,
    last: Instant,
}

/// One tenant's live state. Shared (`Arc`) between the scheduler lanes,
/// the store's byte accounting, and the response paths.
#[derive(Debug)]
pub struct TenantState {
    pub name: String,
    pub weight: u32,
    /// Sustained rate; 0 disables the bucket.
    rps: f64,
    burst: f64,
    /// Resident store-byte quota; 0 = unlimited.
    pub store_quota: u64,
    bucket: Mutex<TokenBucket>,
    /// Bytes currently resident in the matrix store on this tenant's
    /// account.
    pub resident_bytes: AtomicU64,
    // Per-tenant tallies, mirrored into obs counters named after the
    // tenant so /metrics breaks them out (bounded by max_tenants).
    pub served: AtomicU64,
    pub rejected: AtomicU64,
    pub shed: AtomicU64,
    m_served: String,
    m_rejected: String,
    m_shed: String,
}

impl TenantState {
    fn new(name: &str, weight: u32, q: &TenantQuotas) -> TenantState {
        let metric = |suffix: &str| format!("serve.tenant.{name}.{suffix}");
        TenantState {
            name: name.to_string(),
            weight: weight.max(1),
            rps: q.rps,
            burst: q.burst.max(1.0),
            store_quota: q.store_bytes,
            bucket: Mutex::new(TokenBucket {
                tokens: q.burst.max(1.0),
                last: Instant::now(),
            }),
            resident_bytes: AtomicU64::new(0),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            m_served: metric("served"),
            m_rejected: metric("rejected"),
            m_shed: metric("shed"),
        }
    }

    /// Take one request token. `Err(retry_after_secs)` means the bucket
    /// is empty; the caller answers 429 with that hint.
    pub fn try_admit(&self) -> Result<(), u64> {
        if self.rps <= 0.0 {
            return Ok(());
        }
        let mut b = self.bucket.lock().unwrap_or_else(|p| p.into_inner());
        let now = Instant::now();
        let dt = now.duration_since(b.last).as_secs_f64();
        b.last = now;
        b.tokens = (b.tokens + dt * self.rps).min(self.burst);
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            Ok(())
        } else {
            // Whole seconds until one token refills (ceil, min 1): the
            // honest hint for a client that must wait out its own quota.
            let secs = ((1.0 - b.tokens) / self.rps).ceil().max(1.0);
            Err(secs as u64)
        }
    }

    /// Try to reserve store bytes against the tenant quota.
    pub fn try_charge_bytes(&self, bytes: u64) -> Result<(), u64> {
        if self.store_quota == 0 {
            self.resident_bytes.fetch_add(bytes, Ordering::Relaxed);
            return Ok(());
        }
        let mut cur = self.resident_bytes.load(Ordering::Relaxed);
        loop {
            if cur.saturating_add(bytes) > self.store_quota {
                return Err(self.store_quota);
            }
            match self.resident_bytes.compare_exchange_weak(
                cur,
                cur + bytes,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Refund store bytes (entry evicted or insert abandoned).
    pub fn uncharge_bytes(&self, bytes: u64) {
        let mut cur = self.resident_bytes.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.resident_bytes.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn count_served(&self) {
        self.served.fetch_add(1, Ordering::Relaxed);
        asap_obs::counter_inc(&self.m_served);
    }

    pub fn count_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        asap_obs::counter_inc(&self.m_rejected);
    }

    pub fn count_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        asap_obs::counter_inc(&self.m_shed);
    }
}

/// The bounded name → state map. Weighted tenants from the config are
/// pre-registered; everything else registers on first sight.
pub struct TenantRegistry {
    quotas: TenantQuotas,
    map: Mutex<HashMap<String, Arc<TenantState>>>,
    default_tenant: Arc<TenantState>,
}

impl TenantRegistry {
    pub fn new(quotas: TenantQuotas) -> TenantRegistry {
        let default_weight = weight_for(DEFAULT_TENANT, &quotas.weights);
        let default_tenant = Arc::new(TenantState::new(DEFAULT_TENANT, default_weight, &quotas));
        let mut map = HashMap::new();
        map.insert(DEFAULT_TENANT.to_string(), default_tenant.clone());
        for (name, w) in quotas.weights.clone() {
            map.entry(name.clone())
                .or_insert_with(|| Arc::new(TenantState::new(&name, w, &quotas)));
        }
        asap_obs::gauge_set("serve.tenants", map.len() as i64);
        TenantRegistry {
            quotas,
            map: Mutex::new(map),
            default_tenant,
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, Arc<TenantState>>> {
        // Tenant states are append-only registrations; a poisoning panic
        // cannot have left a half-written entry worth discarding.
        self.map.lock().unwrap_or_else(|p| p.into_inner())
    }

    pub fn default_tenant(&self) -> Arc<TenantState> {
        self.default_tenant.clone()
    }

    /// Resolve an `X-Asap-Tenant` header value (or its absence) to a
    /// tenant, registering new valid names up to the cap.
    pub fn resolve(&self, header: Option<&str>) -> Result<Arc<TenantState>, TenantError> {
        let Some(raw) = header else {
            return Ok(self.default_tenant.clone());
        };
        let name = raw.trim();
        if name.is_empty()
            || name.len() > MAX_TENANT_NAME
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
        {
            return Err(TenantError::BadName(truncate(raw)));
        }
        let mut g = self.lock();
        if let Some(t) = g.get(name) {
            return Ok(t.clone());
        }
        if g.len() >= self.quotas.max_tenants {
            return Err(TenantError::TooMany(self.quotas.max_tenants));
        }
        let weight = weight_for(name, &self.quotas.weights);
        let t = Arc::new(TenantState::new(name, weight, &self.quotas));
        g.insert(name.to_string(), t.clone());
        asap_obs::gauge_set("serve.tenants", g.len() as i64);
        Ok(t)
    }

    /// All registered tenants (for the /metrics per-tenant section).
    pub fn snapshot(&self) -> Vec<Arc<TenantState>> {
        let mut v: Vec<Arc<TenantState>> = self.lock().values().cloned().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// `(min, max)` weight across registered tenants. The brownout
    /// ladder sheds min-weight tenants only when min < max — with one
    /// weight class there is nobody "lowest" to sacrifice.
    pub fn weight_band(&self) -> (u32, u32) {
        let g = self.lock();
        let mut min = u32::MAX;
        let mut max = 0;
        for t in g.values() {
            min = min.min(t.weight);
            max = max.max(t.weight);
        }
        (min.min(max), max)
    }
}

fn weight_for(name: &str, weights: &[(String, u32)]) -> u32 {
    weights
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, w)| *w)
        .unwrap_or(1)
        .max(1)
}

fn truncate(s: &str) -> String {
    let mut out: String = s.chars().take(MAX_TENANT_NAME).collect();
    if out.len() < s.len() {
        out.push('…');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn anonymous_maps_to_default_and_names_register_once() {
        let r = TenantRegistry::new(TenantQuotas::default());
        let a = r.resolve(None).unwrap();
        assert_eq!(a.name, DEFAULT_TENANT);
        let b = r.resolve(Some("team-a")).unwrap();
        let c = r.resolve(Some("team-a")).unwrap();
        assert!(Arc::ptr_eq(&b, &c), "same name, same state");
        assert_eq!(r.snapshot().len(), 2);
    }

    #[test]
    fn hostile_names_are_typed_rejections() {
        let r = TenantRegistry::new(TenantQuotas::default());
        for bad in [
            "",
            "   ",
            "a b",
            "a\u{7f}b",
            &"x".repeat(MAX_TENANT_NAME + 1),
        ] {
            assert!(
                matches!(r.resolve(Some(bad)), Err(TenantError::BadName(_))),
                "{bad:?} accepted"
            );
        }
    }

    #[test]
    fn registry_is_bounded() {
        let r = TenantRegistry::new(TenantQuotas {
            max_tenants: 3,
            ..TenantQuotas::default()
        });
        r.resolve(Some("a")).unwrap();
        r.resolve(Some("b")).unwrap();
        match r.resolve(Some("c")) {
            Err(TenantError::TooMany(3)) => {}
            other => panic!("expected TooMany, got {other:?}"),
        }
        // Existing names still resolve at the cap.
        r.resolve(Some("a")).unwrap();
        r.resolve(None).unwrap();
    }

    #[test]
    fn token_bucket_drains_then_refills() {
        let r = TenantRegistry::new(TenantQuotas {
            rps: 50.0,
            burst: 2.0,
            ..TenantQuotas::default()
        });
        let t = r.resolve(Some("bursty")).unwrap();
        assert!(t.try_admit().is_ok());
        assert!(t.try_admit().is_ok());
        let retry = t.try_admit().expect_err("burst spent");
        assert!(retry >= 1, "retry-after is at least a second");
        std::thread::sleep(Duration::from_millis(60));
        assert!(t.try_admit().is_ok(), "tokens refill at rps");
    }

    #[test]
    fn byte_quota_charges_and_refunds() {
        let r = TenantRegistry::new(TenantQuotas {
            store_bytes: 100,
            ..TenantQuotas::default()
        });
        let t = r.resolve(Some("hoarder")).unwrap();
        t.try_charge_bytes(60).unwrap();
        assert_eq!(t.try_charge_bytes(50), Err(100), "over quota");
        t.uncharge_bytes(60);
        t.try_charge_bytes(100).unwrap();
        t.uncharge_bytes(999); // saturates, never underflows
        assert_eq!(t.resident_bytes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn weights_come_from_config_with_floor_one() {
        let r = TenantRegistry::new(TenantQuotas {
            weights: vec![("vip".into(), 4), ("zero".into(), 0)],
            ..TenantQuotas::default()
        });
        assert_eq!(r.resolve(Some("vip")).unwrap().weight, 4);
        assert_eq!(r.resolve(Some("zero")).unwrap().weight, 1, "floor");
        assert_eq!(r.resolve(Some("other")).unwrap().weight, 1, "default");
        assert_eq!(r.weight_band(), (1, 4));
    }
}
