//! The scheduler behind admission control: one bounded connection FIFO
//! and per-tenant job lanes, drained by one shared worker pool.
//!
//! Raw connections enter one bounded FIFO (parsing is cheap and
//! tenant-blind: the tenant is only known after the headers are read).
//! `try_push_conn` never blocks: a full FIFO is an immediate
//! [`PushError::Full`] so the accept loop can answer 429 with
//! `Retry-After` instead of letting latency collapse under overload.
//! Parsed jobs enter **per-tenant lanes** drained by weighted deficit
//! round-robin: each time a lane reaches the head of the active ring
//! with no deficit it is credited `weight` units, each popped job costs
//! one unit, and the lane rotates to the back when its credit is spent.
//! Service is therefore weight-proportional across backlogged tenants —
//! a tenant bursting 10× the offered load fills only its own lane
//! (per-tenant 429) and cannot starve anyone else's. Workers take
//! connections first (a parse either becomes a lane entry or an
//! immediate rejection; letting conns queue behind an aggressor's jobs
//! would turn per-tenant 429s back into global ones). `next_work` blocks
//! until work arrives or the scheduler is closed *and* drained — the
//! graceful-shutdown contract: closing stops admission, workers finish
//! what was queued.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard};

#[derive(Debug)]
pub enum PushError<T> {
    /// At the bound; the item is handed back for the 429 path.
    Full(T),
    /// Closed for draining; the item is handed back for the 503 path.
    Closed(T),
}

/// What a worker gets from [`TenantScheduler::next_work`].
pub enum Work<C, J> {
    /// A raw connection to parse (hold the implicit lease; call
    /// [`TenantScheduler::done_conn`] when parsing is finished).
    Conn(C),
    /// A parsed job popped from a tenant lane under DRR.
    Job(J),
}

/// Why a parsed job could not be queued.
#[derive(Debug)]
pub enum SubmitError<J> {
    /// This tenant's lane is at its bound — the per-tenant 429 path.
    /// Other tenants are unaffected; that is the point.
    TenantFull(J),
    /// The global job cap is hit (sum over lanes) — backpressure even
    /// when no single tenant is over its share.
    TotalFull(J),
}

struct Lane<J> {
    jobs: VecDeque<J>,
    /// Remaining DRR credit; refilled to `weight` when the lane reaches
    /// the head of the active ring with zero credit.
    deficit: u64,
    weight: u32,
}

struct SchedInner<C, J> {
    conns: VecDeque<C>,
    /// Non-empty lanes only; a lane is dropped (deficit forgotten) the
    /// moment it drains, so an idle tenant carries no credit into its
    /// next burst.
    lanes: HashMap<String, Lane<J>>,
    /// Round-robin ring over `lanes` keys; each key appears exactly once.
    active: VecDeque<String>,
    jobs_total: usize,
    /// Connections popped but not yet `done_conn`-ed. A parse in flight
    /// may still submit a job, so workers must not exit — even closed
    /// and empty — while leases are outstanding.
    leases: usize,
    closed: bool,
}

/// Connection FIFO + weighted deficit-round-robin job lanes, drained by
/// one shared worker pool.
pub struct TenantScheduler<C, J> {
    inner: Mutex<SchedInner<C, J>>,
    ready: Condvar,
    conn_bound: usize,
    lane_bound: usize,
    job_bound: usize,
}

impl<C, J> TenantScheduler<C, J> {
    /// `conn_bound` caps raw connections awaiting parse, `lane_bound`
    /// caps one tenant's queued jobs, `job_bound` caps jobs across all
    /// lanes (and feeds the brownout ladder's pressure signal).
    pub fn new(conn_bound: usize, lane_bound: usize, job_bound: usize) -> TenantScheduler<C, J> {
        TenantScheduler {
            inner: Mutex::new(SchedInner {
                conns: VecDeque::new(),
                lanes: HashMap::new(),
                active: VecDeque::new(),
                jobs_total: 0,
                leases: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            conn_bound: conn_bound.max(1),
            lane_bound: lane_bound.max(1),
            job_bound: job_bound.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SchedInner<C, J>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Non-blocking connection admission (the accept loop's 429/503
    /// decision point): enqueue or hand the connection straight back.
    pub fn try_push_conn(&self, conn: C) -> Result<usize, PushError<C>> {
        let mut g = self.lock();
        if g.closed {
            return Err(PushError::Closed(conn));
        }
        if g.conns.len() >= self.conn_bound {
            return Err(PushError::Full(conn));
        }
        g.conns.push_back(conn);
        let depth = g.conns.len();
        drop(g);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Queue a parsed job into `tenant`'s lane. Deliberately allowed
    /// after `close()`: a connection popped before the close is admitted
    /// work, and shutdown drains admitted work.
    pub fn submit_job(&self, tenant: &str, weight: u32, job: J) -> Result<usize, SubmitError<J>> {
        let mut g = self.lock();
        if g.jobs_total >= self.job_bound {
            return Err(SubmitError::TotalFull(job));
        }
        if let Some(lane) = g.lanes.get(tenant) {
            if lane.jobs.len() >= self.lane_bound {
                return Err(SubmitError::TenantFull(job));
            }
        }
        let lane = g.lanes.entry(tenant.to_string()).or_insert_with(|| Lane {
            jobs: VecDeque::new(),
            deficit: 0,
            weight: weight.max(1),
        });
        let newly_active = lane.jobs.is_empty();
        lane.jobs.push_back(job);
        if newly_active {
            g.active.push_back(tenant.to_string());
        }
        g.jobs_total += 1;
        let depth = g.jobs_total;
        drop(g);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Block for the next unit of work. Connections win over jobs; jobs
    /// are drained lane-by-lane under deficit round-robin. Returns
    /// `None` only when the scheduler is closed, both queues are empty,
    /// and no popped connection could still submit a job.
    pub fn next_work(&self) -> Option<Work<C, J>> {
        let mut g = self.lock();
        loop {
            if let Some(c) = g.conns.pop_front() {
                g.leases += 1;
                return Some(Work::Conn(c));
            }
            if g.jobs_total > 0 {
                return Some(Work::Job(Self::drr_pop(&mut g)));
            }
            if g.closed && g.leases == 0 {
                return None;
            }
            g = self.ready.wait(g).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn drr_pop(g: &mut SchedInner<C, J>) -> J {
        let name = g
            .active
            .front()
            .cloned()
            .expect("jobs_total > 0 implies an active lane");
        let lane = g.lanes.get_mut(&name).expect("active lane exists");
        if lane.deficit == 0 {
            lane.deficit = u64::from(lane.weight);
        }
        let job = lane.jobs.pop_front().expect("active lane is non-empty");
        lane.deficit -= 1;
        g.jobs_total -= 1;
        if lane.jobs.is_empty() {
            g.active.pop_front();
            g.lanes.remove(&name);
        } else if lane.deficit == 0 {
            g.active.pop_front();
            g.active.push_back(name);
        }
        job
    }

    /// Release the parse lease taken by `next_work` handing out a
    /// connection. Must be called exactly once per popped connection
    /// (panics in the handler included — run it after `catch_unwind`).
    pub fn done_conn(&self) {
        let mut g = self.lock();
        g.leases = g.leases.saturating_sub(1);
        let last_lease = g.closed && g.leases == 0;
        drop(g);
        if last_lease {
            // Nothing can be queued any more, so every blocked worker
            // has to look again: it takes what is left or sees the exit
            // condition. Waking them only when nothing is queued loses
            // the wake-up when this parse's own job is still in its
            // lane — whoever pops it notifies nobody.
            self.ready.notify_all();
        }
    }

    /// Stop admitting connections; wake everyone to drain and exit.
    pub fn close(&self) {
        let mut g = self.lock();
        g.closed = true;
        drop(g);
        self.ready.notify_all();
    }

    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Raw connections awaiting parse.
    pub fn conn_depth(&self) -> usize {
        self.lock().conns.len()
    }

    /// Parsed jobs across all lanes — the brownout pressure signal.
    pub fn job_depth(&self) -> usize {
        self.lock().jobs_total
    }

    /// The global job cap this scheduler was built with.
    pub fn job_bound(&self) -> usize {
        self.job_bound
    }

    /// Lanes with at least one queued job.
    pub fn active_lanes(&self) -> usize {
        self.lock().lanes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn conns_win_over_jobs_and_drr_is_weight_proportional() {
        let s: TenantScheduler<&str, (&str, u32)> = TenantScheduler::new(8, 64, 256);
        // Backlog two tenants, weight 2 vs 1, eight jobs each.
        for i in 0..8 {
            s.submit_job("heavy", 2, ("heavy", i)).unwrap();
            s.submit_job("light", 1, ("light", i)).unwrap();
        }
        s.try_push_conn("c1").unwrap();
        // The connection is served first even though jobs were queued
        // earlier.
        match s.next_work() {
            Some(Work::Conn(c)) => assert_eq!(c, "c1"),
            _ => panic!("conn must win over queued jobs"),
        }
        s.done_conn();
        // Drain all 16 jobs; in any aligned window of 3 pops the heavy
        // lane gets 2 and the light lane 1 (quantum = weight, cost = 1).
        let mut order = Vec::new();
        for _ in 0..16 {
            match s.next_work() {
                Some(Work::Job((who, _))) => order.push(who),
                _ => panic!("16 jobs queued"),
            }
        }
        let heavy_first_cycle = order[..3].iter().filter(|w| **w == "heavy").count();
        assert_eq!(
            heavy_first_cycle, 2,
            "weight-2 lane gets 2 of every 3: {order:?}"
        );
        assert_eq!(order.iter().filter(|w| **w == "heavy").count(), 8);
        assert_eq!(order.iter().filter(|w| **w == "light").count(), 8);
        // Interleaved, not head-of-line: the light tenant's first job is
        // served within the first weight-sum window.
        let first_light = order.iter().position(|w| *w == "light").unwrap();
        assert!(first_light <= 2, "light tenant starved: {order:?}");
    }

    #[test]
    fn lane_bound_is_per_tenant_and_total_bound_global() {
        let s: TenantScheduler<(), u32> = TenantScheduler::new(4, 2, 3);
        s.submit_job("a", 1, 1).unwrap();
        s.submit_job("a", 1, 2).unwrap();
        // Tenant a is at its lane bound; tenant b is unaffected.
        assert!(matches!(
            s.submit_job("a", 1, 3),
            Err(SubmitError::TenantFull(3))
        ));
        s.submit_job("b", 1, 4).unwrap();
        // Global cap (3) now binds before b's lane bound does.
        assert!(matches!(
            s.submit_job("b", 1, 5),
            Err(SubmitError::TotalFull(5))
        ));
        assert_eq!(s.job_depth(), 3);
        assert_eq!(s.active_lanes(), 2);
    }

    #[test]
    fn close_waits_for_parse_leases_before_releasing_workers() {
        let s: Arc<TenantScheduler<&str, u32>> = Arc::new(TenantScheduler::new(4, 8, 8));
        s.try_push_conn("c").unwrap();
        let Some(Work::Conn(_)) = s.next_work() else {
            panic!("conn expected")
        };
        s.close();
        // A worker holding a parse lease may still submit; a second
        // worker must block rather than observe a premature drain.
        let waiter = {
            let s = s.clone();
            std::thread::spawn(move || s.next_work())
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(
            !waiter.is_finished(),
            "worker exited while a lease was live"
        );
        // The lease-holder submits after close (admitted work drains)…
        s.submit_job("t", 1, 7).unwrap();
        s.done_conn();
        match waiter.join().unwrap() {
            Some(Work::Job(7)) => {}
            _ => panic!("post-close submit from a leased parse must be served"),
        }
        // …and with the lease released and queues empty, workers exit.
        assert!(s.next_work().is_none());
    }

    /// The last lease going while its job is still queued must wake
    /// every blocked worker, not only the one the submit woke: the pop
    /// that empties the scheduler notifies nobody. Which of the two
    /// orders a run takes is up to the OS scheduler, hence the rounds.
    #[test]
    fn last_lease_with_its_job_still_queued_releases_every_worker() {
        for round in 0..300 {
            let s: Arc<TenantScheduler<&str, u32>> = Arc::new(TenantScheduler::new(4, 8, 8));
            s.try_push_conn("c").unwrap();
            let Some(Work::Conn(_)) = s.next_work() else {
                panic!("conn expected")
            };
            s.close();
            let (exited_tx, exited_rx) = std::sync::mpsc::channel();
            for _ in 0..3 {
                let (s, exited_tx) = (s.clone(), exited_tx.clone());
                std::thread::spawn(move || {
                    while s.next_work().is_some() {}
                    let _ = exited_tx.send(());
                });
            }
            // Let the workers park on the closed, leased scheduler.
            std::thread::sleep(std::time::Duration::from_millis(1));
            s.submit_job("t", 1, 7).unwrap();
            s.done_conn();
            for _ in 0..3 {
                exited_rx
                    .recv_timeout(std::time::Duration::from_secs(5))
                    .unwrap_or_else(|_| panic!("round {round}: a worker never saw the drain"));
            }
        }
    }

    #[test]
    fn closed_scheduler_bounces_conns_but_drains_jobs() {
        let s: TenantScheduler<u8, u8> = TenantScheduler::new(4, 8, 8);
        s.submit_job("t", 1, 9).unwrap();
        s.close();
        assert!(matches!(s.try_push_conn(1), Err(PushError::Closed(1))));
        match s.next_work() {
            Some(Work::Job(9)) => {}
            _ => panic!("queued job survives close"),
        }
        assert!(s.next_work().is_none());
    }

    #[test]
    fn drained_lane_forgets_its_deficit() {
        let s: TenantScheduler<(), (&str, u32)> = TenantScheduler::new(4, 64, 256);
        // Burst, drain, burst again: the second burst must not inherit
        // credit or debt from the first.
        s.submit_job("a", 3, ("a", 0)).unwrap();
        let Some(Work::Job(_)) = s.next_work() else {
            panic!()
        };
        assert_eq!(s.active_lanes(), 0, "drained lane is dropped");
        s.submit_job("a", 3, ("a", 1)).unwrap();
        s.submit_job("b", 1, ("b", 0)).unwrap();
        let mut order = Vec::new();
        for _ in 0..2 {
            if let Some(Work::Job((who, _))) = s.next_work() {
                order.push(who);
            }
        }
        assert_eq!(order, vec!["a", "b"], "fresh burst starts a fresh quantum");
    }
}
