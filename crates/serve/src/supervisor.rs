//! The threads that watch the workers: the supervisor (detect a dead
//! worker, journal the crash, respawn under backoff) and the disconnect
//! reaper (cancel a request whose client hung up).
//!
//! `catch_unwind` covers request handlers, but a worker thread can still
//! die (a panic outside the guard, an unwind-through-FFI abort path, the
//! test-only `/debug/kill_worker`); crash-only design says the answer is
//! restart, not hope. Each death is journaled (panic digest +
//! fingerprint of the last request the worker read) and the worker is
//! respawned under consecutive-crash backoff, so a crash-looping input
//! cannot turn the pool into a fork bomb.

use crate::server::{spawn_worker, Shared};
use asap_core::fingerprint64;
use asap_ir::CancelToken;
use asap_obs::ObjWriter;
use std::collections::HashMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Reaper poll interval for in-flight client sockets.
const REAPER_POLL: Duration = Duration::from_millis(10);

/// Supervisor poll interval for worker-thread death.
const SUPERVISOR_POLL: Duration = Duration::from_millis(20);

/// Two crashes closer together than this count as consecutive.
const CRASH_COALESCE_MS: u64 = 5_000;

/// Restart backoff: `BASE << (consecutive-1)`, capped. A worker that
/// dies once is back in 50ms; a crash loop converges to one restart
/// every two seconds instead of a respawn storm.
const BACKOFF_BASE_MS: u64 = 50;
const BACKOFF_CAP_MS: u64 = 2_000;

/// JSONL crash journal: what died, why (digest + message), and what it
/// was chewing on (request fingerprint). Counting always works; the
/// file sink is optional.
pub(crate) struct CrashJournal {
    file: Mutex<Option<std::fs::File>>,
    pub entries: AtomicU64,
}

impl CrashJournal {
    fn open(path: Option<&PathBuf>) -> CrashJournal {
        let file = path.and_then(|p| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(p)
                .ok()
        });
        CrashJournal {
            file: Mutex::new(file),
            entries: AtomicU64::new(0),
        }
    }

    pub fn record(&self, worker: usize, kind: &str, message: &str, fingerprint: u64) {
        self.entries.fetch_add(1, Ordering::Relaxed);
        asap_obs::counter_inc("serve.crashes_journaled");
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut w = ObjWriter::new();
        w.u64("ts_ms", ts_ms)
            .usize("worker", worker)
            .str("kind", kind)
            .str(
                "digest",
                &format!("{:016x}", fingerprint64(message.as_bytes())),
            )
            .str("fingerprint", &format!("{fingerprint:016x}"))
            .str("message", message);
        let line = w.finish();
        if let Some(f) = self.file.lock().unwrap_or_else(|p| p.into_inner()).as_mut() {
            let _ = writeln!(f, "{line}");
            let _ = f.flush();
        }
    }
}

/// One supervised worker: its thread handle plus the fingerprint of the
/// last request it read (published by the connection handler, read by
/// the supervisor when the thread dies).
pub(crate) struct WorkerSlot {
    pub id: usize,
    pub fingerprint: Arc<AtomicU64>,
    pub handle: Option<JoinHandle<()>>,
}

pub(crate) struct Supervisor {
    slots: Mutex<Vec<WorkerSlot>>,
    pub restarts: AtomicU64,
    pub consecutive_crashes: AtomicU64,
    pub backoff_ms: AtomicU64,
    /// Milliseconds since server start of the previous crash;
    /// `u64::MAX` = never.
    last_crash_ms: AtomicU64,
    pub journal: CrashJournal,
}

impl Supervisor {
    pub fn new(crash_journal: Option<&PathBuf>) -> Supervisor {
        Supervisor {
            slots: Mutex::new(Vec::new()),
            restarts: AtomicU64::new(0),
            consecutive_crashes: AtomicU64::new(0),
            backoff_ms: AtomicU64::new(0),
            last_crash_ms: AtomicU64::new(u64::MAX),
            journal: CrashJournal::open(crash_journal),
        }
    }

    pub fn lock_slots(&self) -> MutexGuard<'_, Vec<WorkerSlot>> {
        self.slots.lock().unwrap_or_else(|p| p.into_inner())
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "request handler panicked".to_string()
    }
}

/// Detect dead workers, journal the crash, and respawn under backoff.
pub(crate) fn supervisor_loop(shared: &Arc<Shared>) {
    let sup = &shared.supervisor;
    loop {
        if shared.supervisor_stop.load(Ordering::Acquire) {
            return;
        }
        // Claim at most one finished handle per pass (the lock is
        // released before the potentially-slow join + backoff).
        let dead = sup.lock_slots().iter_mut().find_map(|s| {
            let handle = s.handle.take_if(|h| h.is_finished())?;
            Some((s.id, handle, s.fingerprint.clone()))
        });
        let Some((id, handle, fingerprint)) = dead else {
            std::thread::sleep(SUPERVISOR_POLL);
            continue;
        };
        let result = handle.join();
        if shared.draining.load(Ordering::Acquire) {
            // Normal drain exit (or a crash racing the drain — either
            // way nobody needs this worker back).
            continue;
        }
        let message = match &result {
            Ok(()) => "worker exited unexpectedly".to_string(),
            Err(payload) => panic_message(payload.as_ref()),
        };
        sup.journal.record(
            id,
            "worker_crash",
            &message,
            fingerprint.load(Ordering::Relaxed),
        );
        // Dump the flight recorder alongside the crash journal: the
        // retained anomalies plus recent rings are exactly the context
        // a post-mortem needs next to the panic digest.
        if let Some(journal_path) = shared.cfg.crash_journal.as_ref() {
            let sidecar = format!("{}.flight.jsonl", journal_path.display());
            let _ = std::fs::write(sidecar, shared.flight.dump_jsonl());
        }

        // Consecutive-crash backoff: crashes spaced under the coalesce
        // window escalate the delay geometrically up to the cap.
        let now_ms = shared.started.elapsed().as_millis() as u64;
        let last = sup.last_crash_ms.swap(now_ms, Ordering::Relaxed);
        let consecutive = if last != u64::MAX && now_ms.saturating_sub(last) < CRASH_COALESCE_MS {
            sup.consecutive_crashes.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            sup.consecutive_crashes.store(1, Ordering::Relaxed);
            1
        };
        let backoff = (BACKOFF_BASE_MS << (consecutive - 1).min(8)).min(BACKOFF_CAP_MS);
        sup.backoff_ms.store(backoff, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(backoff));
        if shared.draining.load(Ordering::Acquire) || shared.supervisor_stop.load(Ordering::Acquire)
        {
            continue;
        }

        fingerprint.store(0, Ordering::Relaxed);
        if let Ok(h) = spawn_worker(shared.clone(), id, fingerprint) {
            let mut slots = sup.lock_slots();
            if let Some(slot) = slots.iter_mut().find(|s| s.id == id) {
                slot.handle = Some(h);
                sup.restarts.fetch_add(1, Ordering::Relaxed);
                asap_obs::counter_inc("serve.worker_restarts");
            }
        }
    }
}

/// In-flight socket registry the reaper sweeps: a closed socket fires
/// the request's [`CancelToken`], so an abandoned SpMM stops burning CPU
/// at the budget's next poll slot instead of running to completion.
#[derive(Default)]
pub(crate) struct Reaper {
    inflight: Mutex<HashMap<u64, (CancelToken, TcpStream)>>,
    next_id: AtomicU64,
}

impl Reaper {
    fn lock(&self) -> MutexGuard<'_, HashMap<u64, (CancelToken, TcpStream)>> {
        self.inflight.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Register an executing request; the stream clone is switched to
    /// non-blocking so the sweep's peek never stalls. `O_NONBLOCK` lives
    /// on the open file description the clone shares with the worker's
    /// socket, so until [`Reaper::unregister`] that one is non-blocking
    /// too.
    pub fn register(&self, token: &CancelToken, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        clone.set_nonblocking(true).ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.lock().insert(id, (token.clone(), clone));
        Some(id)
    }

    /// Stop watching the request and put its socket back in blocking
    /// mode: the reply is written next, and on a non-blocking socket one
    /// larger than the send buffer would be cut short with `WouldBlock`.
    pub fn unregister(&self, id: u64) {
        let watched = self.lock().remove(&id);
        if let Some((_, stream)) = watched {
            let _ = stream.set_nonblocking(false);
        }
    }

    /// One sweep: cancel every request whose client hung up.
    fn sweep(&self) {
        let mut buf = [0u8; 1];
        for (token, stream) in self.lock().values() {
            let gone = match stream.peek(&mut buf) {
                // EOF: the client closed its end.
                Ok(0) => true,
                // Bytes pending or nothing yet: still connected.
                Ok(_) => false,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
                // Reset / broken pipe: gone.
                Err(_) => true,
            };
            if gone && !token.is_cancelled() {
                asap_obs::counter_inc("serve.client_disconnects");
                token.cancel();
            }
        }
    }
}

pub(crate) fn reaper_loop(shared: &Shared) {
    while !shared.reaper_stop.load(Ordering::Acquire) {
        shared.reaper.sweep();
        std::thread::sleep(REAPER_POLL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;
    use std::net::TcpListener;

    #[test]
    fn unregister_restores_blocking_mode_for_the_reply() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        const LEN: usize = 8 << 20;
        let peer = std::thread::spawn(move || {
            let mut client = TcpStream::connect(addr).unwrap();
            // Let the writer fill the socket buffers before any byte is
            // read, then read slowly.
            std::thread::sleep(Duration::from_millis(100));
            let (mut buf, mut total) = (vec![0u8; 64 << 10], 0);
            while total < LEN {
                match client.read(&mut buf).unwrap() {
                    0 => break,
                    n => total += n,
                }
                if total < (1 << 20) {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            total
        });
        let (mut served, _) = listener.accept().unwrap();
        let reaper = Reaper::default();
        let id = reaper.register(&CancelToken::new(), &served).unwrap();
        reaper.unregister(id);
        served
            .write_all(&vec![7u8; LEN])
            .expect("a socket the reaper has let go of blocks until the peer reads");
        drop(served);
        assert_eq!(peer.join().unwrap(), LEN);
    }
}
