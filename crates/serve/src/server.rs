//! The TCP server: accept loop, connection handlers, the worker pool,
//! and its supervisor.
//!
//! Threading model (std only — no async runtime):
//!
//! * one **accept thread** that only accepts and hands each connection
//!   to a connection thread; it never parses, queues, or waits on a
//!   simulation, so a full queue or a slow job cannot stall new
//!   connections. An optional max-in-flight connection cap answers
//!   `503 overloaded` straight from this path, in one non-blocking
//!   write;
//! * detached **connection threads**, one per open connection: each
//!   reads the request, serves `GET`s directly, and for jobs either
//!   replays the cache or enqueues and blocks on a rendezvous channel
//!   for the result. When its connection closes the thread parks for
//!   [`CONN_THREAD_IDLE`] and takes the next connection the accept
//!   thread hands it, or exits. The accept thread spawns a new one only
//!   when none is parked, so every connection gets a thread at once — a
//!   thread cache, not a bounded pool;
//! * `workers` long-lived **worker threads**, each owning one reusable
//!   [`Machine`] recycled per job (`Machine::reset_for_new_job`), pulling
//!   from the fair bounded [`JobQueue`];
//! * one **supervisor thread** that owns the worker join handles. Every
//!   worker carries an exit notice fired on *any* exit — clean or
//!   unwinding — and the supervisor respawns dead workers (and rebuilds
//!   their machines) so one poisoned job can never shrink the pool.
//!
//! Admission control and overload behavior: `/run`, `/assemble` and
//! every `/sweep` cell go through one admission function, `admit`.
//! Every job that reaches admission (parsed, cache-missed) counts
//! `jobs_accepted` and lands in exactly one terminal bucket, so at
//! quiescence `jobs_accepted == jobs_completed + jobs_rejected +
//! jobs_shed + jobs_failed` — the accounting invariant the chaos
//! harness asserts:
//!
//! * **queue full** → immediate `429 Retry-After: 1` (*rejected*) — no
//!   blocking, no buffering;
//! * **draining** → immediate `503 draining` (*rejected*); `GET`s keep
//!   working so probes see `draining: true` instead of a dead port;
//! * **deadline burned** (`?deadline-ms=` spent in the queue, or the
//!   run overrunning it) → structured `503 deadline-exceeded` (*shed*).
//!   Queue-age shedding happens at dequeue, CoDel-style: an expired job
//!   is answered without ever occupying a worker (the per-worker job
//!   counters prove it), and a running job checks the deadline at
//!   cooperative checkpoints inside the simulator;
//! * **worker panic** → the panic is caught, the worker's `Machine` is
//!   quarantined and rebuilt, and the client gets a structured `500`
//!   (*failed*); a worker thread that dies outright is respawned by the
//!   supervisor and its in-flight job answers `500 worker-lost`
//!   (*failed*). Either way the pool never shrinks.
//!
//! Slow-client defenses: the request head, request body, and response
//! write each run under an *absolute* deadline
//! ([`crate::http::DeadlineStream`]) — the head gets its own, shorter
//! budget, so a slow-loris dribbling header bytes cannot pin a
//! connection slot for the full I/O timeout.
//!
//! Shutdown is a bounded drain: stop admitting, let in-flight jobs
//! finish within the budget, then cancel stragglers at their next
//! checkpoint and answer orphans with `503 draining` — every accepted
//! job still gets its terminal response.
//!
//! Every request gets a process-unique id and a [`SpanSet`] tracking its
//! journey (`read-request` → `parse` → `cache-lookup` → `queue-wait` →
//! `worker-service` ⊃ `sim-run` → `respond`). Workers run on other
//! threads but measure against the request's own `t0`, shipping spans
//! back as microsecond offsets in the reply; the handler folds every
//! stage into the per-stage latency histograms after responding, and
//! `?span-trace=1` on a job endpoint embeds the request's Chrome trace
//! (loadable in Perfetto, same envelope as the simulator exporter) in
//! the response. The `respond` span is measured *around* the write, so
//! it reaches the histograms but — by construction — not the embedded
//! trace of its own request.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

use mt_dse::grid::GridSpec;
use mt_obs::SpanSet;
use mt_sim::{Machine, SimConfig};
use mt_trace::Json;

use crate::cache::ResultCache;
use crate::http::{read_body, read_head, DeadlineStream, Request, Response};
use crate::job::{
    error_doc, execute_controlled, shed_body, Endpoint, JobControl, JobRequest, RunOptions,
};
use crate::metrics::{Gauges, ServeMetrics};
use crate::queue::JobQueue;

/// Chaos hook: a job whose source contains this marker (and a server
/// started with `chaos_hooks`) panics *inside* the worker's
/// `catch_unwind` — exercising the caught-panic path: machine rebuilt,
/// `worker_panics` bumped, structured `500`, pool intact.
pub const PANIC_MARKER: &str = "CHAOS-PANIC-WORKER";

/// Chaos hook: like [`PANIC_MARKER`] but the panic fires *outside*
/// `catch_unwind`, killing the worker thread outright — exercising the
/// supervisor respawn path and the handler's `500 worker-lost` reply.
pub const KILL_MARKER: &str = "CHAOS-KILL-WORKER";

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads (0 = the machine's available parallelism).
    pub workers: usize,
    /// Total queued-job bound across all clients.
    pub queue_depth: usize,
    /// Result-cache capacity in responses (0 disables caching).
    pub cache_entries: usize,
    /// Absolute deadline for the request body read and the response
    /// write (each armed separately).
    pub io_timeout: Duration,
    /// Absolute deadline for producing the request head — the
    /// slow-loris budget, deliberately shorter than `io_timeout`.
    pub header_timeout: Duration,
    /// Max in-flight connections (0 = unlimited); excess connections
    /// get an immediate `503 overloaded`.
    pub max_connections: usize,
    /// How long [`ServerHandle::shutdown`] lets in-flight jobs finish
    /// before cancelling them at their next checkpoint.
    pub drain_budget: Duration,
    /// Enable the [`PANIC_MARKER`]/[`KILL_MARKER`] fault-injection
    /// hooks. Off by default; only the chaos harness turns this on.
    pub chaos_hooks: bool,
    /// Write one structured line per request to stderr.
    pub access_log: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_depth: 64,
            cache_entries: 256,
            io_timeout: Duration::from_secs(10),
            header_timeout: Duration::from_secs(5),
            max_connections: 256,
            drain_budget: Duration::from_secs(5),
            chaos_hooks: false,
            access_log: false,
        }
    }
}

/// Spans measured on the worker thread, shipped back to the handler as
/// microsecond offsets from the request's `t0`.
#[derive(Debug, Clone, Copy)]
struct WorkerSpans {
    /// When the worker picked the job (ends `queue-wait`).
    start_us: u64,
    /// When the worker finished executing.
    end_us: u64,
    /// The simulation section as `(start_us, dur_us)`, when it ran.
    sim: Option<(u64, u64)>,
}

/// A job traveling through the queue: the request and its cache key,
/// the rendezvous channel its handler waits on, the span anchor workers
/// measure against, and the absolute deadline (if the client set one).
struct QueuedJob {
    request: JobRequest,
    key: String,
    reply: mpsc::SyncSender<(u16, String, WorkerSpans)>,
    t0: Instant,
    deadline: Option<Instant>,
}

impl QueuedJob {
    /// Answers this job without a worker: used by the dequeue-side
    /// queue-age shed and by shutdown for drain orphans. The reply
    /// carries zero-width worker spans (the job never ran).
    fn answer(&self, status: u16, body: String) {
        let now_us = self.t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let spans = WorkerSpans {
            start_us: now_us,
            end_us: now_us,
            sim: None,
        };
        let _ = self.reply.send((status, body, spans));
    }
}

/// State shared by the accept thread, handlers, workers, and the
/// supervisor.
struct Shared {
    queue: JobQueue<QueuedJob>,
    cache: Mutex<ResultCache>,
    metrics: ServeMetrics,
    /// Final flag: the accept loop exits when it observes this.
    shutdown: AtomicBool,
    /// Drain phase 1: stop admitting jobs; GETs still served.
    draining: AtomicBool,
    /// Drain phase 2: cancel in-flight runs at their next checkpoint.
    drain_hard: AtomicBool,
    busy_workers: AtomicUsize,
    open_connections: AtomicUsize,
    conn_threads: ThreadCache<Conn>,
    workers: usize,
    next_request_id: AtomicU64,
    io_timeout: Duration,
    header_timeout: Duration,
    max_connections: usize,
    chaos_hooks: bool,
    access_log: bool,
}

impl Shared {
    fn gauges(&self) -> Gauges {
        Gauges {
            queue_depth: self.queue.len(),
            queue_capacity: self.queue.capacity(),
            workers: self.workers,
            busy_workers: self.busy_workers.load(Ordering::SeqCst),
            open_connections: self.open_connections.load(Ordering::SeqCst),
            conn_threads_parked: self.conn_threads.parked(),
            draining: self.draining.load(Ordering::SeqCst),
        }
    }

    /// Locks the result cache, recovering from poison. A thread that
    /// panics while holding the guard (a worker dying mid-insert, say)
    /// poisons the mutex, and `lock().unwrap()` here used to propagate
    /// that panic into every later handler — one bad job took the whole
    /// cache path down for the life of the process. The cache's own
    /// operations never leave it structurally half-updated (inserts
    /// replace map entries whole), so the guard is safe to take back;
    /// each recovery bumps the `cache_poisoned` counter in `/metrics`.
    fn cache(&self) -> std::sync::MutexGuard<'_, ResultCache> {
        self.cache.lock().unwrap_or_else(|poisoned| {
            // Clearing the flag makes the counter count poisoning
            // events, not every lock taken afterwards.
            self.cache.clear_poison();
            self.metrics.add("cache_poisoned", 1);
            poisoned.into_inner()
        })
    }
}

/// Decrements `busy_workers` on drop — including a panicking worker's
/// unwind, so the gauge cannot leak upward when a job dies.
struct BusyGuard<'a>(&'a Shared);

impl<'a> BusyGuard<'a> {
    fn enter(shared: &'a Shared) -> BusyGuard<'a> {
        shared.busy_workers.fetch_add(1, Ordering::SeqCst);
        BusyGuard(shared)
    }
}

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.0.busy_workers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Decrements `open_connections` on drop, however the handler exits.
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.open_connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// How long a connection thread stays parked after its connection
/// closes before it exits: long enough to catch a closed-loop client's
/// next connection, short enough that a burst's extra threads soon go.
pub const CONN_THREAD_IDLE: Duration = Duration::from_secs(1);

/// An accepted connection on its way to a connection thread, with the
/// guard that counts it in `open_connections` until the thread is done.
type Conn = (TcpStream, ConnGuard);

/// Threads parked between items of work — here, connection threads
/// between connections — most recently parked last. Each waits on its
/// own one-slot channel for the accept thread to hand it the next item.
struct ThreadCache<T> {
    parked: Mutex<Parked<T>>,
}

struct Parked<T> {
    inboxes: Vec<(ThreadId, mpsc::SyncSender<T>)>,
    /// Set at shutdown: no thread parks again.
    closed: bool,
}

impl<T> ThreadCache<T> {
    fn new() -> ThreadCache<T> {
        ThreadCache {
            parked: Mutex::new(Parked {
                inboxes: Vec::new(),
                closed: false,
            }),
        }
    }

    /// Every update leaves the list whole, so a poisoned lock is safe
    /// to take back.
    fn lock(&self) -> MutexGuard<'_, Parked<T>> {
        self.parked.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hands `item` to the most recently parked thread, or gives it back
    /// when no thread is parked.
    fn hand_off(&self, item: T) -> Result<(), T> {
        let Some((_, inbox)) = self.lock().inboxes.pop() else {
            return Err(item);
        };
        inbox.send(item).map_err(|mpsc::SendError(item)| item)
    }

    /// Parks the calling thread until it is handed an item; `None` once
    /// it has idled for [`CONN_THREAD_IDLE`] or the cache was closed.
    fn park(&self) -> Option<T> {
        let me = std::thread::current().id();
        let (inbox, next) = mpsc::sync_channel(1);
        {
            let mut parked = self.lock();
            if parked.closed {
                return None;
            }
            parked.inboxes.push((me, inbox));
        }
        match next.recv_timeout(CONN_THREAD_IDLE) {
            Ok(item) => Some(item),
            // `close` dropped the inbox.
            Err(RecvTimeoutError::Disconnected) => None,
            Err(RecvTimeoutError::Timeout) => {
                let mut parked = self.lock();
                if let Some(i) = parked.inboxes.iter().position(|(id, _)| *id == me) {
                    parked.inboxes.remove(i);
                    return None;
                }
                drop(parked);
                // `hand_off` took the inbox as the wait expired, so its
                // item is on the way (unless `close` took it, which
                // disconnects the channel).
                next.recv().ok()
            }
        }
    }

    /// Wakes every parked thread to exit, and keeps later ones from
    /// parking.
    fn close(&self) {
        let mut parked = self.lock();
        parked.closed = true;
        parked.inboxes.clear();
    }

    /// Threads parked right now.
    fn parked(&self) -> usize {
        self.lock().inboxes.len()
    }
}

/// Fires the worker's exit notice on drop — a clean queue-closed exit
/// and a panic unwind both reach the supervisor, which is what lets it
/// tell "respawn" from "done".
struct ExitNotice {
    tx: mpsc::Sender<(usize, bool)>,
    index: usize,
    clean: bool,
}

impl Drop for ExitNotice {
    fn drop(&mut self) {
        let _ = self.tx.send((self.index, self.clean));
    }
}

/// A running server. Dropping the handle does *not* stop it; call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    drain_budget: Duration,
    accept_thread: Option<JoinHandle<()>>,
    supervisor_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Test hook: poisons the result-cache mutex exactly the way a job
    /// panicking on a worker thread mid-insert would — a throwaway
    /// thread panics while holding the guard. Only the regression test
    /// proving the service survives a poisoned cache should call this.
    #[doc(hidden)]
    pub fn poison_result_cache(&self) {
        let shared = Arc::clone(&self.shared);
        let panicker = std::thread::Builder::new()
            .name("mt-serve-poison".to_string())
            .spawn(move || {
                let _guard = shared.cache.lock().unwrap();
                panic!("deliberate panic while holding the result-cache lock");
            })
            .expect("spawn poison thread");
        // The Err from join *is* the success condition here.
        assert!(panicker.join().is_err());
    }

    /// Graceful bounded drain, then stop:
    ///
    /// 1. set `draining` — job admission answers `503`, `GET`s keep
    ///    working so probes can watch the drain;
    /// 2. wait up to the drain budget for the queue and workers to
    ///    quiesce;
    /// 3. set `drain_hard` — in-flight runs abandon at their next
    ///    cooperative checkpoint with `503 draining`;
    /// 4. close the queue and answer every orphaned job with a
    ///    structured `503` (counted as *shed* — the accounting
    ///    invariant survives shutdown);
    /// 5. stop the accept loop, wake parked connection threads so they
    ///    exit, and join the accept, supervisor and worker threads.
    pub fn shutdown(mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        let quiesce_by = Instant::now() + self.drain_budget;
        while Instant::now() < quiesce_by
            && (!self.shared.queue.is_empty()
                || self.shared.busy_workers.load(Ordering::SeqCst) > 0)
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.shared.drain_hard.store(true, Ordering::SeqCst);
        let orphans = self.shared.queue.close_and_take();
        for job in orphans {
            self.shared.metrics.add("jobs_shed", 1);
            self.shared.metrics.add(status_counter(503), 1);
            job.answer(
                503,
                shed_body("draining", "server draining; job abandoned in queue"),
            );
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept loop is parked in `accept()`; a throwaway connection
        // wakes it to observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.shared.conn_threads.close();
        if let Some(t) = self.supervisor_thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds, spawns the worker pool, supervisor, and accept thread, and
/// returns.
pub fn serve(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let workers = if config.workers == 0 {
        std::thread::available_parallelism().map_or(2, |n| n.get())
    } else {
        config.workers
    };
    let shared = Arc::new(Shared {
        queue: JobQueue::new(config.queue_depth),
        cache: Mutex::new(ResultCache::new(config.cache_entries)),
        metrics: ServeMetrics::new(),
        shutdown: AtomicBool::new(false),
        draining: AtomicBool::new(false),
        drain_hard: AtomicBool::new(false),
        busy_workers: AtomicUsize::new(0),
        open_connections: AtomicUsize::new(0),
        conn_threads: ThreadCache::new(),
        workers,
        next_request_id: AtomicU64::new(0),
        io_timeout: config.io_timeout,
        header_timeout: config.header_timeout,
        max_connections: config.max_connections,
        chaos_hooks: config.chaos_hooks,
        access_log: config.access_log,
    });
    shared.metrics.set_workers(workers);

    let (notice_tx, notice_rx) = mpsc::channel();
    let handles: Vec<Option<JoinHandle<()>>> = (0..workers)
        .map(|i| Some(spawn_worker(&shared, i, notice_tx.clone())))
        .collect();
    let supervisor_thread = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("mt-serve-supervisor".to_string())
            .spawn(move || supervisor_loop(&shared, handles, notice_rx, notice_tx))
            .expect("spawn supervisor")
    };

    let accept_thread = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("mt-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &shared))
            .expect("spawn accept thread")
    };

    Ok(ServerHandle {
        addr,
        shared,
        drain_budget: config.drain_budget,
        accept_thread: Some(accept_thread),
        supervisor_thread: Some(supervisor_thread),
    })
}

fn spawn_worker(
    shared: &Arc<Shared>,
    index: usize,
    tx: mpsc::Sender<(usize, bool)>,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("mt-serve-worker-{index}"))
        .spawn(move || {
            let mut notice = ExitNotice {
                tx,
                index,
                clean: false,
            };
            worker_loop(&shared, index);
            notice.clean = true;
        })
        .expect("spawn worker")
}

/// Owns the worker join handles. Each exit notice is either a clean
/// queue-closed exit (count it down) or a death (join the corpse and
/// respawn, unless the server is draining). The loop ends when every
/// slot has exited cleanly — which only happens at shutdown.
fn supervisor_loop(
    shared: &Arc<Shared>,
    mut handles: Vec<Option<JoinHandle<()>>>,
    rx: mpsc::Receiver<(usize, bool)>,
    tx: mpsc::Sender<(usize, bool)>,
) {
    let mut live = handles.len();
    while live > 0 {
        let Ok((index, clean)) = rx.recv() else { break };
        if let Some(h) = handles[index].take() {
            let _ = h.join();
        }
        if clean || shared.draining.load(Ordering::SeqCst) {
            live -= 1;
        } else {
            shared.metrics.add("worker_respawns", 1);
            handles[index] = Some(spawn_worker(shared, index, tx.clone()));
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        // Connection cap: the refusal is one small write into the new
        // socket's empty send buffer. Non-blocking, it goes out at once
        // or not at all, so a slow peer cannot stall the accept loop.
        if shared.max_connections != 0
            && shared.open_connections.load(Ordering::SeqCst) >= shared.max_connections
        {
            shared.metrics.add("rejected_overloaded", 1);
            if stream.set_nonblocking(true).is_ok() {
                let body = shed_body("overloaded", "connection limit reached");
                let _ = Response::json(503, body)
                    .with_header("Retry-After", "1")
                    .write_to(&mut &stream);
            }
            continue;
        }
        shared.open_connections.fetch_add(1, Ordering::SeqCst);
        let conn = (stream, ConnGuard(Arc::clone(shared)));
        if let Err(conn) = shared.conn_threads.hand_off(conn) {
            spawn_conn_thread(shared, conn);
        }
    }
}

/// Starts a connection thread on `conn`. Connection threads are
/// detached: each one either answers quickly (GETs, cache hits, 429s)
/// or blocks on its own job's rendezvous — never on another connection.
fn spawn_conn_thread(shared: &Arc<Shared>, conn: Conn) {
    let shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("mt-serve-conn".to_string())
        .spawn(move || {
            shared.metrics.add("conn_threads_spawned", 1);
            let mut next = Some(conn);
            while let Some((stream, open)) = next {
                handle_connection(stream, &shared);
                drop(open);
                next = shared.conn_threads.park();
            }
        });
    // On spawn failure the closure (and the guard inside it) is dropped,
    // which closes the connection and decrements the gauge.
    drop(spawned);
}

/// Microseconds from `t0` to `t` (0 if `t` precedes it).
fn offset_us(t0: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(t0).as_micros() as u64
}

fn worker_loop(shared: &Shared, index: usize) {
    // One machine per worker, recycled across jobs (`reset_for_new_job`
    // inside `execute_controlled`); allocations for memory, caches, and
    // decode tables are paid once. A caught panic quarantines the
    // machine (its internal state is suspect) and rebuilds it fresh.
    let mut machine = Machine::new(SimConfig::default());
    while let Some(job) = shared.queue.pop() {
        // Queue-age shed, CoDel-style: a deadline burned entirely in
        // the queue answers here, before the busy gauge or the
        // per-worker job counters — the job never occupies this worker.
        if let Some(d) = job.deadline {
            if Instant::now() >= d {
                shared.metrics.add("jobs_shed", 1);
                shared.metrics.add(status_counter(503), 1);
                job.answer(
                    503,
                    shed_body("deadline-exceeded", "request deadline expired while queued"),
                );
                continue;
            }
        }
        let busy = BusyGuard::enter(shared);
        let picked = Instant::now();
        if shared.chaos_hooks && job.request.source.contains(KILL_MARKER) {
            // Deliberately *outside* catch_unwind: the thread dies, the
            // exit notice fires, and the supervisor must respawn. The
            // dropped reply sender becomes the handler's `worker-lost`.
            panic!("chaos hook: killing worker {index}");
        }
        let control = JobControl {
            deadline: job.deadline,
            cancel: Some(&shared.drain_hard),
        };
        let hooks = shared.chaos_hooks;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if hooks && job.request.source.contains(PANIC_MARKER) {
                panic!("chaos hook: panicking in worker {index}");
            }
            execute_controlled(&job.request, &mut machine, &control)
        }));
        let (result, timing) = match outcome {
            Ok(pair) => pair,
            Err(_) => {
                // The machine may be mid-run with arbitrary internal
                // state; quarantine it and start over.
                machine = Machine::new(SimConfig::default());
                shared.metrics.add("worker_panics", 1);
                shared.metrics.add("jobs_failed", 1);
                shared.metrics.add(status_counter(500), 1);
                let done = Instant::now();
                let spans = WorkerSpans {
                    start_us: offset_us(job.t0, picked),
                    end_us: offset_us(job.t0, done),
                    sim: None,
                };
                let body = shed_body("worker-panic", "job panicked; worker recovered");
                shared.metrics.record_worker_job(
                    index,
                    done.saturating_duration_since(picked).as_micros() as u64,
                );
                drop(busy);
                let _ = job.reply.send((500, body, spans));
                continue;
            }
        };
        if let Some(cycles) = result.cycles {
            shared.metrics.record_service_cycles(cycles);
        }
        shared.metrics.add(status_counter(result.status), 1);
        // Terminal bucket: a 503 from a controlled run is a shed
        // (deadline mid-run, or drain-cancelled); anything else is a
        // normal completion (200/400/422).
        if result.status == 503 {
            shared.metrics.add("jobs_shed", 1);
        } else {
            shared.metrics.add("jobs_completed", 1);
        }
        // Only deterministic results are cacheable: shed/cancel bodies
        // (503) depend on wall-clock timing and must never be replayed
        // for a different request.
        if result.status < 500 {
            shared
                .cache()
                .insert(job.key, result.status, result.body.clone());
        }
        let done = Instant::now();
        let spans = WorkerSpans {
            start_us: offset_us(job.t0, picked),
            end_us: offset_us(job.t0, done),
            sim: timing
                .sim
                .map(|(start, dur)| (offset_us(job.t0, start), dur.as_micros() as u64)),
        };
        // Settle the job counters and the busy gauge before replying,
        // so a client that reads `/metrics` right after its reply sees
        // this worker idle.
        shared.metrics.record_worker_job(
            index,
            done.saturating_duration_since(picked).as_micros() as u64,
        );
        drop(busy);
        // A vanished handler (client hung up) is fine; the result is
        // already cached for the retry.
        let _ = job.reply.send((result.status, result.body, spans));
    }
}

fn status_counter(status: u16) -> &'static str {
    match status {
        200 => "responses_200",
        400 => "responses_400",
        422 => "responses_422",
        500 => "responses_500",
        503 => "responses_503",
        _ => "responses_other",
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let stream = DeadlineStream::new(stream);
    let peer = stream
        .get_ref()
        .peer_addr()
        .map(|a| a.ip().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let request_id = shared.next_request_id.fetch_add(1, Ordering::SeqCst) + 1;
    let mut spans = SpanSet::begin(request_id);
    // The head gets its own, shorter budget (slow-loris defense); the
    // body runs under the general I/O deadline.
    stream.set_read_deadline(Some(Instant::now() + shared.header_timeout));
    let mut reader = BufReader::new(&stream);
    let head = match read_head(&mut reader) {
        Ok(h) => h,
        Err(e) => {
            respond_http_error(&stream, shared, e.status());
            return;
        }
    };
    stream.set_read_deadline(Some(Instant::now() + shared.io_timeout));
    let request = match read_body(&mut reader, head) {
        Ok(r) => r,
        Err(e) => {
            respond_http_error(&stream, shared, e.status());
            return;
        }
    };
    drop(reader);
    spans.record("read-request", spans.t0(), Instant::now());
    let response = route(&request, &peer, shared, &mut spans);
    let status = response.status;
    let bytes = response.body.len();
    let cache_state = response
        .headers
        .iter()
        .find(|(k, _)| k == "X-Cache")
        .map(|(_, v)| v.clone());
    let respond_start = Instant::now();
    respond(&stream, shared, response);
    let respond_end = Instant::now();
    spans.record("respond", respond_start, respond_end);
    spans.record("total", spans.t0(), respond_end);
    // One recording point for the whole request: every measured stage
    // lands in the latency histograms exactly once.
    for s in spans.spans() {
        shared.metrics.record_stage_us(s.name, s.dur_us);
    }
    if shared.access_log {
        eprintln!(
            "{}",
            access_log_line(
                &spans,
                &peer,
                &request,
                status,
                bytes,
                cache_state.as_deref()
            )
        );
    }
}

/// Answers a request that never parsed (status 0 = the connection is
/// beyond responding to).
fn respond_http_error(stream: &DeadlineStream, shared: &Shared, status: u16) {
    if status == 0 {
        return;
    }
    respond(stream, shared, error_response(status, "http", None));
}

/// A structured error in one line: schema, `"status": "error"`, the
/// kind, and the message when there is one.
fn error_response(status: u16, kind: &str, message: Option<&str>) -> Response {
    let doc = error_doc(kind, message.map(|m| ("message", Json::Str(m.to_string()))));
    Response::json(status, format!("{doc}\n"))
}

/// One structured `key=value` line per request — machine-parseable,
/// stable field order, no wall-clock timestamps (offsets only).
fn access_log_line(
    spans: &SpanSet,
    peer: &str,
    request: &Request,
    status: u16,
    bytes: usize,
    cache_state: Option<&str>,
) -> String {
    format!(
        "access id={} peer={} method={} path={} status={} bytes={} cache={} total_us={} queue_us={} sim_us={}",
        spans.id,
        peer,
        request.method,
        request.path,
        status,
        bytes,
        cache_state.unwrap_or("-"),
        spans.dur_us("total").unwrap_or(0),
        spans.dur_us("queue-wait").unwrap_or(0),
        spans.dur_us("sim-run").unwrap_or(0),
    )
}

fn route(request: &Request, peer: &str, shared: &Shared, spans: &mut SpanSet) -> Response {
    shared.metrics.add("requests_total", 1);
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/metrics") => match check_query(request, &["format"]) {
            Err(response) => response,
            Ok(()) => match request.query_get("format") {
                None | Some("json") => {
                    Response::json(200, shared.metrics.to_json(shared.gauges()).pretty())
                }
                Some("prometheus") => Response::new(
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    shared.metrics.to_prometheus(shared.gauges()),
                ),
                Some(other) => {
                    error_response(400, "bad-query", Some(&format!("unknown format `{other}`")))
                }
            },
        },
        ("POST", "/assemble") => job_response(request, peer, shared, Endpoint::Assemble, spans),
        ("POST", "/run") => job_response(request, peer, shared, Endpoint::Run, spans),
        ("POST", "/sweep") => sweep_response(request, peer, shared, spans),
        ("GET", "/assemble" | "/run" | "/sweep") | ("POST", "/healthz" | "/metrics") => {
            error_response(405, "method-not-allowed", None)
        }
        _ => error_response(404, "not-found", None),
    }
}

/// The query keys `/run` and `/assemble` read: [`parse_options`]'s,
/// [`parse_deadline`]'s and `span-trace`.
const JOB_KEYS: &[&str] = &[
    "base",
    "cold",
    "lint",
    "profile",
    "trace",
    "cycles",
    "watchdog",
    "backend",
    "config",
    "serialized",
    "deadline-ms",
    "span-trace",
];

/// Answers `400 bad-query`, naming the key, when the request's query has
/// a key outside `keys` (the ones its route reads) or any key twice, so
/// a misspelt or repeated setting is never silently a default. The scan
/// stops at the first key outside `keys` or the first repeat, so it reads
/// at most `keys.len() + 1` keys, however long the query.
fn check_query(request: &Request, keys: &[&str]) -> Result<(), Response> {
    for (i, (key, _)) in request.query.iter().enumerate() {
        let problem = if !keys.contains(&key.as_str()) {
            "unknown"
        } else if request.query[..i].iter().any(|(k, _)| k == key) {
            "repeated"
        } else {
            continue;
        };
        let message = format!("{problem} query key `{key}`");
        return Err(error_response(400, "bad-query", Some(&message)));
    }
    Ok(())
}

/// Embeds the request's Chrome span trace in a JSON response body
/// (`?span-trace=1`). Purely additive and applied *after* the cache:
/// cached bodies stay byte-identical functions of the job, and the
/// query knob never reaches the cache key.
fn attach_span_trace(response: Response, spans: &SpanSet) -> Response {
    let Ok(text) = std::str::from_utf8(&response.body) else {
        return response;
    };
    let Ok(mut doc) = mt_trace::json::parse(text) else {
        return response;
    };
    doc.push("span_trace", spans.to_chrome_json());
    Response {
        body: doc.pretty().into_bytes(),
        ..response
    }
}

/// The `503 draining` admission refusal (terminal bucket: *rejected*).
fn draining_response(shared: &Shared) -> Response {
    shared.metrics.add("rejected_draining", 1);
    shared.metrics.add("jobs_rejected", 1);
    shared.metrics.add(status_counter(503), 1);
    Response::json(
        503,
        shed_body("draining", "server draining; not accepting new jobs"),
    )
    .with_header("Retry-After", "1")
}

/// `POST /run` and `POST /assemble`: builds the job from the request
/// and answers it through [`admit`], recording every stage's span.
fn job_response(
    request: &Request,
    peer: &str,
    shared: &Shared,
    endpoint: Endpoint,
    spans: &mut SpanSet,
) -> Response {
    let parse_start = Instant::now();
    if let Err(response) = check_query(request, JOB_KEYS) {
        return response;
    }
    let options = match parse_options(request) {
        Ok(o) => o,
        Err(message) => return error_response(400, "bad-query", Some(&message)),
    };
    let deadline = match parse_deadline(request, spans.t0()) {
        Ok(d) => d,
        Err(response) => return response,
    };
    let Ok(source) = String::from_utf8(request.body.clone()) else {
        return error_response(400, "bad-body", None);
    };
    let job = JobRequest {
        endpoint,
        source,
        options,
    };
    let key = job.key_material();
    spans.record("parse", parse_start, Instant::now());

    let client = client_lane(request, peer);
    let response = match admit(shared, job, key, client, spans.t0(), deadline, Some(spans)) {
        Ok((status, body, cache)) => Response::json(status, body).with_header("X-Cache", cache),
        Err(response) => response,
    };
    if request.query_flag("span-trace") {
        attach_span_trace(response, spans)
    } else {
        response
    }
}

/// The fairness lane: the client's declared identity, or its peer IP.
fn client_lane<'a>(request: &'a Request, peer: &'a str) -> &'a str {
    request.header("x-client-id").unwrap_or(peer)
}

/// `?deadline-ms=` as an absolute deadline anchored at the request's
/// own `t0`, so queue wait counts against it. Deliberately *not* part
/// of `RunOptions`: the deadline must never reach the cache key (a
/// cached body is valid for any deadline).
fn parse_deadline(request: &Request, t0: Instant) -> Result<Option<Instant>, Response> {
    let Some(v) = request.query_get("deadline-ms") else {
        return Ok(None);
    };
    match v.parse::<u64>() {
        Ok(ms) => Ok(Some(t0 + Duration::from_millis(ms))),
        Err(e) => Err(error_response(
            400,
            "bad-query",
            Some(&format!("bad deadline-ms `{v}`: {e}")),
        )),
    }
}

/// The one admission path: `/run`, `/assemble` and every `/sweep` cell
/// take it. Replays the cache, or enters the job into accounting and
/// either refuses it (draining, deadline already burned, queue full) or
/// queues it and waits for a worker. `Ok` is the job's own answer and
/// its `X-Cache` value; `Err` is the response the whole request answers
/// with instead. `key` is `job.key_material()`, which `/run` computes
/// inside its `parse` span. With `spans`, the cache lookup and the
/// worker's stages are recorded.
fn admit(
    shared: &Shared,
    job: JobRequest,
    key: String,
    client: &str,
    t0: Instant,
    deadline: Option<Instant>,
    mut spans: Option<&mut SpanSet>,
) -> Result<(u16, String, &'static str), Response> {
    let lookup_start = Instant::now();
    let cached = shared.cache().get(&key);
    if let Some(spans) = spans.as_deref_mut() {
        spans.record("cache-lookup", lookup_start, Instant::now());
    }
    if let Some((status, body)) = cached {
        shared.metrics.add("cache_hits", 1);
        return Ok((status, body, "hit"));
    }
    shared.metrics.add("cache_misses", 1);

    // The job now enters accounting: exactly one of the terminal
    // buckets below (rejected / shed / failed / completed) must claim
    // it, or the chaos harness's invariant check will catch the leak.
    shared.metrics.add("jobs_accepted", 1);
    if shared.draining.load(Ordering::SeqCst) {
        return Err(draining_response(shared));
    }
    if deadline.is_some_and(|d| Instant::now() >= d) {
        shared.metrics.add("jobs_shed", 1);
        shared.metrics.add(status_counter(503), 1);
        return Err(Response::json(
            503,
            shed_body(
                "deadline-exceeded",
                "request deadline expired before admission",
            ),
        ));
    }

    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    let enqueued = Instant::now();
    let queued = QueuedJob {
        request: job,
        key,
        reply: reply_tx,
        t0,
        deadline,
    };
    if shared.queue.push(client, queued).is_err() {
        // A closed queue means the drain started between the check
        // above and the push — that's a draining rejection, not a
        // queue-full one.
        if shared.draining.load(Ordering::SeqCst) {
            return Err(draining_response(shared));
        }
        shared.metrics.add("rejected_429", 1);
        shared.metrics.add("jobs_rejected", 1);
        return Err(error_response(429, "queue-full", None).with_header("Retry-After", "1"));
    }
    // A reply sender dropped without sending means the worker thread
    // died mid-job (shutdown orphans are answered explicitly, so this
    // is unambiguous). The supervisor is already respawning.
    let Ok((status, body, w)) = reply_rx.recv() else {
        shared.metrics.add("jobs_failed", 1);
        shared.metrics.add(status_counter(500), 1);
        return Err(Response::json(
            500,
            shed_body("worker-lost", "worker died while executing this job"),
        ));
    };
    if let Some(spans) = spans {
        let enqueued_us = spans.offset_us(enqueued);
        spans.record_offsets(
            "queue-wait",
            enqueued_us,
            w.start_us.saturating_sub(enqueued_us),
        );
        spans.record_offsets(
            "worker-service",
            w.start_us,
            w.end_us.saturating_sub(w.start_us),
        );
        if let Some((sim_start_us, sim_dur_us)) = w.sim {
            spans.record_offsets("sim-run", sim_start_us, sim_dur_us);
        }
    }
    Ok((status, body, "miss"))
}

fn parse_options(request: &Request) -> Result<RunOptions, String> {
    let mut options = RunOptions::default();
    if let Some(v) = request.query_get("base") {
        options.base = mt_asm::parse_hex_u32(v).map_err(|e| format!("bad base `{v}`: {e}"))?;
    }
    options.cold = request.query_flag("cold");
    options.lint = request.query_flag("lint");
    options.profile = request.query_flag("profile");
    options.trace = request.query_flag("trace");
    if let Some(v) = request.query_get("cycles") {
        options.max_cycles = v.parse().map_err(|e| format!("bad cycles `{v}`: {e}"))?;
    }
    if let Some(v) = request.query_get("watchdog") {
        options.watchdog = v.parse().map_err(|e| format!("bad watchdog `{v}`: {e}"))?;
    }
    if let Some(v) = request.query_get("backend") {
        options.backend = v.parse().map_err(|e| format!("bad backend: {e}"))?;
    }
    // `?config=knob=v,knob=v` is the one spelling of the machine: it
    // replaces the whole machine (validated as a unit) and lands in the
    // cache key via the machine's canonical serialization.
    if let Some(v) = request.query_get("config") {
        options.machine =
            mt_sim::MachineConfig::parse(v).map_err(|e| format!("bad config: {e}"))?;
    }
    options.serialized = request.query_flag("serialized");
    Ok(options)
}

/// Upper bound on cells one `POST /sweep` may expand to: each cell is a
/// full multi-kernel simulation job, so an unbounded grid is a trivial
/// resource-exhaustion vector. Oversized grids get a structured 422
/// before any cell runs.
pub const MAX_SWEEP_CELLS: usize = 64;

/// `POST /sweep`: parse the grid spec body, bound it, and run every cell
/// as an ordinary [`Endpoint::Kernel`] job through [`admit`] — each cell
/// gets the normal cache / deadline / accounting treatment — then hand
/// the cell bodies to `mt_dse::json::sweep_doc`. The cells run on the
/// `mt-dse` cell runner and render through its renderer, so the answer
/// is byte for byte the document `repro-dse` builds for the same grid.
fn sweep_response(request: &Request, peer: &str, shared: &Shared, spans: &mut SpanSet) -> Response {
    let parse_start = Instant::now();
    if let Err(response) = check_query(request, &["loops", "deadline-ms"]) {
        return response;
    }
    let Ok(text) = String::from_utf8(request.body.clone()) else {
        return error_response(400, "bad-body", None);
    };
    let grid = match GridSpec::parse(&text) {
        Ok(g) => g,
        Err(m) => return error_response(400, "bad-grid", Some(&m)),
    };
    if grid.cell_count() > MAX_SWEEP_CELLS {
        let doc = error_doc(
            "grid-too-large",
            [
                ("cells", Json::U64(grid.cell_count() as u64)),
                ("max_cells", Json::U64(MAX_SWEEP_CELLS as u64)),
            ],
        );
        return Response::json(422, format!("{}\n", doc.pretty()));
    }
    let cells = match grid.enumerate() {
        Ok(c) => c,
        Err(m) => {
            let doc = error_doc("bad-grid", [("message", Json::Str(m))]);
            return Response::json(422, format!("{}\n", doc.pretty()));
        }
    };
    let loops = match request.query_get("loops").map(mt_dse::parse_loops) {
        None => mt_dse::runner::DEFAULT_LOOPS.to_vec(),
        Some(Ok(loops)) => loops,
        Some(Err(m)) => return error_response(400, "bad-query", Some(&m)),
    };
    let deadline = match parse_deadline(request, spans.t0()) {
        Ok(d) => d,
        Err(response) => return response,
    };
    spans.record("parse", parse_start, Instant::now());

    let client = client_lane(request, peer);
    let source: String = loops
        .iter()
        .map(u8::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let mut bodies = Vec::with_capacity(cells.len());
    for cell in &cells {
        let job = JobRequest {
            endpoint: Endpoint::Kernel,
            source: source.clone(),
            options: RunOptions {
                machine: cell.machine,
                serialized: cell.serialized_issue,
                ..RunOptions::default()
            },
        };
        let key = job.key_material();
        let (status, body, _) = match admit(shared, job, key, client, spans.t0(), deadline, None) {
            Ok(answer) => answer,
            Err(response) => return response,
        };
        match (status, mt_trace::json::parse(&body)) {
            // A cell whose machine cannot run the kernels (register-file
            // bounds, memory too small) answers 422 with its error cell:
            // an error *cell*, not an error sweep — same as `repro-dse`.
            (200 | 422, Ok(cell)) => bodies.push(cell),
            // Shed, drained, failed, or unparseable: the sweep cannot
            // produce a faithful aggregate — propagate the cell's answer.
            _ => return Response::json(status, body),
        }
    }
    let doc = mt_dse::json::sweep_doc(&grid, &loops, cells.iter().zip(bodies));
    Response::json(200, format!("{}\n", doc.pretty()))
}

/// Writes the response under the I/O write deadline. A peer that stops
/// reading cannot pin this thread past the deadline; failures bump
/// `respond_errors` (the job itself already reached its terminal
/// bucket — the response write is best-effort).
fn respond(stream: &DeadlineStream, shared: &Shared, response: Response) {
    stream.set_write_deadline(Some(Instant::now() + shared.io_timeout));
    if response.write_to(&mut &*stream).is_err() {
        shared.metrics.add("respond_errors", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_log_line_is_structured_and_stable() {
        let mut spans = SpanSet::begin(7);
        spans.record_offsets("queue-wait", 10, 40);
        spans.record_offsets("sim-run", 60, 500);
        spans.record_offsets("total", 0, 700);
        let request = Request {
            method: "POST".to_string(),
            path: "/run".to_string(),
            query: vec![],
            headers: vec![],
            body: b"halt\n".to_vec(),
        };
        let line = access_log_line(&spans, "127.0.0.1", &request, 200, 512, Some("miss"));
        assert_eq!(
            line,
            "access id=7 peer=127.0.0.1 method=POST path=/run status=200 \
             bytes=512 cache=miss total_us=700 queue_us=40 sim_us=500"
        );
        // Every field is key=value — trivially machine-parseable.
        for field in line.split(' ').skip(1) {
            assert!(field.contains('='), "field `{field}` not key=value");
        }
        let no_cache = access_log_line(&spans, "h", &request, 429, 64, None);
        assert!(no_cache.contains("cache=- "));
    }

    /// Spawns a thread that parks on `cache` and reports what it got,
    /// and waits until it is parked.
    fn parked_thread(cache: &Arc<ThreadCache<u32>>) -> JoinHandle<Option<u32>> {
        let before = cache.parked();
        let thread = {
            let cache = Arc::clone(cache);
            std::thread::spawn(move || cache.park())
        };
        while cache.parked() == before {
            std::thread::yield_now();
        }
        thread
    }

    #[test]
    fn thread_cache_hands_work_to_the_newest_parked_thread() {
        let cache = Arc::new(ThreadCache::new());
        assert_eq!(cache.hand_off(7), Err(7), "nothing parked yet");
        let older = parked_thread(&cache);
        let newer = parked_thread(&cache);
        assert_eq!(cache.hand_off(1), Ok(()));
        assert_eq!(newer.join().unwrap(), Some(1));
        assert_eq!(cache.hand_off(2), Ok(()));
        assert_eq!(older.join().unwrap(), Some(2));
        assert_eq!(cache.parked(), 0);
    }

    #[test]
    fn idle_parked_thread_leaves_the_cache() {
        let cache = Arc::new(ThreadCache::new());
        let started = Instant::now();
        let idle = parked_thread(&cache);
        assert_eq!(idle.join().unwrap(), None);
        assert!(started.elapsed() >= CONN_THREAD_IDLE);
        assert_eq!(cache.parked(), 0);
        assert_eq!(cache.hand_off(3), Err(3), "the idle thread is gone");
    }

    #[test]
    fn close_wakes_parked_threads_at_once() {
        let cache = Arc::new(ThreadCache::<u32>::new());
        let threads = [parked_thread(&cache), parked_thread(&cache)];
        let started = Instant::now();
        cache.close();
        for t in threads {
            assert_eq!(t.join().unwrap(), None);
        }
        assert!(
            started.elapsed() < CONN_THREAD_IDLE / 2,
            "parked threads waited out their idle period: {:?}",
            started.elapsed()
        );
        // A closed cache parks nobody.
        assert_eq!(cache.park(), None);
        assert_eq!(cache.hand_off(4), Err(4));
    }

    /// A worker settles the busy gauge and its job count before it sends
    /// the reply, so whoever receives a reply — and a client reading
    /// `/metrics` right after its response — sees the worker idle.
    #[test]
    fn worker_settles_its_gauges_before_replying() {
        let handle = serve(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServerConfig::default()
        })
        .expect("bind an ephemeral port");
        let shared = Arc::clone(&handle.shared);
        for i in 0..32u64 {
            let (reply, replied) = mpsc::sync_channel(1);
            let job = QueuedJob {
                request: JobRequest {
                    endpoint: Endpoint::Run,
                    source: format!("addi r1, r0, {i}\nhalt\n"),
                    options: RunOptions::default(),
                },
                key: format!("settle-{i}"),
                reply,
                t0: Instant::now(),
                deadline: None,
            };
            assert!(shared.queue.push("test", job).is_ok(), "queue has room");
            let (status, _, _) = replied.recv().expect("the worker replies");
            assert_eq!(status, 200);
            assert_eq!(shared.gauges().busy_workers, 0, "job {i}: gauge settled");
            let doc = shared.metrics.to_json(shared.gauges());
            let jobs = doc.get("per_worker").unwrap().items()[0].get("jobs");
            assert_eq!(jobs.and_then(Json::as_f64), Some((i + 1) as f64));
        }
        handle.shutdown();
    }

    #[test]
    fn span_trace_attaches_to_json_bodies_only() {
        let mut spans = SpanSet::begin(3);
        spans.record_offsets("total", 0, 100);
        let json = Response::json(200, "{\n  \"schema\": \"mt-serve-v1\"\n}\n");
        let with = attach_span_trace(json, &spans);
        let doc = mt_trace::json::parse(std::str::from_utf8(&with.body).unwrap()).unwrap();
        assert!(doc.get("span_trace").is_some());
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("mt-serve-v1"));

        // Non-JSON bodies pass through untouched.
        let text = Response::text(200, "ok\n");
        let body_before = text.body.clone();
        assert_eq!(attach_span_trace(text, &spans).body, body_before);
    }
}
