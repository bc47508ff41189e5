//! Multi-session receiver server: N independent [`RxSession`]s multiplexed over a
//! fixed worker pool, fed through lock-free per-session ingress rings.
//!
//! One base station services many stations at once; [`RxServer`] is the layer that
//! turns the single-stream [`RxSession`] into that shape. Each session lives behind
//! a cheaply cloneable [`SessionHandle`]: producers push sample chunks into a
//! **bounded lock-free ingress ring** ([`SessionHandle::try_push`] returns
//! [`PushError::Full`]; [`SessionHandle::push`] spins briefly then parks for space)
//! and drain ordered per-session [`RxEvent`]s; a sharded, work-stealing pool of
//! worker threads ([`cprecycle_engine::pool::WorkerPool`]) services the sessions.
//!
//! ## Ownership and threading
//!
//! ```text
//!  producer threads                   RxServer                      worker pool
//!  ───────────────   ┌────────────────────────────────────┐   ┌──────────────────┐
//!  handle.push ──┐   │ SessionSlot k                      │   │ rx-pool-0 shard ─┼┐
//!   (chunk pool  │   │  ring:  [c₃][c₄][c₅][  ][  ]  ◀──┐ │   │ rx-pool-1 shard ─┼┼─▶ steal
//!    acquire +   ├──▶│         ▲tail (producers, CAS)  │ │◀──│   …              ││   scan
//!    copy)       │   │         ▼head (one worker)──────┘ │   │ pops a *slot*,   ││
//!                │   │  flushes: [ticket₁] (side queue)  │   │ drains its ring, ◀┘
//!  handle.flush ─┘   │  scheduled: AtomicBool            │   │ recycles buffers │
//!                    │  session: Mutex<RxSession>        │   └──────────────────┘
//!                    └────────────────────────────────────┘
//! ```
//!
//! The ingress ring is a bounded lock-free MPMC ring
//! ([`cprecycle_engine::ring::IngressRing`]): producers claim cells with a CAS on
//! the tail cursor, the servicing worker pops from the head, and the cursors live
//! on separate cache lines so a pushing producer and a draining worker never
//! contend on one mutex (PR 7's `Mutex<VecDeque> + Condvar` did exactly that).
//! Chunks are carried in recycled buffers from a shared [`ChunkPool`] — a push
//! copies into a pooled buffer and the worker returns it after servicing, so the
//! steady-state hot path performs **zero heap allocations** (pinned by the
//! `server_alloc.rs` counting-allocator test; misses and recycles are counted in
//! the metrics snapshot).
//!
//! A slot is enqueued on the pool **at most once** at any time (the atomic
//! `scheduled` flag): a producer that transitions it false→true submits the slot;
//! whichever worker pops it has exclusive run of that session until the ring is
//! observed empty (or a fairness budget expires, in which case the slot re-enqueues
//! itself behind other waiting slots). Before unscheduling, the worker clears the
//! flag and *re-checks* for work: if a chunk raced in, the worker re-acquires the
//! flag (or concedes it to the racing producer's own schedule) — either way the
//! "work pending ⇒ slot scheduled" invariant holds with no lost wakeup.
//!
//! Control items (`flush`) never enter the ring: they carry a **sequence ticket**
//! (the count of chunks accepted before the flush) in a tiny side queue, and the
//! worker runs a flush exactly when its serviced-chunk count reaches the ticket.
//! A flush therefore keeps its place in the stream *and* can always be accepted —
//! even against a full ring — which is why [`RxServer::shutdown`] cannot deadlock
//! on backpressure.
//!
//! ## Determinism
//!
//! Sessions share no state — each owns its receiver, carry-over buffer, detector
//! and interference model — so the only way scheduling could change an output is by
//! changing the order or grouping of one session's chunks. The ring + scheduled
//! flag forbid both: ring cells are claimed in cursor order and popped in cursor
//! order (per-session FIFO), flush tickets pin control items to their accepted
//! position, and exclusive servicing means the session's state machine performs
//! the identical sequence of floating-point operations as a standalone
//! [`RxSession`] fed the same chunks sequentially, regardless of worker count,
//! ring depths, or how N sessions' pushes interleave. Events and
//! [`SessionCounters`] are therefore **bit-identical** to the standalone replay —
//! the property `tests/server_equivalence.rs` pins over random interleavings.
//!
//! ## Backpressure contract
//!
//! * [`SessionHandle::try_push`] either accepts the whole chunk or returns
//!   [`PushError::Full`] having consumed **nothing** — the producer owns the chunk
//!   and may resubmit it later; accepted chunks are never dropped or reordered.
//! * [`SessionHandle::push`] blocks until the ring has space (adaptive: spins a
//!   short bounded phase, then parks until the worker frees a cell) or the session
//!   closes, → [`PushError::Closed`].
//! * [`SessionHandle::flush`] is accepted regardless of ring occupancy (ticketed
//!   control path) and takes effect after every previously accepted chunk.
//! * [`RxServer::drain`] blocks until every chunk accepted *before the call* has
//!   been fully processed; buffered mid-frame samples stay pending (no frame that
//!   could still complete is abandoned).
//! * [`RxServer::shutdown`] closes every session (subsequent pushes →
//!   [`PushError::Closed`]; parked producers wake and observe the closure),
//!   appends one final ticketed flush per session (end-of-stream: incomplete
//!   frames surface as [`RxEvent::SyncLost`]), waits for the work to finish, and
//!   joins the pool. Handles stay valid for draining events and reading counters
//!   afterwards.

use crate::chunk_pool::ChunkPool;
use crate::session::{RxEvent, RxSession, SessionConfig, SessionCounters};
use cprecycle_engine::pool::WorkerPool;
use cprecycle_engine::ring::{IngressRing, PushRejected};
use obs::{Log2Histogram, MetricsSnapshot, NoopRecorder, Recorder, StageSnapshot};
use ofdmphy::rx::FrameReceiver;
use ofdmphy::PhyError;
use rfdsp::Complex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Why a push into a session's ingress ring was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The session's bounded ingress ring is at capacity. Nothing was consumed:
    /// resubmit the same chunk once the ring drains and the session's output is
    /// unchanged from an unthrottled feed.
    Full,
    /// The session was closed by [`RxServer::shutdown`]; no further samples are
    /// accepted.
    Closed,
}

impl fmt::Display for PushError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushError::Full => write!(f, "session ingress ring is full"),
            PushError::Closed => write!(f, "session is closed"),
        }
    }
}

impl std::error::Error for PushError {}

/// Server configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads servicing all sessions. Defaults to the machine's available
    /// parallelism. Thread count never affects decoded bits — only throughput.
    pub threads: usize,
    /// Bound on each session's ingress ring, in chunks. When full,
    /// [`SessionHandle::try_push`] returns [`PushError::Full`] and
    /// [`SessionHandle::push`] blocks. Defaults to 64.
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_capacity: 64,
        }
    }
}

/// One accepted sample chunk riding the ingress ring: a pooled copy of the
/// producer's slice plus its acceptance timestamp (the start of the push→decode
/// latency span).
struct IngressChunk {
    buf: crate::chunk_pool::PooledBuf,
    accepted_at: crate::clock::Stamp,
}

/// Everything one session owns, shared between its handle, the server and the pool.
struct SessionSlot<R: FrameReceiver, O: Recorder> {
    /// Index of this session within the server (stable; also the metrics prefix).
    id: usize,
    /// Lock-free bounded ingress: sample chunks, FIFO, exact capacity bound.
    ring: IngressRing<IngressChunk>,
    /// Pending flush tickets (chunks-accepted counts); a flush runs when the
    /// worker's serviced count reaches its ticket. Control items live here so they
    /// bypass ring capacity — the queue is touched only on flush/shutdown, never
    /// on the per-chunk hot path (`control_pending` gates the lock).
    flushes: Mutex<VecDeque<u64>>,
    /// Number of tickets in `flushes` (lock-free fast check for the worker).
    control_pending: AtomicUsize,
    /// True while a pool job for this slot exists (queued or running). See the
    /// module docs for the clear-then-recheck protocol that keeps "work pending ⇒
    /// scheduled" airtight without a lock.
    scheduled: AtomicBool,
    /// Locked only by the worker currently servicing the slot — and briefly by
    /// handle-side reads (events, counters, snapshots).
    session: Mutex<RxSession<R, O>>,
    /// Samples accepted so far (monotonic; readable without the session lock).
    samples_in: AtomicUsize,
    /// First fatal session error, if any ([`RxSession::push`] errors are
    /// misconfigurations, not per-chunk conditions). Once set, further items are
    /// discarded.
    error: Mutex<Option<PhyError>>,
    /// Push→decode latency (acceptance to end-of-servicing), nanoseconds. Locked
    /// by the servicing worker per chunk and by snapshot reads.
    latency: Mutex<Log2Histogram>,
}

type Slot<R, O> = Arc<SessionSlot<R, O>>;

/// Compile-time audit that a session moves freely between worker threads given
/// `Send` building blocks (no hidden `Rc`/raw-pointer state anywhere in the
/// pipeline). Referenced by the server bounds below; never called.
fn _assert_sessions_are_send<R, O>()
where
    R: FrameReceiver + Send,
    R::Stream: Send,
    O: Recorder + Send,
{
    fn is_send<T: Send>() {}
    is_send::<RxSession<R, O>>();
}

/// A multi-session receiver server. See the [module docs](self) for the threading
/// model, determinism argument and backpressure contract.
///
/// The server quickstart (mirrored in the README): two stations, chunks pushed in
/// interleaved order, bit-identical per-station decodes.
///
/// ```
/// use cprecycle::server::{RxServer, ServerConfig};
/// use cprecycle::session::RxEvent;
/// use ofdmphy::convcode::CodeRate;
/// use ofdmphy::frame::{Mcs, Transmitter};
/// use ofdmphy::modulation::Modulation;
/// use ofdmphy::params::OfdmParams;
/// use ofdmphy::rx::StandardReceiver;
/// use rfdsp::Complex;
///
/// let params = OfdmParams::ieee80211ag();
/// let tx = Transmitter::new(params.clone());
/// let mcs = Mcs::new(Modulation::Qpsk, CodeRate::Half);
///
/// // One bursty capture per station.
/// let captures: Vec<Vec<Complex>> = [&b"station zero"[..], &b"station one"[..]]
///     .iter()
///     .map(|payload| {
///         let mut c = vec![Complex::zero(); 300];
///         c.extend(tx.build_frame(payload, mcs, 0x5D).unwrap().samples);
///         c.extend(vec![Complex::zero(); 300]);
///         c
///     })
///     .collect();
///
/// // A server with one session per station.
/// let server: RxServer<StandardReceiver> =
///     RxServer::new(ServerConfig { threads: 2, ..Default::default() });
/// let handles: Vec<_> = captures
///     .iter()
///     .map(|_| server.add_session(StandardReceiver::new(params.clone()), Default::default()))
///     .collect();
///
/// // Interleave the stations' chunks — scheduling never changes decoded bits.
/// let mut feeds: Vec<_> = captures.iter().map(|c| c.chunks(480)).collect();
/// loop {
///     let mut any = false;
///     for (feed, handle) in feeds.iter_mut().zip(&handles) {
///         if let Some(chunk) = feed.next() {
///             handle.push(chunk).unwrap();
///             any = true;
///         }
///     }
///     if !any {
///         break;
///     }
/// }
/// server.shutdown();
///
/// for (handle, payload) in handles.iter().zip([&b"station zero"[..], &b"station one"[..]]) {
///     let decoded: Vec<Vec<u8>> = handle
///         .drain_events()
///         .into_iter()
///         .filter_map(|e| match e {
///             RxEvent::FrameDecoded { frame, .. } => frame.payload.clone(),
///             _ => None,
///         })
///         .collect();
///     assert_eq!(decoded, vec![payload.to_vec()]);
/// }
/// ```
pub struct RxServer<R, O = NoopRecorder>
where
    R: FrameReceiver + Send + 'static,
    R::Stream: Send,
    O: Recorder + Send + 'static,
{
    config: ServerConfig,
    /// Read-mostly registry: `add_session` takes the write lock briefly; snapshot,
    /// drain and shutdown iterate under a read guard without cloning anything.
    slots: RwLock<Vec<Slot<R, O>>>,
    pool: Arc<WorkerPool<Slot<R, O>>>,
    chunks: Arc<ChunkPool>,
    started: crate::clock::Stamp,
}

/// How many ingress items one scheduling services before the slot yields the worker
/// (re-enqueueing itself behind other waiting slots). Keeps one deeply backlogged
/// session from starving the rest without ever leaving work unscheduled.
const FAIRNESS_BUDGET: usize = 16;

/// How many consecutive "ring non-empty by cursor but not yet poppable" retries a
/// worker spins through (a producer is mid-publish) before yielding the worker via
/// a requeue.
const MID_PUBLISH_SPIN_LIMIT: usize = 64;

/// Maximum free chunk buffers the shared [`ChunkPool`] retains *per size class*
/// (it starts empty and grows on demand up to this bound).
const POOL_BUFFERS: usize = 1024;

impl<R, O> RxServer<R, O>
where
    R: FrameReceiver + Send + 'static,
    R::Stream: Send,
    O: Recorder + Send + 'static,
{
    /// Starts a server: spawns the worker pool and the shared chunk pool,
    /// initially with zero sessions.
    pub fn new(config: ServerConfig) -> Self {
        let chunks = Arc::new(ChunkPool::new(
            POOL_BUFFERS,
            crate::chunk_pool::DEFAULT_POOL_BUFFER_SAMPLES,
        ));
        let service_chunks = Arc::clone(&chunks);
        let pool = WorkerPool::new(
            config.threads,
            |_w| (),
            move |_state: &mut (), slot: Slot<R, O>| Self::service(&slot, &service_chunks),
        );
        RxServer {
            config,
            slots: RwLock::new(Vec::new()),
            pool: Arc::new(pool),
            chunks,
            started: crate::clock::Stamp::now(),
        }
    }

    /// Whether the slot has servicable work: a chunk in (or being published into)
    /// the ring, or a pending control ticket. A pending ticket with an empty ring
    /// is always *due* (its chunks have all been serviced), so a worker observing
    /// `has_work` can always make progress or hand off.
    fn has_work(slot: &SessionSlot<R, O>) -> bool {
        !slot.ring.is_empty() || slot.control_pending.load(Ordering::SeqCst) > 0
    }

    /// Runs the front flush ticket if it has come due.
    fn run_due_flush(slot: &Slot<R, O>) -> bool {
        if slot.control_pending.load(Ordering::SeqCst) == 0 {
            return false;
        }
        let due = {
            let mut flushes = slot.flushes.lock().expect("flushes poisoned");
            if flushes
                .front()
                .is_some_and(|&ticket| slot.ring.serviced() >= ticket)
            {
                flushes.pop_front();
                true
            } else {
                false
            }
        };
        if due {
            slot.control_pending.fetch_sub(1, Ordering::SeqCst);
            if slot.error.lock().expect("error poisoned").is_none() {
                if let Err(e) = slot.session.lock().expect("session poisoned").flush() {
                    *slot.error.lock().expect("error poisoned") = Some(e);
                }
            }
        }
        due
    }

    /// Services one scheduling of `slot`: drains its ingress ring (and due flush
    /// tickets) into the session, up to the fairness budget. Returns the slot
    /// itself when it should be re-enqueued — the pool requeues it atomically with
    /// respect to [`WorkerPool::wait_idle`].
    fn service(slot: &Slot<R, O>, chunks: &ChunkPool) -> Option<Slot<R, O>> {
        let mut serviced = 0usize;
        let mut spins = 0usize;
        loop {
            if Self::run_due_flush(slot) {
                spins = 0;
                serviced += 1;
            } else if let Some(chunk) = slot.ring.pop() {
                if slot.error.lock().expect("error poisoned").is_none() {
                    if let Err(e) = slot
                        .session
                        .lock()
                        .expect("session poisoned")
                        .push(&chunk.buf)
                    {
                        *slot.error.lock().expect("error poisoned") = Some(e);
                    }
                }
                let nanos = chunk.accepted_at.elapsed_nanos();
                slot.latency.lock().expect("latency poisoned").record(nanos);
                chunks.release(chunk.buf);
                spins = 0;
                serviced += 1;
            } else {
                // Nothing poppable. Clear the flag, then re-check: a producer that
                // published after our failed pop either saw `scheduled` still true
                // (we re-acquire below and keep servicing) or scheduled the slot
                // itself after our clear (we concede — exactly one job exists
                // either way).
                slot.scheduled.store(false, Ordering::SeqCst);
                if !Self::has_work(slot) {
                    return None;
                }
                if slot.scheduled.swap(true, Ordering::SeqCst) {
                    return None; // racing producer took over the scheduling
                }
                // Re-acquired: work exists but may be mid-publish (tail claimed,
                // value not yet stamped). Spin briefly, then yield the worker.
                spins += 1;
                if spins >= MID_PUBLISH_SPIN_LIMIT {
                    return Some(Arc::clone(slot));
                }
                std::hint::spin_loop();
                continue;
            }
            if serviced >= FAIRNESS_BUDGET {
                if Self::has_work(slot) {
                    // Still backlogged: keep `scheduled` set and yield the worker.
                    return Some(Arc::clone(slot));
                }
                slot.scheduled.store(false, Ordering::SeqCst);
                if !Self::has_work(slot) {
                    return None;
                }
                if slot.scheduled.swap(true, Ordering::SeqCst) {
                    return None;
                }
                return Some(Arc::clone(slot));
            }
        }
    }

    /// Adds a session with no instrumentation-recorder requirement beyond `O`'s
    /// default construction — use [`Self::add_session_with_recorder`] to attach
    /// one. Sessions can be added while the server is live; the handle is
    /// immediately usable.
    pub fn add_session(&self, receiver: R, config: SessionConfig) -> SessionHandle<R, O>
    where
        O: Default,
    {
        self.add_session_with_recorder(receiver, config, O::default())
    }

    /// Adds a session whose receive chain reports into `recorder` (stage timings +
    /// event trace, exactly as a standalone [`RxSession::with_recorder`]).
    pub fn add_session_with_recorder(
        &self,
        receiver: R,
        config: SessionConfig,
        recorder: O,
    ) -> SessionHandle<R, O> {
        let mut slots = self.slots.write().expect("slots poisoned");
        let slot = Arc::new(SessionSlot {
            id: slots.len(),
            ring: IngressRing::with_capacity(self.config.queue_capacity.max(1)),
            flushes: Mutex::new(VecDeque::new()),
            control_pending: AtomicUsize::new(0),
            scheduled: AtomicBool::new(false),
            session: Mutex::new(RxSession::with_recorder(receiver, config, recorder)),
            samples_in: AtomicUsize::new(0),
            error: Mutex::new(None),
            latency: Mutex::new(Log2Histogram::new()),
        });
        slots.push(Arc::clone(&slot));
        SessionHandle {
            slot,
            pool: Arc::clone(&self.pool),
            chunks: Arc::clone(&self.chunks),
        }
    }

    /// Number of sessions ever added.
    pub fn sessions(&self) -> usize {
        self.slots.read().expect("slots poisoned").len()
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Blocks until every chunk accepted before this call has been processed.
    ///
    /// This is a barrier, not an end-of-stream: sessions keep their carry-over
    /// buffers, so a frame whose tail has not arrived stays pending and decodes
    /// when the rest is pushed — `drain` never costs a decodable frame. Producers
    /// pushing concurrently with `drain` are outside the barrier.
    pub fn drain(&self) {
        self.pool.wait_idle();
    }

    /// Closes every session, flushes each one (end-of-stream semantics: incomplete
    /// frames become [`RxEvent::SyncLost`]), waits for all queued work and joins the
    /// worker pool. Idempotent. Pushes after (or racing) `shutdown` fail with
    /// [`PushError::Closed`]; handles remain valid for draining events, counters
    /// and snapshots.
    ///
    /// The final flush rides the ticketed control path, not the ring, so shutdown
    /// completes even when every ring is full and producers are parked — they wake
    /// with [`PushError::Closed`] instead of deadlocking against the flush.
    pub fn shutdown(&self) {
        {
            let slots = self.slots.read().expect("slots poisoned");
            for slot in slots.iter() {
                if slot.ring.close() {
                    continue; // already closed by an earlier shutdown
                }
                // Flush after everything accepted up to the close.
                let ticket = slot.ring.accepted();
                slot.flushes
                    .lock()
                    .expect("flushes poisoned")
                    .push_back(ticket);
                slot.control_pending.fetch_add(1, Ordering::SeqCst);
                if !slot.scheduled.swap(true, Ordering::SeqCst) {
                    self.pool.submit(Arc::clone(slot));
                }
            }
        }
        self.pool.wait_idle();
        self.pool.shutdown();
    }

    /// Aggregate + per-session observability snapshot.
    ///
    /// Unprefixed names are server-wide: the `sessions_active` gauge (sessions not
    /// yet closed), per-session-summed counters (`samples_pushed`,
    /// `frames_decoded`, `fcs_passes`, …), ingress-path counters
    /// (`ring_full_rejections`, `chunk_pool_hits`/`misses`/`oversize`/`recycled`/
    /// `dropped`, `pool_steals`), the total `queue_depth` gauge, the
    /// `samples_per_sec` gauge (aggregate accepted-sample rate since the server
    /// started — wall-clock, so outside the determinism contract), and the
    /// aggregate push→decode latency: a `push_decode` stage histogram plus
    /// `push_decode_p50_ns`/`p95`/`p99` gauges. Each session's full snapshot
    /// (counters, stage timings, trace) additionally lands under a `session.{id}.`
    /// prefix, plus its own `session.{id}.queue_depth` gauge and
    /// `session.{id}.push_decode_p{50,95,99}_ns` gauges.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let slots = self.slots.read().expect("slots poisoned");
        let mut snap = MetricsSnapshot::new();
        let mut active = 0usize;
        let mut total_depth = 0usize;
        let mut total_samples = 0usize;
        let mut ring_full = 0u64;
        let mut latency_all = Log2Histogram::new();
        for slot in slots.iter() {
            let depth = slot.ring.len();
            if !slot.ring.is_closed() {
                active += 1;
            }
            total_depth += depth;
            total_samples += slot.samples_in.load(Ordering::Relaxed);
            ring_full += slot.ring.full_events();
            let per_session = slot
                .session
                .lock()
                .expect("session poisoned")
                .metrics_snapshot();
            // Aggregate counters (sessions are independent, so sums are exact) …
            for (name, value) in &per_session.counters {
                snap.add_counter(name, *value);
            }
            // … and the full per-session view under its prefix.
            let prefix = format!("session.{}.", slot.id);
            snap.merge_prefixed(&prefix, &per_session);
            snap.set_gauge(&format!("session.{}.queue_depth", slot.id), depth as f64);
            let latency = slot.latency.lock().expect("latency poisoned").clone();
            if latency.count() > 0 {
                for (q, name) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
                    if let Some(v) = latency.percentile(q) {
                        snap.set_gauge(
                            &format!("session.{}.push_decode_{name}_ns", slot.id),
                            v as f64,
                        );
                    }
                }
                latency_all.merge(&latency);
            }
        }
        snap.add_counter("ring_full_rejections", ring_full);
        let pool_stats = self.chunks.stats();
        snap.add_counter("chunk_pool_hits", pool_stats.hits);
        snap.add_counter("chunk_pool_misses", pool_stats.misses);
        snap.add_counter("chunk_pool_oversize", pool_stats.oversize);
        snap.add_counter("chunk_pool_recycled", pool_stats.recycled);
        snap.add_counter("chunk_pool_dropped", pool_stats.dropped);
        snap.add_counter("pool_steals", self.pool.steals());
        if latency_all.count() > 0 {
            for (q, name) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
                if let Some(v) = latency_all.percentile(q) {
                    snap.set_gauge(&format!("push_decode_{name}_ns"), v as f64);
                }
            }
            snap.stages.push(StageSnapshot {
                stage: "push_decode".to_string(),
                key: String::new(),
                histogram: latency_all,
            });
        }
        snap.set_gauge("sessions_active", active as f64);
        snap.set_gauge("queue_depth", total_depth as f64);
        let elapsed = self.started.elapsed_secs_f64();
        if elapsed > 0.0 {
            snap.set_gauge("samples_per_sec", total_samples as f64 / elapsed);
        }
        snap
    }
}

impl<R, O> Drop for RxServer<R, O>
where
    R: FrameReceiver + Send + 'static,
    R::Stream: Send,
    O: Recorder + Send + 'static,
{
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A cheaply cloneable handle to one session inside an [`RxServer`].
///
/// The ingest side ([`push`](Self::push) / [`try_push`](Self::try_push)) and the
/// event side ([`drain_events`](Self::drain_events) / [`poll_event`](Self::poll_event))
/// may live on different threads; events always arrive in the session's
/// stream order.
pub struct SessionHandle<R, O = NoopRecorder>
where
    R: FrameReceiver + Send + 'static,
    R::Stream: Send,
    O: Recorder + Send + 'static,
{
    slot: Slot<R, O>,
    pool: Arc<WorkerPool<Slot<R, O>>>,
    chunks: Arc<ChunkPool>,
}

impl<R, O> Clone for SessionHandle<R, O>
where
    R: FrameReceiver + Send + 'static,
    R::Stream: Send,
    O: Recorder + Send + 'static,
{
    fn clone(&self) -> Self {
        SessionHandle {
            slot: Arc::clone(&self.slot),
            pool: Arc::clone(&self.pool),
            chunks: Arc::clone(&self.chunks),
        }
    }
}

impl<R, O> SessionHandle<R, O>
where
    R: FrameReceiver + Send + 'static,
    R::Stream: Send,
    O: Recorder + Send + 'static,
{
    /// Index of this session within its server (also its metrics prefix).
    pub fn id(&self) -> usize {
        self.slot.id
    }

    /// Submits the slot for servicing unless a pool job for it already exists.
    fn schedule(&self) {
        if !self.slot.scheduled.swap(true, Ordering::SeqCst) {
            self.pool.submit(Arc::clone(&self.slot));
        }
    }

    /// Copies `chunk` into a pooled buffer and enqueues it, optionally blocking
    /// for ring space. A rejected push releases the buffer straight back — the
    /// producer's slice is untouched either way.
    fn submit_chunk(&self, chunk: &[Complex], block: bool) -> Result<(), PushError> {
        let item = IngressChunk {
            buf: self.chunks.acquire(chunk),
            accepted_at: crate::clock::Stamp::now(),
        };
        let result = if block {
            self.slot.ring.push(item)
        } else {
            self.slot.ring.try_push(item)
        };
        match result {
            Ok(()) => {
                self.slot
                    .samples_in
                    .fetch_add(chunk.len(), Ordering::Relaxed);
                self.schedule();
                Ok(())
            }
            Err(PushRejected::Full(item)) => {
                self.chunks.release(item.buf);
                Err(PushError::Full)
            }
            Err(PushRejected::Closed(item)) => {
                self.chunks.release(item.buf);
                Err(PushError::Closed)
            }
        }
    }

    /// Enqueues a chunk, blocking while the session's ingress ring is full.
    /// Fails only with [`PushError::Closed`] after [`RxServer::shutdown`].
    pub fn push(&self, chunk: &[Complex]) -> Result<(), PushError> {
        self.submit_chunk(chunk, true)
    }

    /// Enqueues a chunk without blocking: [`PushError::Full`] means the bounded
    /// ring is at capacity and **nothing was consumed** — resubmitting the same
    /// chunk later yields the same session output as an unthrottled feed.
    pub fn try_push(&self, chunk: &[Complex]) -> Result<(), PushError> {
        self.submit_chunk(chunk, false)
    }

    /// Enqueues an end-of-stream flush for this session (the asynchronous
    /// counterpart of [`RxSession::flush`]). The flush takes effect after every
    /// previously accepted chunk; use [`RxServer::drain`] to wait for it. Control
    /// items ride a ticketed side queue, so a flush is accepted even against a
    /// full ring.
    pub fn flush(&self) -> Result<(), PushError> {
        if self.slot.ring.is_closed() {
            return Err(PushError::Closed);
        }
        let ticket = self.slot.ring.accepted();
        self.slot
            .flushes
            .lock()
            .expect("flushes poisoned")
            .push_back(ticket);
        self.slot.control_pending.fetch_add(1, Ordering::SeqCst);
        self.schedule();
        Ok(())
    }

    /// Chunks currently waiting in this session's ingress ring.
    pub fn queue_depth(&self) -> usize {
        self.slot.ring.len()
    }

    /// Samples accepted so far (including ones still queued).
    pub fn samples_pushed(&self) -> usize {
        self.slot.samples_in.load(Ordering::Relaxed)
    }

    /// Drains every event the session has produced so far, in stream order.
    /// Call [`RxServer::drain`] first for a result covering all accepted chunks.
    pub fn drain_events(&self) -> Vec<RxEvent> {
        self.slot
            .session
            .lock()
            .expect("session poisoned")
            .drain_events()
    }

    /// Next produced event, if any.
    pub fn poll_event(&self) -> Option<RxEvent> {
        self.slot
            .session
            .lock()
            .expect("session poisoned")
            .poll_event()
    }

    /// The session's health counters (in lockstep with its event stream).
    pub fn counters(&self) -> SessionCounters {
        self.slot
            .session
            .lock()
            .expect("session poisoned")
            .counters()
    }

    /// The session's observability snapshot (recorder state + counters), as
    /// [`RxSession::metrics_snapshot`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.slot
            .session
            .lock()
            .expect("session poisoned")
            .metrics_snapshot()
    }

    /// Takes the session's first fatal error, if one occurred. After an error the
    /// session discards further input (its events up to the error remain
    /// drainable).
    pub fn take_error(&self) -> Option<PhyError> {
        self.slot.error.lock().expect("error poisoned").take()
    }

    /// Runs `f` against the underlying session. The session lock is held for the
    /// duration — keep it short; chunks queue up behind it.
    pub fn with_session<T>(&self, f: impl FnOnce(&RxSession<R, O>) -> T) -> T {
        f(&self.slot.session.lock().expect("session poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdmphy::convcode::CodeRate;
    use ofdmphy::frame::{Mcs, Transmitter};
    use ofdmphy::modulation::Modulation;
    use ofdmphy::params::OfdmParams;
    use ofdmphy::rx::StandardReceiver;

    fn capture(payload: &[u8]) -> Vec<Complex> {
        let params = OfdmParams::ieee80211ag();
        let tx = Transmitter::new(params);
        let mcs = Mcs::new(Modulation::Qpsk, CodeRate::Half);
        let mut c = vec![Complex::zero(); 300];
        c.extend(tx.build_frame(payload, mcs, 0x5D).unwrap().samples);
        c.extend(vec![Complex::zero(); 300]);
        c
    }

    fn payloads(events: &[RxEvent]) -> Vec<Vec<u8>> {
        events
            .iter()
            .filter_map(|e| match e {
                RxEvent::FrameDecoded { frame, .. } => frame.payload.clone(),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn each_session_decodes_its_own_stream() {
        let server = RxServer::new(ServerConfig {
            threads: 4,
            ..Default::default()
        });
        let bodies: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i + 1; 40]).collect();
        let handles: Vec<SessionHandle<StandardReceiver>> = bodies
            .iter()
            .map(|_| {
                server.add_session(
                    StandardReceiver::new(OfdmParams::ieee80211ag()),
                    SessionConfig::default(),
                )
            })
            .collect();
        for (h, body) in handles.iter().zip(&bodies) {
            for chunk in capture(body).chunks(333) {
                h.push(chunk).unwrap();
            }
        }
        server.drain();
        for (h, body) in handles.iter().zip(&bodies) {
            assert_eq!(payloads(&h.drain_events()), vec![body.clone()]);
            assert_eq!(h.counters().frames_decoded, 1);
            assert!(h.take_error().is_none());
        }
        assert_eq!(server.sessions(), 4);
    }

    #[test]
    fn shutdown_is_idempotent_and_closes_pushes() {
        let server: RxServer<StandardReceiver> = RxServer::new(ServerConfig {
            threads: 2,
            ..Default::default()
        });
        let h = server.add_session(
            StandardReceiver::new(OfdmParams::ieee80211ag()),
            SessionConfig::default(),
        );
        h.push(&capture(b"closing time")).unwrap();
        server.shutdown();
        server.shutdown();
        assert_eq!(h.push(&[Complex::zero(); 8]), Err(PushError::Closed));
        assert_eq!(h.try_push(&[Complex::zero(); 8]), Err(PushError::Closed));
        assert_eq!(h.flush(), Err(PushError::Closed));
        assert_eq!(payloads(&h.drain_events()), vec![b"closing time".to_vec()]);
    }

    #[test]
    fn server_snapshot_aggregates_and_prefixes() {
        let server: RxServer<StandardReceiver> = RxServer::new(ServerConfig {
            threads: 2,
            ..Default::default()
        });
        let a = server.add_session(
            StandardReceiver::new(OfdmParams::ieee80211ag()),
            SessionConfig::default(),
        );
        let b = server.add_session(
            StandardReceiver::new(OfdmParams::ieee80211ag()),
            SessionConfig::default(),
        );
        a.push(&capture(b"aaaa")).unwrap();
        b.push(&capture(b"bbbb")).unwrap();
        server.drain();
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("frames_decoded"), 2);
        assert_eq!(snap.counter("session.0.frames_decoded"), 1);
        assert_eq!(snap.counter("session.1.frames_decoded"), 1);
        assert_eq!(snap.gauge("sessions_active"), Some(2.0));
        assert_eq!(snap.gauge("queue_depth"), Some(0.0));
        assert_eq!(
            snap.counter("samples_pushed"),
            (a.samples_pushed() + b.samples_pushed()) as u64
        );
        server.shutdown();
        assert_eq!(
            server.metrics_snapshot().gauge("sessions_active"),
            Some(0.0)
        );
    }

    #[test]
    fn snapshot_reports_ingress_path_metrics() {
        let server: RxServer<StandardReceiver> = RxServer::new(ServerConfig {
            threads: 1,
            queue_capacity: 2,
        });
        let h = server.add_session(
            StandardReceiver::new(OfdmParams::ieee80211ag()),
            SessionConfig::default(),
        );
        for chunk in capture(b"meter me").chunks(480) {
            h.push(chunk).unwrap();
        }
        server.drain();
        let snap = server.metrics_snapshot();
        // The ingress-path counters are always present (possibly zero) …
        for name in [
            "ring_full_rejections",
            "chunk_pool_hits",
            "chunk_pool_misses",
            "chunk_pool_recycled",
            "pool_steals",
        ] {
            assert!(snap.counters.contains_key(name), "missing counter {name}");
        }
        // … every serviced chunk allocated (miss) or reused (hit) a pooled buffer …
        let s = server.metrics_snapshot();
        assert!(s.counter("chunk_pool_hits") + s.counter("chunk_pool_misses") > 0);
        // … and the push→decode latency surfaced as percentiles + a stage.
        let p50 = snap.gauge("push_decode_p50_ns").expect("aggregate p50");
        let p99 = snap.gauge("push_decode_p99_ns").expect("aggregate p99");
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
        assert!(snap.gauge("session.0.push_decode_p95_ns").is_some());
        assert!(snap
            .stages
            .iter()
            .any(|st| st.stage == "push_decode" && st.histogram.count() > 0));
        server.shutdown();
    }
}
