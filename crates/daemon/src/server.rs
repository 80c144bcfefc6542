//! The daemon's transport and batch loop: a [`Listener`] (Unix-domain or
//! TCP) in front of a [`SetRegistry`] of independent admission cores.
//!
//! Threading model: none. `serve` is one event loop on the caller's
//! thread. The listener and every connection are nonblocking entries in
//! a single `poll(2)` set. Each wake reads every frame that arrived,
//! feeds each request straight into its set's batch, decides each set's
//! batch independently (canonical order *within* a set), and appends the
//! replies, already framed, to per-connection output buffers that are
//! written at once. Only a connection whose write came up short is polled
//! for writability, so a peer that stops reading delays no one else. No
//! lock is ever taken around scheduler state — the cores are single-owner
//! by construction, mirroring the narrow-kernel split the protocol is
//! designed around.
//!
//! Both transports share the length-prefixed JSON framing, the
//! max-frame-size cap, and an idle-connection timeout: a peer that
//! stalls mid-frame (half-open TCP connection, SIGKILLed client) is
//! reaped after [`ServerConfig::idle_timeout`] instead of holding its
//! connection forever. Subscribed connections are exempt — the daemon
//! stops reading them after the upgrade, and their liveness is policed
//! by write failures on the stream.
//!
//! Client disconnects are tolerated at every point: a reply or stream
//! frame that cannot be delivered is dropped (the decision it reported
//! stands — an admitted task whose client vanished stays admitted until
//! somebody leaves it), and a read error just ends that connection.

use crate::core::{CoreConfig, SetRegistry, SetReport};
use crate::proto::{
    push_frame, FrameError, FrameReader, Op, Reply, Request, Status, StreamKind, StreamMsg,
    MAX_FRAME,
};
use std::collections::BTreeMap;
use std::io::{self, BufReader, Read, Write};
use std::net::TcpListener;
use std::os::raw::{c_int, c_short};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How the daemon advances quantum edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// A quantum edge fires whenever at least one request is pending:
    /// the batch is whatever arrived while the previous batch was being
    /// decided, and only the sets with pending work step. Idle slots are
    /// not simulated. This is the soak/test mode — simulated time
    /// decouples from wall time entirely.
    Virtual,
    /// Quantum edges fire every `quantum_us` of wall time whether or not
    /// requests arrived, and *every* live set steps at each edge, so all
    /// simulations track wall time and subscribers see idle slots too.
    /// Arrivals accumulate until the current edge is reached (they never
    /// advance it early); if deciding a batch overruns the quantum, the
    /// next edge is re-anchored rather than burst-replayed, so slots
    /// never advance faster than wall time.
    RealTime,
}

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Bind {
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7133` (port 0 picks one).
    Tcp(String),
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Transport endpoint.
    pub bind: Bind,
    /// Admission-core template: every set (the default and each
    /// `create_set`) is built from this.
    pub core: CoreConfig,
    /// Quantum pacing.
    pub pace: Pace,
    /// Stream an `obs` snapshot to a set's subscribers every this many
    /// of that set's slots (0 = never).
    pub snapshot_every: u64,
    /// Reap a connection whose peer has been silent this long — a
    /// stalled half-open TCP peer must not hold its connection forever.
    /// Subscribed connections are exempt (they are write-only).
    pub idle_timeout: Duration,
    /// Maximum live task-set shards.
    pub max_sets: usize,
}

impl ServerConfig {
    /// Unix transport, virtual pacing, `M` processors, snapshots every
    /// 256 slots, 30 s idle timeout, up to 64 sets.
    pub fn new(socket: PathBuf, processors: u32) -> Self {
        Self::bound(Bind::Unix(socket), processors)
    }

    /// Same defaults over TCP.
    pub fn tcp(addr: impl Into<String>, processors: u32) -> Self {
        Self::bound(Bind::Tcp(addr.into()), processors)
    }

    /// Same defaults over an explicit [`Bind`].
    pub fn bound(bind: Bind, processors: u32) -> Self {
        ServerConfig {
            bind,
            core: CoreConfig::new(processors),
            pace: Pace::Virtual,
            snapshot_every: 256,
            idle_timeout: Duration::from_secs(30),
            max_sets: 64,
        }
    }
}

/// What the daemon did over its lifetime, returned when it shuts down.
pub struct RunReport {
    /// Per-set reports: sets dropped mid-run first (in drop order), then
    /// the sets still live at shutdown (sorted by name). Each carries
    /// its own offline-verifiable `ScheduleTrace`.
    pub sets: Vec<SetReport>,
    /// Final recorder snapshot (shared across sets).
    pub snapshot: obs::Snapshot,
}

impl RunReport {
    /// The default set's report, if it was still live at shutdown.
    pub fn default_set(&self) -> Option<&SetReport> {
        self.sets
            .iter()
            .find(|s| s.name == crate::proto::DEFAULT_SET && !s.dropped)
    }
}

// ---------------------------------------------------------------------------
// Transport abstraction: Unix-domain and TCP share everything above the
// accept/connect calls.
// ---------------------------------------------------------------------------

/// One accepted connection: a nonblocking byte stream with a pollable fd.
pub trait Conn: Read + Write + AsRawFd {}

impl<T: Read + Write + AsRawFd> Conn for T {}

/// A bound, nonblocking accept source.
pub trait Listener: AsRawFd + Send {
    /// Accepts one pending connection, already switched to nonblocking
    /// mode; `WouldBlock` when none is queued.
    fn accept_conn(&self) -> io::Result<Box<dyn Conn>>;
}

impl Listener for UnixListener {
    fn accept_conn(&self) -> io::Result<Box<dyn Conn>> {
        let (stream, _) = self.accept()?;
        stream.set_nonblocking(true)?;
        Ok(Box::new(stream))
    }
}

impl Listener for TcpListener {
    fn accept_conn(&self) -> io::Result<Box<dyn Conn>> {
        let (stream, _) = self.accept()?;
        stream.set_nonblocking(true)?;
        // Admission requests are latency-sensitive single frames;
        // Nagling them behind a 40 ms delayed ACK would dwarf the
        // decision latency the daemon is measured on.
        let _ = stream.set_nodelay(true);
        Ok(Box::new(stream))
    }
}

/// Binds a Unix socket, recovering the path from an unclean previous
/// death: if the path is occupied, a connect probe distinguishes a live
/// daemon (refuse to steal its socket) from a stale file left by a
/// SIGKILLed one (unlink and bind fresh).
fn bind_unix(path: &Path) -> io::Result<UnixListener> {
    match UnixListener::bind(path) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            match UnixStream::connect(path) {
                Ok(_) => Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("{}: another daemon is live on this socket", path.display()),
                )),
                // Nobody home behind the file: a previous daemon died
                // uncleanly. Unlink and take over the path.
                Err(_) => {
                    std::fs::remove_file(path)?;
                    UnixListener::bind(path)
                }
            }
        }
        Err(e) => Err(e),
    }
}

/// A bound-but-not-yet-serving daemon: lets the caller learn the actual
/// address (ephemeral TCP ports) before the first client can connect.
pub struct BoundServer {
    cfg: ServerConfig,
    listener: Box<dyn Listener>,
    label: String,
    /// Unix only: the path to unlink on clean shutdown.
    cleanup: Option<PathBuf>,
}

/// Binds the configured endpoint. Setup failures — including
/// `set_nonblocking`, which an earlier version silently swallowed — are
/// surfaced here, before any client can connect.
pub fn bind(cfg: ServerConfig) -> io::Result<BoundServer> {
    let (listener, label, cleanup): (Box<dyn Listener>, String, Option<PathBuf>) = match &cfg.bind {
        Bind::Unix(path) => {
            let l = bind_unix(path)?;
            l.set_nonblocking(true)?;
            let label = format!("unix:{}", path.display());
            (Box::new(l), label, Some(path.clone()))
        }
        Bind::Tcp(addr) => {
            let l = TcpListener::bind(addr.as_str())?;
            l.set_nonblocking(true)?;
            let label = format!("tcp://{}", l.local_addr()?);
            (Box::new(l), label, None)
        }
    };
    Ok(BoundServer {
        cfg,
        listener,
        label,
        cleanup,
    })
}

impl BoundServer {
    /// Where the daemon is actually listening (`unix:<path>` or
    /// `tcp://<ip>:<port>` with the ephemeral port resolved).
    pub fn local_label(&self) -> &str {
        &self.label
    }

    /// Serves until a client sends `Shutdown`; returns the run report.
    pub fn serve(self) -> io::Result<RunReport> {
        let report = serve(&self.cfg, &*self.listener);
        if let Some(path) = &self.cleanup {
            let _ = std::fs::remove_file(path);
        }
        report
    }
}

/// Binds and serves in one call.
pub fn run(cfg: ServerConfig) -> io::Result<RunReport> {
    bind(cfg)?.serve()
}

// ---------------------------------------------------------------------------
// poll(2), the one readiness call std does not wrap.
// ---------------------------------------------------------------------------

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    fn new(fd: RawFd, events: c_short) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

#[cfg(target_os = "linux")]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Blocks until an entry of `fds` is ready or `timeout` (`None`: no
/// limit) has passed. The timeout rounds *up* to whole milliseconds, so
/// waiting for a deadline never wakes before it. A signal counts as a
/// spurious wake.
fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    let ms = timeout.map_or(-1, |t| {
        t.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int
    });
    // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)` pollfd
    // records, valid for the whole call, and `nfds` is its length.
    if unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) } < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The event loop.
// ---------------------------------------------------------------------------

/// Unsent output beyond this many bytes drops the connection, so a peer
/// that never reads cannot grow the daemon without bound.
const MAX_BACKLOG: usize = 16 * MAX_FRAME as usize;

/// How long `serve` keeps flushing final acks and `Bye` frames after a
/// shutdown before it returns anyway.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(1);

/// One client connection in the event loop.
struct Connection {
    /// Unique for the daemon's lifetime; replies are routed by it, so
    /// one can never reach a later connection that reuses the fd.
    id: u64,
    stream: BufReader<Box<dyn Conn>>,
    frames: FrameReader,
    /// Framed replies and stream frames not yet written.
    out: Vec<u8>,
    /// When the last complete frame arrived (idle and mid-frame reaping).
    last_heard: Instant,
    /// Still reading requests: cleared by EOF, a bad frame, a reap, a
    /// `Subscribe` upgrade (write-only from then on) or shutdown.
    reading: bool,
    /// On some set's subscriber list.
    subscribed: bool,
    /// This connection's requests still waiting in a set's batch.
    awaiting: usize,
    /// The socket took no more output; wait for `POLLOUT`.
    blocked: bool,
    /// The peer is gone or the backlog overflowed: drop this pass.
    dead: bool,
}

impl Connection {
    /// Queues one serialized frame.
    fn push(&mut self, json: &str) {
        if push_frame(&mut self.out, json).is_err() || self.out.len() > MAX_BACKLOG {
            self.dead = true;
        }
    }

    fn reply(&mut self, reply: &Reply) {
        if let Ok(json) = serde_json::to_string(reply) {
            self.push(&json);
        }
    }

    /// Answers with an error and stops reading; the connection closes
    /// once the reply is written.
    fn close_with(&mut self, msg: String) {
        self.reply(&error_reply(0, msg));
        self.reading = false;
    }

    /// Writes queued output until it is gone or the socket is full.
    fn flush(&mut self) {
        while !self.out.is_empty() && !self.blocked && !self.dead {
            match self.stream.get_mut().write(&self.out) {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => self.blocked = true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
    }

    /// Nothing left to read, write or wait for: close it.
    fn finished(&self) -> bool {
        self.dead
            || (!self.reading && !self.subscribed && self.awaiting == 0 && self.out.is_empty())
    }
}

/// The live connection `id` (connections are kept in id order).
fn conn_mut(conns: &mut [Connection], id: u64) -> Option<&mut Connection> {
    let i = conns.binary_search_by_key(&id, |c| c.id).ok()?;
    Some(&mut conns[i])
}

/// Per-set connection-facing state, parallel to the registry: where the
/// current batch's replies go, and who is subscribed to the set's
/// decision stream (both by connection id).
#[derive(Default)]
struct SetPeers {
    /// `routes[i]` is the connection whose request became the i-th
    /// pending slot of the set's current batch (intake order) —
    /// index-aligned with `AdmissionCore::decided_order`, never keyed on
    /// client-chosen nonces, which can collide across connections.
    routes: Vec<u64>,
    subscribers: Vec<u64>,
}

fn serve(cfg: &ServerConfig, listener: &dyn Listener) -> io::Result<RunReport> {
    let rec = obs::Recorder::enabled();
    let mut registry = SetRegistry::new(cfg.core.clone(), cfg.max_sets, &rec);
    let batches = rec.counter("daemon.batches");
    let batched_requests = rec.counter("daemon.requests");
    let refused_full = rec.counter("daemon.batch_full_refusals");
    let batch_size = rec.log2_histogram("daemon.batch_size");
    let decide_ns = rec.timer("daemon.decide_ns");

    let quantum = Duration::from_micros(cfg.core.params.quantum_us.max(1));
    let mut peers: BTreeMap<String, SetPeers> = BTreeMap::new();
    peers.insert(crate::proto::DEFAULT_SET.to_string(), SetPeers::default());
    let mut conns: Vec<Connection> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut next_id = 0u64;
    let mut replies: Vec<Reply> = Vec::new();
    // (connection, nonce, set) of each Shutdown request.
    let mut shutdown_acks: Vec<(u64, u64, String)> = Vec::new();
    // DropSet is deferred past the batch decision so requests already
    // pending in the doomed set still get their replies.
    let mut drop_requests: Vec<(String, u64, u64)> = Vec::new();
    let mut listening = true;
    let mut drain_until: Option<Instant> = None;
    let mut next_edge = Instant::now() + quantum;

    loop {
        // Sleep until a socket is ready, the next real-time edge, the
        // earliest idle-reap deadline, or the end of the shutdown drain.
        let mut wake = drain_until.or((cfg.pace == Pace::RealTime).then_some(next_edge));
        let fd = if listening { listener.as_raw_fd() } else { -1 }; // poll(2) skips fd -1
        fds.clear();
        fds.push(PollFd::new(fd, POLLIN));
        for c in &conns {
            if !c.subscribed {
                let reap_at = c.last_heard + cfg.idle_timeout;
                wake = Some(wake.map_or(reap_at, |w| w.min(reap_at)));
            }
            let events = if c.reading { POLLIN } else { 0 } | if c.blocked { POLLOUT } else { 0 };
            fds.push(PollFd::new(c.stream.get_ref().as_raw_fd(), events));
        }
        wait(
            &mut fds,
            wake.map(|w| w.saturating_duration_since(Instant::now())),
        )?;
        let now = Instant::now();

        let mut accepting = fds[0].revents != 0;
        while accepting {
            match listener.accept_conn() {
                Ok(conn) => {
                    conns.push(Connection {
                        id: next_id,
                        stream: BufReader::new(conn),
                        frames: FrameReader::new(),
                        out: Vec::new(),
                        last_heard: now,
                        reading: true,
                        subscribed: false,
                        awaiting: 0,
                        blocked: false,
                        dead: false,
                    });
                    next_id += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // WouldBlock ends this round. Any other error ends
                // accepting: serve the open connections, exit after them.
                Err(e) => {
                    listening &= e.kind() == io::ErrorKind::WouldBlock;
                    accepting = false;
                }
            }
        }

        // Takes one request: admission ops join their set's batch and
        // are answered when it is decided; everything else is answered
        // now (or, for DropSet and Shutdown, after this pass's batches).
        let mut intake = |c: &mut Connection,
                          req: Request,
                          registry: &mut SetRegistry,
                          peers: &mut BTreeMap<String, SetPeers>| {
            let nonce = req.nonce;
            let set_name = req.set_name().to_string();
            if req.op == Op::Subscribe {
                c.reading = false; // write-only from here on, set or no set
            }
            let r = match (req.op, registry.get_mut(&set_name)) {
                (Op::Join | Op::Leave | Op::Reweight, Some(core)) => {
                    let slot = core.slot();
                    if core.push_request(req) {
                        let set = peers.get_mut(&set_name).expect("peers mirrors registry");
                        set.routes.push(c.id);
                        c.awaiting += 1;
                        return;
                    }
                    refused_full.add(1);
                    let r = error_reply(nonce, "batch full; retry next quantum");
                    Reply {
                        slot,
                        set: Some(set_name),
                        ..r
                    }
                }
                (Op::Stats, Some(core)) => {
                    let mut r = Reply::new(nonce, Status::Stats, core.slot());
                    r.task_count = Some(core.task_count() as u64);
                    r.weight_ppm = Some(core.weight_ppm());
                    r.set = Some(set_name);
                    r.sets = Some(registry.names());
                    r.snapshot = Some(rec.snapshot().to_json());
                    r
                }
                (Op::Subscribe, Some(core)) => {
                    let r = Reply::new(nonce, Status::Subscribed, core.slot());
                    let set = peers.get_mut(&set_name).expect("peers mirrors registry");
                    set.subscribers.push(c.id);
                    c.subscribed = true;
                    Reply {
                        set: Some(set_name),
                        ..r
                    }
                }
                (Op::Join | Op::Leave | Op::Reweight | Op::Stats | Op::Subscribe, None) => {
                    no_such_set(nonce, &set_name)
                }
                (Op::CreateSet, _) => match req.set {
                    None => error_reply(nonce, "create_set requires an explicit `set`"),
                    Some(name) => {
                        let r = match registry.create(&name) {
                            Ok(()) => {
                                peers.insert(name.clone(), SetPeers::default());
                                let mut r = Reply::new(nonce, Status::SetCreated, 0);
                                r.sets = Some(registry.names());
                                r
                            }
                            Err(e) => error_reply(nonce, e),
                        };
                        Reply {
                            set: Some(name),
                            ..r
                        }
                    }
                },
                (Op::DropSet, _) => match req.set {
                    None => error_reply(nonce, "drop_set requires an explicit `set`"),
                    Some(name) => return drop_requests.push((name, nonce, c.id)),
                },
                (Op::ListSets, _) => Reply {
                    sets: Some(registry.names()),
                    ..Reply::new(nonce, Status::SetList, 0)
                },
                (Op::Shutdown, _) => return shutdown_acks.push((c.id, nonce, set_name)),
            };
            c.reply(&r);
        };

        // Read every complete frame, straight into its set's batch, and
        // reap connections silent past the idle timeout.
        for (c, fd) in conns.iter_mut().zip(&fds[1..]) {
            if fd.revents & !POLLIN != 0 {
                c.blocked = false; // writable, or an error the next write reports
            }
            if !c.reading && fd.revents & !POLLOUT != 0 {
                c.dead = true; // hang-up or error on a write-only socket
            }
            while c.reading && fd.revents != 0 {
                match c.frames.poll(&mut c.stream) {
                    Ok(Some(frame)) => {
                        c.last_heard = now;
                        match serde_json::from_str::<Request>(&frame) {
                            Ok(req) => intake(c, req, &mut registry, &mut peers),
                            Err(e) => c.close_with(format!("unparsable request: {e}")),
                        }
                    }
                    Ok(None) => break,
                    Err(FrameError::Malformed(m)) => c.close_with(format!("malformed frame: {m}")),
                    Err(_) => c.reading = false, // Closed / Disconnected / hard I/O error
                }
            }
            if !c.subscribed && now >= c.last_heard + cfg.idle_timeout {
                if c.reading {
                    let why = if c.frames.mid_frame() {
                        "stalled mid-frame"
                    } else {
                        "idle too long"
                    };
                    c.close_with(format!("connection {why}; closing"));
                    c.last_heard = now; // one more timeout to deliver that
                } else {
                    c.dead = true;
                }
            }
        }

        // Decide each set's batch independently. Virtual pace steps only
        // the sets with pending work (at every wake); real-time pace
        // steps every set at every wall-clock edge, and a shutdown
        // forces one final edge so pending replies drain.
        let shutting_down = !shutdown_acks.is_empty();
        let edge = cfg.pace == Pace::Virtual || shutting_down || now >= next_edge;
        if edge && drain_until.is_none() {
            if cfg.pace == Pace::RealTime {
                next_edge += quantum;
                if next_edge < now {
                    // Deciding the previous batch overran the quantum (or
                    // the host stalled): re-anchor instead of bursting
                    // catch-up edges.
                    next_edge = now + quantum;
                }
            }
            for (name, core) in registry.iter_mut() {
                let pending = core.pending_len();
                if pending == 0 && cfg.pace == Pace::Virtual {
                    continue;
                }
                let set = peers.get_mut(name).expect("peers mirrors registry");
                batches.add(1);
                batched_requests.add(pending as u64);
                batch_size.record(pending as u64);
                replies.clear();
                let span = decide_ns.start();
                let decided_at = core.decide_batch(&mut replies);
                drop(span);

                // Replies come back in canonical order; `decided_order()[k]`
                // is the intake index of the request `replies[k]` answered,
                // which indexes straight into this set's routes. Routing is
                // therefore by connection, never by the client-chosen nonce —
                // two clients with colliding nonces in one batch each still
                // get their own reply.
                let order = core.decided_order();
                debug_assert_eq!(order.len(), replies.len());
                for (k, reply) in replies.iter_mut().enumerate() {
                    let route = order.get(k).and_then(|&i| set.routes.get(i as usize));
                    if let Some(c) = route.and_then(|&id| conn_mut(&mut conns, id)) {
                        c.awaiting -= 1;
                        reply.set = Some(name.to_string());
                        c.reply(reply);
                    }
                }
                set.routes.clear();

                // Stream the set's decision (and periodic snapshots).
                if !set.subscribers.is_empty() {
                    let msg = StreamMsg {
                        scheduled: Some(core.last_chosen().iter().map(|id| id.0).collect()),
                        ..StreamMsg::new(StreamKind::Decision, decided_at, name)
                    };
                    broadcast(&mut conns, &mut set.subscribers, &msg);
                    if cfg.snapshot_every > 0 && decided_at % cfg.snapshot_every == 0 {
                        let msg = StreamMsg {
                            snapshot: Some(rec.snapshot().to_json()),
                            ..StreamMsg::new(StreamKind::Snapshot, decided_at, name)
                        };
                        broadcast(&mut conns, &mut set.subscribers, &msg);
                    }
                }
            }

            // Deferred set drops: the doomed set's batch was just decided,
            // so every pending reply has been routed. Subscribers of the
            // dropped set get a Bye.
            for (name, nonce, id) in drop_requests.drain(..) {
                let r = match registry.drop_set(&name) {
                    Ok(()) => {
                        if let Some(mut set) = peers.remove(&name) {
                            say_bye(&mut conns, &name, &mut set.subscribers);
                        }
                        let mut r = Reply::new(nonce, Status::SetDropped, 0);
                        r.sets = Some(registry.names());
                        r
                    }
                    Err(e) => error_reply(nonce, e),
                };
                if let Some(c) = conn_mut(&mut conns, id) {
                    c.reply(&Reply {
                        set: Some(name),
                        ..r
                    });
                }
            }
        }

        // Clean shutdown: acknowledge with the named set's slot, say
        // goodbye to every set's subscribers, stop reading, and give the
        // final frames a bounded time to drain.
        if shutting_down {
            for (id, nonce, set) in shutdown_acks.drain(..) {
                let slot = registry.get_mut(&set).map_or(0, |core| core.slot());
                if let Some(c) = conn_mut(&mut conns, id) {
                    c.reply(&Reply {
                        set: Some(set),
                        ..Reply::new(nonce, Status::ShuttingDown, slot)
                    });
                }
            }
            for (name, set) in peers.iter_mut() {
                say_bye(&mut conns, name, &mut set.subscribers);
            }
            conns.iter_mut().for_each(|c| c.reading = false);
            listening = false;
            drain_until = Some(now + SHUTDOWN_DRAIN);
        }

        conns.iter_mut().for_each(Connection::flush);
        conns.retain(|c| !c.finished());
        if !listening && conns.is_empty() || drain_until.is_some_and(|t| now >= t) {
            break;
        }
    }

    Ok(RunReport {
        sets: registry.into_reports(),
        snapshot: rec.snapshot(),
    })
}

/// An error reply carrying `msg`.
fn error_reply(nonce: u64, msg: impl Into<String>) -> Reply {
    let mut r = Reply::new(nonce, Status::Error, 0);
    r.error = Some(msg.into());
    r
}

/// Error reply for a request naming an unknown set.
fn no_such_set(nonce: u64, set: &str) -> Reply {
    let mut r = error_reply(nonce, format!("no such set `{set}` (create_set first)"));
    r.set = Some(set.to_string());
    r
}

/// Queues a stream frame for every subscriber, dropping subscribers
/// whose connection is gone.
fn broadcast(conns: &mut [Connection], subscribers: &mut Vec<u64>, msg: &StreamMsg) {
    let Ok(json) = serde_json::to_string(msg) else {
        return;
    };
    subscribers.retain(|&id| match conn_mut(conns, id) {
        Some(c) if !c.dead => {
            c.push(&json);
            true
        }
        _ => false,
    });
}

/// Sends `set`'s subscribers a final `Bye` and unsubscribes them; each
/// connection closes once its output is written.
fn say_bye(conns: &mut [Connection], set: &str, subscribers: &mut Vec<u64>) {
    broadcast(conns, subscribers, &StreamMsg::new(StreamKind::Bye, 0, set));
    for id in subscribers.drain(..) {
        if let Some(c) = conn_mut(conns, id) {
            c.subscribed = false;
        }
    }
}
