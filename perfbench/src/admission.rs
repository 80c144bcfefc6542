//! The daemon workloads: a closed-loop client over `daemon::client`, the
//! same stream replayed in-process through `daemon::core`, and the wire
//! codec of `daemon::proto` timed on its own.

use crate::stream::{Stream, SET};
use daemon::client::{ClientError, DaemonClient};
use daemon::proto::{read_frame, write_frame, Op, Reply, Request, Status};
use daemon::{AdmissionCore, CoreConfig};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Processors of the daemon under test (`admitd --cpus 4`).
const CPUS: u32 = 4;

/// Request/reply pairs in the order the replies arrived.
type Log = Vec<(Request, Reply)>;

/// Client-side tally of one closed-loop run.
#[derive(Debug, Default)]
struct Tally {
    sent: u64,
    replies: u64,
    /// Error replies (including an unknown set) and unmatched nonces.
    errors: u64,
}

impl Tally {
    fn count(&mut self, reply: &Reply) {
        self.replies += 1;
        if !matches!(
            reply.status,
            Status::Admitted | Status::Rejected | Status::Left
        ) {
            self.errors += 1;
        }
    }
}

/// What the daemon reported about the benchmark's set after the run.
#[derive(Serialize)]
struct DaemonStats {
    task_count: u64,
    slot: u64,
    requests: u64,
    batches: u64,
}

/// What `drive` prints. A request that was never sent or never
/// answered counts in `attempted` but not in `replies`.
#[derive(Serialize)]
struct DriveReport {
    attempted: u64,
    sent: u64,
    replies: u64,
    errors: u64,
    phase_ns: u64,
    cpu_ns: u64,
    daemon_hwm_kib: u64,
    /// Why the round stopped early; empty when it ran to the end.
    problem: String,
    /// The set's stats, read after the loop (absent if it stopped early).
    daemon: Option<DaemonStats>,
    client_active: u64,
    latency_ns: Vec<u64>,
    /// Window 1 only: replies that differ from the in-process replay,
    /// and the digest of the whole verdict sequence.
    replay_mismatches: Option<u64>,
    verdict_digest: Option<String>,
}

/// Drives `requests` requests of the stream seeded by `seed` through a
/// daemon at the Unix socket `socket`, keeping `window` in flight, then
/// reads the set's stats and shuts the daemon down. Returns the JSON
/// summary with every request's latency and the CPU time the client and
/// the daemon (process `daemon_pid`) spent in the loop.
pub fn drive(socket: &str, daemon_pid: u32, window: usize, requests: u64, seed: u64) -> String {
    let mut tally = Tally::default();
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(requests as usize);
    let mut log: Log = Vec::with_capacity(requests as usize);
    let mut stats = None;
    let mut problem = String::new();
    let mut phase_ns = 0u64;
    let mut cpu_ns = 0u64;
    let mut hwm_kib = 0u64;
    let mut stream = Stream::new(seed);

    match DaemonClient::connect(socket) {
        Err(e) => problem = format!("connect: {e}"),
        Ok(mut client) => {
            let run = (|| -> Result<(), ClientError> {
                client.set_read_timeout(Some(Duration::from_secs(10)))?;
                let created = client.create_set(SET)?;
                if created.status != Status::SetCreated {
                    return Err(ClientError::Protocol(format!(
                        "create-set answered {:?}",
                        created.status
                    )));
                }
                let cpu_before = cpu_time_ns(daemon_pid);
                let started = Instant::now();
                let outcome = closed_loop(
                    &mut client,
                    &mut stream,
                    window,
                    requests,
                    &mut tally,
                    &mut latencies_ns,
                    &mut log,
                );
                phase_ns = started.elapsed().as_nanos() as u64;
                cpu_ns = cpu_time_ns(daemon_pid).saturating_sub(cpu_before);
                hwm_kib = vm_hwm_kib(daemon_pid).unwrap_or(0);
                outcome?;
                client.set_scope(Some(SET));
                let reply = client.stats()?;
                let snap = reply
                    .snapshot
                    .as_deref()
                    .and_then(|s| obs::Snapshot::from_json(s).ok());
                stats = Some(DaemonStats {
                    task_count: reply.task_count.unwrap_or(u64::MAX),
                    slot: reply.slot,
                    requests: snap
                        .as_ref()
                        .and_then(|s| s.counter("daemon.requests"))
                        .unwrap_or(u64::MAX),
                    batches: snap
                        .as_ref()
                        .and_then(|s| s.counter("daemon.batches"))
                        .unwrap_or(u64::MAX),
                });
                Ok(())
            })();
            if let Err(e) = run {
                problem = e.to_string();
            }
            // The shutdown reply's slot is not the set's (it reads 0);
            // only its arrival matters.
            if let Err(e) = client.shutdown() {
                if problem.is_empty() {
                    problem = format!("shutdown: {e}");
                }
            }
        }
    }
    // At window 1 the reply sequence is a pure function of the stream,
    // so the in-process core must reproduce it verdict for verdict.
    // Replies that never came are counted by the caller, not here.
    let (replay_mismatches, verdict_digest) = if window == 1 {
        let (replay, _) = in_process(seed, requests, 1);
        let mismatches = log
            .iter()
            .zip(&replay)
            .filter(|(a, b)| !same_exchange(a, b))
            .count();
        (Some(mismatches as u64), Some(verdict_digest(&log)))
    } else {
        (None, None)
    };
    let report = DriveReport {
        attempted: requests,
        sent: tally.sent,
        replies: tally.replies,
        errors: tally.errors,
        phase_ns,
        cpu_ns,
        daemon_hwm_kib: hwm_kib,
        problem,
        daemon: stats,
        client_active: stream.active().len() as u64,
        latency_ns: latencies_ns,
        replay_mismatches,
        verdict_digest,
    };
    serde_json::to_string(&report).expect("drive reports serialize")
}

/// CPU time (ns) this thread and every thread of process `daemon_pid`
/// have run, from `/proc/.../schedstat`. The kernel leaves out time the
/// hypervisor gave to other guests, so unlike wall time this does not
/// move with the host's load.
fn cpu_time_ns(daemon_pid: u32) -> u64 {
    fn run_ns(path: &std::path::Path) -> u64 {
        std::fs::read_to_string(path)
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0)
    }
    let mut total = run_ns("/proc/thread-self/schedstat".as_ref());
    if let Ok(tasks) = std::fs::read_dir(format!("/proc/{daemon_pid}/task")) {
        for task in tasks.flatten() {
            total += run_ns(&task.path().join("schedstat"));
        }
    }
    total
}

/// Peak resident set (KiB) of process `pid` so far, from its VmHWM.
/// Read right after the loop, before shutdown, so it is the footprint
/// of serving the round.
fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The pipelined closed loop: keep `window` requests in flight, send the
/// next one as each reply lands.
fn closed_loop(
    client: &mut DaemonClient,
    stream: &mut Stream,
    window: usize,
    requests: u64,
    tally: &mut Tally,
    latencies_ns: &mut Vec<u64>,
    log: &mut Log,
) -> Result<(), ClientError> {
    let mut inflight: BTreeMap<u64, (Request, Instant)> = BTreeMap::new();
    while tally.sent < requests || !inflight.is_empty() {
        while inflight.len() < window && tally.sent < requests {
            let req = stream.next(client.take_nonce());
            let sent_at = Instant::now();
            client.send(&req)?;
            tally.sent += 1;
            inflight.insert(req.nonce, (req, sent_at));
        }
        let reply = client.recv()?;
        let Some((req, sent_at)) = inflight.remove(&reply.nonce) else {
            tally.errors += 1;
            continue;
        };
        latencies_ns.push(sent_at.elapsed().as_nanos() as u64);
        tally.count(&reply);
        stream.on_reply(&req, &reply);
        log.push((req, reply));
    }
    Ok(())
}

/// A request/reply pair without the client-chosen nonce and the reply's
/// `set` echo (added by the transport): what the core decided.
fn canonical((req, reply): &(Request, Reply)) -> (Request, Reply) {
    let req = Request {
        nonce: 0,
        ..req.clone()
    };
    let reply = Reply {
        nonce: 0,
        set: None,
        ..reply.clone()
    };
    (req, reply)
}

fn same_exchange(a: &(Request, Reply), b: &(Request, Reply)) -> bool {
    canonical(a) == canonical(b)
}

/// FNV-1a digest of the canonical exchanges, in order: the fingerprint
/// of a verdict sequence that `digests.json` records per seed.
pub fn verdict_digest(log: &Log) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ex in log {
        let (req, reply) = canonical(ex);
        let line = serde_json::to_string(&req).expect("protocol types serialize")
            + &serde_json::to_string(&reply).expect("protocol types serialize")
            + "\n";
        for b in line.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The stream run in-process against an `AdmissionCore` configured as
/// `admitd --cpus 4`, `batch` requests per decided batch. Returns the
/// log and the ns spent in `push_request` + `decide_batch`.
pub fn in_process(seed: u64, requests: u64, batch: usize) -> (Log, u64) {
    let mut core = AdmissionCore::new(CoreConfig::new(CPUS));
    let mut stream = Stream::new(seed);
    let mut log: Log = Vec::with_capacity(requests as usize);
    let mut pending: Vec<Request> = Vec::with_capacity(batch);
    let mut replies: Vec<Reply> = Vec::with_capacity(batch);
    let mut nonce = 0u64;
    let mut decide_ns = 0u64;
    while (log.len() as u64) < requests {
        pending.clear();
        let room = (requests - log.len() as u64).min(batch as u64);
        for _ in 0..room {
            nonce += 1;
            pending.push(stream.next(nonce));
        }
        replies.clear();
        let t = Instant::now();
        for req in &pending {
            assert!(core.push_request(req.clone()), "batch within max_batch");
        }
        core.decide_batch(&mut replies);
        decide_ns += t.elapsed().as_nanos() as u64;
        // Replies come in canonical order; fold them in that order, as
        // they arrive over the socket.
        for (k, reply) in replies.drain(..).enumerate() {
            let req = pending[core.decided_order()[k] as usize].clone();
            stream.on_reply(&req, &reply);
            log.push((req, reply));
        }
    }
    (log, decide_ns)
}

/// The in-process core run at one batch size.
#[derive(Serialize)]
struct CoreRun {
    decide_ns: u64,
    requests: u64,
    /// Admitted over decided joins and reweights.
    admit_frac: f64,
    errors: u64,
}

/// What `daemon-layers` prints.
#[derive(Serialize)]
struct DaemonLayers {
    core_b1: CoreRun,
    core_b64: CoreRun,
    request_codec_ns: u64,
    reply_codec_ns: u64,
    codec_items: u64,
}

fn core_run(seed: u64, requests: u64, batch: usize) -> (Log, CoreRun) {
    let (log, decide_ns) = in_process(seed, requests, batch);
    let decides = |rq: &Request| matches!(rq.op, Op::Join | Op::Reweight);
    let decided = log.iter().filter(|(rq, _)| decides(rq)).count();
    let admitted = log
        .iter()
        .filter(|(rq, rp)| decides(rq) && rp.status == Status::Admitted)
        .count();
    let errors = log
        .iter()
        .filter(|(_, rp)| rp.status == Status::Error)
        .count();
    let run = CoreRun {
        decide_ns,
        requests: log.len() as u64,
        admit_frac: admitted as f64 / decided.max(1) as f64,
        errors: errors as u64,
    };
    (log, run)
}

/// The traced in-process ledger for the daemon layers: the codec of
/// `daemon::proto` on the stream's requests and replies, and the core at
/// batch 1 and batch 64.
pub fn layers(seed: u64, requests: u64) -> String {
    let (log, core_b1) = core_run(seed, requests, 1);
    let (_, core_b64) = core_run(seed, requests, 64);
    let (request_codec_ns, reply_codec_ns) = codec(&log);
    let out = DaemonLayers {
        core_b1,
        core_b64,
        request_codec_ns,
        reply_codec_ns,
        codec_items: log.len() as u64,
    };
    serde_json::to_string(&out).expect("layer reports serialize")
}

/// Encode, frame, read back and decode every request and every reply of
/// `log`; returns the total ns for requests and for replies.
fn codec(log: &Log) -> (u64, u64) {
    fn round_trip<T: serde::Serialize + serde::Deserialize + PartialEq>(
        v: &T,
        buf: &mut Vec<u8>,
    ) -> u64 {
        let t = Instant::now();
        buf.clear();
        let json = serde_json::to_string(v).expect("protocol types serialize");
        write_frame(buf, &json).expect("frame fits in memory");
        let mut rd: &[u8] = buf;
        let frame = read_frame(&mut rd)
            .expect("well-formed frame")
            .expect("one frame");
        let back: T = serde_json::from_str(&frame).expect("decodes what it encoded");
        let ns = t.elapsed().as_nanos() as u64;
        assert!(back == *v, "codec round trip changed the value");
        ns
    }
    let mut buf = Vec::with_capacity(512);
    let mut req_ns = 0u64;
    let mut reply_ns = 0u64;
    for (req, reply) in log {
        req_ns += round_trip(req, &mut buf);
        reply_ns += round_trip(reply, &mut buf);
    }
    (req_ns, reply_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_stream_never_departs_a_task_twice() {
        // Window 64: up to 64 requests decided per batch, each chosen
        // before any of their replies. A duplicate leave or reweight
        // would come back as an Error (NoSuchTask).
        for seed in 0..4 {
            let (log, _) = in_process(seed, 5_000, 64);
            let errors = log
                .iter()
                .filter(|(_, r)| r.status == Status::Error)
                .count();
            assert_eq!(errors, 0, "seed {seed}");
            let departures = log
                .iter()
                .filter(|(q, _)| matches!(q.op, Op::Leave | Op::Reweight))
                .count();
            // At batch 64 the set stays nearly full and few tasks are
            // known, so roughly one request in ten departs.
            assert!(departures > 400, "too few departures: {departures}");
        }
    }

    #[test]
    fn batch_one_replay_is_deterministic() {
        let (a, _) = in_process(3, 2_000, 1);
        let (b, _) = in_process(3, 2_000, 1);
        assert_eq!(a.len(), 2_000);
        assert!(a.iter().zip(&b).all(|(x, y)| same_exchange(x, y)));
    }
}
