//! The seeded join/leave/reweight stream the daemon workloads send.
//!
//! The stream is closed-loop: which task a leave or reweight names
//! depends on the ids earlier replies assigned, so the generator keeps
//! the client's view of the set. A task with a leave or reweight in
//! flight is *departing* and is never named again until that reply
//! arrives, so the stream never sends a duplicate departure — the
//! mistake that makes `admitload` count its own errors at wide windows.

use daemon::proto::{Op, Reply, Request, Status};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Task-set shard the benchmark creates and drives.
pub const SET: &str = "bench";

/// Periods (µs) a joining task draws from: `admitload`'s default
/// `--periods`, all quantum multiples.
const PERIODS: [u64; 4] = [10_000, 20_000, 40_000, 80_000];

/// Share of requests that reweight a task. `admitload` sends no
/// reweights, so nothing in the repository fixes this share; it is a
/// chosen value (see README.md). A reweight is a leave plus a join of
/// the same task, so it leaves the number of tasks unchanged and the
/// join/leave balance below still sets how full the set stays.
const REWEIGHT: f64 = 0.2;

/// Of the other requests, the share that leave: `admitload`'s 45 %.
const LEAVE: f64 = 0.45;

/// Above this many known tasks every non-reweight request leaves
/// (`admitload --max-active` default). Four processors hold far fewer
/// tasks of 1–12 % each, so the cap never binds; it is kept so the
/// rule is the same.
const MAX_ACTIVE: usize = 512;

/// The generator plus the client's view of the set.
pub struct Stream {
    rng: StdRng,
    /// Tasks the client knows to be admitted, in admission order.
    active: Vec<u32>,
    /// Active tasks with a leave or reweight in flight.
    departing: Vec<u32>,
}

impl Stream {
    /// A fresh stream; the same seed gives the same requests for the
    /// same replies.
    pub fn new(seed: u64) -> Self {
        Stream {
            rng: StdRng::seed_from_u64(seed ^ 0xad_0175_e7d0),
            active: Vec::new(),
            departing: Vec::new(),
        }
    }

    /// Tasks the client believes are admitted.
    pub fn active(&self) -> &[u32] {
        &self.active
    }

    /// The next request, carrying `nonce`. A fifth of the requests
    /// reweight; the rest follow `admitload`: 45 % leave, 55 % join.
    /// That makes 44 % join, 36 % leave and 20 % reweight. A leave or
    /// reweight names a task with no departure in flight, and becomes
    /// a join when there is none.
    pub fn next(&mut self, nonce: u64) -> Request {
        let r: f64 = self.rng.gen_range(0.0..1.0);
        let reweight = r < REWEIGHT;
        let leave = !reweight
            && (self.active.len() >= MAX_ACTIVE || r < REWEIGHT + (1.0 - REWEIGHT) * LEAVE);
        let eligible = self.active.len() - self.departing.len();
        let req = if !(reweight || leave) || eligible == 0 {
            let (wcet, period) = self.params();
            Request::join(nonce, wcet, period)
        } else {
            let pick = self.rng.gen_range(0..eligible);
            let victim = *self
                .active
                .iter()
                .filter(|t| !self.departing.contains(t))
                .nth(pick)
                .expect("pick < eligible");
            self.departing.push(victim);
            if leave {
                Request::leave(nonce, victim)
            } else {
                let (wcet, period) = self.params();
                Request::reweight(nonce, victim, wcet, period)
            }
        };
        req.with_set(SET)
    }

    /// Per-task utilization in [1 %, 12 %], as `admitload` draws it:
    /// heavy enough that a full set rejects, light enough that dozens
    /// fit on four processors.
    fn params(&mut self) -> (u64, u64) {
        let period = PERIODS[self.rng.gen_range(0..PERIODS.len())];
        let wcet = (period as f64 * self.rng.gen_range(0.01..0.12)) as u64;
        (wcet.max(1), period)
    }

    /// Folds the reply to `req` into the client's view.
    pub fn on_reply(&mut self, req: &Request, reply: &Reply) {
        let target = req.task.unwrap_or(u32::MAX);
        match req.op {
            Op::Join => {
                if let (Status::Admitted, Some(id)) = (reply.status, reply.task) {
                    self.active.push(id);
                }
            }
            Op::Leave | Op::Reweight => {
                self.departing.retain(|&t| t != target);
                // A refused reweight keeps the old task; anything else
                // (left, reweighted under a new id, or an error saying
                // the task is unknown) ends it.
                if reply.status != Status::Rejected {
                    self.active.retain(|&t| t != target);
                }
                if let (Op::Reweight, Status::Admitted, Some(id)) =
                    (req.op, reply.status, reply.task)
                {
                    self.active.push(id);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_follows_admitload_plus_a_reweight_share() {
        // Admit every join and answer each request at once. The set
        // grows by about 0.08 tasks per request, so over 5 000 requests
        // it stays under MAX_ACTIVE.
        let mut s = Stream::new(5);
        let (mut join, mut leave, mut reweight) = (0u32, 0u32, 0u32);
        for nonce in 0..5_000u64 {
            let req = s.next(nonce);
            match req.op {
                Op::Join => join += 1,
                Op::Leave => leave += 1,
                _ => reweight += 1,
            }
            let mut reply = Reply::new(req.nonce, Status::Left, 0);
            if req.op != Op::Leave {
                reply.status = Status::Admitted;
                reply.task = Some(nonce as u32);
            }
            s.on_reply(&req, &reply);
        }
        assert!(s.active().len() < MAX_ACTIVE);
        let share = |k: u32| f64::from(k) / 5_000.0;
        assert!((share(join) - 0.44).abs() < 0.03, "join {}", share(join));
        assert!((share(leave) - 0.36).abs() < 0.03, "leave {}", share(leave));
        assert!(
            (share(reweight) - 0.20).abs() < 0.03,
            "reweight {}",
            share(reweight)
        );
    }

    #[test]
    fn departing_tasks_are_never_named_again_before_their_reply() {
        let mut s = Stream::new(9);
        let mut inflight: Vec<Request> = Vec::new();
        let mut next_id = 0u32;
        for nonce in 0..20_000u64 {
            let req = s.next(nonce);
            if let Some(t) = req.task {
                assert!(
                    !inflight.iter().any(|q| q.task == Some(t)),
                    "task {t} named twice while in flight"
                );
            }
            inflight.push(req);
            // Answer the oldest request once 32 are in flight: joins and
            // reweights admitted under fresh ids, leaves accepted.
            if inflight.len() == 32 {
                let req = inflight.remove(0);
                let mut reply = Reply::new(req.nonce, Status::Left, 0);
                if req.op != Op::Leave {
                    reply.status = Status::Admitted;
                    reply.task = Some(next_id);
                    next_id += 1;
                }
                s.on_reply(&req, &reply);
            }
            assert!(s.departing.iter().all(|t| s.active.contains(t)));
        }
    }
}
