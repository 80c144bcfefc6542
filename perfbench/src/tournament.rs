//! Traced replay of the `tournament` binary: `generate_set` and
//! `score` re-run for every (U/M step, scheme, set), with a span around
//! every call into `workload`, `partition`, `sched-sim` and `overhead`.
//!
//! Each replayed set and score is checked against
//! `experiments::tournament::{generate_set, score}` outside the spans,
//! and the replay prints the scorecard CSV the binary would print.

use crate::ledger::{quantile, Counts, Ledger, Replay};
use experiments::tournament::{
    generate_set, score, Scheme, SetScore, TournamentSet, HYPERPERIOD_QUANTA, PERIOD_GRID,
    QUANTUM_US,
};
use overhead::{inflate_edf, inflate_pd2, OverheadParams};
use partition::{partition, EdfUtilization, RmExact, RmLiuLayland};
use pfair_core::SchedConfig;
use pfair_model::{PhysTask, TaskSet};
use sched_sim::{
    exact_gedf_schedulable, gedf_utilization_bound_schedulable, GlobalEdfSim, MultiSim,
    PartitionedSim,
};
use stats::{Table, Welford};
use std::time::Instant;
use uniproc::Discipline;
use workload::{CacheDelayDist, TaskSetGenerator};

/// The binary's normalized-utilization steps `U/M` (tenths).
const STEPS: [u32; 8] = [3, 4, 5, 6, 7, 8, 9, 10];

/// The binary's defaults, which `tournament-m4` runs: processors, tasks
/// per set, sets per point, simulated quanta.
const M: u32 = 4;
const N: usize = 12;
const SETS: usize = 40;
const HORIZON: u64 = 1_440;

/// Runs the tournament at the binary's defaults for `seed` and returns
/// the replay's JSON: `csv`, `wall_ns`, `mismatches`, `layers`, counts.
pub fn replay(seed: u64) -> String {
    let (m, n, sets, horizon) = (M, N, SETS, HORIZON);
    let mut ledger = Ledger::default();
    let mut set_ns: Vec<u64> = Vec::new();
    let mut mismatches = 0u64;
    let mut wall_ns = 0u64;
    let (mut preemptions, mut migrations, mut sims) = (0u64, 0u64, 0u64);
    let mut table = Table::new(&[
        "U/M",
        "scheme",
        "sched",
        "rm_ll",
        "rm_exact",
        "gfb",
        "preempt/kj",
        "migr/kj",
        "infl_util",
    ]);

    for &step in &STEPS {
        for scheme in Scheme::all() {
            let frac = step as f64 / 10.0;
            let total_util = frac * m as f64;
            let mut agg = Aggregate::default();
            let mut point_ok = true;
            for s in 0..sets {
                let t_set = Instant::now();
                let set = generate_traced(n, total_util, seed, s, &mut ledger);
                let sc = score_traced(&set, scheme, m, horizon, &mut ledger);
                let ns = t_set.elapsed().as_nanos() as u64;
                set_ns.push(ns);
                wall_ns += ns;
                if let (Some(p), Some(g)) = (sc.preemptions, sc.migrations) {
                    preemptions += p;
                    migrations += g;
                    sims += 1;
                }
                // Outside the spans: the library's own answer for this
                // (set, scheme) must be the replay's.
                let reference = generate_set(n, total_util, seed, s);
                if !same_set(&reference, &set) || score(&reference, scheme, m, horizon) != sc {
                    point_ok = false;
                }
                agg.add(&sc);
            }
            if !point_ok {
                mismatches += 1;
            }
            table.row_owned(agg.row(frac, scheme.name(), sets));
        }
    }

    let counts = Counts {
        sets: set_ns.len() as u64,
        sims,
        horizon,
        preemptions,
        migrations,
        set_p50_ns: quantile(&mut set_ns, 0.50),
        set_p99_ns: quantile(&mut set_ns, 0.99),
        ..Counts::default()
    };
    Replay {
        csv: table.to_csv(),
        wall_ns,
        mismatches,
        layers: ledger.into_layers(),
        counts,
    }
    .to_json()
}

fn same_set(a: &TournamentSet, b: &TournamentSet) -> bool {
    a.pairs == b.pairs && a.phys == b.phys && a.cache_d_us == b.cache_d_us
}

/// `generate_set` with the generator and the cache-delay draws timed
/// apart; the whole call is `tournament.generate_set`.
fn generate_traced(
    n: usize,
    total_util: f64,
    seed: u64,
    set_index: usize,
    ledger: &mut Ledger,
) -> TournamentSet {
    let t_all = Instant::now();
    let set_seed = seed ^ ((set_index as u64) << 16);
    let raw = ledger.time("workload.gen", || {
        TaskSetGenerator::new(n, total_util, set_seed)
            .with_quantum(QUANTUM_US)
            .with_period_range(PERIOD_GRID[0] * QUANTUM_US, HYPERPERIOD_QUANTA * QUANTUM_US)
            .generate()
    });
    let mut pairs = Vec::with_capacity(n);
    let mut phys = Vec::with_capacity(n);
    for t in raw.iter() {
        let u = t.wcet_us as f64 / t.period_us as f64;
        let p = snap_to_grid(t.period_us / QUANTUM_US);
        let e = ((u * p as f64).round() as u64).clamp(1, p);
        pairs.push((e, p));
        phys.push(PhysTask::new(e * QUANTUM_US, p * QUANTUM_US));
    }
    let mut rng =
        <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(set_seed ^ 0x9e37_79b9_7f4a_7c15);
    let cache_d_us = ledger.time("workload.cache_delay", || {
        CacheDelayDist::paper2003().sample_n(&mut rng, pairs.len())
    });
    ledger.charge("tournament.generate_set", t_all);
    TournamentSet {
        pairs,
        phys,
        cache_d_us,
    }
}

/// Nearest grid period, ties downward (as the library snaps).
fn snap_to_grid(p_quanta: u64) -> u64 {
    let mut best = PERIOD_GRID[0];
    let mut best_dist = u64::MAX;
    for &g in &PERIOD_GRID {
        let dist = p_quanta.abs_diff(g);
        if dist < best_dist {
            best = g;
            best_dist = dist;
        }
    }
    best
}

/// `score` with a span around each layer call.
fn score_traced(
    set: &TournamentSet,
    scheme: Scheme,
    m: u32,
    horizon: u64,
    ledger: &mut Ledger,
) -> SetScore {
    let n = set.pairs.len();
    let jobs: u64 = set.pairs.iter().map(|&(_, p)| horizon / p).sum();
    let params = OverheadParams::paper2003();
    let mut out = SetScore {
        jobs,
        ..SetScore::default()
    };
    let max_d_all = || set.cache_d_us.iter().copied().fold(0.0f64, f64::max);
    match scheme {
        Scheme::Packed(h, order, _) => {
            let keys = |i: usize| {
                let (e, p) = set.pairs[i];
                (e as f64 / p as f64, p)
            };
            let result = ledger.time("partition.pack_edf", || {
                partition(n, &EdfUtilization::new(&set.pairs), h, order, m, keys)
            });
            out.accepted = result.is_some();
            out.rm_ll = Some(ledger.time("partition.pack_rm_ll", || {
                partition(n, &RmLiuLayland::new(&set.pairs), h, order, m, keys).is_some()
            }));
            out.rm_exact = Some(ledger.time("partition.pack_rm_exact", || {
                partition(n, &RmExact::new(&set.pairs), h, order, m, keys).is_some()
            }));
            if let Some(r) = result {
                let stats = ledger.time("sim.partitioned_run", || {
                    PartitionedSim::new(&set.pairs, &r.assignment, m, Discipline::Edf).run(horizon)
                });
                out.preemptions = Some(stats.preemptions);
                out.migrations = Some(0);
                let t = Instant::now();
                let mut total = 0.0f64;
                for group in r.groups() {
                    let max_d = group
                        .iter()
                        .map(|&i| set.cache_d_us[i])
                        .fold(0.0f64, f64::max);
                    for &i in &group {
                        let t = set.phys[i];
                        total += inflate_edf(t, &params, n, max_d) / t.period_us as f64;
                    }
                }
                ledger.charge("overhead.edf_inflate", t);
                out.inflated_util = Some(total / m as f64);
            }
        }
        Scheme::Pd2 => {
            let Ok(tasks) = TaskSet::from_pairs(set.pairs.iter().copied()) else {
                return out;
            };
            out.accepted = tasks.feasible_on(m);
            if out.accepted {
                let metrics = ledger.time("sim.pd2_run", || {
                    MultiSim::new(&tasks, SchedConfig::pd2(m)).run(horizon)
                });
                out.preemptions = Some(metrics.preemptions);
                out.migrations = Some(metrics.migrations);
                let t = Instant::now();
                let max_d = max_d_all();
                let total: f64 = set
                    .phys
                    .iter()
                    .map(|&t| match inflate_pd2(t, &params, m, n, max_d) {
                        Ok(inf) => inf.weight.to_f64(),
                        Err(_) => 1.0,
                    })
                    .sum();
                ledger.charge("overhead.pd2_inflate", t);
                out.inflated_util = Some(total / m as f64);
            }
        }
        Scheme::GlobalEdf => {
            out.accepted = ledger.time("sim.gedf_exact", || exact_gedf_schedulable(&set.pairs, m));
            out.gfb_bound = Some(gedf_utilization_bound_schedulable(&set.pairs, m));
            if out.accepted {
                let tasks = TaskSet::from_pairs(set.pairs.iter().copied())
                    .expect("gEDF-schedulable tasks have weight ≤ 1");
                let stats =
                    ledger.time("sim.gedf_run", || GlobalEdfSim::new(&tasks, m).run(horizon));
                out.preemptions = Some(stats.preemptions);
                out.migrations = Some(stats.migrations);
                let t = Instant::now();
                let max_d = max_d_all();
                let total: f64 = set
                    .phys
                    .iter()
                    .map(|&t| inflate_edf(t, &params, n, max_d) / t.period_us as f64)
                    .sum();
                ledger.charge("overhead.edf_inflate", t);
                out.inflated_util = Some(total / m as f64);
            }
        }
    }
    out
}

/// One scorecard row's accumulators, folded exactly as the binary folds
/// them.
#[derive(Default)]
struct Aggregate {
    accepted: usize,
    rm_ll: (usize, usize),
    rm_exact: (usize, usize),
    gfb: (usize, usize),
    preempt: Welford,
    migr: Welford,
    infl: Welford,
}

impl Aggregate {
    fn add(&mut self, sc: &SetScore) {
        self.accepted += sc.accepted as usize;
        for (v, acc) in [
            (sc.rm_ll, &mut self.rm_ll),
            (sc.rm_exact, &mut self.rm_exact),
            (sc.gfb_bound, &mut self.gfb),
        ] {
            if let Some(v) = v {
                acc.0 += v as usize;
                acc.1 += 1;
            }
        }
        if let (Some(p), Some(g)) = (sc.preemptions, sc.migrations) {
            if sc.jobs > 0 {
                self.preempt.push(p as f64 * 1_000.0 / sc.jobs as f64);
                self.migr.push(g as f64 * 1_000.0 / sc.jobs as f64);
            }
        }
        if let Some(u) = sc.inflated_util {
            self.infl.push(u);
        }
    }

    fn row(&self, frac: f64, scheme: &str, sets: usize) -> Vec<String> {
        let ratio = |hits: usize, n: usize| format!("{:.2}", hits as f64 / n as f64);
        let opt_ratio = |(hits, n): (usize, usize)| {
            if n == 0 {
                "-".to_string()
            } else {
                ratio(hits, n)
            }
        };
        let opt_mean = |w: &Welford, digits: usize| {
            if w.count() == 0 {
                "-".to_string()
            } else {
                format!("{:.*}", digits, w.mean())
            }
        };
        vec![
            format!("{frac:.1}"),
            scheme.to_string(),
            ratio(self.accepted, sets),
            opt_ratio(self.rm_ll),
            opt_ratio(self.rm_exact),
            opt_ratio(self.gfb),
            opt_mean(&self.preempt, 1),
            opt_mean(&self.migr, 1),
            opt_mean(&self.infl, 3),
        ]
    }
}
