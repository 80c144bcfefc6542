//! Traced replay of the `fig3` binary: the body of
//! `experiments::fig34::run_point` re-run set by set, with a span around
//! every call into `workload`, `overhead` and `partition`.
//!
//! The replay prints the CSV the binary would print for the same flags;
//! the caller compares the two, so a replay that drifts from the binary
//! shows up as failed points rather than as wrong layer numbers.

use crate::ledger::{quantile, Counts, Ledger, Replay};
use overhead::{pd2_processors_required, OverheadParams};
use partition::{
    partition_unbounded_with_obs, Acceptance, EdfOverheadAware, Heuristic, PartitionObs, SortOrder,
};
use pfair_model::PhysTask;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stats::{ci99_halfwidth, Table, Welford};
use std::time::Instant;
use workload::{CacheDelayDist, TaskSetGenerator};

/// Tasks per set, as `fig3-n100` runs the binary (`--tasks 100`).
const N: usize = 100;
/// Sets per point (the binary's default).
const SETS: usize = 200;
/// Utilization points (`--points 15`).
const POINTS: usize = 15;

/// Runs the `fig3-n100` sweep for `seed` and returns the replay's JSON:
/// `csv`, `wall_ns`, `layers`, and per-set counts.
pub fn replay(seed: u64) -> String {
    let (n, sets) = (N, SETS);
    let params = OverheadParams::paper2003();
    let dist = CacheDelayDist::paper2003();
    let rec = obs::Recorder::enabled();
    let pobs = PartitionObs::new(&rec);
    let mut ledger = Ledger::default();
    let mut set_ns: Vec<u64> = Vec::with_capacity(SETS * POINTS);
    let mut probes = 0u64;
    let mut table = Table::new(&["U", "PD2 procs", "±99%", "EDF-FF procs", "±99%"]);

    let started = Instant::now();
    for u in experiments::fig34::paper_utilization_sweep(n, POINTS) {
        let mut pd2_procs = Welford::new();
        let mut edf_procs = Welford::new();
        for s in 0..sets {
            let t_set = Instant::now();
            // One scratch accumulator per set, merged after the set, as
            // `run_point` does (the merge order decides the last bits).
            let mut pd2_set = Welford::new();
            let mut edf_set = Welford::new();
            let mut rng = StdRng::seed_from_u64(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((s as u64) << 20),
            );
            let set = ledger.time("workload.gen", || {
                TaskSetGenerator::new(n, u, seed ^ ((s as u64) << 20)).generate()
            });
            let tasks = set.tasks.clone();
            let d = ledger.time("workload.cache_delay", || dist.sample_n(&mut rng, n));
            let u_raw = set.total_utilization();

            let required = ledger.time("overhead.pd2_required", || {
                pd2_processors_required(&tasks, &params, &d, (4 * n) as u32)
            });
            if let Ok(m_pd2) = required {
                // `pd2_processors_required` tries every M from ⌈U⌉ up.
                let raw: f64 = tasks.iter().map(PhysTask::utilization).sum();
                probes += u64::from(m_pd2 - (raw.ceil() as u32).max(1) + 1);
                let t = Instant::now();
                let mut u_infl = 0.0;
                for (task, &dd) in tasks.iter().zip(&d) {
                    let inf = overhead::inflate_pd2(*task, &params, m_pd2, n, dd)
                        .expect("feasible at m_pd2");
                    u_infl += inf.weight.to_f64();
                }
                ledger.charge("overhead.pd2_inflate", t);
                std::hint::black_box((u_infl - u_raw) / m_pd2 as f64);
                pd2_set.push(m_pd2 as f64);
            }

            let t = Instant::now();
            let acc = EdfOverheadAware::new(&tasks, &d, params);
            let keys = |i: usize| (tasks[i].utilization(), tasks[i].period_us);
            let packed = partition_unbounded_with_obs(
                n,
                &acc,
                Heuristic::FirstFit,
                SortOrder::DecreasingPeriod,
                keys,
                &pobs,
            );
            ledger.charge("partition.ff", t);
            if let Some(result) = packed {
                let t = Instant::now();
                let m_edf = result.processors;
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| tasks[b].period_us.cmp(&tasks[a].period_us).then(a.cmp(&b)));
                let mut states = vec![acc.empty(); m_edf as usize];
                for i in order {
                    let p = result.assignment[i] as usize;
                    states[p] = acc
                        .try_add(&states[p], i)
                        .expect("replay of a valid packing");
                }
                let u_infl: f64 = states.iter().map(|st| st.util).sum();
                ledger.charge("partition.replay", t);
                std::hint::black_box((u_infl - u_raw) / m_edf as f64);
                edf_set.push(m_edf as f64);
            }
            pd2_procs.merge(&pd2_set);
            edf_procs.merge(&edf_set);
            set_ns.push(t_set.elapsed().as_nanos() as u64);
        }
        table.row_owned(vec![
            format!("{u:.2}"),
            format!("{:.2}", pd2_procs.mean()),
            format!("{:.2}", ci99_halfwidth(&pd2_procs)),
            format!("{:.2}", edf_procs.mean()),
            format!("{:.2}", ci99_halfwidth(&edf_procs)),
        ]);
    }
    let wall_ns = started.elapsed().as_nanos() as u64;

    let snap = rec.snapshot();
    let counts = Counts {
        sets: set_ns.len() as u64,
        pd2_m_probes: probes,
        accept_evals: snap.counter("partition.accept_evals").unwrap_or(0),
        bins_opened: snap.counter("partition.bins_opened").unwrap_or(0),
        set_p50_ns: quantile(&mut set_ns, 0.50),
        set_p99_ns: quantile(&mut set_ns, 0.99),
        ..Counts::default()
    };
    Replay {
        csv: table.to_csv(),
        wall_ns,
        mismatches: 0,
        layers: ledger.into_layers(),
        counts,
    }
    .to_json()
}
