//! Execution-cost inflation — the paper's Equation (3).

use crate::model::OverheadParams;
use pfair_model::{PhysTask, Rat, Weight, WeightSum};
use std::fmt;

/// Failure modes of the PD² inflation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InflateError {
    /// The inflated cost exceeds the period: the task alone cannot meet its
    /// deadline under this overhead model.
    Overload {
        /// Inflated cost at the point of failure (µs).
        inflated_us: f64,
    },
    /// The period is not a multiple of the quantum (PD² requires it).
    PeriodNotQuantumMultiple,
    /// The fixed-point iteration failed to settle (pathological inputs).
    NoConvergence,
}

impl fmt::Display for InflateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InflateError::Overload { inflated_us } => {
                write!(f, "inflated cost {inflated_us:.1}µs exceeds the period")
            }
            InflateError::PeriodNotQuantumMultiple => {
                write!(f, "period is not a multiple of the quantum")
            }
            InflateError::NoConvergence => write!(f, "inflation did not converge"),
        }
    }
}

impl std::error::Error for InflateError {}

/// Result of PD² inflation for one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InflatedPd2 {
    /// Inflated execution cost `e'` (µs).
    pub exec_us: f64,
    /// Quanta spanned: `E = ⌈e'/q⌉`.
    pub quanta: u64,
    /// Period in quanta: `P = p/q`.
    pub period_quanta: u64,
    /// The utilization PD² schedules with: `E / P` (includes quantum
    /// rounding — "one source of schedulability loss in PD²").
    pub weight: Rat,
    /// Fixed-point iterations used (paper: usually ≤ 5).
    pub iterations: u32,
}

/// Inflates `task` for EDF-FF (Equation (3), first case):
/// `e' = e + 2(S_EDF + C) + max_{U ∈ P_T} D(U)`, where `max_d_us` is the
/// largest cache-related preemption delay among the tasks already assigned
/// to the candidate processor with periods ≥ `task.period` (the paper
/// partitions in decreasing-period order precisely so this is known at
/// acceptance time).
///
/// `n` is the task count used for `S_EDF`. Returns the inflated cost in µs.
pub fn inflate_edf(task: PhysTask, params: &OverheadParams, n: usize, max_d_us: f64) -> f64 {
    task.wcet_us as f64 + 2.0 * (params.sched.edf_us(n) + params.ctx_switch_us) + max_d_us
}

/// Inflates `task` for PD² (Equation (3), second case), resolving the
/// self-reference by fixed-point iteration.
///
/// # Examples
///
/// ```
/// use overhead::{inflate_pd2, OverheadParams};
/// use pfair_model::PhysTask;
///
/// // The paper's ε-task: 1 µs of work per 10 ms still costs one whole
/// // 1 ms quantum under PD² — a 1000× utilization loss.
/// let t = PhysTask::new(1, 10_000);
/// let inf = inflate_pd2(t, &OverheadParams::paper2003(), 2, 50, 33.3).unwrap();
/// assert_eq!(inf.quanta, 1);
/// assert_eq!(inf.weight, pfair_model::Rat::new(1, 10));
/// ```
///
/// Formula:
///
/// `e' = e + ⌈e'/q⌉·S_PD² + C + min(⌈e'/q⌉ − 1, p/q − ⌈e'/q⌉)·(C + D(T))`
///
/// `m`/`n` parameterize `S_PD²`; `d_us` is this task's own cache-related
/// preemption delay `D(T)`.
pub fn inflate_pd2(
    task: PhysTask,
    params: &OverheadParams,
    m: u32,
    n: usize,
    d_us: f64,
) -> Result<InflatedPd2, InflateError> {
    let s = params.sched.pd2_us(m, n);
    let span = pd2_span(task, params, s, d_us)?;
    Ok(InflatedPd2 {
        exec_us: span.exec_us,
        quanta: span.quanta,
        period_quanta: span.period_quanta,
        weight: Rat::new(span.quanta as i128, span.period_quanta as i128),
        iterations: span.iterations,
    })
}

/// [`InflatedPd2`] without the `Rat`: what the fixed point itself yields.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pd2Span {
    exec_us: f64,
    quanta: u64,
    period_quanta: u64,
    iterations: u32,
}

/// The fixed point behind [`inflate_pd2`], given `S_PD²` as `s` (µs), so a
/// caller inflating a whole set at one `M` computes it once.
fn pd2_span(
    task: PhysTask,
    params: &OverheadParams,
    s: f64,
    d_us: f64,
) -> Result<Pd2Span, InflateError> {
    let q = params.quantum_us;
    if q == 0 || task.period_us % q != 0 {
        return Err(InflateError::PeriodNotQuantumMultiple);
    }
    let p_quanta = task.period_us / q;
    let c = params.ctx_switch_us;
    let e = task.wcet_us as f64;

    let cost = |quanta: u64| -> f64 {
        // Preemption count: min(E − 1, P − E); E > P is overload, handled
        // by the caller via the quanta bound check.
        let preemptions = (quanta - 1).min(p_quanta.saturating_sub(quanta)) as f64;
        e + quanta as f64 * s + c + preemptions * (c + d_us)
    };

    // Fixed-point iteration on E = ⌈e'/q⌉. E only ever needs to grow or
    // stay: start from the uninflated span and increase while the implied
    // cost spans more quanta. (The paper iterates on e' directly; iterating
    // on the integer E is equivalent and cannot oscillate.)
    let mut quanta = (task.wcet_us).div_ceil(q).max(1);
    let mut iterations = 0u32;
    loop {
        iterations += 1;
        if quanta > p_quanta {
            return Err(InflateError::Overload {
                inflated_us: cost(p_quanta.max(1)),
            });
        }
        let e_prime = cost(quanta);
        let implied = (e_prime.ceil() as u64).div_ceil(q).max(1);
        // implied < quanta: cost() is non-monotone in E only through the
        // preemption term, which can *shrink* as E grows past P/2;
        // accepting the larger span is the conservative fixed point.
        if implied <= quanta {
            return Ok(Pd2Span {
                exec_us: e_prime,
                quanta,
                period_quanta: p_quanta,
                iterations,
            });
        }
        quanta = implied;
        if iterations > 10_000 {
            return Err(InflateError::NoConvergence);
        }
    }
}

/// Half-width of the band around `M` inside which [`pd2_requirement`]
/// re-decides a probe with the exact [`WeightSum`] instead of the `f64`
/// sum.
const EXACT_BAND: f64 = 1e-6;

/// What PD² needs for a task set under Equation (3); see
/// [`pd2_requirement`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pd2Requirement {
    /// The smallest feasible `M`.
    pub processors: u32,
    /// `Σ E/P` at that `M`, summed in task order as `f64` — the same bits
    /// as adding each task's `inflate_pd2(..).weight.to_f64()`.
    pub inflated_util: f64,
}

/// Minimum processors PD² needs for a task set under Equation (3),
/// including the `M`-dependence of `S_PD²` (more processors → costlier
/// invocations → heavier inflation): the smallest `M` with
/// `Σ weight'(T; M) ≤ M`. `d_us[i]` is `D(Tᵢ)`.
///
/// Returns `Err` if any task is individually unschedulable or no
/// `M ≤ max_m` suffices.
pub fn pd2_processors_required(
    tasks: &[PhysTask],
    params: &OverheadParams,
    d_us: &[f64],
    max_m: u32,
) -> Result<u32, InflateError> {
    pd2_requirement(tasks, params, d_us, max_m).map(|r| r.processors)
}

/// [`pd2_processors_required`] together with the inflated utilization at
/// the `M` it returns.
///
/// Each probe of `M` computes `S_PD²(M, n)` once, sums `E/P` over the
/// tasks in `f64` and compares the sum with `M`. Only a sum within `1e-6`
/// of `M` is re-decided by the exact [`WeightSum`] (an `i128` rational
/// that falls back to its own `f64` shadow with slack `1e-7` when it
/// overflows). Outside that band all three verdicts agree:
///
/// * the `f64` sum of `n` correctly rounded quotients, each at most 1, is
///   within `n²·2⁻⁵³` of the exact sum — about `1e-12` at `n = 100`, and
///   below the band for any `n` under 9·10⁴ (a larger set widens the band
///   to `n²·2⁻⁵²`) — so the exact verdict is the `f64` one;
/// * the shadow is this same `f64` sum, added in the same order, and its
///   slack `1e-7` is narrower than the band, so the overflow verdict is
///   the `f64` one too.
///
/// The search therefore returns what the all-exact search returns and
/// pays for rationals only on boundary-tight sets: the same fast key with
/// an exact fallback as the scheduler's packed priority keys.
pub fn pd2_requirement(
    tasks: &[PhysTask],
    params: &OverheadParams,
    d_us: &[f64],
    max_m: u32,
) -> Result<Pd2Requirement, InflateError> {
    assert_eq!(tasks.len(), d_us.len());
    let n = tasks.len();
    if n == 0 {
        return Ok(Pd2Requirement {
            processors: 0,
            inflated_util: 0.0,
        });
    }
    let raw: f64 = tasks.iter().map(PhysTask::utilization).sum();
    let mut m = (raw.ceil() as u32).max(1);
    let band = EXACT_BAND.max((n * n) as f64 * f64::EPSILON);
    let mut spans: Vec<(u64, u64)> = Vec::with_capacity(n);
    'probe: while m <= max_m {
        let s = params.sched.pd2_us(m, n);
        spans.clear();
        let mut total = 0.0;
        for (t, &d) in tasks.iter().zip(d_us) {
            match pd2_span(*t, params, s, d) {
                Ok(span) => {
                    spans.push((span.quanta, span.period_quanta));
                    total += span.quanta as f64 / span.period_quanta as f64;
                }
                Err(InflateError::Overload { .. }) => {
                    m += 1;
                    continue 'probe;
                }
                Err(e) => return Err(e),
            }
        }
        let fits = if (total - f64::from(m)).abs() > band {
            total <= f64::from(m)
        } else {
            let mut exact = WeightSum::new();
            for &(e, p) in &spans {
                exact.add(Weight::new(e, p).expect("0 < E ≤ P guaranteed by pd2_span"));
            }
            exact.at_most(m)
        };
        if fits {
            return Ok(Pd2Requirement {
                processors: m,
                inflated_util: total,
            });
        }
        m += 1;
    }
    Err(InflateError::Overload { inflated_us: 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SchedCostModel;
    use proptest::prelude::*;

    fn params() -> OverheadParams {
        OverheadParams::paper2003()
    }

    #[test]
    fn edf_inflation_formula() {
        let t = PhysTask::new(10_000, 100_000);
        let p = OverheadParams {
            ctx_switch_us: 5.0,
            quantum_us: 1_000,
            sched: SchedCostModel::Constant {
                edf_us: 2.0,
                pd2_us: 0.0,
            },
        };
        // e' = 10000 + 2(2+5) + 30 = 10044.
        assert_eq!(inflate_edf(t, &p, 100, 30.0), 10_044.0);
        // With zero overheads, identity.
        assert_eq!(inflate_edf(t, &OverheadParams::zero(), 100, 0.0), 10_000.0);
    }

    #[test]
    fn pd2_inflation_rounds_tiny_tasks_to_full_quantum() {
        // The paper's ε-task: 1 µs of work per 10 ms still costs one whole
        // quantum under PD².
        let t = PhysTask::new(1, 10_000);
        let inf = inflate_pd2(t, &params(), 2, 50, 33.3).unwrap();
        assert_eq!(inf.quanta, 1);
        assert_eq!(inf.period_quanta, 10);
        assert_eq!(inf.weight, Rat::new(1, 10));
        // Raw utilization was 1e-4; PD² sees 0.1 — a 1000× loss.
        assert!(inf.weight.to_f64() / t.utilization() > 900.0);
    }

    #[test]
    fn pd2_inflation_converges_quickly() {
        // A job spanning many quanta accrues per-quantum scheduling cost
        // that can push it into an extra quantum.
        let t = PhysTask::new(9_990, 20_000);
        let inf = inflate_pd2(t, &params(), 4, 250, 50.0).unwrap();
        assert!(inf.iterations <= 5, "iterations = {}", inf.iterations);
        assert!(inf.quanta >= 10);
        assert!(inf.exec_us > 9_990.0);
        // min(E−1, P−E) with E≈10, P=20 → 9 preemptions charged.
        let s = params().sched.pd2_us(4, 250);
        let expected = 9_990.0 + inf.quanta as f64 * s + 5.0 + {
            let pre = (inf.quanta - 1).min(20 - inf.quanta) as f64;
            pre * (5.0 + 50.0)
        };
        assert!((inf.exec_us - expected).abs() < 1e-9);
    }

    #[test]
    fn pd2_detects_overload() {
        // 990 µs of work per 1 ms period: one quantum of real work but the
        // inflation cannot fit.
        let t = PhysTask::new(999, 1_000);
        let r = inflate_pd2(t, &params(), 16, 1000, 90.0);
        // e' = 999 + 1·S + 5 > 1000 → needs 2 quanta > 1 period.
        assert!(matches!(r, Err(InflateError::Overload { .. })));
    }

    #[test]
    fn pd2_rejects_misaligned_period() {
        let t = PhysTask::new(100, 1_500);
        assert_eq!(
            inflate_pd2(t, &params(), 1, 1, 0.0),
            Err(InflateError::PeriodNotQuantumMultiple)
        );
    }

    #[test]
    fn processors_required_grows_with_utilization() {
        let p = params();
        let small: Vec<PhysTask> = (0..10).map(|_| PhysTask::new(2_000, 20_000)).collect();
        let ds = vec![33.3; 10];
        let m_small = pd2_processors_required(&small, &p, &ds, 64).unwrap();
        // Raw U = 1.0; with overheads slightly more → expect 2 (rounding to
        // 2/20 quanta leaves it at 1.0+ε… the inflation pushes ≥ 2 quanta).
        assert!(m_small >= 1);
        let big: Vec<PhysTask> = (0..40).map(|_| PhysTask::new(10_000, 20_000)).collect();
        let ds = vec![33.3; 40];
        let m_big = pd2_processors_required(&big, &p, &ds, 64).unwrap();
        assert!(m_big > m_small);
        // Raw U = 20; inflation adds a little.
        assert!((20..=24).contains(&m_big), "m_big = {m_big}");
    }

    #[test]
    fn zero_overhead_processors_match_raw_ceiling() {
        let p = OverheadParams {
            ctx_switch_us: 0.0,
            quantum_us: 1_000,
            sched: SchedCostModel::Constant {
                edf_us: 0.0,
                pd2_us: 0.0,
            },
        };
        let tasks: Vec<PhysTask> = (0..9).map(|_| PhysTask::new(1_000, 3_000)).collect();
        let ds = vec![0.0; 9];
        // U = 3 exactly, no rounding loss (1000 µs = 1 quantum).
        assert_eq!(pd2_processors_required(&tasks, &p, &ds, 64), Ok(3));
    }

    #[test]
    fn empty_set_needs_zero_processors() {
        assert_eq!(pd2_processors_required(&[], &params(), &[], 4), Ok(0));
    }

    #[test]
    fn exact_fallback_decides_boundary_tight_sum() {
        // Fifteen tasks of raw utilization 0.18 round up to one quantum in
        // five: Σ E/P is exactly 3, but the f64 sum lands above it.
        let p = zero_params();
        let tasks = vec![PhysTask::new(900, 5_000); 15];
        let f64_sum = tasks.iter().fold(0.0f64, |acc, _| acc + 1.0 / 5.0);
        assert!(f64_sum > 3.0, "{f64_sum}");
        let req = pd2_requirement(&tasks, &p, &[0.0; 15], 64).unwrap();
        assert_eq!(req.processors, 3);
        assert_eq!(req.inflated_util.to_bits(), f64_sum.to_bits());
        assert_eq!(
            reference_processors_required(&tasks, &p, &[0.0; 15], 64),
            Ok(3)
        );
    }

    #[test]
    fn requirement_util_is_the_inflate_pd2_sum() {
        let p = params();
        let tasks: Vec<PhysTask> = (1..=40)
            .map(|i| PhysTask::new(137 * i, 1_000 * (10 + i % 7)))
            .collect();
        let ds: Vec<f64> = (0..40).map(|i| i as f64 * 2.5).collect();
        let req = pd2_requirement(&tasks, &p, &ds, 160).unwrap();
        let mut util = 0.0;
        for (t, &d) in tasks.iter().zip(&ds) {
            util += inflate_pd2(*t, &p, req.processors, 40, d)
                .unwrap()
                .weight
                .to_f64();
        }
        assert_eq!(req.inflated_util.to_bits(), util.to_bits());
    }

    /// The M-search as it ran with an exact rational sum on every probe:
    /// the oracle for [`pd2_requirement`]'s `f64` fast path.
    fn reference_processors_required(
        tasks: &[PhysTask],
        params: &OverheadParams,
        d_us: &[f64],
        max_m: u32,
    ) -> Result<u32, InflateError> {
        let n = tasks.len();
        if n == 0 {
            return Ok(0);
        }
        let raw: f64 = tasks.iter().map(PhysTask::utilization).sum();
        let mut m = (raw.ceil() as u32).max(1);
        while m <= max_m {
            let mut total = WeightSum::new();
            let mut overloaded = false;
            for (t, &d) in tasks.iter().zip(d_us) {
                match inflate_pd2(*t, params, m, n, d) {
                    Ok(inf) => total.add(Weight::new(inf.quanta, inf.period_quanta).unwrap()),
                    Err(InflateError::Overload { .. }) => {
                        overloaded = true;
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            if !overloaded && total.at_most(m) {
                return Ok(m);
            }
            m += 1;
        }
        Err(InflateError::Overload { inflated_us: 0.0 })
    }

    /// Zero overheads with a 1 ms quantum: `E/P` is the task's utilization
    /// rounded up to whole quanta, so small-period sets land exactly on
    /// integers.
    fn zero_params() -> OverheadParams {
        OverheadParams {
            ctx_switch_us: 0.0,
            quantum_us: 1_000,
            sched: SchedCostModel::Constant {
                edf_us: 0.0,
                pd2_us: 0.0,
            },
        }
    }

    proptest! {
        /// Inflation is monotone: never below the raw cost, and the weight
        /// never below the quantized raw weight.
        #[test]
        fn prop_inflation_monotone(
            wcet in 1u64..50_000,
            period_q in 2u64..100,
            d in 0.0f64..100.0,
        ) {
            let t = PhysTask::new(wcet, period_q * 1_000);
            if let Ok(inf) = inflate_pd2(t, &params(), 4, 100, d) {
                prop_assert!(inf.exec_us >= wcet as f64);
                prop_assert!(inf.quanta >= wcet.div_ceil(1_000));
                prop_assert!(inf.quanta <= inf.period_quanta);
            }
        }

        /// More processors ⇒ no smaller quantum span (S_PD² grows with M).
        /// Note the raw µs cost is *not* monotone: crossing into an extra
        /// quantum can shrink the `min(E−1, P−E)` preemption term, so only
        /// the schedulable weight (quanta/period) is asserted.
        #[test]
        fn prop_inflation_grows_with_m(
            wcet in 1u64..20_000,
            period_q in 2u64..60,
        ) {
            let t = PhysTask::new(wcet, period_q * 1_000);
            let a = inflate_pd2(t, &params(), 2, 100, 33.3);
            let b = inflate_pd2(t, &params(), 16, 100, 33.3);
            if let (Ok(a), Ok(b)) = (a, b) {
                prop_assert!(b.quanta >= a.quanta);
                prop_assert!(b.weight >= a.weight);
            }
        }

        /// The `f64` M-search agrees with the all-exact one on random
        /// paper-style sets; about one set in eight has a misaligned period.
        #[test]
        fn prop_search_matches_exact_reference(
            raw in prop::collection::vec((1u64..40_000, 2u64..80, 0.0f64..100.0), 1..60),
            misalign in 0usize..240,
        ) {
            let mut tasks: Vec<PhysTask> = raw
                .iter()
                .map(|&(e, pq, _)| PhysTask::new(e.min(pq * 1_000), pq * 1_000))
                .collect();
            if misalign < tasks.len() {
                tasks[misalign] = PhysTask::new(100, 1_500);
            }
            let ds: Vec<f64> = raw.iter().map(|r| r.2).collect();
            let max_m = 4 * tasks.len() as u32;
            for p in [params(), zero_params()] {
                prop_assert_eq!(
                    pd2_processors_required(&tasks, &p, &ds, max_m),
                    reference_processors_required(&tasks, &p, &ds, max_m)
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Boundary-tight sets: zero overheads, WCETs of whole quanta (some
        /// trimmed by 100 µs, which still span the same quanta) and one
        /// small period per set, so `Σ E/P` often equals `M` exactly while
        /// its `f64` sum lands just above (about one set in twenty), and
        /// only the exact fallback gets `M` right.
        #[test]
        fn prop_boundary_tight_sets_match_exact_reference(
            pq in prop::sample::select(vec![3u64, 5, 6, 10]),
            raw in prop::collection::vec((0u64..10, 0u64..2), 1..80),
        ) {
            let tasks: Vec<PhysTask> = raw
                .iter()
                .map(|&(e, trim)| PhysTask::new((1 + e % pq) * 1_000 - trim * 100, pq * 1_000))
                .collect();
            let ds = vec![0.0; tasks.len()];
            let max_m = 4 * tasks.len() as u32;
            let p = zero_params();
            let got = pd2_processors_required(&tasks, &p, &ds, max_m);
            prop_assert_eq!(got, reference_processors_required(&tasks, &p, &ds, max_m));
            // Zero overheads: ⌈Σ E/P⌉ processors, unless the search starts
            // above that (it starts at ⌈U⌉ of the raw f64 utilization).
            let quantized: Rat = raw.iter().map(|&(e, _)| Rat::new(1 + (e % pq) as i128, pq as i128)).sum();
            let raw_u: f64 = tasks.iter().map(PhysTask::utilization).sum();
            let start = (raw_u.ceil() as u32).max(1);
            prop_assert_eq!(got, Ok((quantized.ceil() as u32).max(start)));
        }
    }
}
