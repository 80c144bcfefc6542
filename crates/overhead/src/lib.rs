//! # overhead
//!
//! Preemption-related overhead accounting (paper, Section 4).
//!
//! The schedulability tests for both PD² and EDF-FF assume zero-cost
//! scheduling; in practice context switches, scheduler invocations, and
//! cache-related preemption delay must be charged against each task by
//! *inflating* its execution cost. This crate implements the paper's
//! Equation (3):
//!
//! ```text
//!         ⎧ e + 2(S_EDF + C) + max_{U ∈ P_T} D(U)                    under EDF
//! e' =    ⎨
//!         ⎩ e + ⌈e'/q⌉·S_PD² + C + min(⌈e'/q⌉−1, p/q−⌈e'/q⌉)·(C+D(T)) under PD²
//! ```
//!
//! The PD² form is self-referential (the number of quanta spanned depends
//! on the inflated cost); [`inflate_pd2`] resolves it by fixed-point
//! iteration, which the paper observed to converge within about five
//! rounds.
//!
//! [`pd2_processors_required`] (and [`pd2_requirement`], which also
//! returns the inflated utilization) searches `M` upward from `⌈U⌉`. Each
//! probe computes `S_PD²(M, N)` once, runs the fixed point without
//! building rationals, and decides `Σ E/P ≤ M` from an `f64` sum. Only a
//! sum within `1e-6` of `M` falls back to the exact
//! [`pfair_model::WeightSum`]; outside that band the `f64` rounding error
//! (about `1e-12` at `N = 100`) cannot flip the verdict, so the search
//! returns exactly what an all-rational search returns.
//!
//! The per-invocation scheduling costs `S_EDF(N)` and `S_PD²(M, N)` come
//! from a [`SchedCostModel`]: either the paper's 2002-era measurements
//! ([`SchedCostModel::paper2003`]) or a linear model calibrated from this
//! crate's own Fig. 2 benchmarks.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod inflate;
pub mod model;

pub use inflate::{
    inflate_edf, inflate_pd2, pd2_processors_required, pd2_requirement, InflateError, InflatedPd2,
    Pd2Requirement,
};
pub use model::{OverheadParams, SchedCostModel};
