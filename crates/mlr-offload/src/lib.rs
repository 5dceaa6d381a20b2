//! # mlr-offload (retired)
//!
//! This crate held ADMM-Offload (§5.1 of the paper) as a model: a planner
//! and a strategy simulation over the paper's variables ψ, λ, g and g_prev,
//! sized to match the paper's Figure 2. The solver holds none of those
//! arrays (one dual field and a gradient-only Barzilai–Borwein history, see
//! `mlr_solver::AdmmWorkspace`), so the model is gone and the crate has no
//! items. It stays only because `mlr-bench` depends on it and that
//! dependency is recorded in the repository benchmark's frozen
//! `examples/benchmark/Cargo.lock`; the crate and the dependency go
//! together when that lock is next rewritten.
