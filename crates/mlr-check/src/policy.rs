//! The declarative per-crate policy table.
//!
//! One row per workspace crate, each toggling the line-level rules. The table is
//! code, not config — changing policy is a reviewed diff next to the rule
//! it relaxes, and [`crate::scan_workspace`] fails loudly if a row names a
//! crate that no longer exists (so the table cannot silently rot).
//!
//! Two global carve-outs are structural rather than per-row:
//!
//! * `shims/` is never scanned: the vendored shims *implement* the
//!   primitives the rules police (the `parking_lot` shim is allowed — in
//!   fact required — to use `std::sync` inside).
//! * `src/bin/` harness binaries drop the wall-clock and unwrap rules: a
//!   benchmark main measures wall time and asserts on its own output by
//!   design. Library rules (shim locks, pooled threads) still apply.
//! * the `fault-wall-clock` rule is always on, everywhere: a file that
//!   consumes `FaultPlan` may not read the wall clock even
//!   where the general wall-clock rule is relaxed — fault schedules must
//!   replay bit-identically, harness or not.

use crate::RuleSet;

/// One row of the policy table.
#[derive(Debug, Clone, Copy)]
pub struct CratePolicy {
    /// Crate directory name under `crates/`.
    pub name: &'static str,
    /// Forbid `Instant::now` / `SystemTime` (waivable per site).
    pub wall_clock: bool,
    /// Forbid `std::sync::{Mutex, RwLock, Condvar}`.
    pub std_sync_lock: bool,
    /// Forbid `thread::spawn` / `thread::Builder` / `thread::scope`
    /// (waivable per site).
    pub thread_spawn: bool,
    /// Forbid `.unwrap()` / `.expect(` in non-test code (waivable per site).
    pub unwrap_expect: bool,
    /// Require `#![warn(missing_docs)]` in the crate's `lib.rs`.
    pub missing_docs: bool,
}

impl CratePolicy {
    /// Library crate under the full rule set.
    const fn strict(name: &'static str, missing_docs: bool) -> Self {
        Self {
            name,
            wall_clock: true,
            std_sync_lock: true,
            thread_spawn: true,
            unwrap_expect: true,
            missing_docs,
        }
    }

    /// Resolves the row into per-file rule toggles. Harness binaries
    /// (`src/bin/`) measure wall time and assert on their own output by
    /// design, so those two rules drop there.
    pub fn rules_for(&self, is_harness_bin: bool) -> RuleSet {
        RuleSet {
            wall_clock: self.wall_clock && !is_harness_bin,
            std_sync_lock: self.std_sync_lock,
            thread_spawn: self.thread_spawn,
            unwrap_expect: self.unwrap_expect && !is_harness_bin,
            // Fault-path purity is structural, not per-crate: any file that
            // consumes `FaultPlan` must stay on logical ticks
            // even in harness bins and wall-clock-relaxed crates, or faulted
            // runs stop replaying bit-identically.
            fault_wall_clock: true,
        }
    }
}

/// The resolved table for this workspace.
#[derive(Debug, Clone)]
pub struct PolicyTable {
    crates: Vec<CratePolicy>,
}

impl PolicyTable {
    /// The workspace's current policy.
    ///
    /// `missing_docs` is `true` for every crate that has reached full
    /// public-item rustdoc coverage (extended crate by crate; the remaining
    /// `false` rows are the open item, not an exemption in principle).
    pub fn workspace() -> Self {
        let crates = vec![
            CratePolicy::strict("mlr-math", false),
            CratePolicy::strict("mlr-fft", false),
            CratePolicy::strict("mlr-lamino", false),
            CratePolicy::strict("mlr-telemetry", true),
            CratePolicy::strict("mlr-memo", true),
            CratePolicy::strict("mlr-sim", true),
            CratePolicy::strict("mlr-solver", false),
            CratePolicy::strict("mlr-cluster", true),
            CratePolicy::strict("mlr-offload", false),
            CratePolicy::strict("mlr-core", false),
            CratePolicy::strict("mlr-runtime", true),
            CratePolicy::strict("mlr-check", true),
            // The bench harness measures wall time and asserts on its own
            // output by design; its library half still obeys the lock and
            // thread rules so the figures exercise the instrumented stack.
            CratePolicy {
                name: "mlr-bench",
                wall_clock: false,
                std_sync_lock: true,
                thread_spawn: true,
                unwrap_expect: false,
                missing_docs: false,
            },
        ];
        Self { crates }
    }

    /// The table rows.
    pub fn crates(&self) -> &[CratePolicy] {
        &self.crates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_bins_drop_wall_clock_and_unwrap_only() {
        let row = CratePolicy::strict("mlr-x", true);
        let lib = row.rules_for(false);
        assert!(lib.wall_clock && lib.unwrap_expect && lib.std_sync_lock && lib.thread_spawn);
        let bin = row.rules_for(true);
        assert!(!bin.wall_clock && !bin.unwrap_expect);
        assert!(bin.std_sync_lock && bin.thread_spawn);
        // Fault-path purity survives every relaxation.
        assert!(lib.fault_wall_clock && bin.fault_wall_clock);
        let bench = PolicyTable::workspace()
            .crates()
            .iter()
            .find(|c| c.name == "mlr-bench")
            .copied()
            .expect("mlr-bench row");
        assert!(bench.rules_for(true).fault_wall_clock);
    }

    #[test]
    fn table_lists_every_workspace_crate_once() {
        let table = PolicyTable::workspace();
        let mut names: Vec<&str> = table.crates().iter().map(|c| c.name).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate rows");
        assert!(names.contains(&"mlr-memo") && names.contains(&"mlr-bench"));
    }
}
