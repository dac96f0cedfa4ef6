//! Outcome accounting: every checked operation counts as attempted;
//! a wrong result or an error counts as failed.

use std::fmt::Display;

/// First failures kept for the report.
const KEPT: usize = 5;

/// Attempted and failed operations of one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that errored or returned a wrong value.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
}

impl Tally {
    /// Checks one operation's outcome against the value the oracle
    /// expects. Returns whether it passed.
    pub fn check<E: Display>(
        &mut self,
        what: impl Fn() -> String,
        got: Result<u64, E>,
        want: u64,
    ) -> bool {
        self.attempted += 1;
        let failure = match got {
            Ok(v) if v == want => return true,
            Ok(v) => format!("{}: got {v}, want {want}", what()),
            Err(e) => format!("{}: error {e}", what()),
        };
        self.fail(failure);
        false
    }

    /// Checks a run-level condition (one attempted operation).
    pub fn require(&mut self, ok: bool, what: impl Fn() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, failure: String) {
        self.failed += 1;
        if self.failures.len() < KEPT {
            self.failures.push(failure);
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = KEPT.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    /// Failed over attempted (0 with nothing attempted).
    pub fn failed_share(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}
