//! The names the repository benchmark (`examples/benchmark`) spells the
//! runtime with. Its sources are frozen, so they keep compiling against
//! these aliases; new code uses [`Runtime`] and [`ReconJob`] directly.

use crate::job::ReconJob;
use crate::runtime::Runtime;

/// The runtime under the name `examples/benchmark` uses. The benchmark is
/// its own package that tier-1 builds never compile, so this doctest keeps
/// the calls it makes (`ServeFront::new`, `submit_blocking`, `shutdown`,
/// `ServeRequest::new`) compiling:
///
/// ```
/// use mlr_core::MlrConfig;
/// use mlr_runtime::{RuntimeConfig, ServeFront, ServeRequest};
///
/// let config = MlrConfig::quick(12, 8).with_iterations(2);
/// let front = ServeFront::new(RuntimeConfig {
///     workers: 1,
///     ..RuntimeConfig::matching(&config)
/// });
/// let status = front
///     .submit_blocking(ServeRequest::new("demo", config))
///     .expect("queue has room")
///     .wait();
/// assert_eq!(status.report().expect("job completes").loss.len(), 2);
/// assert_eq!(front.shutdown().completed, 1);
/// ```
pub type ServeFront = Runtime;

/// A job under the name `examples/benchmark` uses.
pub type ServeRequest = ReconJob;

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests read the wall clock")]
mod tests {
    use super::*;
    use crate::job::{Deadline, Priority};
    use mlr_core::MlrConfig;
    use std::time::{Duration, Instant};

    #[test]
    fn deadline_budget_roundtrip() {
        let d = Deadline::within_seconds(1.5);
        assert_eq!(d.budget(), Duration::from_millis(1500));
        // Negative budgets clamp to an immediately-due deadline.
        assert_eq!(Deadline::within_seconds(-3.0).budget(), Duration::ZERO);
        assert!(d.starting_now() > Instant::now());
    }

    #[test]
    fn request_builder_carries_everything() {
        let req = ServeRequest::new("preview", MlrConfig::quick(12, 8))
            .with_priority(Priority::Interactive)
            .with_deadline(Deadline::within(Duration::from_secs(30)));
        assert_eq!(req.name, "preview");
        assert_eq!(req.priority, Priority::Interactive);
        assert_eq!(req.deadline.unwrap().budget(), Duration::from_secs(30));
    }
}
