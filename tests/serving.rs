//! Integration tests for the runtime's deadline-aware serving: typed
//! terminal statuses, two-stage cancellation (queued vs running), deadline
//! expiry before pop, and the determinism contract that a job which *runs
//! to completion* through the `Runtime` reconstructs bit-identically to
//! `MlrPipeline::run_memoized`.

use mlr_core::{MlrConfig, MlrPipeline};
use mlr_memo::MemoStore;
use mlr_runtime::{Deadline, JobPhase, JobStatus, Priority, ReconJob, Runtime, RuntimeConfig};
use std::time::Duration;

fn tiny_config() -> MlrConfig {
    MlrConfig::quick(12, 8).with_iterations(4)
}

/// A config big enough that a worker holds it for a while (hundreds of
/// milliseconds at least), so queued-job semantics behind it are exercised
/// deterministically.
fn blocker_config() -> MlrConfig {
    MlrConfig::quick(12, 8).with_iterations(40)
}

fn spin_until(what: &str, done: impl FnMut() -> bool) {
    mlr_bench::spin_until(what, Duration::from_secs(30), done);
}

#[test]
fn expired_before_pop_is_reported_and_never_runs() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        queue_capacity: 4,
        ..RuntimeConfig::matching(&tiny_config())
    });
    // The blocker occupies the single worker; the victim's deadline is
    // already due when it is admitted, so by the time the worker pops it,
    // it must be skipped — reported `Expired`, never executed.
    let blocker = rt
        .submit(ReconJob::new("blocker", blocker_config()))
        .unwrap();
    let victim = rt
        .submit(
            ReconJob::new("victim", tiny_config()).with_deadline(Deadline::within(Duration::ZERO)),
        )
        .unwrap();
    match victim.wait() {
        JobStatus::Expired {
            while_running,
            late_seconds,
            completed_iterations,
        } => {
            assert!(!while_running, "expired-in-queue job must never run");
            assert!(late_seconds >= 0.0);
            assert_eq!(completed_iterations, 0);
        }
        other => panic!("expected Expired, got {other:?}"),
    }
    assert!(blocker.wait().is_completed());
    let stats = rt.shutdown();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.deadline.submitted, 1);
    assert_eq!(stats.deadline.missed, 1);
    assert_eq!(stats.deadline.met, 0);
    assert!((stats.deadline_miss_rate() - 1.0).abs() < 1e-12);
    // The expired job's slack sample is negative (it was late).
    assert!(stats.deadline.slack_p50_seconds <= 0.0);
}

#[test]
fn cancel_while_queued_never_runs_and_frees_the_slot() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        queue_capacity: 1,
        ..RuntimeConfig::matching(&tiny_config())
    });
    let blocker = rt
        .submit(ReconJob::new("blocker", blocker_config()))
        .unwrap();
    // Wait until the worker picked the blocker up, so the victim occupies
    // the single queue slot.
    spin_until("blocker to start running", || {
        blocker.phase() == JobPhase::Running
    });
    let victim = rt.submit(ReconJob::new("victim", tiny_config())).unwrap();
    assert_eq!(victim.phase(), JobPhase::Queued);
    assert!(victim.cancel(), "cancel of a queued job must register");
    match victim.wait() {
        JobStatus::Cancelled {
            while_running,
            completed_iterations,
        } => {
            assert!(!while_running, "cancelled-while-queued job must never run");
            assert_eq!(completed_iterations, 0);
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // The queue slot freed on the spot: the next submission is admitted
    // even though the blocker is still running.
    let replacement = rt
        .submit(ReconJob::new("replacement", tiny_config()))
        .expect("cancelling the queued victim must free its slot immediately");
    assert!(blocker.wait().is_completed());
    assert!(replacement.wait().is_completed());
    let stats = rt.shutdown();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.submitted, 3);
}

#[test]
fn cancel_while_running_stops_at_an_iteration_boundary() {
    let config = MlrConfig::quick(12, 8).with_iterations(200);
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        queue_capacity: 2,
        ..RuntimeConfig::matching(&config)
    });
    let handle = rt.submit(ReconJob::new("long", config)).unwrap();
    // Wait until the job has demonstrably started touching the store (its
    // first iteration is in flight), then cancel: at least one iteration
    // boundary must pass before the solver observes the token.
    spin_until("first iteration to start", || {
        rt.store().stats().queries > 0
    });
    assert!(handle.cancel());
    match handle.wait() {
        JobStatus::Cancelled {
            while_running,
            completed_iterations,
        } => {
            assert!(while_running, "job was mid-run when cancelled");
            assert!(
                completed_iterations >= 1,
                "at least the in-flight iteration completes before the stop"
            );
            assert!(
                completed_iterations < 200,
                "cancellation must stop the run early"
            );
        }
        other => panic!("expected Cancelled mid-run, got {other:?}"),
    }
    let stats = rt.shutdown();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 0);
    // The iterations that did run published their memo entries: a cancelled
    // tenant still warms the store for everyone else.
    assert!(
        stats.store.inserts > 0,
        "cancelled job must leave its memo entries published"
    );
}

#[test]
fn completed_job_through_serve_front_matches_run_memoized() {
    let config = tiny_config();
    let (reference, _) = MlrPipeline::new(config).run_memoized();

    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        queue_capacity: 2,
        ..RuntimeConfig::matching(&config)
    });
    let report = rt
        .submit(
            ReconJob::new("deterministic", config)
                .with_deadline(Deadline::within(Duration::from_secs(600))),
        )
        .unwrap()
        .wait_report()
        .expect("generous deadline: the job completes");
    let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(reference.reconstruction.as_slice()),
        bits(report.reconstruction.as_slice()),
        "a completed serving job must be bit-identical to run_memoized"
    );
    let stats = rt.shutdown();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.deadline.met, 1);
    assert_eq!(stats.deadline.missed, 0);
    assert_eq!(stats.deadline_miss_rate(), 0.0);
    // Slack percentiles come from the one decided job: positive, and below
    // the full budget.
    assert!(stats.deadline.slack_p50_seconds > 0.0);
    assert!(stats.deadline.slack_p50_seconds < 600.0);
    assert_eq!(
        stats.deadline.slack_p50_seconds,
        stats.deadline.slack_p99_seconds
    );
}

#[test]
fn handles_are_tickets_not_one_shot_channels() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        queue_capacity: 2,
        ..RuntimeConfig::matching(&tiny_config())
    });
    let blocker = rt
        .submit(ReconJob::new("blocker", blocker_config()))
        .unwrap();
    spin_until("blocker to start running", || {
        blocker.phase() == JobPhase::Running
    });
    let queued = rt.submit(ReconJob::new("queued", tiny_config())).unwrap();
    // While the worker is held by the blocker, the queued job's ticket
    // polls as pending — repeatedly, without consuming anything.
    assert!(queued.try_wait().is_none());
    assert!(queued.try_wait().is_none());
    assert!(queued.wait_timeout(Duration::from_millis(10)).is_none());
    assert_eq!(queued.phase(), JobPhase::Queued);
    assert!(blocker.wait().is_completed());
    // Now the queued job runs; both poll styles observe the same terminal
    // status, and the handle stays usable afterwards.
    let status = queued
        .wait_timeout(Duration::from_secs(60))
        .expect("job finishes well within a minute");
    assert!(status.is_completed());
    assert!(queued.try_wait().expect("still resolved").is_completed());
    assert_eq!(queued.phase(), JobPhase::Done);
    let stats = rt.shutdown();
    assert_eq!(stats.completed, 2);
}

#[test]
fn proactive_sweep_expires_queued_jobs_without_a_worker() {
    // One worker held by a long blocker; the victim's deadline passes while
    // it is still queued. Expiry is enforced at pop, so the victim resolves
    // `Expired` once the blocker completes and the worker reaches it — it
    // never runs.
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        queue_capacity: 4,
        ..RuntimeConfig::matching(&tiny_config())
    });
    let blocker = rt
        .submit(ReconJob::new("blocker", blocker_config()))
        .unwrap();
    spin_until("blocker to start running", || {
        blocker.phase() == JobPhase::Running
    });
    let victim = rt
        .submit(
            ReconJob::new("victim", tiny_config())
                .with_deadline(Deadline::within(Duration::from_millis(20))),
        )
        .unwrap();
    assert!(blocker.wait().is_completed());
    match victim.wait() {
        JobStatus::Expired {
            while_running,
            late_seconds,
            completed_iterations,
        } => {
            assert!(!while_running, "a job expired in the queue must never run");
            assert!(late_seconds >= 0.0);
            assert_eq!(completed_iterations, 0);
        }
        other => panic!("expected Expired, got {other:?}"),
    }
    let stats = rt.shutdown();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.deadline.submitted, 1);
    assert_eq!(stats.deadline.missed, 1);
    assert!(stats.deadline.slack_p50_seconds <= 0.0);
}

#[test]
fn mixed_priorities_and_deadlines_resolve_deterministically() {
    // One worker held by a blocker; behind it, a mix of priorities where
    // the top-priority entry is already expired and a mid-priority entry is
    // cancelled while queued. The expired/cancelled entries never run; the
    // rest run in priority order and produce full, finite reconstructions.
    let config = tiny_config();
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        queue_capacity: 8,
        ..RuntimeConfig::matching(&config)
    });
    let blocker = rt
        .submit(ReconJob::new("blocker", blocker_config()))
        .unwrap();
    spin_until("blocker to start running", || {
        blocker.phase() == JobPhase::Running
    });

    let expired_interactive = rt
        .submit(
            ReconJob::new("expired-interactive", config)
                .with_priority(Priority::Interactive)
                .with_deadline(Deadline::within(Duration::ZERO)),
        )
        .unwrap();
    let cancelled_normal = rt
        .submit(ReconJob::new("cancelled-normal", config))
        .unwrap();
    let live_normal = rt
        .submit(
            ReconJob::new("live-normal", config)
                .with_deadline(Deadline::within(Duration::from_secs(600))),
        )
        .unwrap();
    let live_batch = rt
        .submit(ReconJob::new("live-batch", config).with_priority(Priority::Batch))
        .unwrap();
    assert!(cancelled_normal.cancel());

    assert!(matches!(
        expired_interactive.wait(),
        JobStatus::Expired {
            while_running: false,
            ..
        }
    ));
    assert!(matches!(
        cancelled_normal.wait(),
        JobStatus::Cancelled {
            while_running: false,
            ..
        }
    ));
    let normal_report = live_normal.wait_report().expect("normal job completes");
    let batch_report = live_batch.wait_report().expect("batch job completes");
    // Jobs that did run are untouched by the cancelled/expired traffic
    // around them: both ran every configured iteration over the shared
    // store to a finite reconstruction.
    for report in [&normal_report, &batch_report] {
        assert_eq!(report.loss.len(), 4);
        assert!(report
            .reconstruction
            .as_slice()
            .iter()
            .all(|v| v.is_finite()));
    }
    assert!(blocker.wait().is_completed());

    let stats = rt.shutdown();
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.deadline.submitted, 2);
    assert_eq!(stats.deadline.met, 1);
    assert_eq!(stats.deadline.missed, 1);
}
