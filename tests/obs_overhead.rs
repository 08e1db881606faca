//! Bench smoke test for the instrumentation overhead budget: with a
//! no-op sink the fully-instrumented `evaluate` path must stay within
//! 5% of the disabled-sink baseline.
//!
//! `Mode::Noop` is the honest measurement mode — every emit site
//! constructs its event (full hot-path cost) and then drops it, and the
//! `noop_events` counter proves the sites actually fired, so the
//! comparison cannot be gamed by skipping construction.
//!
//! Methodology: warm both paths, then run interleaved disabled/noop
//! pairs, alternating which mode goes first so host drift hits both
//! alike, and hold the median pair to the budget: noop within 5% of its
//! disabled neighbour, plus a small absolute slack for timer granularity.
//! One disabled-sink pass takes over 50 ms, so the slack stays a small
//! part of the budget. The passes run on the default pool, as serving
//! and training do, so contention on the no-op sink's shared event
//! counter is part of what is measured. On a shared two-core host,
//! worker scheduling alone moved single passes by up to ±8%, and the
//! minimum of each mode over 15-30 rounds drifted apart by 6-10% in
//! about one run in ten with identical work; the median pair does not.

use std::time::{Duration, Instant};

use ml4db_core::obs;
use ml4db_core::optimizer::{evaluate, Env};
use ml4db_core::prelude::*;

#[test]
fn noop_sink_overhead_on_evaluate_is_within_five_percent() {
    let db = demo_database(400, 81);
    let queries = demo_workload(&db, 700, 82);

    // One measured evaluation pass: a fresh Env each time so both modes
    // pay identical (cold-cache) work.
    let run_once = |mode: obs::Mode| -> Duration {
        let _g = obs::ModeGuard::new(mode);
        let env = Env::new(&db);
        let start = Instant::now();
        let report = evaluate(&env, &queries, |env, q| env.expert_plan(q));
        let elapsed = start.elapsed();
        assert!(report.relative_total.is_finite());
        elapsed
    };

    // Warm-up: fault in code paths and let the pool spin up.
    run_once(obs::Mode::Disabled);
    run_once(obs::Mode::Noop);

    // Prove the instrumented sites fire under the no-op sink before
    // timing anything — an un-instrumented hot path would trivially
    // "pass" the overhead budget.
    obs::reset();
    run_once(obs::Mode::Noop);
    let fired = obs::noop_events();
    assert!(
        fired as usize >= queries.len() * 4,
        "expected at least a few events per query, saw {fired}"
    );

    let budget = |disabled: Duration| disabled.mul_f64(1.05) + Duration::from_micros(500);
    let rounds = 31;
    let mut pairs: Vec<(Duration, Duration)> = (0..rounds)
        .map(|round| {
            if round % 2 == 0 {
                let disabled = run_once(obs::Mode::Disabled);
                (disabled, run_once(obs::Mode::Noop))
            } else {
                let noop = run_once(obs::Mode::Noop);
                (run_once(obs::Mode::Disabled), noop)
            }
        })
        .collect();
    // Order pairs by how far noop sits above its pair's budget.
    pairs.sort_by(|a, b| {
        let over = |&(d, n): &(Duration, Duration)| n.as_secs_f64() - budget(d).as_secs_f64();
        over(a).total_cmp(&over(b))
    });
    let (disabled, noop) = pairs[rounds / 2];
    assert!(
        noop <= budget(disabled),
        "instrumentation overhead over budget in the median pair: disabled={disabled:?} \
         noop={noop:?} budget={:?}",
        budget(disabled)
    );
}
