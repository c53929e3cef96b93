//! Per-layer ratios derived from the program's own `muse_obs` counters and
//! timers, shared by the workloads that run the wizard.

use muse_obs::{Json, Snapshot, TimerStat};

use crate::stats::ratio;

/// Rebuild a [`Snapshot`] from its JSON form (`GET /metrics` -> `metrics`).
pub fn snapshot_from_json(j: &Json) -> Snapshot {
    let mut snap = Snapshot::default();
    let entries = |key: &str| match j.get(key) {
        Some(Json::Obj(fields)) => fields.clone(),
        _ => Vec::new(),
    };
    for (k, v) in entries("counters") {
        snap.counters.insert(k, v.as_int().unwrap_or(0) as u64);
    }
    for (k, v) in entries("timers") {
        let field = |f: &str| v.get(f).and_then(Json::as_int).unwrap_or(0) as u64;
        snap.timers.insert(
            k,
            TimerStat {
                count: field("count"),
                nanos: field("nanos"),
            },
        );
    }
    snap
}

/// Wall-clock budgets that leaked into a run: example searches cut short
/// and query evaluations stopped by a deadline. Must be zero.
pub fn timeouts(snap: &Snapshot) -> u64 {
    snap.counter("wizard.real_search_timeouts") + snap.counter("query.timeouts")
}

/// The wizard, query, chase and isomorphism ratios, per `questions`
/// questions the designer saw; and the exact work counts.
pub fn wizard_layers(snap: &Snapshot, questions: f64) -> Vec<(&'static str, f64)> {
    let c = |k: &str| snap.counter(k) as f64;
    let ms = |k: &str| snap.timer(k).nanos as f64 / 1e6;
    let examples = c("wizard.real_examples") + c("wizard.synthetic_examples");
    let delta_lookups = c("chase.delta_hits") + c("chase.delta_misses");
    vec![
        (
            "wizard.example_ms",
            ratio(ms("wizard.example_time"), examples),
        ),
        (
            "wizard.real_example_ratio",
            ratio(c("wizard.real_examples"), examples),
        ),
        (
            "query.steps_per_question",
            ratio(c("query.steps"), questions),
        ),
        (
            "query.eval_ms",
            ratio(ms("query.eval_time"), c("query.evals")),
        ),
        (
            "query.index_hit_ratio",
            ratio(
                c("query.index_hits"),
                c("query.index_hits") + c("query.index_misses"),
            ),
        ),
        (
            "chase.steps_per_question",
            ratio(c("chase.steps"), questions),
        ),
        (
            "chase.delta.hit_ratio",
            ratio(c("chase.delta_hits"), delta_lookups),
        ),
        (
            "chase.delta.rederived_per_question",
            ratio(c("chase.rederived"), questions),
        ),
        (
            "chase.delta.fallback_ratio",
            ratio(
                c("chase.delta_fallbacks"),
                delta_lookups + c("chase.delta_fallbacks"),
            ),
        ),
        (
            "iso.ms_per_check",
            ratio(ms("iso.search_time"), c("iso.checks")),
        ),
        (
            "iso.fingerprint_reject_ratio",
            ratio(c("iso.fingerprint_reject"), c("iso.checks")),
        ),
    ]
}

/// The exact work counts a later change can name, printed and reported.
/// `cache_misses_key` is where this run's probe cache counts its misses.
pub fn work_counts(snap: &Snapshot, cache_misses_key: &str) -> Vec<(&'static str, f64)> {
    let counts = [
        ("work.query.steps", snap.counter("query.steps")),
        ("work.chase.steps", snap.counter("chase.steps")),
        ("work.chase.rederived", snap.counter("chase.rederived")),
        ("work.wizard.questions", snap.counter("wizard.questions")),
        ("work.wizard.cache_misses", snap.counter(cache_misses_key)),
    ];
    println!(
        "work counts: {}",
        counts
            .iter()
            .map(|(k, v)| format!("{} {v}", &k[5..]))
            .collect::<Vec<_>>()
            .join(", ")
    );
    counts.into_iter().map(|(k, v)| (k, v as f64)).collect()
}
