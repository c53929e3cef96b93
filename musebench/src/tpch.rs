//! `exchange-tpch`: the data-exchange chase of a generated TPC-H instance
//! with every chase-ready mapping, repeated. Serial `muse_chase::chase`,
//! the default path: one large scratch chase per operation.

use std::time::Instant;

use muse_chase::{chase, chase_with, fingerprint};
use muse_mapping::ambiguity::{or_groups, select};
use muse_mapping::Mapping;
use muse_nr::Instance;
use muse_obs::{Json, Metrics};
use muse_scenarios::Scenario;

use crate::layers::{timeouts, work_counts};
use crate::stats::{median, peak_rss_mb, profile, ratio, tail};
use crate::trace::Tracer;
use crate::{setup_samples, Args, Outcome};

/// Instance scale relative to TPC-H's default.
pub const SCALE: f64 = 0.02;
/// Instances per run, generated from sub-seeds of the workload seed.
/// Exchanges rotate through them, so one run averages over several input
/// draws instead of riding on one.
const INSTANCES: u64 = 48;
/// Seconds one exchange and its check take on the reference box.
const EXCHANGE_S: f64 = 0.1;
/// The tail percentile this workload is sized for (four rounds, 192
/// exchanges, in a 20 s run).
const TAIL_P: f64 = 90.0;
/// Exchanges in the traced phase: a fixed count, so work counts repeat.
const TRACED_EXCHANGES: usize = 8;

/// Every mapping with its ambiguity resolved to the first interpretation
/// and missing groupings defaulted, so the chase accepts it as-is.
fn chase_ready_mappings(s: &Scenario) -> Vec<Mapping> {
    let mut ms = s.mappings().expect("TPC-H mappings generate");
    for m in &mut ms {
        if m.is_ambiguous() {
            *m = select(m, &vec![0usize; or_groups(m).len()]).expect("first interpretation");
        }
        m.ensure_default_groupings(&s.target_schema, &s.source_schema)
            .expect("default groupings");
    }
    ms
}

/// Build mappings and instances, timing both (ms).
fn build(seed: u64) -> (Scenario, Vec<Mapping>, Vec<Instance>, [f64; 2]) {
    let s = muse_scenarios::tpch::scenario();
    let t = Instant::now();
    let ms = chase_ready_mappings(&s);
    let mappings_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let insts = (0..INSTANCES)
        .map(|i| s.instance(s.default_scale * SCALE, crate::sub_seed(seed, i)))
        .collect();
    let instance_ms = t.elapsed().as_secs_f64() * 1e3;
    (s, ms, insts, [mappings_ms, instance_ms])
}

pub fn setup_sample(seed: u64) -> Json {
    let (_, _, _, [mappings_ms, instance_ms]) = build(seed);
    Json::obj(vec![
        ("mappings_ms", Json::Num(mappings_ms)),
        ("instance_ms", Json::Num(instance_ms)),
    ])
}

pub fn run(args: &Args) -> Outcome {
    let samples = setup_samples(args);
    let part = |k: &str| -> Vec<f64> {
        samples
            .iter()
            .map(|s| s.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN))
            .collect()
    };
    let (mappings_ms, instance_ms) = (part("mappings_ms"), part("instance_ms"));
    let kernel_ms = part("kernel_ms");
    let setup_s = crate::calib::setup_s(
        &(0..samples.len())
            .map(|i| ((mappings_ms[i] + instance_ms[i]) / 1e3, kernel_ms[i]))
            .collect::<Vec<_>>(),
    );

    let (s, ms, insts, _) = build(args.seed);
    let (src, tgt) = (&s.source_schema, &s.target_schema);

    // Reference per instance: the plan-driven chase (key-aware join order,
    // composite probes) must produce the same target as the serial default
    // path, on every exchange.
    let hints = muse_query::SelectivityHints::from_constraints(src, &s.source_constraints);
    let expect: Vec<(u64, usize)> = insts
        .iter()
        .map(|inst| {
            let r = muse_chase::chase_budget_planned_with(
                src,
                tgt,
                inst,
                &ms,
                Some(&hints),
                muse_obs::Budget::unlimited_ref(),
                Metrics::disabled_ref(),
            )
            .expect("reference chase")
            .into_value();
            (fingerprint(&r), r.total_tuples())
        })
        .collect();

    let mut failed = 0u64;
    let mut check = |i: usize, out: &Instance| {
        if (fingerprint(out), out.total_tuples()) != expect[i] {
            failed += 1;
        }
    };
    let mut times = Vec::new();
    let mut probes = Vec::new();
    let mut tuples = 0usize;
    let rounds = crate::work_units(args.seconds, EXCHANGE_S * insts.len() as f64);
    for i in (0..insts.len()).cycle().take(rounds * insts.len()) {
        let t = Instant::now();
        let out = chase(src, tgt, &insts[i], &ms).expect("chase");
        times.push(t.elapsed().as_secs_f64() * 1e3);
        tuples += out.total_tuples();
        check(i, &out);
        probes.push(crate::calib::probe());
    }
    // Speed bursts here last a few exchanges (runs of 80 ms exchanges among
    // 52 ms ones), long enough to decide the tail of a run if one factor
    // scaled the whole run: the p90 then spread by 0.25 over ten seeds,
    // against 0.07 with each exchange scaled by the probes around it.
    let scaled = crate::calib::scale_each(&times, &probes);
    let busy: f64 = scaled.iter().sum::<f64>() / 1e3;
    let t = tail(&scaled, TAIL_P);
    let source: usize = insts.iter().map(Instance::total_tuples).sum();
    let target: usize = expect.iter().map(|e| e.1).sum();
    println!(
        "exchange-tpch: scale {SCALE}, seed {}, {INSTANCES} instances: {source} source -> {target} target tuples in all, {} exchanges in {busy:.2}s at reference speed; tail p{} with {} samples beyond",
        args.seed,
        times.len(),
        t.percentile,
        t.beyond
    );
    println!("exchange times (ms), raw, {}", profile(&times));
    println!(
        "exchange times (ms), at reference speed, {}",
        profile(&scaled)
    );
    println!("kernel times (ms), {}", profile(&probes));
    let mut m: Vec<(&'static str, f64)> = vec![
        ("wait_p50_ms", median(&scaled)),
        ("wait_tail_ms", t.value),
        ("throughput_per_s", tuples as f64 / busy),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb(None)),
    ];
    let mut attempted = times.len() as u64;

    if args.trace {
        let metrics = Metrics::enabled();
        let tracer = Tracer::new();
        let mut chase_ms = Vec::new();
        let mut fire_ms = 0.0;
        let mut rows = 0usize;
        let mut bytes_per_tuple = 0.0;
        let mut target_tuples = 0usize;
        for i in (0..insts.len()).cycle().take(TRACED_EXCHANGES) {
            let inst = &insts[i];
            let before = metrics.snapshot().timer("query.eval_time").nanos;
            let out = tracer.op("exchange", || {
                for mapping in &ms {
                    let q = mapping.source_query();
                    rows += tracer.span("query", || {
                        muse_query::evaluate_all(src, inst, &q)
                            .expect("evaluate")
                            .len()
                    });
                }
                let t = Instant::now();
                let out = tracer.span("chase", || {
                    chase_with(src, tgt, inst, &ms, &metrics).expect("chase")
                });
                chase_ms.push(t.elapsed().as_secs_f64() * 1e3);
                out
            });
            let query_in_chase =
                (metrics.snapshot().timer("query.eval_time").nanos - before) as f64 / 1e6;
            fire_ms += chase_ms.last().copied().unwrap_or(0.0) - query_in_chase;
            bytes_per_tuple = ratio(out.approx_bytes() as f64, out.total_tuples() as f64);
            target_tuples += out.total_tuples();
            check(i, &out);
        }
        attempted += TRACED_EXCHANGES as u64;
        let b = tracer.breakdown("exchange");
        println!(
            "{}",
            b.render(
                "one TPC-H exchange (per-mapping query evaluation, then the chase)",
                "exchange"
            )
        );
        let snap = metrics.snapshot();
        let c = |k: &str| snap.counter(k) as f64;
        let n = TRACED_EXCHANGES as f64;
        if timeouts(&snap) > 0 {
            eprintln!("exchange-tpch: FAILED wall-clock timeouts leaked into query evaluation");
            failed += 1;
        }
        let traced_p50 = median(&chase_ms);
        m.extend(work_counts(&snap, "wizard.cache_misses"));
        m.extend([
            (
                "query.eval_ms",
                ratio(
                    snap.timer("query.eval_time").nanos as f64 / 1e6,
                    c("query.evals"),
                ),
            ),
            (
                "query.index_hit_ratio",
                ratio(
                    c("query.index_hits"),
                    c("query.index_hits") + c("query.index_misses"),
                ),
            ),
            (
                "query.ms_per_mapping",
                ratio(b.self_ms("query"), b.spans("query") as f64),
            ),
            (
                "query.rows_per_mapping",
                ratio(rows as f64, b.spans("query") as f64),
            ),
            ("chase.fire_ms_per_exchange", fire_ms / n),
            (
                "chase.us_per_binding",
                ratio(fire_ms * 1e3, c("chase.bindings")),
            ),
            (
                "chase.dedup_ratio",
                ratio(c("chase.dedup_hits"), c("chase.tuples_emitted")),
            ),
            ("nr.target_tuples_per_exchange", target_tuples as f64 / n),
            ("nr.bytes_per_target_tuple", bytes_per_tuple),
            ("setup.instance_ms", median(&instance_ms)),
            ("setup.mappings_ms", median(&mappings_ms)),
            (
                "trace.overhead_pct",
                100.0 * (traced_p50 - median(&times)) / median(&times),
            ),
            ("trace.unattributed_pct", b.unattributed_pct("exchange")),
        ]);
    }
    if failed > 0 {
        eprintln!("exchange-tpch: FAILED {failed} exchange(s) differ from the reference");
    }
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
    }
}
