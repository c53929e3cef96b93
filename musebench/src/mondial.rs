//! `design-mondial`: full offline wizard passes on Mondial at the paper's
//! scale (Fig. 5 of the paper), strategies G1, G2, G3 in turn.
//!
//! One pass is one `Session::run`: Muse-D on the ambiguous mappings, then
//! Muse-G on every nested set, answered by the strategy oracle. Each pass
//! gets a fresh `DeltaStore`, the real-example search is uncapped, and no
//! `ProbeCache` is attached, so the work of a pass is a function of the
//! seed alone.

use std::time::Instant;

use muse_chase::DeltaStore;
use muse_cliogen::GroupingStrategy;
use muse_mapping::{Grouping, Mapping};
use muse_nr::Instance;
use muse_obs::{Json, Metrics};
use muse_scenarios::Scenario;
use muse_serve::proto::report_stable_json;
use muse_wizard::{Designer, MuseD, MuseG, Session, SessionReport, Step, WizardError};

use crate::designer::{strategy_oracle, Recording};
use crate::layers::{timeouts, wizard_layers, work_counts};
use crate::stats::{median, peak_rss_mb, profile, ratio, tail};
use crate::trace::Tracer;
use crate::{setup_samples, Args, Outcome};

/// Instance scale relative to Mondial's default: the paper's size.
pub const SCALE: f64 = 1.0;
const STRATEGIES: [GroupingStrategy; 3] = [
    GroupingStrategy::G1,
    GroupingStrategy::G2,
    GroupingStrategy::G3,
];
/// Seconds one G1-G2-G3 cycle (682 questions) takes on the reference box.
const CYCLE_S: f64 = 5.0;
/// The tail percentile reported. p99 (27 samples beyond in a 20 s run)
/// falls among the few questions per pass that search the instance
/// hardest, and moved by 25% from seed to seed; p95 (136 beyond) lies
/// where the waits are dense.
const TAIL_P: f64 = 95.0;
/// Threads that check the passes against their references once the
/// measured passes are over.
const CHECK_THREADS: usize = 2;

/// The instance-independent part of the context.
struct Ctx {
    scenario: Scenario,
    mappings: Vec<Mapping>,
}

/// The `k`-th Mondial instance of a run.
fn instance(s: &Scenario, seed: u64, k: u64) -> Instance {
    s.instance(s.default_scale * SCALE, crate::sub_seed(seed, k))
}

/// One cold context build, in a fresh process: the `sample`-th instance,
/// the mappings, and the instance's static chase-step bound (ms each).
pub fn setup_sample(seed: u64, sample: u64) -> Json {
    let scenario = muse_scenarios::mondial::scenario();
    let t = Instant::now();
    let inst = instance(&scenario, seed, sample);
    let instance_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let mappings = scenario.mappings().expect("Mondial mappings generate");
    let mappings_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let sizes = muse_lint::termination::path_sizes(&scenario.source_schema, &inst);
    std::hint::black_box(muse_lint::termination::chase_step_bound(
        &scenario.source_schema,
        &scenario.source_constraints,
        &mappings,
        &sizes,
    ));
    let bound_ms = t.elapsed().as_secs_f64() * 1e3;
    Json::obj(vec![
        ("instance_ms", Json::Num(instance_ms)),
        ("mappings_ms", Json::Num(mappings_ms)),
        ("bound_ms", Json::Num(bound_ms)),
    ])
}

struct Pass {
    report: SessionReport,
    waits: Vec<f64>,
    answers: Vec<muse_wizard::Answer>,
    secs: f64,
}

fn session<'a>(ctx: &'a Ctx, inst: &'a Instance, metrics: &'a Metrics) -> Session<'a> {
    let s = &ctx.scenario;
    Session::new(&s.source_schema, &s.target_schema, &s.source_constraints)
        .with_instance(inst)
        .with_metrics(metrics)
        .with_real_example_budget(None)
}

/// One pass through `Session::run`, or, traced, through the same Muse-D
/// then Muse-G calls made one by one inside spans.
fn pass(
    ctx: &Ctx,
    inst: &Instance,
    strategy: GroupingStrategy,
    metrics: &Metrics,
    tracer: Option<&Tracer>,
) -> Pass {
    let store = DeltaStore::new();
    let mut oracle = strategy_oracle(&ctx.scenario, &ctx.mappings, strategy);
    let mut rec = Recording::new(&mut oracle, tracer);
    let t = Instant::now();
    let report = match tracer {
        None => session(ctx, inst, metrics)
            .with_delta(&store)
            .run(&ctx.mappings, &mut rec),
        Some(tr) => tr.op("pass", || {
            traced_run(ctx, inst, metrics, &store, tr, &mut rec)
        }),
    }
    .unwrap_or_else(|e| panic!("Mondial {strategy:?} pass failed: {e}"));
    let secs = t.elapsed().as_secs_f64();
    Pass {
        report,
        waits: rec.waits,
        answers: rec.answers,
        secs,
    }
}

/// `Session::run` without join options, spelled out so each wizard call
/// gets its own span.
fn traced_run(
    ctx: &Ctx,
    inst: &Instance,
    metrics: &Metrics,
    store: &DeltaStore,
    tr: &Tracer,
    designer: &mut dyn Designer,
) -> Result<SessionReport, WizardError> {
    let s = &ctx.scenario;
    let hints =
        muse_query::SelectivityHints::from_constraints(&s.source_schema, &s.source_constraints);
    let mut mused = MuseD::new(&s.source_schema, &s.target_schema, &s.source_constraints)
        .with_instance(inst)
        .with_metrics(metrics)
        .with_plan_hints(&hints);
    mused.real_example_budget = None;
    mused.delta = Some(store);
    let mut museg = MuseG::new(&s.source_schema, &s.target_schema, &s.source_constraints)
        .with_instance(inst)
        .with_metrics(metrics)
        .with_plan_hints(&hints)
        .with_delta(store);
    museg.real_example_budget = None;

    let mut unambiguous: Vec<Mapping> = Vec::new();
    let mut disambiguations = Vec::new();
    for m in &ctx.mappings {
        if m.is_ambiguous() {
            let out = tr.span("wizard.mused", || mused.disambiguate(m, designer))?;
            unambiguous.extend(out.selected.iter().cloned());
            disambiguations.push(out);
        } else {
            unambiguous.push(m.clone());
        }
    }
    let mut groupings = Vec::new();
    for m in &mut unambiguous {
        let filled = m.filled_target_sets(&s.target_schema)?;
        for sk in s.target_schema.set_paths_bfs() {
            if !filled.contains(&sk) {
                continue;
            }
            let o = tr.span("wizard.museg", || museg.design_grouping(m, &sk, designer))?;
            m.set_grouping(sk.clone(), Grouping::new(o.grouping.clone()));
            groupings.push((m.name.clone(), o));
        }
    }
    let mut warnings = Vec::new();
    for d in &disambiguations {
        warnings.extend(d.warnings.iter().cloned());
    }
    for (_, g) in &groupings {
        warnings.extend(g.warnings.iter().cloned());
    }
    Ok(SessionReport {
        mappings: unambiguous,
        disambiguations,
        groupings,
        join_questions: 0,
        companions_added: 0,
        warnings,
    })
}

/// The offline reference for one strategy: `Session::step` replaying the
/// recorded answers with scratch chases (no `DeltaStore`).
fn reference(ctx: &Ctx, inst: &Instance, answers: &[muse_wizard::Answer]) -> String {
    match session(ctx, inst, Metrics::disabled_ref()).step(&ctx.mappings, answers) {
        Ok(Step::Done(report)) => report_stable_json(&report).render(),
        Ok(Step::Ask { seq, .. }) => format!("reference still asks question {seq}"),
        Err(e) => format!("reference failed: {e}"),
    }
}

/// A measured pass whose report still awaits its offline reference.
struct Unchecked {
    label: String,
    instance: u64,
    report: String,
    answers: Vec<muse_wizard::Answer>,
}

/// The passes of one run: waits, busy time, and the first cycle's reports.
#[derive(Default)]
struct Passes {
    waits: Vec<f64>,
    busy: f64,
    failures: Vec<String>,
    /// Stable report of each strategy's pass in the first cycle.
    first: Vec<String>,
    unchecked: Vec<Unchecked>,
}

impl Passes {
    /// One G1, G2, G3 cycle; pass `i` of cycle `c` runs on instance
    /// `3c + i`. Each report must equal its offline reference (untraced,
    /// checked by [`check`] after the run) or the first cycle's report on
    /// the same instance (traced).
    fn cycle(
        &mut self,
        ctx: &Ctx,
        seed: u64,
        c: usize,
        metrics: &Metrics,
        tracer: Option<&Tracer>,
    ) {
        for (i, strategy) in STRATEGIES.into_iter().enumerate() {
            let k = (3 * c + i) as u64;
            let inst = instance(&ctx.scenario, seed, k);
            let p = pass(ctx, &inst, strategy, metrics, tracer);
            self.busy += p.secs;
            self.waits.extend(p.waits.iter().map(|w| w * 1e3));
            if p.report.truncated()
                || p.report
                    .groupings
                    .iter()
                    .any(|(_, g)| g.real_search_timeouts > 0)
            {
                self.failures.push(format!(
                    "cycle {c}, {strategy:?}: truncated or timed-out example search"
                ));
            }
            let json = report_stable_json(&p.report).render();
            if tracer.is_some() {
                if json != self.first[i] {
                    self.failures.push(format!(
                        "traced {strategy:?}: report differs from the untraced one"
                    ));
                }
                continue;
            }
            if c == 0 {
                self.first.push(json.clone());
            }
            self.unchecked.push(Unchecked {
                label: format!("cycle {c}, {strategy:?}"),
                instance: k,
                report: json,
                answers: p.answers,
            });
        }
    }
}

/// Check every measured pass against its offline reference, on
/// `CHECK_THREADS` threads (the measurement is over); returns the failures.
fn check(ctx: &Ctx, seed: u64, unchecked: &[Unchecked]) -> Vec<String> {
    let chunk = unchecked.len().div_ceil(CHECK_THREADS).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = unchecked
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .filter(|u| {
                            let inst = instance(&ctx.scenario, seed, u.instance);
                            reference(ctx, &inst, &u.answers) != u.report
                        })
                        .map(|u| format!("{}: report differs from its reference", u.label))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference check thread"))
            .collect()
    })
}

pub fn run(args: &Args) -> Outcome {
    let samples = setup_samples(args);
    let part = |k: &str| -> Vec<f64> {
        samples
            .iter()
            .map(|s| s.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN))
            .collect()
    };
    let (instance_ms, mappings_ms, bound_ms) =
        (part("instance_ms"), part("mappings_ms"), part("bound_ms"));
    let kernel_ms = part("kernel_ms");
    let setup_s = crate::calib::setup_s(
        &(0..samples.len())
            .map(|i| {
                let s = (instance_ms[i] + mappings_ms[i] + bound_ms[i]) / 1e3;
                (s, kernel_ms[i])
            })
            .collect::<Vec<_>>(),
    );

    let scenario = muse_scenarios::mondial::scenario();
    let mappings = scenario.mappings().expect("Mondial mappings generate");
    let ctx = Ctx { scenario, mappings };
    let metrics = if args.trace {
        Metrics::enabled()
    } else {
        Metrics::disabled()
    };
    let tracer = Tracer::new();

    // Whole G1-G2-G3 cycles, each pass on a fresh instance. A traced run
    // then repeats the first cycle traced: its work counts repeat exactly,
    // and its waits against the untraced ones give the tracing overhead.
    let cycles = crate::work_units(args.seconds, CYCLE_S);
    let mut passes = Passes::default();
    for c in 0..cycles {
        passes.cycle(&ctx, args.seed, c, &metrics, None);
    }
    let untraced_waits = passes.waits.len();
    let peak_rss = peak_rss_mb(None);
    if args.trace {
        metrics.reset();
        passes.cycle(&ctx, args.seed, 0, &metrics, Some(&tracer));
    }
    let (waits, traced_waits) = passes.waits.split_at(untraced_waits);
    let mut failures = passes.failures;
    failures.extend(check(&ctx, args.seed, &passes.unchecked));
    for f in &failures {
        eprintln!("design-mondial: FAILED {f}");
    }

    let t = tail(waits, TAIL_P);
    println!(
        "design-mondial: scale {SCALE}, seed {}: {} questions over {cycles} G1-G2-G3 cycles ({} instances) in {:.2}s; tail p{} with {} samples beyond",
        args.seed,
        waits.len(),
        3 * cycles,
        passes.busy,
        t.percentile,
        t.beyond
    );
    println!("question waits (ms), {}", profile(waits));
    let mut m: Vec<(&'static str, f64)> = vec![
        ("wait_p50_ms", median(waits)),
        ("wait_tail_ms", t.value),
        ("throughput_per_s", waits.len() as f64 / passes.busy),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss),
    ];
    crate::calib::scale_by_run(&mut m);
    if args.trace {
        let snap = metrics.snapshot();
        let b = tracer.breakdown("pass");
        println!(
            "{}",
            b.render(
                "one Mondial wizard pass (Session::run, spelled out)",
                "pass"
            )
        );
        if timeouts(&snap) > 0 {
            eprintln!("design-mondial: FAILED wall-clock timeouts leaked into the example search");
            failures.push("timeouts".into());
        }
        let traced_p50 = median(traced_waits);
        m.extend(wizard_layers(&snap, traced_waits.len() as f64));
        m.extend(work_counts(&snap, "wizard.cache_misses"));
        m.extend([
            ("wizard.question_ms", traced_p50),
            (
                "wizard.museg.ms_per_grouping",
                ratio(b.self_ms("wizard.museg"), b.spans("wizard.museg") as f64),
            ),
            (
                "wizard.mused.ms_per_mapping",
                ratio(b.self_ms("wizard.mused"), b.spans("wizard.mused") as f64),
            ),
            ("setup.instance_ms", median(&instance_ms)),
            ("setup.mappings_ms", median(&mappings_ms)),
            ("setup.bound_ms", median(&bound_ms)),
            (
                "trace.overhead_pct",
                100.0 * (traced_p50 - median(waits)) / median(waits),
            ),
            ("trace.unattributed_pct", b.unattributed_pct("pass")),
        ]);
    }
    Outcome {
        correct: failures.is_empty(),
        attempted: passes.waits.len() as u64,
        failed: failures.len() as u64,
        metrics: m,
    }
}
