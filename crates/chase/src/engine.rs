//! The chase proper: evaluate each mapping's `for` clause, instantiate its
//! `exists` clause, group nested sets through their Skolem functions, and
//! union the results (set semantics).
//!
//! Instrumentation (all behind [`Metrics`], zero-cost when disabled):
//!
//! * `chase.mappings` — mappings chased,
//! * `chase.bindings` — source bindings enumerated across mappings,
//! * `chase.steps` — chase steps attempted (one per enumerated binding;
//!   the observable the static bound of `muse-lint`'s termination pass
//!   caps from above),
//! * `chase.tuples_emitted` — tuples actually added to the target,
//! * `chase.dedup_hits` — tuple insertions the target union deduplicated,
//! * `chase.time` — wall-clock spans per chased mapping (serial path),
//! * `chase.par_time` — wall-clock spans per parallel chase call,
//! * `chase.par_fallbacks` — parallel calls that degraded to the serial
//!   path (a worker panicked or the budget tripped mid-flight),
//! * `budget.*` — truncations recorded when a governed chase stops early
//!   (see [`muse_obs::budget`]).
//!
//! # Parallel chase
//!
//! [`chase_par`] partitions the work of one chase call across a scoped
//! worker pool ([`muse_par::scope_map`]) and still produces *exactly* the
//! serial result — same SetIDs, same labeled nulls, same rendering:
//!
//! 1. every mapping is prepared (classes, plans, slots) and its source
//!    bindings enumerated, in parallel across mappings;
//! 2. each mapping's bindings are cut into contiguous chunks, forming a
//!    mapping-major list of *units* that concatenates back to the serial
//!    firing order;
//! 3. each unit fires into its own private [`Instance`] with its own
//!    [`muse_nr::TermStore`] — per-worker SetID/null allocation ranges, so
//!    workers never share a lock or an id counter;
//! 4. the partial instances are merged serially *in unit order*,
//!    re-interning each partial store's terms in ascending local-id order.
//!
//! Step 4 is what makes the result byte-identical to the serial chase: a
//! partial store's local-id order is its first-use order, and unit order is
//! serial binding order, so re-interning walks terms in exactly the order
//! the serial chase first created them.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use muse_mapping::{Mapping, PathRef, WhereClause};
use muse_nr::{Instance, NullId, Schema, SetId, SetPath, SkolemArgs, Tuple, Value};
use muse_obs::{faultpoints, Budget, Counter, Metrics, Outcome, TruncationReason};
use muse_par::{chunks, try_scope_map};
use muse_query::{evaluate_all_planned_with, plan_query, Binding, EvalPlan, SelectivityHints};

use crate::error::ChaseError;

/// Translate a non-panic injected fault into the budget-truncation path
/// the site would take organically.
fn fault_reason(f: muse_fault::Fault) -> TruncationReason {
    match f {
        muse_fault::Fault::DeadlineExpiry => TruncationReason::DeadlineExpired,
        muse_fault::Fault::TermCapExhaustion => TruncationReason::TermLimit,
        // The chase owns no storage; an io fault (only legal at serve.wal
        // points, which never reach here) degrades like a deadline.
        muse_fault::Fault::IoError => TruncationReason::DeadlineExpired,
    }
}

/// Interned terms (SetIDs + labeled nulls) in `target`, the quantity the
/// budget's `max_terms` axis caps.
pub(crate) fn term_count(target: &Instance) -> u64 {
    (target.store().set_count() + target.store().null_count()) as u64
}

/// Chase `source` with all of `mappings`, producing the canonical universal
/// solution. Mappings must be unambiguous, validated and carry grouping
/// functions for every nested target set they fill.
///
/// ```
/// use muse_nr::{text::parse_schema, InstanceBuilder, Value};
///
/// let (src, _) = parse_schema("schema S\n A: set of { x: string }").unwrap();
/// let (tgt, _) = parse_schema("schema T\n B: set of { y: string }").unwrap();
/// let m = muse_mapping::parse_one("m: for a in S.A exists b in T.B where a.x = b.y").unwrap();
/// let mut builder = InstanceBuilder::new(&src);
/// builder.push_top("A", vec![Value::str("hello")]);
/// let source = builder.finish().unwrap();
///
/// let solution = muse_chase::chase(&src, &tgt, &source, &[m]).unwrap();
/// assert_eq!(solution.total_tuples(), 1);
/// ```
pub fn chase(
    source_schema: &Schema,
    target_schema: &Schema,
    source: &Instance,
    mappings: &[Mapping],
) -> Result<Instance, ChaseError> {
    chase_with(
        source_schema,
        target_schema,
        source,
        mappings,
        &Metrics::disabled(),
    )
}

/// Like [`chase`], reporting counters and timings through `metrics` (see the
/// module docs for the emitted keys). Runs under the unlimited budget, so it
/// only truncates when a fault plan injects a fault — in which case the
/// (valid) partial result is returned as-is.
pub fn chase_with(
    source_schema: &Schema,
    target_schema: &Schema,
    source: &Instance,
    mappings: &[Mapping],
    metrics: &Metrics,
) -> Result<Instance, ChaseError> {
    chase_budget_with(
        source_schema,
        target_schema,
        source,
        mappings,
        Budget::unlimited_ref(),
        metrics,
    )
    .map(Outcome::into_value)
}

/// The governed chase: like [`chase_with`] but bounded by `budget` — the
/// wall-clock deadline and chase-step cap are checked in the binding loop,
/// the interned-term cap after every firing, and the query evaluations
/// enumerate bindings under the same budget. On exhaustion the chase stops
/// cleanly and returns the target built so far as
/// [`Outcome::Truncated`] — always a valid (validating) instance, just an
/// incomplete one. Truncations are recorded under `budget.*`.
pub fn chase_budget_with(
    source_schema: &Schema,
    target_schema: &Schema,
    source: &Instance,
    mappings: &[Mapping],
    budget: &Budget,
    metrics: &Metrics,
) -> Result<Outcome<Instance>, ChaseError> {
    chase_budget_planned_with(
        source_schema,
        target_schema,
        source,
        mappings,
        None,
        budget,
        metrics,
    )
}

/// Plan-driven [`chase_budget_with`]: when `hints` is given, every
/// mapping's `for`-clause enumeration runs under a static
/// [`EvalPlan`] derived from the source constraints (key-aware join order
/// and composite hash probes — identical bindings, identical target, far
/// fewer `query.steps`; see [`muse_query::plan`]).
pub fn chase_budget_planned_with(
    source_schema: &Schema,
    target_schema: &Schema,
    source: &Instance,
    mappings: &[Mapping],
    hints: Option<&SelectivityHints>,
    budget: &Budget,
    metrics: &Metrics,
) -> Result<Outcome<Instance>, ChaseError> {
    let mut target = Instance::new(target_schema);
    let timer = metrics.timer("chase.time");
    let mut steps: u64 = 0;
    for m in mappings {
        let _span = timer.start();
        if let Some(reason) = chase_into(
            source_schema,
            target_schema,
            source,
            m,
            hints,
            &mut target,
            &mut steps,
            budget,
            metrics,
        )? {
            return Ok(Outcome::Truncated {
                partial: target,
                reason,
            });
        }
    }
    Ok(Outcome::Complete(target))
}

/// Chase with a single mapping.
pub fn chase_one(
    source_schema: &Schema,
    target_schema: &Schema,
    source: &Instance,
    mapping: &Mapping,
) -> Result<Instance, ChaseError> {
    chase(
        source_schema,
        target_schema,
        source,
        std::slice::from_ref(mapping),
    )
}

/// Chase with a single mapping, reporting through `metrics`.
pub fn chase_one_with(
    source_schema: &Schema,
    target_schema: &Schema,
    source: &Instance,
    mapping: &Mapping,
    metrics: &Metrics,
) -> Result<Instance, ChaseError> {
    chase_with(
        source_schema,
        target_schema,
        source,
        std::slice::from_ref(mapping),
        metrics,
    )
}

/// Governed single-mapping chase (the wizards' probe path).
pub fn chase_one_budget_with(
    source_schema: &Schema,
    target_schema: &Schema,
    source: &Instance,
    mapping: &Mapping,
    budget: &Budget,
    metrics: &Metrics,
) -> Result<Outcome<Instance>, ChaseError> {
    chase_budget_with(
        source_schema,
        target_schema,
        source,
        std::slice::from_ref(mapping),
        budget,
        metrics,
    )
}

/// Plan-driven [`chase_one_budget_with`] (see
/// [`chase_budget_planned_with`]).
pub fn chase_one_budget_planned_with(
    source_schema: &Schema,
    target_schema: &Schema,
    source: &Instance,
    mapping: &Mapping,
    hints: Option<&SelectivityHints>,
    budget: &Budget,
    metrics: &Metrics,
) -> Result<Outcome<Instance>, ChaseError> {
    chase_budget_planned_with(
        source_schema,
        target_schema,
        source,
        std::slice::from_ref(mapping),
        hints,
        budget,
        metrics,
    )
}

/// Like [`chase`], but with the work partitioned across `threads` scoped
/// worker threads. Produces exactly the serial result (see the module docs
/// for the partitioning and merge scheme). `threads <= 1` falls back to the
/// serial [`chase_with`] path.
pub fn chase_par(
    source_schema: &Schema,
    target_schema: &Schema,
    source: &Instance,
    mappings: &[Mapping],
    threads: usize,
) -> Result<Instance, ChaseError> {
    chase_par_with(
        source_schema,
        target_schema,
        source,
        mappings,
        threads,
        &Metrics::disabled(),
    )
}

/// Like [`chase_par`], reporting through `metrics`: the serial-chase keys
/// plus `chase.par_time` and the pool's `par.*` keys. Runs under the
/// unlimited budget; see [`chase_par_budget_with`] for the degradation
/// contract.
pub fn chase_par_with(
    source_schema: &Schema,
    target_schema: &Schema,
    source: &Instance,
    mappings: &[Mapping],
    threads: usize,
    metrics: &Metrics,
) -> Result<Instance, ChaseError> {
    chase_par_budget_with(
        source_schema,
        target_schema,
        source,
        mappings,
        threads,
        Budget::unlimited_ref(),
        metrics,
    )
    .map(Outcome::into_value)
}

/// The governed parallel chase. The fast path runs the 4-phase parallel
/// scheme; if any worker unit *panics* (caught by the pool's isolation
/// wrapper, counted under `par.panics`) or any phase trips the budget, the
/// partial parallel state is discarded and the whole call retries once as
/// the serial [`chase_budget_with`] — so the output, complete or
/// truncated, is always byte-identical to the serial chase's. Fallbacks
/// are counted under `chase.par_fallbacks`.
pub fn chase_par_budget_with(
    source_schema: &Schema,
    target_schema: &Schema,
    source: &Instance,
    mappings: &[Mapping],
    threads: usize,
    budget: &Budget,
    metrics: &Metrics,
) -> Result<Outcome<Instance>, ChaseError> {
    chase_par_budget_planned_with(
        source_schema,
        target_schema,
        source,
        mappings,
        None,
        threads,
        budget,
        metrics,
    )
}

/// Plan-driven [`chase_par_budget_with`] (see
/// [`chase_budget_planned_with`]). The hints only steer phase-1 binding
/// enumeration; the serial fallback chases under the same hints, so the
/// parallel/serial equivalence guarantee is unchanged.
#[allow(clippy::too_many_arguments)]
pub fn chase_par_budget_planned_with(
    source_schema: &Schema,
    target_schema: &Schema,
    source: &Instance,
    mappings: &[Mapping],
    hints: Option<&SelectivityHints>,
    threads: usize,
    budget: &Budget,
    metrics: &Metrics,
) -> Result<Outcome<Instance>, ChaseError> {
    if threads <= 1 {
        return chase_budget_planned_with(
            source_schema,
            target_schema,
            source,
            mappings,
            hints,
            budget,
            metrics,
        );
    }
    let timer = metrics.timer("chase.par_time");
    let _span = timer.start();
    match chase_par_attempt(
        source_schema,
        target_schema,
        source,
        mappings,
        hints,
        threads,
        budget,
        metrics,
    )? {
        Some(target) => Ok(Outcome::Complete(target)),
        None => {
            // A unit panicked or the budget tripped mid-flight: discard the
            // parallel partials and retry once, serially — the serial path
            // truncates deterministically, so the degraded result is exactly
            // what a serial caller would have seen.
            metrics.incr("chase.par_fallbacks");
            chase_budget_planned_with(
                source_schema,
                target_schema,
                source,
                mappings,
                hints,
                budget,
                metrics,
            )
        }
    }
}

/// Resolve the static evaluation plan for one mapping's `for`-clause, if
/// selectivity hints are available. Planning failures are deliberately
/// swallowed (`None` → the evaluator's own greedy order): a plan is an
/// optimization, never a prerequisite.
pub(crate) fn mapping_plan(
    source_schema: &Schema,
    q: &muse_query::Query,
    hints: Option<&SelectivityHints>,
) -> Option<EvalPlan> {
    hints.and_then(|h| plan_query(source_schema, q, Some(h)).ok())
}

/// One parallel attempt. `Ok(None)` means "degrade to serial" (a worker
/// panicked or the budget tripped); typed chase errors propagate.
#[allow(clippy::too_many_arguments)]
fn chase_par_attempt(
    source_schema: &Schema,
    target_schema: &Schema,
    source: &Instance,
    mappings: &[Mapping],
    hints: Option<&SelectivityHints>,
    threads: usize,
    budget: &Budget,
    metrics: &Metrics,
) -> Result<Option<Instance>, ChaseError> {
    // Phase 1: prepare every mapping and enumerate its bindings, in
    // parallel across mappings — each evaluation governed by the budget.
    let prepared = try_scope_map(mappings.len(), threads, metrics, |i| {
        let m = &mappings[i];
        let p = prepare(source_schema, target_schema, m, metrics)?;
        let q = m.source_query();
        let plan = mapping_plan(source_schema, &q, hints);
        let outcome =
            evaluate_all_planned_with(source_schema, source, &q, plan.as_ref(), budget, metrics)?;
        Ok::<_, ChaseError>(outcome.map(|bindings| (p, bindings)))
    });
    let mut preps: Vec<(Prepared<'_>, Vec<Binding>)> = Vec::with_capacity(mappings.len());
    for r in prepared {
        match r {
            Err(_panic) => return Ok(None),
            Ok(Err(e)) => return Err(e),
            Ok(Ok(Outcome::Truncated { .. })) => return Ok(None),
            Ok(Ok(Outcome::Complete((p, bindings)))) => {
                metrics.add("chase.bindings", bindings.len() as u64);
                metrics.add("chase.steps", bindings.len() as u64);
                preps.push((p, bindings));
            }
        }
    }

    // Phase 2: cut each mapping's bindings into contiguous chunks. The
    // mapping-major unit list concatenates back to the serial firing order.
    let mut units: Vec<(usize, Range<usize>)> = Vec::new();
    for (mi, (_, bindings)) in preps.iter().enumerate() {
        for r in chunks(bindings.len(), threads) {
            units.push((mi, r));
        }
    }

    // Phase 3: fire each unit into a private instance with a private term
    // store (disjoint id ranges — no shared locks). Workers record only
    // within-unit dedup hits; emission is counted at merge time so the
    // totals match the serial chase exactly. The step cap is enforced
    // globally via a shared atomic; the term cap can only be measured on
    // the merged store, so it is checked in phase 4.
    let dedup_hits = metrics.counter("chase.dedup_hits");
    let steps = AtomicU64::new(0);
    let partials = try_scope_map(units.len(), threads, metrics, |u| {
        if let Some(f) = muse_fault::point(faultpoints::CHASE_FIRE_UNIT) {
            return Ok(Err(fault_reason(f)));
        }
        let (mi, range) = &units[u];
        let (p, bindings) = &preps[*mi];
        let mut partial = Instance::new(target_schema);
        let emit = Emit {
            emitted: Counter::default(),
            dedup_hits: dedup_hits.clone(),
        };
        let mut fired: u64 = 0;
        for binding in &bindings[range.clone()] {
            let total = steps.fetch_add(1, Ordering::Relaxed) + 1;
            if budget.steps_exhausted(total) {
                return Ok(Err(TruncationReason::ChaseStepLimit));
            }
            fired += 1;
            if fired.is_multiple_of(64) && budget.deadline_expired() {
                return Ok(Err(TruncationReason::DeadlineExpired));
            }
            fire(p, &mut partial, binding, &emit)?;
        }
        Ok::<Result<Instance, TruncationReason>, ChaseError>(Ok(partial))
    });
    let mut fired_units: Vec<Instance> = Vec::with_capacity(units.len());
    for r in partials {
        match r {
            Err(_panic) => return Ok(None),
            Ok(Err(e)) => return Err(e),
            Ok(Ok(Err(_reason))) => return Ok(None),
            Ok(Ok(Ok(partial))) => fired_units.push(partial),
        }
    }

    // Phase 4: serial merge in unit order reproduces the serial interning
    // order, so ids (and renderings) come out identical to `chase`. The
    // term cap and deadline are re-checked per merged unit.
    let mut target = Instance::new(target_schema);
    let emit = Emit {
        emitted: metrics.counter("chase.tuples_emitted"),
        dedup_hits,
    };
    for partial in &fired_units {
        if muse_fault::point(faultpoints::CHASE_MERGE).is_some() {
            return Ok(None);
        }
        merge_into(&mut target, partial, &emit);
        if budget.terms_exhausted(term_count(&target)) || budget.deadline_expired() {
            return Ok(None);
        }
    }
    Ok(Some(target))
}

/// Re-intern one partial instance into `target`. Walking the partial
/// store's ids in ascending order replays its first-use order; called in
/// unit order this reproduces the global serial interning order.
pub(crate) fn merge_into(target: &mut Instance, partial: &Instance, emit: &Emit) {
    let store = partial.store();
    let mut null_map: Vec<NullId> = Vec::with_capacity(store.null_count());
    for nid in store.all_null_ids() {
        let t = store.null_term(nid);
        let args = SkolemArgs::new(remap_values(&t.args, &null_map, &[]));
        null_map.push(target.store_mut().null_id_shared(&t.tag, &args));
    }
    let mut set_map: Vec<SetId> = Vec::with_capacity(store.set_count());
    for sid in store.all_set_ids() {
        let t = store.set_term(sid);
        let args = SkolemArgs::new(remap_values(&t.args, &null_map, &set_map));
        set_map.push(target.group_shared(&t.set, &args));
    }
    for sid in partial.set_ids() {
        let into = set_map[sid.index()];
        for tuple in partial.tuples(sid) {
            emit.record(target.insert(into, remap_values(tuple, &null_map, &set_map)));
        }
    }
}

fn remap_values(vs: &[Value], null_map: &[NullId], set_map: &[SetId]) -> Vec<Value> {
    vs.iter()
        .map(|v| remap_value(v, null_map, set_map))
        .collect()
}

fn remap_value(v: &Value, null_map: &[NullId], set_map: &[SetId]) -> Value {
    match v {
        Value::Atom(_) => v.clone(),
        Value::Null(n) => Value::Null(null_map[n.index()]),
        Value::Set(s) => Value::Set(set_map[s.index()]),
        Value::Choice(l, inner) => {
            Value::Choice(l.clone(), Box::new(remap_value(inner, null_map, set_map)))
        }
    }
}

/// Tiny union-find over target `(var, attr)` projections.
struct Classes {
    ids: BTreeMap<(usize, String), usize>,
    parent: Vec<usize>,
}

impl Classes {
    fn new() -> Self {
        Classes {
            ids: BTreeMap::new(),
            parent: Vec::new(),
        }
    }

    fn id(&mut self, r: &PathRef) -> usize {
        if let Some(&i) = self.ids.get(&(r.var, r.attr.clone())) {
            return i;
        }
        let i = self.parent.len();
        self.parent.push(i);
        self.ids.insert((r.var, r.attr.clone()), i);
        i
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, a: &PathRef, b: &PathRef) {
        let (ia, ib) = (self.id(a), self.id(b));
        let (ra, rb) = (self.find(ia), self.find(ib));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }

    fn root_of(&mut self, r: &PathRef) -> usize {
        let i = self.id(r);
        self.find(i)
    }
}

/// Pre-resolved plan for instantiating one target variable's tuples.
struct TVarPlan {
    /// Per field: how to produce the value.
    fields: Vec<FieldPlan>,
    /// Where produced tuples go: `Root(label)` or the set-field of a parent
    /// variable.
    container: Container,
}

enum FieldPlan {
    /// Atomic field: index into [`Prepared::classes`] (value computed once
    /// per binding).
    Atomic { class: usize },
    /// Set field: index into the per-binding set-id table.
    Set { slot: usize },
}

/// How one equivalence class of target attributes gets its value.
enum ClassPlan {
    /// Copied from the source attribute `(source var, attr index)`.
    Source(usize, usize),
    /// A labeled null with this deterministic tag, Skolemized over the
    /// whole binding.
    Null(String),
}

enum Container {
    Root(String),
    ParentField { slot: usize },
}

/// A nested set the mapping fills: its path and the index of its grouping
/// arguments in [`Prepared::arg_lists`].
struct SetSlot {
    path: SetPath,
    args: usize,
}

/// Everything [`fire`] needs about one mapping, resolved once per chase
/// call. Borrowed pieces only — cheap to build, safe to share across
/// worker threads.
pub(crate) struct Prepared<'m> {
    m: &'m Mapping,
    slots: Vec<SetSlot>,
    /// The distinct grouping-argument lists, as `(source var, attr index)`
    /// per argument, numbered in order of first use by `slots`. Default
    /// groupings give every nested set of a mapping the same list.
    arg_lists: Vec<Vec<(usize, usize)>>,
    /// The equivalence classes that atomic target fields draw from.
    classes: Vec<ClassPlan>,
    plans: Vec<TVarPlan>,
}

/// Chase one mapping into `target` under `budget`. Returns the truncation
/// reason when the budget (or an injected fault) cut the work short —
/// `target` then holds everything fired so far, still a valid instance.
/// `steps` is the cross-mapping firing counter the step cap applies to.
#[allow(clippy::too_many_arguments)]
fn chase_into(
    source_schema: &Schema,
    target_schema: &Schema,
    source: &Instance,
    m: &Mapping,
    hints: Option<&SelectivityHints>,
    target: &mut Instance,
    steps: &mut u64,
    budget: &Budget,
    metrics: &Metrics,
) -> Result<Option<TruncationReason>, ChaseError> {
    let p = prepare(source_schema, target_schema, m, metrics)?;
    let q = m.source_query();
    let plan = mapping_plan(source_schema, &q, hints);
    let bindings =
        match evaluate_all_planned_with(source_schema, source, &q, plan.as_ref(), budget, metrics)?
        {
            Outcome::Complete(b) => b,
            // The enumeration itself was cut short (already recorded by the
            // query layer); firing a truncated binding set would produce an
            // unpredictable prefix, so stop before firing.
            Outcome::Truncated { reason, .. } => return Ok(Some(reason)),
        };
    metrics.add("chase.bindings", bindings.len() as u64);
    metrics.add("chase.steps", bindings.len() as u64);
    let emit = Emit {
        emitted: metrics.counter("chase.tuples_emitted"),
        dedup_hits: metrics.counter("chase.dedup_hits"),
    };
    let check_terms = budget.max_terms.is_some();
    for binding in &bindings {
        if let Some(f) = muse_fault::point(faultpoints::CHASE_BINDING) {
            let reason = fault_reason(f);
            reason.record(metrics);
            return Ok(Some(reason));
        }
        *steps += 1;
        if budget.steps_exhausted(*steps) {
            let reason = TruncationReason::ChaseStepLimit;
            reason.record(metrics);
            return Ok(Some(reason));
        }
        // The deadline check reads the clock — amortize it over firings.
        if steps.is_multiple_of(64) && budget.deadline_expired() {
            let reason = TruncationReason::DeadlineExpired;
            reason.record(metrics);
            return Ok(Some(reason));
        }
        fire(&p, target, binding, &emit)?;
        if check_terms && budget.terms_exhausted(term_count(target)) {
            let reason = TruncationReason::TermLimit;
            reason.record(metrics);
            return Ok(Some(reason));
        }
    }
    Ok(None)
}

/// Validate `m` and resolve its firing plan (equivalence classes, null
/// tags, set slots, per-target-variable field plans, projection indices).
pub(crate) fn prepare<'m>(
    source_schema: &Schema,
    target_schema: &Schema,
    m: &'m Mapping,
    metrics: &Metrics,
) -> Result<Prepared<'m>, ChaseError> {
    if m.is_ambiguous() {
        return Err(ChaseError::Ambiguous(m.name.clone()));
    }
    m.validate(source_schema, target_schema)?;
    metrics.incr("chase.mappings");

    // --- Equivalence classes over target attributes -----------------------
    let mut classes = Classes::new();
    for (a, b) in &m.target_eqs {
        classes.union(a, b);
    }
    // Make sure every target atomic attribute has a class.
    for (tv_idx, tv) in m.target_vars.iter().enumerate() {
        for attr in target_schema.attributes(&tv.set)? {
            classes.id(&PathRef::new(tv_idx, attr));
        }
    }
    // Class assignments from the where clause (first assignment wins; the
    // validator guarantees one plain assignment per target attribute).
    let mut assignment: BTreeMap<usize, PathRef> = BTreeMap::new();
    for w in &m.wheres {
        if let WhereClause::Eq {
            source: s,
            target: t,
        } = w
        {
            let root = classes.root_of(t);
            assignment.entry(root).or_insert_with(|| s.clone());
        }
    }
    // Deterministic null tags per class: the lexicographically least member.
    let mut class_tag: BTreeMap<usize, String> = BTreeMap::new();
    let member_keys: Vec<((usize, String), usize)> =
        classes.ids.iter().map(|(k, v)| (k.clone(), *v)).collect();
    for (key, id) in member_keys {
        let root = classes.find(id);
        let name = format!("{}:{}.{}", m.name, m.target_vars[key.0].name, key.1);
        let entry = class_tag.entry(root).or_insert_with(|| name.clone());
        if name < *entry {
            *entry = name;
        }
    }

    // Source attribute indices, for fast projection.
    let src_attr_idx = |r: &PathRef| -> Result<(usize, usize), ChaseError> {
        let set = &m.source_vars[r.var].set;
        Ok((r.var, source_schema.attr_index(set, &r.attr)?))
    };

    // --- Set slots (nested target sets with their grouping functions) -----
    let mut slots: Vec<SetSlot> = Vec::new();
    let mut arg_lists: Vec<Vec<(usize, usize)>> = Vec::new();
    let mut slot_of: BTreeMap<SetPath, usize> = BTreeMap::new();
    for (set, g) in &m.groupings {
        let list = g
            .args
            .iter()
            .map(src_attr_idx)
            .collect::<Result<Vec<_>, _>>()?;
        let args = match arg_lists.iter().position(|l| *l == list) {
            Some(i) => i,
            None => {
                arg_lists.push(list);
                arg_lists.len() - 1
            }
        };
        slot_of.insert(set.clone(), slots.len());
        slots.push(SetSlot {
            path: set.clone(),
            args,
        });
    }

    // --- Equivalence classes, numbered in order of first use -------------
    let mut class_plans: Vec<ClassPlan> = Vec::new();
    let mut class_of: BTreeMap<usize, usize> = BTreeMap::new();

    // --- Per-target-variable plans ----------------------------------------
    let mut plans: Vec<TVarPlan> = Vec::with_capacity(m.target_vars.len());
    for (tv_idx, tv) in m.target_vars.iter().enumerate() {
        let rcd = target_schema.element_record(&tv.set)?;
        let fields = rcd
            .rcd_fields()
            .ok_or_else(|| ChaseError::NotARecordElement {
                mapping: m.name.clone(),
                set: tv.set.to_string(),
            })?;
        let mut fplans = Vec::with_capacity(fields.len());
        for f in fields {
            if f.ty.is_set() {
                let child = tv.set.child(&f.label);
                let slot = *slot_of
                    .get(&child)
                    .ok_or_else(|| muse_mapping::MappingError::MissingGrouping(child.clone()))?;
                fplans.push(FieldPlan::Set { slot });
            } else {
                let root = classes.root_of(&PathRef::new(tv_idx, f.label.clone()));
                let class = match class_of.get(&root) {
                    Some(&class) => class,
                    None => {
                        class_plans.push(match assignment.get(&root) {
                            Some(r) => {
                                let (var, idx) = src_attr_idx(r)?;
                                ClassPlan::Source(var, idx)
                            }
                            None => ClassPlan::Null(
                                class_tag
                                    .get(&root)
                                    .cloned()
                                    .unwrap_or_else(|| format!("{}:class{}", m.name, root)),
                            ),
                        });
                        class_of.insert(root, class_plans.len() - 1);
                        class_plans.len() - 1
                    }
                };
                fplans.push(FieldPlan::Atomic { class });
            }
        }
        let container = match &tv.parent {
            None => Container::Root(tv.set.label().to_owned()),
            Some((p, field)) => {
                let child = m.target_vars[*p].set.child(field);
                let slot = *slot_of
                    .get(&child)
                    .ok_or_else(|| muse_mapping::MappingError::MissingGrouping(child.clone()))?;
                Container::ParentField { slot }
            }
        };
        plans.push(TVarPlan {
            fields: fplans,
            container,
        });
    }

    Ok(Prepared {
        m,
        slots,
        arg_lists,
        classes: class_plans,
        plans,
    })
}

/// Emission counters resolved once per mapping, bumped once per tuple.
pub(crate) struct Emit {
    pub(crate) emitted: Counter,
    pub(crate) dedup_hits: Counter,
}

impl Emit {
    fn record(&self, inserted: bool) {
        if inserted {
            self.emitted.incr();
        } else {
            self.dedup_hits.incr();
        }
    }
}

/// Project a source value, importing source nulls into the target store.
fn project(
    m: &Mapping,
    target: &mut Instance,
    binding: &[Tuple],
    var: usize,
    idx: usize,
) -> Result<Value, ChaseError> {
    match &binding[var][idx] {
        v @ Value::Atom(_) => Ok(v.clone()),
        Value::Null(n) => {
            // Source labeled null: re-Skolemize in the target store by its
            // printable identity.
            let tag = format!("src-null#{}", n.index());
            let id = target.store_mut().null_id(tag, Vec::new());
            Ok(Value::Null(id))
        }
        other => Err(ChaseError::NonAtomicSourceValue {
            mapping: m.name.clone(),
            what: format!("{other:?}"),
        }),
    }
}

/// Instantiate one source binding's `exists` clause into `target`.
pub(crate) fn fire(
    p: &Prepared<'_>,
    target: &mut Instance,
    binding: &[Tuple],
    emit: &Emit,
) -> Result<(), ChaseError> {
    let Prepared {
        m,
        slots,
        arg_lists,
        classes,
        plans,
    } = p;

    // Each distinct grouping-argument list is projected, hashed and
    // allocated once, then shared by every slot grouped by it. Projecting
    // lists in first-use order imports source nulls in the order a per-slot
    // projection would.
    let args = arg_lists
        .iter()
        .map(|list| {
            list.iter()
                .map(|&(var, idx)| project(m, target, binding, var, idx))
                .collect::<Result<Vec<_>, _>>()
                .map(SkolemArgs::new)
        })
        .collect::<Result<Vec<_>, _>>()?;
    // SetIDs for every filled nested set, per this binding.
    let set_ids: Vec<SetId> = slots
        .iter()
        .map(|s| target.group_shared(&s.path, &args[s.args]))
        .collect();

    // The binding key that Skolemizes unassigned nulls: all atomic values of
    // the whole binding, flattened in variable order. Built at most once and
    // shared by all of the binding's nulls.
    let mut binding_key: Option<SkolemArgs> = None;

    // Class values, computed lazily per binding.
    let mut class_values: Vec<Option<Value>> = vec![None; classes.len()];

    for plan in plans {
        let mut tuple = Vec::with_capacity(plan.fields.len());
        for f in &plan.fields {
            match f {
                FieldPlan::Set { slot } => tuple.push(Value::Set(set_ids[*slot])),
                FieldPlan::Atomic { class } => {
                    if let Some(v) = &class_values[*class] {
                        tuple.push(v.clone());
                        continue;
                    }
                    let v = match &classes[*class] {
                        ClassPlan::Source(var, idx) => project(m, target, binding, *var, *idx)?,
                        ClassPlan::Null(tag) => {
                            let key = binding_key.get_or_insert_with(|| {
                                SkolemArgs::new(
                                    binding
                                        .iter()
                                        .flatten()
                                        .filter(|v| v.is_constant())
                                        .cloned()
                                        .collect::<Arc<[Value]>>(),
                                )
                            });
                            Value::Null(target.store_mut().null_id_shared(tag, key))
                        }
                    };
                    class_values[*class] = Some(v.clone());
                    tuple.push(v);
                }
            }
        }
        match &plan.container {
            Container::Root(label) => {
                let id = target
                    .root_id(label)
                    .ok_or_else(|| ChaseError::MissingTargetRoot {
                        mapping: m.name.clone(),
                        root: label.clone(),
                    })?;
                emit.record(target.insert(id, tuple));
            }
            Container::ParentField { slot } => {
                emit.record(target.insert(set_ids[*slot], tuple));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_mapping::parse;
    use muse_nr::{display, Field, InstanceBuilder, Ty};

    fn compdb() -> Schema {
        Schema::new(
            "CompDB",
            vec![
                Field::new(
                    "Companies",
                    Ty::set_of(vec![
                        Field::new("cid", Ty::Int),
                        Field::new("cname", Ty::Str),
                        Field::new("location", Ty::Str),
                    ]),
                ),
                Field::new(
                    "Projects",
                    Ty::set_of(vec![
                        Field::new("pid", Ty::Str),
                        Field::new("pname", Ty::Str),
                        Field::new("cid", Ty::Int),
                        Field::new("manager", Ty::Str),
                    ]),
                ),
                Field::new(
                    "Employees",
                    Ty::set_of(vec![
                        Field::new("eid", Ty::Str),
                        Field::new("ename", Ty::Str),
                        Field::new("contact", Ty::Str),
                    ]),
                ),
            ],
        )
        .unwrap()
    }

    fn orgdb() -> Schema {
        Schema::new(
            "OrgDB",
            vec![
                Field::new(
                    "Orgs",
                    Ty::set_of(vec![
                        Field::new("oname", Ty::Str),
                        Field::new(
                            "Projects",
                            Ty::set_of(vec![
                                Field::new("pname", Ty::Str),
                                Field::new("manager", Ty::Str),
                            ]),
                        ),
                    ]),
                ),
                Field::new(
                    "Employees",
                    Ty::set_of(vec![
                        Field::new("eid", Ty::Str),
                        Field::new("ename", Ty::Str),
                    ]),
                ),
            ],
        )
        .unwrap()
    }

    /// The three mappings of Fig. 1 (m2 with the default all-attribute
    /// grouping, as in the figure).
    fn fig1_mappings() -> Vec<Mapping> {
        let mut ms = parse(
            "
            m1: for c in CompDB.Companies
                exists o in OrgDB.Orgs
                where c.cname = o.oname
                group o.Projects by (c.cid, c.cname, c.location)

            m2: for c in CompDB.Companies, p in CompDB.Projects, e in CompDB.Employees
                satisfy p.cid = c.cid and e.eid = p.manager
                exists o in OrgDB.Orgs, p1 in o.Projects, e1 in OrgDB.Employees
                satisfy p1.manager = e1.eid
                where c.cname = o.oname and e.eid = e1.eid and e.ename = e1.ename
                  and p.pname = p1.pname

            m3: for e in CompDB.Employees
                exists e1 in OrgDB.Employees
                where e.eid = e1.eid and e.ename = e1.ename
            ",
        )
        .unwrap();
        for m in &mut ms {
            m.ensure_default_groupings(&orgdb(), &compdb()).unwrap();
        }
        ms
    }

    fn fig2_source(schema: &Schema) -> Instance {
        let mut b = InstanceBuilder::new(schema);
        b.push_top(
            "Companies",
            vec![Value::int(111), Value::str("IBM"), Value::str("Almaden")],
        );
        b.push_top(
            "Companies",
            vec![Value::int(112), Value::str("SBC"), Value::str("NY")],
        );
        b.push_top(
            "Projects",
            vec![
                Value::str("p1"),
                Value::str("DBSearch"),
                Value::int(111),
                Value::str("e14"),
            ],
        );
        b.push_top(
            "Projects",
            vec![
                Value::str("p2"),
                Value::str("WebSearch"),
                Value::int(111),
                Value::str("e15"),
            ],
        );
        b.push_top(
            "Employees",
            vec![Value::str("e14"), Value::str("Smith"), Value::str("x2292")],
        );
        b.push_top(
            "Employees",
            vec![Value::str("e15"), Value::str("Anna"), Value::str("x2283")],
        );
        b.push_top(
            "Employees",
            vec![Value::str("e16"), Value::str("Brown"), Value::str("x2567")],
        );
        b.finish().unwrap()
    }

    #[test]
    fn fig2_chase_reproduces_the_paper() {
        let (s, t) = (compdb(), orgdb());
        let src = fig2_source(&s);
        let result = chase(&s, &t, &src, &fig1_mappings()).unwrap();
        result.validate(&t).unwrap();

        // Four Org tuples: two from m1 (IBM, SBC with 3-ary SetIDs) and two
        // from m2 (IBM with 10-ary SetIDs, one per project binding).
        let orgs = result.root_id("Orgs").unwrap();
        assert_eq!(result.set_len(orgs), 4);

        // Employees: e14, e15 (from m2 and m3, deduplicated) + e16 (m3 only).
        let emps = result.root_id("Employees").unwrap();
        assert_eq!(result.set_len(emps), 3);

        // Project sets: two empty (m1's groups) and two singletons (m2's).
        let proj_sets = result.set_ids_of(&SetPath::parse("Orgs.Projects"));
        assert_eq!(proj_sets.len(), 4);
        let mut sizes: Vec<usize> = proj_sets.iter().map(|&id| result.set_len(id)).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![0, 0, 1, 1]);

        // Spot-check rendered form against Fig. 2.
        let text = display::render(&t, &result);
        assert!(
            text.contains("Projects=SKProjects(111,IBM,Almaden)"),
            "got:\n{text}"
        );
        assert!(
            text.contains("Projects=SKProjects(112,SBC,NY)"),
            "got:\n{text}"
        );
        assert!(
            text.contains("(pname=DBSearch, manager=e14)"),
            "got:\n{text}"
        );
        assert!(
            text.contains("(pname=WebSearch, manager=e15)"),
            "got:\n{text}"
        );
        assert!(text.contains("(eid=e16, ename=Brown)"), "got:\n{text}");
    }

    #[test]
    fn chase_is_idempotent() {
        let (s, t) = (compdb(), orgdb());
        let src = fig2_source(&s);
        let ms = fig1_mappings();
        let once = chase(&s, &t, &src, &ms).unwrap();
        // Chasing with Σ twice (i.e. Σ ∪ Σ) adds nothing.
        let doubled: Vec<Mapping> = ms.iter().chain(&ms).cloned().collect();
        let twice = chase(&s, &t, &src, &doubled).unwrap();
        assert_eq!(once.total_tuples(), twice.total_tuples());
        assert_eq!(display::render(&t, &once), display::render(&t, &twice));
    }

    #[test]
    fn unassigned_target_attribute_becomes_labeled_null() {
        // Target Org has an `address` element with no correspondence: the
        // chase must produce labeled nulls N1, N2 (Sec. II).
        let s = compdb();
        let t = Schema::new(
            "OrgDB",
            vec![Field::new(
                "Orgs",
                Ty::set_of(vec![
                    Field::new("oname", Ty::Str),
                    Field::new("address", Ty::Str),
                ]),
            )],
        )
        .unwrap();
        let m = muse_mapping::parse_one(
            "m1: for c in CompDB.Companies exists o in OrgDB.Orgs where c.cname = o.oname",
        )
        .unwrap();
        let src = fig2_source(&s);
        let out = chase(&s, &t, &src, &[m]).unwrap();
        let orgs = out.root_id("Orgs").unwrap();
        let tuples: Vec<_> = out.tuples(orgs).collect();
        assert_eq!(tuples.len(), 2);
        // Both addresses are nulls, and they are *different* nulls.
        let nulls: Vec<_> = tuples
            .iter()
            .filter_map(|tp| match &tp[1] {
                Value::Null(n) => Some(*n),
                _ => None,
            })
            .collect();
        assert_eq!(
            nulls.len(),
            2,
            "both addresses must be labeled nulls, got {tuples:?}"
        );
        assert_ne!(nulls[0], nulls[1]);
    }

    #[test]
    fn ambiguous_mapping_is_rejected() {
        let s = compdb();
        let t = Schema::new(
            "T",
            vec![Field::new(
                "Projects",
                Ty::set_of(vec![
                    Field::new("pname", Ty::Str),
                    Field::new("supervisor", Ty::Str),
                ]),
            )],
        )
        .unwrap();
        let m = muse_mapping::parse_one(
            "ma: for p in S.Projects, e1 in S.Employees, e2 in S.Employees
                 satisfy e1.eid = p.manager and e2.eid = p.manager
                 exists p1 in T.Projects
                 where p.pname = p1.pname
                   and (e1.ename = p1.supervisor or e2.ename = p1.supervisor)",
        )
        .unwrap();
        let src = fig2_source(&s);
        assert!(matches!(
            chase(&s, &t, &src, &[m]),
            Err(ChaseError::Ambiguous(_))
        ));
    }

    #[test]
    fn grouping_decides_set_identity() {
        // Group projects by cname only: both IBM projects share one set.
        let (s, t) = (compdb(), orgdb());
        let src = fig2_source(&s);
        let m = muse_mapping::parse_one(
            "m2: for c in CompDB.Companies, p in CompDB.Projects, e in CompDB.Employees
                 satisfy p.cid = c.cid and e.eid = p.manager
                 exists o in OrgDB.Orgs, p1 in o.Projects, e1 in OrgDB.Employees
                 satisfy p1.manager = e1.eid
                 where c.cname = o.oname and e.eid = e1.eid and e.ename = e1.ename
                   and p.pname = p1.pname
                 group o.Projects by (c.cname)",
        )
        .unwrap();
        let out = chase(&s, &t, &src, &[m]).unwrap();
        let proj_sets = out.set_ids_of(&SetPath::parse("Orgs.Projects"));
        assert_eq!(proj_sets.len(), 1);
        assert_eq!(out.set_len(proj_sets[0]), 2);
        let orgs = out.root_id("Orgs").unwrap();
        assert_eq!(out.set_len(orgs), 1); // one Org tuple: (IBM, SK(IBM))
    }

    #[test]
    fn empty_source_chases_to_empty_target() {
        let (s, t) = (compdb(), orgdb());
        let src = Instance::new(&s);
        let out = chase(&s, &t, &src, &fig1_mappings()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn step_cap_truncates_to_a_valid_prefix() {
        let (s, t) = (compdb(), orgdb());
        let src = fig2_source(&s);
        let ms = fig1_mappings();
        let m = Metrics::enabled();
        let budget = Budget::unlimited().with_max_chase_steps(2);
        let out = chase_budget_with(&s, &t, &src, &ms, &budget, &m).unwrap();
        assert_eq!(out.reason(), Some(TruncationReason::ChaseStepLimit));
        let partial = out.into_value();
        partial.validate(&t).unwrap();
        // Exactly the first two firings happened (m1's two company bindings).
        let full = chase(&s, &t, &src, &ms).unwrap();
        assert!(partial.total_tuples() < full.total_tuples());
        assert!(partial.total_tuples() > 0);
        let snap = m.snapshot();
        assert_eq!(snap.counter("budget.step_limit_hits"), 1);
        assert_eq!(snap.counter("budget.truncations"), 1);
    }

    #[test]
    fn term_cap_truncates_to_a_valid_prefix() {
        let (s, t) = (compdb(), orgdb());
        let src = fig2_source(&s);
        let ms = fig1_mappings();
        let m = Metrics::enabled();
        let budget = Budget::unlimited().with_max_terms(1);
        let out = chase_budget_with(&s, &t, &src, &ms, &budget, &m).unwrap();
        assert_eq!(out.reason(), Some(TruncationReason::TermLimit));
        out.value().validate(&t).unwrap();
        assert_eq!(m.snapshot().counter("budget.term_limit_hits"), 1);
    }

    #[test]
    fn unlimited_budget_completes_identically() {
        let (s, t) = (compdb(), orgdb());
        let src = fig2_source(&s);
        let ms = fig1_mappings();
        let legacy = chase(&s, &t, &src, &ms).unwrap();
        let governed = chase_budget_with(
            &s,
            &t,
            &src,
            &ms,
            Budget::unlimited_ref(),
            &Metrics::disabled(),
        )
        .unwrap();
        assert!(governed.is_complete());
        assert_eq!(
            display::render(&t, &legacy),
            display::render(&t, governed.value())
        );
    }

    #[test]
    fn par_budget_truncation_falls_back_to_serial_result() {
        let (s, t) = (compdb(), orgdb());
        let src = fig2_source(&s);
        let ms = fig1_mappings();
        let budget = Budget::unlimited().with_max_chase_steps(3);
        let m = Metrics::enabled();
        let serial = chase_budget_with(&s, &t, &src, &ms, &budget, &Metrics::disabled()).unwrap();
        let par = chase_par_budget_with(&s, &t, &src, &ms, 4, &budget, &m).unwrap();
        assert_eq!(serial.reason(), par.reason());
        assert_eq!(
            display::render(&t, serial.value()),
            display::render(&t, par.value())
        );
        assert_eq!(m.snapshot().counter("chase.par_fallbacks"), 1);
    }
}
