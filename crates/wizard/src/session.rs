//! The full Muse wizard (Sec. V): Muse-D then Muse-G.
//!
//! Starting from the (possibly ambiguous) mappings a Clio-style tool
//! generated, the session first disambiguates every ambiguous mapping with
//! Muse-D, then walks the designer through the grouping design of every
//! resulting mapping with Muse-G, and reports the final mappings plus the
//! per-phase statistics the paper's Sec. VI tables are built from.

use std::time::Duration;

use muse_mapping::Mapping;
use muse_nr::{Constraints, Instance, Schema};
use muse_obs::{Budget, Metrics};

use crate::designer::Designer;
use crate::error::WizardError;
use crate::mused::DisambiguationOutcome;
use crate::museg::GroupingOutcome;
use crate::step::SessionState;

/// A full wizard session over one mapping scenario.
#[derive(Debug, Clone, Copy)]
pub struct Session<'a> {
    /// Source schema.
    pub source_schema: &'a Schema,
    /// Target schema.
    pub target_schema: &'a Schema,
    /// Source constraints.
    pub source_constraints: &'a Constraints,
    /// The designer's source instance, when available.
    pub real_instance: Option<&'a Instance>,
    /// Enable Sec. III-C instance-only pruning in Muse-G.
    pub instance_only: bool,
    /// Offer the inner/outer join choice (Sec. IV "More options") for every
    /// source variable that feeds target elements on its own and is not
    /// already covered by another mapping in Σ.
    pub offer_join_options: bool,
    /// Execution budget for the whole session, forwarded to both component
    /// wizards. Questions the budget truncates are skipped with a warning
    /// (collected in [`SessionReport::warnings`]) instead of failing the
    /// session. Defaults to [`Budget::unlimited_ref`].
    pub budget: &'a Budget,
    /// Instrumentation sink, forwarded to both component wizards. Defaults
    /// to the no-op handle.
    pub metrics: &'a Metrics,
    /// Wall-clock cap for the real-instance example search (`QIe`),
    /// forwarded to both component wizards. `None` searches exhaustively —
    /// the setting replayable services need, because a timed-out search
    /// falls back to a synthetic example nondeterministically. Defaults to
    /// the wizards' own 750 ms cap.
    pub real_example_budget: Option<Duration>,
    /// Optional shared probe-question memo plus the context key covering
    /// everything outside the mappings that determines probe results
    /// (scenario and instance identity). Forwarded to both component
    /// wizards; consulted only when `budget` is unlimited and
    /// `real_example_budget` is `None`. See [`crate::cache::ProbeCache`].
    pub probe_cache: Option<(&'a crate::cache::ProbeCache, &'a str)>,
    /// Incremental chase store, forwarded to both component wizards: probe
    /// and partial-target chases rederive unchanged bindings from
    /// materialized state instead of re-chasing from scratch. Output stays
    /// byte-identical (scratch fallback under budgets/faults). See
    /// [`muse_chase::DeltaStore`].
    pub delta: Option<&'a muse_chase::DeltaStore>,
}

/// What a session produced.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The final, unambiguous mappings with designed grouping functions.
    pub mappings: Vec<Mapping>,
    /// Muse-D statistics, one per ambiguous input mapping.
    pub disambiguations: Vec<DisambiguationOutcome>,
    /// Muse-G statistics, one per (mapping, nested set) designed.
    pub groupings: Vec<(String, GroupingOutcome)>,
    /// Inner/outer questions asked and the companions the designer added.
    pub join_questions: usize,
    /// Companion mappings added by outer choices (also in `mappings`).
    pub companions_added: usize,
    /// Graceful-degradation warnings: one line per question the execution
    /// budget truncated (the session still completed with defaults).
    pub warnings: Vec<String>,
}

impl SessionReport {
    /// Total questions asked across both wizards (each disambiguation is
    /// one question).
    pub fn total_questions(&self) -> usize {
        self.disambiguations.len()
            + self.join_questions
            + self
                .groupings
                .iter()
                .map(|(_, g)| g.questions)
                .sum::<usize>()
    }

    /// True when the execution budget truncated at least one question — the
    /// session completed, but with defaulted answers (see `warnings`).
    pub fn truncated(&self) -> bool {
        !self.warnings.is_empty()
    }

    /// Total time spent constructing/retrieving examples.
    pub fn total_example_time(&self) -> Duration {
        self.disambiguations
            .iter()
            .map(|d| d.example_time)
            .sum::<Duration>()
            + self
                .groupings
                .iter()
                .map(|(_, g)| g.example_time)
                .sum::<Duration>()
    }
}

impl<'a> Session<'a> {
    /// A session without a real instance.
    pub fn new(
        source_schema: &'a Schema,
        target_schema: &'a Schema,
        source_constraints: &'a Constraints,
    ) -> Self {
        Session {
            source_schema,
            target_schema,
            source_constraints,
            real_instance: None,
            instance_only: false,
            offer_join_options: false,
            budget: Budget::unlimited_ref(),
            metrics: Metrics::disabled_ref(),
            real_example_budget: Some(Duration::from_millis(750)),
            probe_cache: None,
            delta: None,
        }
    }

    /// Route wizard chases through an incremental chase store.
    pub fn with_delta(mut self, delta: &'a muse_chase::DeltaStore) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Cap (or, with `None`, uncap) the real-instance example search.
    pub fn with_real_example_budget(mut self, budget: Option<Duration>) -> Self {
        self.real_example_budget = budget;
        self
    }

    /// Use a real source instance.
    pub fn with_instance(mut self, inst: &'a Instance) -> Self {
        self.real_instance = Some(inst);
        self
    }

    /// Bound the session with an execution budget (graceful degradation).
    pub fn with_budget(mut self, budget: &'a Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Record wizard/query/chase/iso metrics into `metrics`.
    pub fn with_metrics(mut self, metrics: &'a Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Share a probe-question memo across sessions. `context` must name
    /// everything outside the mappings that determines probe results —
    /// typically the scenario plus the parameters of the source instance.
    pub fn with_probe_cache(
        mut self,
        cache: &'a crate::cache::ProbeCache,
        context: &'a str,
    ) -> Self {
        self.probe_cache = Some((cache, context));
        self
    }

    /// Run the wizard over `mappings` (e.g. the output of
    /// `muse_cliogen::generate`), interrogating `designer`: a loop over the
    /// resumable machine of [`Session::advance`].
    pub fn run(
        &self,
        mappings: &[Mapping],
        designer: &mut dyn Designer,
    ) -> Result<SessionReport, WizardError> {
        let hints = self.hints();
        let (d, g) = self.wizards(&hints);
        let mut st = SessionState::default();
        let mut answer = None;
        loop {
            if let Some(report) = self.proceed(&d, &g, mappings, &mut st, answer.take())? {
                return Ok(report);
            }
            if let Some(q) = st.open() {
                answer = Some(q.answer_with(designer)?);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designer::OracleDesigner;
    use muse_mapping::{parse, PathRef};
    use muse_nr::{Field, SetPath, Ty};

    fn schemas() -> (Schema, Schema) {
        let src = Schema::new(
            "S",
            vec![
                Field::new(
                    "Projects",
                    Ty::set_of(vec![
                        Field::new("pname", Ty::Str),
                        Field::new("manager", Ty::Str),
                        Field::new("tech-lead", Ty::Str),
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
        .unwrap();
        let tgt = Schema::new(
            "T",
            vec![Field::new(
                "Orgs",
                Ty::set_of(vec![
                    Field::new("lead", Ty::Str),
                    Field::new("Projects", Ty::set_of(vec![Field::new("pname", Ty::Str)])),
                ]),
            )],
        )
        .unwrap();
        (src, tgt)
    }

    #[test]
    fn full_session_disambiguates_then_designs_groupings() {
        let (src, tgt) = schemas();
        let cons = Constraints::none();
        let mut ms = parse(
            "ma: for p in S.Projects, e1 in S.Employees, e2 in S.Employees
                 satisfy e1.eid = p.manager and e2.eid = p.tech-lead
                 exists o in T.Orgs, q in o.Projects
                 where p.pname = q.pname
                   and (e1.ename = o.lead or e2.ename = o.lead)
                 group o.Projects by ()",
        )
        .unwrap();
        for m in &mut ms {
            m.ensure_default_groupings(&tgt, &src).unwrap();
        }

        let mut oracle = OracleDesigner::new(&src, &tgt);
        oracle.intended_choices.insert("ma".into(), vec![vec![1]]); // tech-lead
                                                                    // After selection the mapping is named ma#1; intend grouping by the
                                                                    // chosen lead's name.
        oracle.intend_grouping(
            "ma#1",
            SetPath::parse("Orgs.Projects"),
            vec![PathRef::new(2, "ename")],
        );

        let session = Session::new(&src, &tgt, &cons);
        let report = session.run(&ms, &mut oracle).unwrap();

        assert_eq!(report.mappings.len(), 1);
        assert_eq!(report.disambiguations.len(), 1);
        assert!(!report.mappings[0].is_ambiguous());
        let g = report.mappings[0]
            .grouping(&SetPath::parse("Orgs.Projects"))
            .unwrap();
        // e2.ename's class representative may be itself (no satisfy eq ties
        // it to another reference).
        assert_eq!(g.args, vec![PathRef::new(2, "ename")]);
        assert!(report.total_questions() >= 2);
        report.mappings[0].validate(&src, &tgt).unwrap();
    }
}
