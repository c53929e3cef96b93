//! Resumable session driving.
//!
//! [`Session::run`] hands every question to a [`Designer`] callback and
//! waits for the answer. A network service needs the opposite shape: hand
//! the question to a remote client, park the session until (or *if*) the
//! answer comes back, and survive a crash in between.
//!
//! [`SessionState`] is a parked session: the wizard's whole position
//! between two answers. It holds the Muse-D cursor over the input mappings
//! and the selections made so far, the join-phase cursor, the Muse-G
//! design in progress (its probe queue, chosen and rejected attributes),
//! the results so far, and the open question. It owns its data, so a
//! server keeps it in memory across requests. [`Session::advance`] feeds it
//! one answer and runs the wizard to the next question, so each answer
//! builds one question. [`Session::run`] is a loop over the same machine,
//! so a stepped session asks the questions a run-to-completion session
//! asks, byte for byte.
//!
//! The state is a cache of the answer log, never the record of it.
//! [`Session::resume`] rebuilds it from the answers in one pass (O(k) for
//! k answers); a server does that after a restart, a rejected answer or a
//! panic. [`Session::step`] is that rebuild, and serves as the reference
//! a resident state is checked against. Determinism caveat: rebuilds match
//! only under an exhaustive real-example search
//! (`Session::with_real_example_budget(None)`); the default wall-clock cap
//! can time out on one run and not the next.

use std::sync::Arc;

use muse_mapping::{Grouping, Mapping, WhereClause};
use muse_nr::{Schema, SetPath};

use crate::designer::{Designer, JoinChoice, ScenarioChoice};
use crate::error::WizardError;
use crate::mused::joins::{outer_companion, JoinQuestion};
use crate::mused::{DisambiguationOutcome, DisambiguationQuestion, MuseD};
use crate::museg::{GroupingOutcome, GroupingQuestion, GroupingState, MuseG};
use crate::session::{Session, SessionReport};

/// One recorded designer answer, in question order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// Answer to a Muse-G grouping probe.
    Scenario(ScenarioChoice),
    /// Answer to a Muse-D disambiguation (one pick list per or-group).
    Choices(Vec<Vec<usize>>),
    /// Answer to an inner/outer join question.
    Join(JoinChoice),
}

impl Answer {
    /// The answer's wire-protocol kind tag.
    pub fn kind(&self) -> &'static str {
        match self {
            Answer::Scenario(_) => "scenario",
            Answer::Choices(_) => "choices",
            Answer::Join(_) => "join",
        }
    }
}

/// The question a suspended session is waiting on.
///
/// Always handed out boxed (see [`Step::Ask`]), so the variant size spread
/// never lands on the stack.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum PendingQuestion {
    /// A Muse-G grouping probe (answer with [`Answer::Scenario`]).
    Grouping(GroupingQuestion),
    /// A Muse-D disambiguation (answer with [`Answer::Choices`]).
    Disambiguation(DisambiguationQuestion),
    /// An inner/outer join question (answer with [`Answer::Join`]).
    Join(JoinQuestion),
}

impl PendingQuestion {
    /// The question's wire-protocol kind tag — equal to the `kind()` of the
    /// [`Answer`] variant that answers it.
    pub fn kind(&self) -> &'static str {
        match self {
            PendingQuestion::Grouping(_) => "scenario",
            PendingQuestion::Disambiguation(_) => "choices",
            PendingQuestion::Join(_) => "join",
        }
    }

    /// Name of the mapping the question is about.
    pub fn mapping(&self) -> &str {
        match self {
            PendingQuestion::Grouping(q) => &q.mapping,
            PendingQuestion::Disambiguation(q) => &q.mapping,
            PendingQuestion::Join(q) => &q.mapping,
        }
    }

    /// The question rendered exactly as the interactive CLI shows it.
    pub fn render(&self, source_schema: &Schema, target_schema: &Schema) -> String {
        match self {
            PendingQuestion::Grouping(q) => q.render(source_schema, target_schema),
            PendingQuestion::Disambiguation(q) => q.render(source_schema, target_schema),
            PendingQuestion::Join(q) => q.render(source_schema, target_schema),
        }
    }

    /// Ask `designer` this question.
    pub fn answer_with(&self, designer: &mut dyn Designer) -> Result<Answer, WizardError> {
        Ok(match self {
            PendingQuestion::Grouping(q) => Answer::Scenario(designer.pick_scenario(q)?),
            PendingQuestion::Disambiguation(q) => Answer::Choices(designer.fill_choices(q)?),
            PendingQuestion::Join(q) => Answer::Join(designer.pick_join(q)?),
        })
    }
}

/// What [`Session::advance`] or [`Session::step`] produced.
#[derive(Debug, Clone)]
pub enum Step {
    /// The answers cover questions `0..seq`; question `seq` is open.
    Ask {
        /// Zero-based index of the question being asked — always equal to
        /// the number of answers consumed so far.
        seq: usize,
        /// The question itself.
        question: Box<PendingQuestion>,
    },
    /// Every question is answered; the session is complete.
    Done(Box<SessionReport>),
}

/// A session between two designer answers; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct SessionState {
    /// Answers consumed so far.
    answered: usize,
    /// The question awaiting an answer.
    open: Option<PendingQuestion>,
    stage: Stage,
    /// The unambiguous mappings so far: Muse-D's selections, then the
    /// join companions, then grouped in place by Muse-G.
    mappings: Vec<Mapping>,
    disambiguations: Vec<DisambiguationOutcome>,
    groupings: Vec<(String, GroupingOutcome)>,
    join_questions: usize,
    companions: Vec<Mapping>,
}

/// The wizard phase a [`SessionState`] is in.
#[derive(Debug, Clone)]
enum Stage {
    /// Muse-D over the input mappings: the one at this index is next.
    Disambiguate(usize),
    /// Inner/outer join questions over the first `sigma` mappings (the
    /// disambiguated ones): source variable `var` of mapping `at` is next.
    Joins { sigma: usize, at: usize, var: usize },
    /// Muse-G: mapping `next - 1` has the target sets `sets` (in reverse
    /// design order) left to design, besides the design in progress.
    Groupings {
        next: usize,
        sets: Vec<SetPath>,
        design: Option<Box<GroupingState>>,
    },
    /// The report was handed out.
    Done,
}

impl Default for Stage {
    fn default() -> Self {
        Stage::Disambiguate(0)
    }
}

impl SessionState {
    /// Answers consumed so far; the open question, if any, has this index.
    pub fn answered(&self) -> usize {
        self.answered
    }

    /// The question awaiting an answer, if any.
    pub(crate) fn open(&self) -> Option<&PendingQuestion> {
        self.open.as_ref()
    }

    /// The open question as a [`Step::Ask`].
    fn ask(&self) -> Result<Step, WizardError> {
        match &self.open {
            Some(q) => Ok(Step::Ask {
                seq: self.answered,
                question: Box::new(q.clone()),
            }),
            None => Err(WizardError::BadAnswer(
                "the session has no open question".into(),
            )),
        }
    }

    fn record_disambiguation(&mut self, out: DisambiguationOutcome) {
        self.mappings.extend(out.selected.iter().cloned());
        self.disambiguations.push(out);
    }

    /// Hand out the report and close the session.
    fn finish(&mut self) -> SessionReport {
        self.stage = Stage::Done;
        let warnings = (self.disambiguations.iter().map(|d| &d.warnings))
            .chain(self.groupings.iter().map(|(_, g)| &g.warnings))
            .flatten()
            .cloned()
            .collect();
        SessionReport {
            mappings: std::mem::take(&mut self.mappings),
            disambiguations: std::mem::take(&mut self.disambiguations),
            groupings: std::mem::take(&mut self.groupings),
            join_questions: self.join_questions,
            companions_added: self.companions.len(),
            warnings,
        }
    }
}

impl Session<'_> {
    /// Feed `answer` to the open question of `st` and run the wizard to
    /// the next question ([`Step::Ask`]) or the finished report
    /// ([`Step::Done`]). With `None`, a fresh state runs to its first
    /// question and a waiting one returns its open question again.
    ///
    /// Errors: [`WizardError::BadAnswer`] when the answer's kind does not
    /// match the open question, its picks are malformed, or no question is
    /// open; such an answer leaves `st` as it was. Any other wizard error
    /// can leave `st` half advanced; rebuild it with [`Session::resume`].
    pub fn advance(
        &self,
        mappings: &[Mapping],
        st: &mut SessionState,
        answer: Option<Answer>,
    ) -> Result<Step, WizardError> {
        let hints = self.hints();
        let (d, g) = self.wizards(&hints);
        match self.proceed(&d, &g, mappings, st, answer)? {
            Some(report) => Ok(Step::Done(Box::new(report))),
            None => st.ask(),
        }
    }

    /// Rebuild a session's state from its recorded `answers` in one pass,
    /// returning it with the step it stands at.
    ///
    /// Errors: [`WizardError::BadAnswer`] when an answer's kind does not
    /// match its question or when answers remain after the session
    /// completed (both indicate a corrupt or mismatched answer log);
    /// otherwise whatever the underlying wizard run raises.
    pub fn resume(
        &self,
        mappings: &[Mapping],
        answers: &[Answer],
    ) -> Result<(SessionState, Step), WizardError> {
        let hints = self.hints();
        let (d, g) = self.wizards(&hints);
        let mut st = SessionState::default();
        let mut report = self.proceed(&d, &g, mappings, &mut st, None)?;
        for a in answers {
            if report.is_some() {
                return Err(WizardError::BadAnswer(format!(
                    "session completed after {} answer(s) but {} were recorded",
                    st.answered,
                    answers.len()
                )));
            }
            report = self.proceed(&d, &g, mappings, &mut st, Some(a.clone()))?;
        }
        let step = match report {
            Some(report) => Step::Done(Box::new(report)),
            None => st.ask()?,
        };
        Ok((st, step))
    }

    /// Advance the session as far as `answers` carries it, from scratch:
    /// [`Session::resume`] without the state.
    pub fn step(&self, mappings: &[Mapping], answers: &[Answer]) -> Result<Step, WizardError> {
        self.resume(mappings, answers).map(|(_, step)| step)
    }

    /// Static selectivity hints from the declared source constraints: both
    /// wizards plan their chase/QIe joins with them (same answers, fewer
    /// query steps).
    pub(crate) fn hints(&self) -> muse_query::SelectivityHints {
        muse_query::SelectivityHints::from_constraints(self.source_schema, self.source_constraints)
    }

    /// The two component wizards, configured from the session.
    pub(crate) fn wizards<'w>(
        &'w self,
        hints: &'w muse_query::SelectivityHints,
    ) -> (MuseD<'w>, MuseG<'w>) {
        let mut mused = MuseD::new(
            self.source_schema,
            self.target_schema,
            self.source_constraints,
        );
        mused.real_instance = self.real_instance;
        mused.budget = self.budget;
        mused.metrics = self.metrics;
        mused.real_example_budget = self.real_example_budget;
        mused.probe_cache = self.probe_cache;
        mused.plan_hints = Some(hints);
        mused.delta = self.delta;
        let mut museg = MuseG::new(
            self.source_schema,
            self.target_schema,
            self.source_constraints,
        );
        museg.real_instance = self.real_instance;
        museg.instance_only = self.instance_only;
        museg.budget = self.budget;
        museg.metrics = self.metrics;
        museg.real_example_budget = self.real_example_budget;
        museg.probe_cache = self.probe_cache;
        museg.plan_hints = Some(hints);
        museg.delta = self.delta;
        (mused, museg)
    }

    /// Feed `answer`, then run to the next question (left open in `st`) or
    /// to the end, returning the report.
    pub(crate) fn proceed(
        &self,
        d: &MuseD<'_>,
        g: &MuseG<'_>,
        mappings: &[Mapping],
        st: &mut SessionState,
        answer: Option<Answer>,
    ) -> Result<Option<SessionReport>, WizardError> {
        if let Some(a) = answer {
            accept(d, mappings, st, a)?;
        }
        while st.open.is_none() {
            match &mut st.stage {
                // Phase 1: Muse-D on every ambiguous mapping.
                Stage::Disambiguate(i) => match mappings.get(*i) {
                    Some(m) if m.is_ambiguous() => match d.ask(m)? {
                        Some(q) => {
                            let q = Arc::unwrap_or_clone(q);
                            st.open = Some(PendingQuestion::Disambiguation(q));
                        }
                        None => {
                            *i += 1;
                            let out = d.defaulted(m)?;
                            st.record_disambiguation(out);
                        }
                    },
                    Some(m) => {
                        *i += 1;
                        st.mappings.push(m.clone());
                    }
                    None if self.offer_join_options => {
                        let sigma = st.mappings.len();
                        st.stage = Stage::Joins {
                            sigma,
                            at: 0,
                            var: 0,
                        };
                    }
                    None => st.stage = Stage::groupings(),
                },
                // Phase 1.5 (optional): inner/outer join choices. For every
                // source variable whose tuples feed target elements on their
                // own, and whose standalone exchange is not already a
                // mapping of Σ (like m3 in Fig. 1), ask whether dangling
                // tuples should be exchanged too.
                Stage::Joins { sigma, at, var } => {
                    let sigma = &st.mappings[..*sigma];
                    let Some(m) = sigma.get(*at) else {
                        st.mappings.extend(st.companions.iter().cloned());
                        st.stage = Stage::groupings();
                        continue;
                    };
                    if *var == m.source_vars.len() {
                        (*at, *var) = (*at + 1, 0);
                        continue;
                    }
                    let v = *var;
                    *var += 1;
                    let Ok(companion) = outer_companion(m, v) else {
                        continue;
                    };
                    if covered_by_sigma(&companion, sigma) {
                        continue;
                    }
                    st.join_questions += 1;
                    st.open = Some(PendingQuestion::Join(d.join_question(m, v)?));
                }
                // Phase 2: Muse-G on every grouping function of every
                // mapping, in breadth-first target order per mapping.
                Stage::Groupings { next, sets, design } => {
                    if let Some(gs) = design {
                        let m = &mut st.mappings[*next - 1];
                        if let Some(q) = g.advance_grouping(m, gs, None)? {
                            let q = Arc::unwrap_or_clone(q);
                            st.open = Some(PendingQuestion::Grouping(q));
                        } else if let Some(gs) = design.take() {
                            let o = gs.finish();
                            m.set_grouping(o.sk.clone(), Grouping::new(o.grouping.clone()));
                            st.groupings.push((m.name.clone(), o));
                        }
                    } else if let Some(sk) = sets.pop() {
                        let gs = g.start_grouping(&st.mappings[*next - 1], &sk)?;
                        *design = Some(Box::new(gs));
                    } else if let Some(m) = st.mappings.get(*next) {
                        *sets = g.grouping_order(m)?;
                        sets.reverse();
                        *next += 1;
                    } else {
                        return Ok(Some(st.finish()));
                    }
                }
                Stage::Done => {
                    return Err(WizardError::BadAnswer(
                        "the session is already complete".into(),
                    ))
                }
            }
        }
        Ok(None)
    }
}

impl Stage {
    fn groupings() -> Stage {
        Stage::Groupings {
            next: 0,
            sets: Vec::new(),
            design: None,
        }
    }
}

/// Record `a` as the answer to the open question of `st`. A rejected answer
/// leaves `st` unchanged.
fn accept(
    d: &MuseD<'_>,
    mappings: &[Mapping],
    st: &mut SessionState,
    a: Answer,
) -> Result<(), WizardError> {
    let n = st.answered;
    let Some(open) = &st.open else {
        return Err(WizardError::BadAnswer(format!(
            "answer #{n} arrived with no question open"
        )));
    };
    if open.kind() != a.kind() {
        return Err(WizardError::BadAnswer(format!(
            "answer #{n} has kind `{}` but question #{n} expects `{}` \
             (the answer log does not match this session's question sequence)",
            a.kind(),
            open.kind()
        )));
    }
    match (&mut st.stage, open, a) {
        (Stage::Disambiguate(i), PendingQuestion::Disambiguation(q), Answer::Choices(picks)) => {
            let m = mappings.get(*i).ok_or_else(|| {
                WizardError::BadAnswer("no mapping is being disambiguated".into())
            })?;
            let out = d.select(m, q, picks)?;
            *i += 1;
            st.record_disambiguation(out);
        }
        (Stage::Joins { .. }, PendingQuestion::Join(q), Answer::Join(choice)) => {
            if choice == JoinChoice::Outer {
                let mut c = q.companion.clone();
                c.name = format!("{}~outer{}", q.mapping, st.companions.len() + 1);
                st.companions.push(c);
            }
        }
        (
            Stage::Groupings {
                design: Some(gs), ..
            },
            PendingQuestion::Grouping(_),
            Answer::Scenario(choice),
        ) => gs.answer(choice)?,
        _ => {
            return Err(WizardError::BadAnswer(format!(
                "answer #{n} does not fit the session's phase"
            )))
        }
    }
    st.open = None;
    st.answered += 1;
    Ok(())
}

/// Does some mapping of Σ already exchange what `companion` would? True
/// when a single-variable mapping over the same source set asserts at least
/// the companion's correspondences (like `m3` covering the outer option of
/// `m2` in Fig. 1).
fn covered_by_sigma(companion: &Mapping, sigma: &[Mapping]) -> bool {
    let triples = |m: &Mapping| -> Option<std::collections::BTreeSet<(String, String, String)>> {
        if m.source_vars.len() != 1 {
            return None;
        }
        Some(
            m.wheres
                .iter()
                .filter_map(|w| match w {
                    WhereClause::Eq { source, target } => Some((
                        source.attr.clone(),
                        m.target_vars[target.var].set.to_string(),
                        target.attr.clone(),
                    )),
                    WhereClause::OrGroup { .. } => None,
                })
                .collect(),
        )
    };
    let Some(needed) = triples(companion) else {
        return true;
    };
    sigma.iter().any(|m| {
        m.source_vars.len() == 1
            && m.source_vars[0].set == companion.source_vars[0].set
            && triples(m).is_some_and(|have| needed.is_subset(&have))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designer::ScriptedDesigner;
    use muse_nr::Constraints;

    fn bundle() -> (muse_nr::Schema, muse_nr::Schema, Vec<Mapping>) {
        let scenario = &muse_scenarios::all_scenarios()[1]; // DBLP
        let mappings = scenario.mappings().unwrap();
        (
            scenario.source_schema.clone(),
            scenario.target_schema.clone(),
            mappings,
        )
    }

    /// Drive a session question-by-question with a fixed answer policy and
    /// compare the final report against the equivalent scripted
    /// run-to-completion session.
    #[test]
    fn stepped_session_matches_scripted_run() {
        let (src, tgt, mappings) = bundle();
        let cons = Constraints::none();
        let session = Session::new(&src, &tgt, &cons);

        let mut answers: Vec<Answer> = Vec::new();
        let stepped = loop {
            match session.step(&mappings, &answers).unwrap() {
                Step::Ask { seq, question } => {
                    assert_eq!(seq, answers.len());
                    answers.push(match *question {
                        PendingQuestion::Grouping(_) => Answer::Scenario(ScenarioChoice::Second),
                        PendingQuestion::Disambiguation(q) => {
                            Answer::Choices(vec![vec![0]; q.choices.len()])
                        }
                        PendingQuestion::Join(_) => Answer::Join(JoinChoice::Inner),
                    });
                }
                Step::Done(report) => break report,
            }
        };

        // The scripted equivalent: replay the same answers in one run.
        let mut scripted = ScriptedDesigner::default();
        for a in &answers {
            match a {
                Answer::Scenario(c) => scripted.scenarios.push_back(*c),
                Answer::Choices(c) => scripted.choices.push_back(c.clone()),
                Answer::Join(c) => scripted.joins.push_back(*c),
            }
        }
        let direct = session.run(&mappings, &mut scripted).unwrap();

        assert_eq!(stepped.total_questions(), direct.total_questions());
        assert_eq!(stepped.mappings.len(), direct.mappings.len());
        let render = |r: &SessionReport| {
            r.mappings
                .iter()
                .map(muse_mapping::printer::print)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(render(&stepped), render(&direct));
    }

    #[test]
    fn resuming_from_a_prefix_reaches_the_same_question() {
        let (src, tgt, mappings) = bundle();
        let cons = Constraints::none();
        let session = Session::new(&src, &tgt, &cons);

        let mut answers: Vec<Answer> = Vec::new();
        let mut transcript: Vec<String> = Vec::new();
        while let Step::Ask { question, .. } = session.step(&mappings, &answers).unwrap() {
            transcript.push(question.render(&src, &tgt));
            answers.push(match *question {
                PendingQuestion::Grouping(_) => Answer::Scenario(ScenarioChoice::First),
                PendingQuestion::Disambiguation(q) => {
                    Answer::Choices(vec![vec![0]; q.choices.len()])
                }
                PendingQuestion::Join(_) => Answer::Join(JoinChoice::Inner),
            });
        }
        assert!(transcript.len() >= 2, "DBLP asks at least two questions");

        // "Crash" after k answers: a fresh step from the recorded prefix
        // must surface the exact question the live session saw next.
        let k = transcript.len() / 2;
        match session.step(&mappings, &answers[..k]).unwrap() {
            Step::Ask { seq, question } => {
                assert_eq!(seq, k);
                assert_eq!(question.render(&src, &tgt), transcript[k]);
            }
            Step::Done(_) => panic!("prefix of {k} answers cannot complete the session"),
        }
    }

    /// The probe memo must be invisible in the transcript: a session
    /// driven twice against a shared cache (cold, then fully warm) and a
    /// session driven without any cache must render byte-identical
    /// questions and produce byte-identical mappings.
    #[test]
    fn probe_cache_preserves_transcripts_byte_for_byte() {
        let (src, tgt, mappings) = bundle();
        let cons = Constraints::none();
        let cache = crate::cache::ProbeCache::new(256);
        let metrics = muse_obs::Metrics::enabled();

        let drive = |session: &Session| {
            let mut answers: Vec<Answer> = Vec::new();
            let mut transcript: Vec<String> = Vec::new();
            let report = loop {
                match session.step(&mappings, &answers).unwrap() {
                    Step::Ask { question, .. } => {
                        transcript.push(question.render(&src, &tgt));
                        answers.push(match *question {
                            PendingQuestion::Grouping(_) => {
                                Answer::Scenario(ScenarioChoice::Second)
                            }
                            PendingQuestion::Disambiguation(q) => {
                                Answer::Choices(vec![vec![0]; q.choices.len()])
                            }
                            PendingQuestion::Join(_) => Answer::Join(JoinChoice::Inner),
                        });
                    }
                    Step::Done(report) => break report,
                }
            };
            let mappings_text = report
                .mappings
                .iter()
                .map(muse_mapping::printer::print)
                .collect::<Vec<_>>()
                .join("\n");
            (transcript, mappings_text)
        };

        let uncached = Session::new(&src, &tgt, &cons).with_real_example_budget(None);
        let plain = drive(&uncached);

        let cached_session = uncached
            .with_metrics(&metrics)
            .with_probe_cache(&cache, "dblp-test");
        let cold = drive(&cached_session);
        let warm = drive(&cached_session);

        assert_eq!(plain, cold);
        assert_eq!(plain, warm);
        assert!(!cache.is_empty(), "the cold run must populate the cache");
        let snapshot = metrics.snapshot();
        assert!(
            snapshot.counter("wizard.cache_hits") > 0,
            "replay within a stepped session must already hit the memo"
        );
    }

    #[test]
    fn kind_mismatch_is_a_bad_answer() {
        let (src, tgt, mappings) = bundle();
        let cons = Constraints::none();
        let session = Session::new(&src, &tgt, &cons);

        // DBLP's first question is a grouping probe; answer it with a join
        // choice instead.
        let wrong = [Answer::Join(JoinChoice::Outer)];
        match session.step(&mappings, &wrong) {
            Err(WizardError::BadAnswer(msg)) => {
                assert!(msg.contains("kind `join`"), "got: {msg}")
            }
            other => panic!("expected BadAnswer, got {other:?}"),
        }
    }

    #[test]
    fn leftover_answers_are_rejected() {
        let (src, tgt, mappings) = bundle();
        let cons = Constraints::none();
        let session = Session::new(&src, &tgt, &cons);

        let mut answers: Vec<Answer> = Vec::new();
        while let Step::Ask { question, .. } = session.step(&mappings, &answers).unwrap() {
            answers.push(match *question {
                PendingQuestion::Grouping(_) => Answer::Scenario(ScenarioChoice::Second),
                PendingQuestion::Disambiguation(q) => {
                    Answer::Choices(vec![vec![0]; q.choices.len()])
                }
                PendingQuestion::Join(_) => Answer::Join(JoinChoice::Inner),
            });
        }
        answers.push(Answer::Scenario(ScenarioChoice::First));
        match session.step(&mappings, &answers) {
            Err(WizardError::BadAnswer(msg)) => assert!(msg.contains("recorded"), "got: {msg}"),
            other => panic!("expected BadAnswer, got {other:?}"),
        }
    }
}
