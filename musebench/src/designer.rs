//! The designers that answer the wizard's questions in the benchmark.
//!
//! * [`strategy_oracle`]: the paper's evaluation designer (Sec. VI): the
//!   first interpretation of every ambiguous mapping, and the grouping of a
//!   strategy (G1/G2/G3) for every nested set.
//! * [`Policy`]: a seeded designer for the served workload. It answers over
//!   the wire, so it only sees the question JSON.
//! * [`Recording`]: wraps a designer, timing the designer's wait for each
//!   question (the time since it last answered) and recording the answers
//!   so an offline reference can replay them.

use std::time::Instant;

use muse_cliogen::{desired_grouping, GroupingStrategy};
use muse_mapping::ambiguity::{or_groups, select_multi};
use muse_mapping::Mapping;
use muse_obs::{Json, Rng};
use muse_scenarios::Scenario;
use muse_wizard::{
    Answer, Designer, DisambiguationQuestion, GroupingQuestion, JoinChoice, JoinQuestion,
    OracleDesigner, ScenarioChoice, WizardError,
};

use crate::trace::Tracer;

/// The strategy oracle over a scenario's mappings.
pub fn strategy_oracle<'a>(
    s: &'a Scenario,
    mappings: &[Mapping],
    strategy: GroupingStrategy,
) -> OracleDesigner<'a> {
    let mut oracle = OracleDesigner::new(&s.source_schema, &s.target_schema);
    for m in mappings {
        let resolved = if m.is_ambiguous() {
            let picks = vec![vec![0usize]; or_groups(m).len()];
            oracle
                .intended_choices
                .insert(m.name.clone(), picks.clone());
            select_multi(m, &picks).expect("first interpretation selects")
        } else {
            vec![m.clone()]
        };
        for sel in resolved {
            let sets = sel
                .filled_target_sets(&s.target_schema)
                .expect("filled target sets resolve");
            for sk in sets {
                let desired =
                    desired_grouping(&sel, &sk, strategy, &s.source_schema, &s.target_schema)
                        .expect("strategy grouping");
                oracle.intend_grouping(sel.name.clone(), sk, desired);
            }
        }
    }
    oracle
}

/// The seeded served-designer policy: scenario 1 or 2 at random, one
/// random alternative per choice list, inner joins.
pub struct Policy(Rng);

impl Policy {
    pub fn new(seed: u64) -> Self {
        Policy(Rng::new(seed))
    }

    /// The answer to the wire-encoded question `q`.
    pub fn answer(&mut self, q: &Json) -> Json {
        match q.get("kind").and_then(Json::as_str) {
            Some("choices") => {
                let lists = q.get("choices").and_then(Json::as_arr).unwrap_or(&[]);
                let picks = lists
                    .iter()
                    .map(|c| {
                        let n = c
                            .get("values")
                            .and_then(Json::as_arr)
                            .map_or(1, <[Json]>::len);
                        Json::Arr(vec![Json::Int(self.0.index(n.max(1)) as i64)])
                    })
                    .collect();
                Json::obj(vec![
                    ("kind", Json::str("choices")),
                    ("picks", Json::Arr(picks)),
                ])
            }
            Some("join") => Json::obj(vec![
                ("kind", Json::str("join")),
                ("pick", Json::str("inner")),
            ]),
            _ => Json::obj(vec![
                ("kind", Json::str("scenario")),
                ("pick", Json::Int(1 + self.0.index(2) as i64)),
            ]),
        }
    }
}

/// A designer wrapper that times each question's wait and records the
/// answers. With a tracer, the inner designer's own work is a `designer`
/// span, so the wizard spans around it do not count it as wizard time.
pub struct Recording<'d, 't> {
    inner: &'d mut dyn Designer,
    tracer: Option<&'t Tracer>,
    last: Instant,
    /// Seconds from the previous answer (or the pass start) to each question.
    pub waits: Vec<f64>,
    pub answers: Vec<Answer>,
}

impl<'d, 't> Recording<'d, 't> {
    pub fn new(inner: &'d mut dyn Designer, tracer: Option<&'t Tracer>) -> Self {
        Recording {
            inner,
            tracer,
            last: Instant::now(),
            waits: Vec::new(),
            answers: Vec::new(),
        }
    }

    fn ask<T>(
        &mut self,
        f: impl FnOnce(&mut dyn Designer) -> Result<T, WizardError>,
    ) -> Result<T, WizardError> {
        self.waits.push(self.last.elapsed().as_secs_f64());
        let inner = &mut *self.inner;
        let out = match self.tracer {
            Some(t) => t.span("designer", || f(inner)),
            None => {
                crate::calib::tick();
                f(inner)
            }
        };
        self.last = Instant::now();
        out
    }
}

impl Designer for Recording<'_, '_> {
    fn pick_scenario(&mut self, q: &GroupingQuestion) -> Result<ScenarioChoice, WizardError> {
        let c = self.ask(|d| d.pick_scenario(q))?;
        self.answers.push(Answer::Scenario(c));
        Ok(c)
    }

    fn fill_choices(&mut self, q: &DisambiguationQuestion) -> Result<Vec<Vec<usize>>, WizardError> {
        let c = self.ask(|d| d.fill_choices(q))?;
        self.answers.push(Answer::Choices(c.clone()));
        Ok(c)
    }

    fn pick_join(&mut self, q: &JoinQuestion) -> Result<JoinChoice, WizardError> {
        let c = self.ask(|d| d.pick_join(q))?;
        self.answers.push(Answer::Join(c));
        Ok(c)
    }
}
