//! Resident-vs-rebuild differential: a [`SessionState`] kept in memory and
//! fed one answer at a time must stand exactly where a fresh rebuild from
//! the answer log stands. After every answer, the resident state's next
//! question (or final report) must render byte-equal to
//! `Session::step(&answers[..k])`. Each rebuild costs O(k), and sessions
//! run to hundreds of answers, so each one is checked after every one of
//! its first answers (24 for a named scenario, 16 for a synthetic bundle)
//! and once more at the end. Mid-sequence the test injects one answer
//! of the wrong kind and one out-of-range choice pick: each must be
//! rejected, and a state rebuilt after the rejection (as the server
//! rebuilds it after dropping the failed one) must render the same bytes.
//! Covers the four named scenarios and 64 seeded synthetic bundles, with
//! seeded random answers.

use muse_nr::Instance;
use muse_obs::Rng;
use muse_scenarios::Scenario;
use muse_wizard::{
    Answer, JoinChoice, PendingQuestion, ScenarioChoice, Session, SessionState, Step, WizardError,
};

/// A step rendered to bytes: the open question with its index, or the
/// report summary (less its wall-clock example time) plus the printed
/// mappings.
fn render(step: &Step, s: &Scenario) -> String {
    match step {
        Step::Ask { seq, question } => format!(
            "ask #{seq}\n{}",
            question.render(&s.source_schema, &s.target_schema)
        ),
        Step::Done(report) => {
            let printed: Vec<String> = report
                .mappings
                .iter()
                .map(muse_mapping::printer::print)
                .collect();
            let summary = muse_wizard::render_report(report);
            let summary: Vec<&str> = (summary.lines())
                .filter(|l| !l.starts_with("example time:"))
                .collect();
            format!("done\n{}\n{}", summary.join("\n"), printed.join("\n"))
        }
    }
}

/// A seeded random answer that fits `q`.
fn random_answer(q: &PendingQuestion, rng: &mut Rng) -> Answer {
    match q {
        PendingQuestion::Grouping(_) => Answer::Scenario(if rng.chance(0.5) {
            ScenarioChoice::First
        } else {
            ScenarioChoice::Second
        }),
        PendingQuestion::Disambiguation(d) => Answer::Choices(
            d.choices
                .iter()
                .map(|c| vec![rng.index(c.values.len().max(1))])
                .collect(),
        ),
        PendingQuestion::Join(_) => Answer::Join(if rng.chance(0.5) {
            JoinChoice::Inner
        } else {
            JoinChoice::Outer
        }),
    }
}

/// An answer of the wrong kind for `q`.
fn wrong_kind(q: &PendingQuestion) -> Answer {
    match q {
        PendingQuestion::Grouping(_) => Answer::Join(JoinChoice::Inner),
        PendingQuestion::Disambiguation(_) | PendingQuestion::Join(_) => {
            Answer::Scenario(ScenarioChoice::First)
        }
    }
}

/// A choice pick one past the first list's alternatives, when `q` is a
/// disambiguation.
fn out_of_range(q: &PendingQuestion) -> Option<Answer> {
    let PendingQuestion::Disambiguation(d) = q else {
        return None;
    };
    let mut picks: Vec<Vec<usize>> = d.choices.iter().map(|_| vec![0]).collect();
    picks[0] = vec![d.choices[0].values.len()];
    Some(Answer::Choices(picks))
}

/// Reject `bad` on a resident state sitting at `expect`: the answer must
/// be a `BadAnswer` that leaves the state where it was, and a state rebuilt
/// from the log (the server's recovery after dropping the failed one)
/// must render `expect` again. Returns the rebuilt state.
fn reject(
    session: &Session,
    s: &Scenario,
    mappings: &[muse_mapping::Mapping],
    mut st: SessionState,
    answers: &[Answer],
    bad: Answer,
    expect: &str,
) -> SessionState {
    match session.advance(mappings, &mut st, Some(bad.clone())) {
        Err(WizardError::BadAnswer(_)) => {}
        other => panic!("{}: {bad:?} was not rejected: {other:?}", s.name),
    }
    let again = session.advance(mappings, &mut st, None).unwrap();
    assert_eq!(
        render(&again, s),
        expect,
        "{}: rejection moved the state",
        s.name
    );
    drop(st);
    let (rebuilt, step) = session.resume(mappings, answers).unwrap();
    assert_eq!(render(&step, s), expect, "{}: rebuild diverged", s.name);
    rebuilt
}

/// Drive one session to completion with seeded random answers, checking
/// the resident state against a rebuild after each of the first `checked`
/// answers and at the end. Returns the number of answers given.
fn differential(
    s: &Scenario,
    instance: Option<&Instance>,
    joins: bool,
    seed: u64,
    checked: usize,
) -> usize {
    let mappings = s.mappings().unwrap();
    let mut session = Session::new(&s.source_schema, &s.target_schema, &s.source_constraints)
        .with_real_example_budget(None);
    session.offer_join_options = joins;
    if let Some(inst) = instance {
        session = session.with_instance(inst);
    }

    let mut rng = Rng::new(seed);
    let mut st = SessionState::default();
    let mut step = session.advance(&mappings, &mut st, None).unwrap();
    let mut answers: Vec<Answer> = Vec::new();
    let mut injected_kind = false;
    let mut injected_range = false;
    loop {
        let rendered = render(&step, s);
        let done = matches!(step, Step::Done(_));
        if done || answers.len() <= checked {
            let reference = session.step(&mappings, &answers).unwrap();
            assert_eq!(
                rendered,
                render(&reference, s),
                "{}: resident state diverged after {} answer(s)",
                s.name,
                answers.len()
            );
        }
        let Step::Ask { question, .. } = &step else {
            return answers.len();
        };
        if !injected_range {
            if let Some(bad) = out_of_range(question) {
                injected_range = true;
                st = reject(&session, s, &mappings, st, &answers, bad, &rendered);
            }
        }
        if !injected_kind && answers.len() >= 2 {
            injected_kind = true;
            let bad = wrong_kind(question);
            st = reject(&session, s, &mappings, st, &answers, bad, &rendered);
        }
        let answer = random_answer(question, &mut rng);
        answers.push(answer.clone());
        step = session.advance(&mappings, &mut st, Some(answer)).unwrap();
        assert_eq!(st.answered(), answers.len());
    }
}

#[test]
fn named_scenarios_resident_state_matches_rebuild() {
    for (i, s) in muse_scenarios::all_scenarios().iter().enumerate() {
        let inst = s.instance(s.default_scale * 0.02, 1);
        let given = differential(s, Some(&inst), i % 2 == 1, 7 + i as u64, 24);
        assert!(given > 24, "{}: only {given} answers given", s.name);
    }
}

#[test]
fn synthetic_bundles_resident_state_matches_rebuild() {
    let mut given = 0;
    for (i, s) in muse_scenarios::synth::fleet(64, 0).iter().enumerate() {
        let inst = s.instance(s.default_scale * 0.5, 1);
        let instance = (i % 4 != 3).then_some(&inst);
        given += differential(s, instance, i % 3 == 0, i as u64, 16);
    }
    assert!(given > 64, "the fleet gave only {given} answers");
}

#[test]
fn answering_a_finished_session_is_rejected() {
    let s = &muse_scenarios::all_scenarios()[1]; // DBLP
    let mappings = s.mappings().unwrap();
    let session = Session::new(&s.source_schema, &s.target_schema, &s.source_constraints);
    let mut st = SessionState::default();
    let mut step = session.advance(&mappings, &mut st, None).unwrap();
    while let Step::Ask { question, .. } = &step {
        let answer = random_answer(question, &mut Rng::new(3));
        step = session.advance(&mappings, &mut st, Some(answer)).unwrap();
    }
    let late = Answer::Scenario(ScenarioChoice::First);
    assert!(matches!(
        session.advance(&mappings, &mut st, Some(late)),
        Err(WizardError::BadAnswer(_))
    ));
    assert!(matches!(
        session.advance(&mappings, &mut st, None),
        Err(WizardError::BadAnswer(_))
    ));
}
