//! Strategy-oracle sessions: the server plays designer.
//!
//! `POST /sessions` with `"strategy": "g1"|"g2"|"g3"` asks the server to
//! answer its own questions the way `muse scenario --strategy` does: the
//! first interpretation of every ambiguity, inner joins, and the strategy's
//! grouping per nested set. Each oracle answer flows through the normal
//! answer path (WAL append included), so an oracle session replays after a
//! crash exactly like an interactive one — the oracle is never consulted
//! again.
//!
//! This is the CLI's `oracle_for` made `Result`-returning: a server must
//! turn a broken intention into a 500, not a panic.

use std::collections::BTreeMap;

use muse_cliogen::{desired_grouping, GroupingStrategy};
use muse_mapping::ambiguity::{or_groups, select_multi};
use muse_mapping::PathRef;
use muse_nr::SetPath;
use muse_wizard::{Answer, OracleDesigner, PendingQuestion, WizardError};

use crate::store::SessionCtx;

/// Parse `g1`/`g2`/`g3` (case-insensitive).
pub fn parse_strategy(name: &str) -> Result<GroupingStrategy, String> {
    match name.to_ascii_lowercase().as_str() {
        "g1" => Ok(GroupingStrategy::G1),
        "g2" => Ok(GroupingStrategy::G2),
        "g3" => Ok(GroupingStrategy::G3),
        other => Err(format!("unknown strategy `{other}` (expected g1|g2|g3)")),
    }
}

/// The canonical lowercase name of a strategy.
pub fn strategy_name(s: GroupingStrategy) -> &'static str {
    match s {
        GroupingStrategy::G1 => "g1",
        GroupingStrategy::G2 => "g2",
        GroupingStrategy::G3 => "g3",
    }
}

/// The owned intention maps of a strategy oracle — computed once per
/// session, then loaned to a borrowing [`OracleDesigner`] per question.
pub struct Intentions {
    groupings: BTreeMap<(String, SetPath), Vec<PathRef>>,
    choices: BTreeMap<String, Vec<Vec<usize>>>,
}

impl Intentions {
    /// What the strategy oracle wants for every (resolved) mapping of the
    /// context: first interpretation of each ambiguity, `strategy`
    /// groupings for every filled nested set.
    pub fn for_strategy(
        ctx: &SessionCtx,
        strategy: GroupingStrategy,
    ) -> Result<Intentions, String> {
        let mut intentions = Intentions {
            groupings: BTreeMap::new(),
            choices: BTreeMap::new(),
        };
        for m in &ctx.mappings {
            let resolved = if m.is_ambiguous() {
                let picks = vec![vec![0usize]; or_groups(m).len()];
                intentions.choices.insert(m.name.clone(), picks.clone());
                select_multi(m, &picks)
                    .map_err(|e| format!("{}: selecting interpretation: {e}", m.name))?
            } else {
                vec![m.clone()]
            };
            for sel in resolved {
                let sets = sel
                    .filled_target_sets(&ctx.scenario.target_schema)
                    .map_err(|e| format!("{}: filled target sets: {e}", sel.name))?;
                for sk in sets {
                    let desired = desired_grouping(
                        &sel,
                        &sk,
                        strategy,
                        &ctx.scenario.source_schema,
                        &ctx.scenario.target_schema,
                    )
                    .map_err(|e| format!("{}/{sk}: strategy grouping: {e}", sel.name))?;
                    intentions.groupings.insert((sel.name.clone(), sk), desired);
                }
            }
        }
        Ok(intentions)
    }

    /// Answer one pending question the way the oracle would.
    pub fn answer(&self, ctx: &SessionCtx, q: &PendingQuestion) -> Result<Answer, WizardError> {
        let mut oracle =
            OracleDesigner::new(&ctx.scenario.source_schema, &ctx.scenario.target_schema);
        oracle.intended_groupings = self.groupings.clone();
        oracle.intended_choices = self.choices.clone();
        q.answer_with(&mut oracle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{SessionCfg, SessionCtx};
    use muse_wizard::Step;

    #[test]
    fn oracle_drives_a_session_to_done() {
        let cfg = SessionCfg {
            scenario: "DBLP".to_owned(),
            use_instance: false,
            ..SessionCfg::default()
        };
        let ctx = SessionCtx::build(&cfg).unwrap();
        let intentions = Intentions::for_strategy(&ctx, GroupingStrategy::G1).unwrap();

        let session = muse_wizard::Session::new(
            &ctx.scenario.source_schema,
            &ctx.scenario.target_schema,
            &ctx.scenario.source_constraints,
        );
        let mut answers: Vec<Answer> = Vec::new();
        let report = loop {
            match session.step(&ctx.mappings, &answers).unwrap() {
                Step::Ask { question, .. } => {
                    answers.push(intentions.answer(&ctx, &question).unwrap());
                }
                Step::Done(report) => break report,
            }
        };
        assert!(report.total_questions() > 0);
        assert!(!report.mappings.is_empty());
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in [
            GroupingStrategy::G1,
            GroupingStrategy::G2,
            GroupingStrategy::G3,
        ] {
            assert_eq!(parse_strategy(strategy_name(s)).unwrap(), s);
        }
        assert!(parse_strategy("g4").is_err());
    }
}
