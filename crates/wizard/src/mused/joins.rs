//! Inner vs outer join interpretations (Sec. IV, "More options").
//!
//! A mapping whose `for` clause joins several sets only exchanges *joined*
//! tuples. The designer may instead want dangling tuples exchanged too
//! (e.g. employees that manage no project). Following Yan et al.'s
//! technique, Muse shows an example containing one dangling tuple and the
//! two resulting targets — without it (inner) and with it (outer). Choosing
//! outer adds a *companion mapping* that exchanges the core set on its own.

use muse_chase::chase;
use muse_mapping::{Grouping, Mapping, MappingVar, PathRef, WhereClause};
use muse_nr::{Instance, Value};

use crate::designer::{Designer, JoinChoice};
use crate::error::WizardError;
use crate::example::{build_example, materialize, ClassSpace, ExampleRequest};
use crate::mused::MuseD;

/// The inner/outer question for one source variable of a mapping.
#[derive(Debug, Clone)]
pub struct JoinQuestion {
    /// The mapping under design.
    pub mapping: String,
    /// Name of the variable whose set may have dangling tuples.
    pub dangling_var: String,
    /// Example source containing one dangling tuple.
    pub example: Instance,
    /// Target under the inner interpretation (dangling tuple absent).
    pub scenario_inner: Instance,
    /// Target under the outer interpretation (dangling tuple exchanged by
    /// the companion mapping).
    pub scenario_outer: Instance,
    /// The companion mapping the outer choice would add.
    pub companion: Mapping,
}

/// Build the companion mapping that exchanges `core_var`'s set on its own:
/// it keeps only that source variable, the target variables every one of
/// whose `where`-assignments comes from it (plus their ancestors), and the
/// correspondingly restricted `where` clauses and groupings.
pub fn outer_companion(m: &Mapping, core_var: usize) -> Result<Mapping, WizardError> {
    if core_var >= m.source_vars.len() {
        return Err(WizardError::BadAnswer(format!(
            "no source variable #{core_var}"
        )));
    }
    if m.source_vars[core_var].parent.is_some() {
        return Err(WizardError::BadAnswer(
            "outer companion requires a top-level source variable".into(),
        ));
    }
    let mut out = Mapping::new(format!("{}~outer", m.name));
    out.source_vars = vec![MappingVar {
        name: m.source_vars[core_var].name.clone(),
        set: m.source_vars[core_var].set.clone(),
        parent: None,
    }];

    // Target variables kept: those with at least one assignment from the
    // core variable and no assignment from any other variable, then closed
    // upward so parents are present.
    let mut keep = vec![false; m.target_vars.len()];
    for (ti, _) in m.target_vars.iter().enumerate() {
        let mut from_core = false;
        let mut from_other = false;
        for w in &m.wheres {
            if let WhereClause::Eq { source, target } = w {
                if target.var == ti {
                    if source.var == core_var {
                        from_core = true;
                    } else {
                        from_other = true;
                    }
                }
            }
        }
        keep[ti] = from_core && !from_other;
    }
    for ti in 0..m.target_vars.len() {
        if keep[ti] {
            let mut p = m.target_vars[ti].parent.as_ref().map(|(i, _)| *i);
            while let Some(i) = p {
                keep[i] = true;
                p = m.target_vars[i].parent.as_ref().map(|(j, _)| *j);
            }
        }
    }
    let mut new_index = vec![usize::MAX; m.target_vars.len()];
    for (ti, tv) in m.target_vars.iter().enumerate() {
        if keep[ti] {
            new_index[ti] = out.target_vars.len();
            let parent = tv.parent.as_ref().map(|(p, f)| (new_index[*p], f.clone()));
            out.target_vars.push(MappingVar {
                name: tv.name.clone(),
                set: tv.set.clone(),
                parent,
            });
        }
    }
    if out.target_vars.is_empty() {
        return Err(WizardError::BadAnswer(format!(
            "variable {} feeds no target element on its own",
            m.source_vars[core_var].name
        )));
    }
    for (a, b) in &m.target_eqs {
        if keep[a.var] && keep[b.var] {
            out.target_eq(
                PathRef::new(new_index[a.var], a.attr.clone()),
                PathRef::new(new_index[b.var], b.attr.clone()),
            );
        }
    }
    for w in &m.wheres {
        if let WhereClause::Eq { source, target } = w {
            if source.var == core_var && keep[target.var] {
                out.where_eq(
                    PathRef::new(0, source.attr.clone()),
                    PathRef::new(new_index[target.var], target.attr.clone()),
                );
            }
        }
    }
    // Groupings of the sets the kept variables fill, restricted to core
    // arguments.
    for (set, g) in &m.groupings {
        let owner_kept = m
            .target_vars
            .iter()
            .enumerate()
            .any(|(ti, tv)| keep[ti] && set.parent().as_ref() == Some(&tv.set));
        if owner_kept {
            let args: Vec<PathRef> = g
                .args
                .iter()
                .filter(|r| r.var == core_var)
                .map(|r| PathRef::new(0, r.attr.clone()))
                .collect();
            out.set_grouping(set.clone(), Grouping::new(args));
        }
    }
    Ok(out)
}

impl MuseD<'_> {
    /// Ask the designer whether `core_var`'s set should be exchanged with
    /// inner (joined tuples only) or outer (dangling tuples too) semantics.
    /// Returns the companion mapping when the designer chooses outer.
    pub fn design_join(
        &self,
        m: &Mapping,
        core_var: usize,
        designer: &mut dyn Designer,
    ) -> Result<Option<Mapping>, WizardError> {
        let q = self.join_question(m, core_var)?;
        match designer.pick_join(&q)? {
            JoinChoice::Inner => Ok(None),
            JoinChoice::Outer => Ok(Some(q.companion)),
        }
    }

    /// The inner/outer question about `core_var` of `m`.
    pub(crate) fn join_question(
        &self,
        m: &Mapping,
        core_var: usize,
    ) -> Result<JoinQuestion, WizardError> {
        if m.is_ambiguous() {
            return Err(WizardError::BadAnswer(
                "disambiguate before choosing join semantics".into(),
            ));
        }
        let companion = outer_companion(m, core_var)?;
        let space = ClassSpace::new(m, self.source_schema, self.source_constraints)?;
        let req = ExampleRequest {
            copies: 1,
            agree: 0,
            differ: vec![],
            distinct: vec![],
            real_budget: self.real_example_budget,
        };
        let base = build_example(m, &space, &req, self.source_schema, None)?;

        // Add one dangling tuple for the core variable's set: fresh values
        // that join with nothing.
        let rows = base.rows.clone();
        let core_set = &m.source_vars[core_var].set;
        let attrs_of = self
            .source_schema
            .attributes(core_set)
            .map_err(WizardError::Nr)?;
        let dangle_row: Vec<Value> = attrs_of
            .iter()
            .map(|a| Value::str(format!("{a}-dangling")))
            .collect();
        // A second "copy" containing only the core variable's tuple would
        // not materialize (materialize expects full rows), so instead add
        // the dangling tuple directly after materialization.
        let example = {
            let mut inst = materialize(m, self.source_schema, &rows)?;
            let root = inst
                .root_id(core_set.label())
                .ok_or_else(|| WizardError::BadAnswer("core set must be top-level".into()))?;
            // Respect the column types: reuse the base row's integer
            // positions (dangling strings only fit string columns).
            let rcd = self
                .source_schema
                .element_record(core_set)
                .map_err(WizardError::Nr)?;
            let mut tuple = Vec::new();
            let mut ai = 0usize;
            for f in rcd.rcd_fields().into_iter().flatten() {
                if f.ty.is_set() {
                    let id = inst.group(core_set.child(&f.label), vec![Value::str("dangling")]);
                    tuple.push(Value::Set(id));
                } else {
                    match f.ty {
                        muse_nr::Ty::Int => tuple.push(Value::int(999_000 + ai as i64)),
                        _ => tuple.push(dangle_row[ai].clone()),
                    }
                    ai += 1;
                }
            }
            inst.insert(root, tuple);
            inst
        };

        let scenario_inner = chase(
            self.source_schema,
            self.target_schema,
            &example,
            std::slice::from_ref(m),
        )?;
        let scenario_outer = chase(
            self.source_schema,
            self.target_schema,
            &example,
            &[m.clone(), companion.clone()],
        )?;
        Ok(JoinQuestion {
            mapping: m.name.clone(),
            dangling_var: m.source_vars[core_var].name.clone(),
            example,
            scenario_inner,
            scenario_outer,
            companion,
        })
    }
}

impl JoinQuestion {
    /// The question as the interactive wizard presents it: the example
    /// source with its dangling tuple and the two resulting targets.
    pub fn render(
        &self,
        source_schema: &muse_nr::Schema,
        target_schema: &muse_nr::Schema,
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "[Muse-D] mapping {}: should `{}` tuples that join with nothing still be exchanged?",
            self.mapping, self.dangling_var
        );
        let _ = writeln!(out, "Example source (note the dangling tuple):");
        let _ = writeln!(
            out,
            "{}",
            muse_nr::display::render(source_schema, &self.example)
        );
        let _ = writeln!(out, "Scenario 1 (inner — dangling tuple dropped):");
        let _ = writeln!(
            out,
            "{}",
            muse_nr::display::render(target_schema, &self.scenario_inner)
        );
        let _ = writeln!(out, "Scenario 2 (outer — dangling tuple exchanged):");
        let _ = write!(
            out,
            "{}",
            muse_nr::display::render(target_schema, &self.scenario_outer)
        );
        out
    }
}
