//! Instances of nested relational schemas.

use std::collections::{BTreeMap, BTreeSet};

use crate::atom::Atom;
use crate::error::NrError;
use crate::schema::{Schema, SetPath};
use crate::term::{NullId, SetId, SkolemArgs, TermStore};
use crate::types::Ty;

/// A value in an instance: an atomic constant, a labeled null, a SetID, or a
/// choice (one labeled alternative).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// Atomic constant.
    Atom(Atom),
    /// Labeled null (unknown value introduced by the chase).
    Null(NullId),
    /// Reference to a nested set by its SetID.
    Set(SetId),
    /// One alternative of a `Choice` type.
    Choice(String, Box<Value>),
}

impl Value {
    /// Shorthand for a string atom.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Atom(Atom::str(s))
    }

    /// Shorthand for an integer atom.
    pub fn int(i: i64) -> Value {
        Value::Atom(Atom::int(i))
    }

    /// The atom inside, if this value is atomic.
    pub fn as_atom(&self) -> Option<&Atom> {
        match self {
            Value::Atom(a) => Some(a),
            _ => None,
        }
    }

    /// The set id inside, if this value is a set reference.
    pub fn as_set(&self) -> Option<SetId> {
        match self {
            Value::Set(s) => Some(*s),
            _ => None,
        }
    }

    /// True for constants (atoms); false for nulls and set references.
    pub fn is_constant(&self) -> bool {
        matches!(self, Value::Atom(_))
    }

    /// Approximate in-memory footprint in bytes, used to report instance
    /// sizes comparable to the paper's "Size of I" column.
    pub fn approx_bytes(&self) -> usize {
        match self {
            Value::Atom(Atom::Int(_)) => 8,
            Value::Atom(Atom::Str(s)) => s.len().max(8),
            Value::Null(_) | Value::Set(_) => 8,
            Value::Choice(l, v) => l.len() + v.approx_bytes(),
        }
    }
}

/// A record value: one field value per field of the element record type.
pub type Tuple = Vec<Value>;

/// An instance: for every SetID, the set of tuples it contains, plus the
/// distinguished SetIDs of the top-level sets. Ordered containers keep all
/// iteration (and therefore all Muse output) deterministic.
#[derive(Debug, Clone, Default)]
pub struct Instance {
    store: TermStore,
    sets: BTreeMap<SetId, BTreeSet<Tuple>>,
    roots: BTreeMap<String, SetId>,
}

impl Instance {
    /// Empty instance with one (empty) top-level set per set-typed root field
    /// of `schema`.
    pub fn new(schema: &Schema) -> Self {
        let mut inst = Instance::default();
        for path in schema.top_level_sets() {
            let id = inst.store.set_id(path.clone(), Vec::new());
            inst.sets.entry(id).or_default();
            inst.roots.insert(path.label().to_owned(), id);
        }
        inst
    }

    /// The term store (SetIDs / nulls) of this instance.
    pub fn store(&self) -> &TermStore {
        &self.store
    }

    /// Mutable access to the term store.
    pub fn store_mut(&mut self) -> &mut TermStore {
        &mut self.store
    }

    /// SetID of a top-level set by label.
    pub fn root_id(&self, label: &str) -> Option<SetId> {
        self.roots.get(label).copied()
    }

    /// Top-level (label, SetID) pairs in label order.
    pub fn roots(&self) -> impl Iterator<Item = (&str, SetId)> {
        self.roots.iter().map(|(l, id)| (l.as_str(), *id))
    }

    /// Intern (or find) the SetID for `set` grouped by `args`, registering an
    /// empty set of tuples for it if new.
    pub fn group(&mut self, set: SetPath, args: Vec<Value>) -> SetId {
        let id = self.store.set_id(set, args);
        self.sets.entry(id).or_default();
        id
    }

    /// [`Instance::group`] from shared arguments (see
    /// [`TermStore::set_id_shared`]).
    pub fn group_shared(&mut self, set: &SetPath, args: &SkolemArgs) -> SetId {
        let id = self.store.set_id_shared(set, args);
        self.sets.entry(id).or_default();
        id
    }

    /// Insert a tuple into the set identified by `id`. Returns `true` if the
    /// tuple was not already present (set semantics).
    pub fn insert(&mut self, id: SetId, tuple: Tuple) -> bool {
        self.sets.entry(id).or_default().insert(tuple)
    }

    /// Remove a tuple from the set identified by `id`. Returns `true` if
    /// the tuple was present. The set (and its SetID) stay registered —
    /// removal perturbs contents, never term identity.
    pub fn remove(&mut self, id: SetId, tuple: &Tuple) -> bool {
        self.sets.get_mut(&id).is_some_and(|s| s.remove(tuple))
    }

    /// The tuples of a set (empty if the id is unknown).
    pub fn tuples(&self, id: SetId) -> impl Iterator<Item = &Tuple> {
        self.sets.get(&id).into_iter().flatten()
    }

    /// Number of tuples in one set.
    pub fn set_len(&self, id: SetId) -> usize {
        self.sets.get(&id).map_or(0, BTreeSet::len)
    }

    /// All registered SetIDs in id order.
    pub fn set_ids(&self) -> impl Iterator<Item = SetId> + '_ {
        self.sets.keys().copied()
    }

    /// All SetIDs instantiating a given set path.
    pub fn set_ids_of(&self, path: &SetPath) -> Vec<SetId> {
        self.sets
            .keys()
            .copied()
            .filter(|id| &self.store.set_term(*id).set == path)
            .collect()
    }

    /// Iterate over every tuple of every set instantiating `path`, together
    /// with the SetID that contains it.
    pub fn tuples_of_path<'a>(
        &'a self,
        path: &SetPath,
    ) -> impl Iterator<Item = (SetId, &'a Tuple)> + 'a {
        let ids = self.set_ids_of(path);
        ids.into_iter()
            .flat_map(move |id| self.tuples(id).map(move |t| (id, t)))
    }

    /// Total number of tuples across all sets.
    pub fn total_tuples(&self) -> usize {
        self.sets.values().map(BTreeSet::len).sum()
    }

    /// Approximate in-memory data size in bytes (for "Size of I" reporting).
    pub fn approx_bytes(&self) -> usize {
        self.sets
            .values()
            .flat_map(|ts| ts.iter())
            .map(|t| t.iter().map(Value::approx_bytes).sum::<usize>())
            .sum()
    }

    /// True when no set contains any tuple.
    pub fn is_empty(&self) -> bool {
        self.sets.values().all(BTreeSet::is_empty)
    }

    /// Check that this instance conforms to `schema`: every SetID's path
    /// exists, tuples have the element record's arity, atomic fields hold
    /// atoms or nulls, and set-typed fields hold SetIDs of the right child
    /// path that are registered in this instance.
    pub fn validate(&self, schema: &Schema) -> Result<(), NrError> {
        for (&id, tuples) in &self.sets {
            let path = self.store.set_term(id).set.clone();
            let rcd = schema.element_record(&path)?;
            let fields = rcd.rcd_fields().expect("element record");
            for tuple in tuples {
                if tuple.len() != fields.len() {
                    return Err(NrError::ArityMismatch {
                        path: path.to_string(),
                        expected: fields.len(),
                        got: tuple.len(),
                    });
                }
                for (field, value) in fields.iter().zip(tuple) {
                    self.validate_value(schema, &path, &field.label, &field.ty, value)?;
                }
            }
        }
        Ok(())
    }

    fn validate_value(
        &self,
        schema: &Schema,
        path: &SetPath,
        label: &str,
        ty: &Ty,
        value: &Value,
    ) -> Result<(), NrError> {
        let mismatch = || NrError::TypeMismatch {
            path: path.to_string(),
            field: label.into(),
        };
        match (ty, value) {
            (Ty::Str, Value::Atom(Atom::Str(_))) | (Ty::Int, Value::Atom(Atom::Int(_))) => Ok(()),
            (Ty::Str | Ty::Int, Value::Null(_)) => Ok(()),
            (Ty::Set(_), Value::Set(id)) => {
                if !self.sets.contains_key(id) {
                    return Err(NrError::UnknownSetId);
                }
                let expected = path.child(label);
                if self.store.set_term(*id).set != expected {
                    return Err(mismatch());
                }
                let _ = schema.resolve_set(&expected)?;
                Ok(())
            }
            (Ty::Choice(alts), Value::Choice(l, inner)) => {
                let alt = alts.iter().find(|f| &f.label == l).ok_or_else(mismatch)?;
                self.validate_value(schema, path, label, &alt.ty, inner)
            }
            _ => Err(mismatch()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Field;

    fn orgdb() -> Schema {
        Schema::new(
            "OrgDB",
            vec![
                Field::new(
                    "Orgs",
                    Ty::set_of(vec![
                        Field::new("oname", Ty::Str),
                        Field::new("Projects", Ty::set_of(vec![Field::new("pname", Ty::Str)])),
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

    #[test]
    fn roots_created_empty() {
        let s = orgdb();
        let i = Instance::new(&s);
        assert!(i.is_empty());
        assert!(i.root_id("Orgs").is_some());
        assert!(i.root_id("Employees").is_some());
        assert!(i.root_id("Nope").is_none());
        assert_eq!(i.roots().count(), 2);
        i.validate(&s).unwrap();
    }

    #[test]
    fn insert_and_set_semantics() {
        let s = orgdb();
        let mut i = Instance::new(&s);
        let emps = i.root_id("Employees").unwrap();
        assert!(i.insert(emps, vec![Value::str("e14"), Value::str("Smith")]));
        // Duplicate insert is absorbed (sets, not bags).
        assert!(!i.insert(emps, vec![Value::str("e14"), Value::str("Smith")]));
        assert_eq!(i.set_len(emps), 1);
        assert_eq!(i.total_tuples(), 1);
        i.validate(&s).unwrap();
    }

    #[test]
    fn nested_sets_and_validation() {
        let s = orgdb();
        let mut i = Instance::new(&s);
        let orgs = i.root_id("Orgs").unwrap();
        let projs = i.group(SetPath::parse("Orgs.Projects"), vec![Value::str("IBM")]);
        i.insert(orgs, vec![Value::str("IBM"), Value::Set(projs)]);
        i.insert(projs, vec![Value::str("DBSearch")]);
        i.validate(&s).unwrap();
        assert_eq!(
            i.tuples_of_path(&SetPath::parse("Orgs.Projects")).count(),
            1
        );
        assert_eq!(i.set_ids_of(&SetPath::parse("Orgs.Projects")), vec![projs]);
    }

    #[test]
    fn validation_catches_arity_and_type_errors() {
        let s = orgdb();
        let mut i = Instance::new(&s);
        let emps = i.root_id("Employees").unwrap();
        i.insert(emps, vec![Value::str("only-one")]);
        assert!(matches!(i.validate(&s), Err(NrError::ArityMismatch { .. })));

        let mut j = Instance::new(&s);
        let emps = j.root_id("Employees").unwrap();
        j.insert(emps, vec![Value::int(3), Value::str("Smith")]);
        assert!(matches!(j.validate(&s), Err(NrError::TypeMismatch { .. })));
    }

    #[test]
    fn validation_checks_setref_path() {
        let s = orgdb();
        let mut i = Instance::new(&s);
        let orgs = i.root_id("Orgs").unwrap();
        // Point the Projects field at the Employees root set: wrong path.
        let emps = i.root_id("Employees").unwrap();
        i.insert(orgs, vec![Value::str("IBM"), Value::Set(emps)]);
        assert!(matches!(i.validate(&s), Err(NrError::TypeMismatch { .. })));
    }

    #[test]
    fn nulls_validate_in_atomic_positions() {
        let s = orgdb();
        let mut i = Instance::new(&s);
        let emps = i.root_id("Employees").unwrap();
        let n = i.store_mut().fresh_null();
        i.insert(emps, vec![Value::str("e1"), Value::Null(n)]);
        i.validate(&s).unwrap();
    }

    #[test]
    fn approx_bytes_counts_data() {
        let s = orgdb();
        let mut i = Instance::new(&s);
        let emps = i.root_id("Employees").unwrap();
        i.insert(emps, vec![Value::str("e14"), Value::str("Smith")]);
        assert!(i.approx_bytes() >= 13); // max(8,3) + max(8,5)
    }
}
