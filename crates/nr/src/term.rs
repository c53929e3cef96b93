//! Interned Skolem terms: SetIDs and labeled nulls.
//!
//! In the NR model, a value of type `SetOf τ` is represented by a *SetID*
//! with an associated set of element values. Mappings compute SetIDs with
//! grouping (Skolem) functions such as `SKProjs(c.cid, c.cname)`; labeled
//! nulls such as `N1` stand for unknown atomic values. Both are represented
//! here as interned terms so that the chase is deterministic (re-running it
//! is a no-op) and homomorphisms can map term to term.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::instance::Value;
use crate::schema::SetPath;

/// Identifier of a set value (a nested set occurrence) within one instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SetId(pub(crate) u32);

impl SetId {
    /// The raw index (stable within a single [`TermStore`]).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a labeled null within one instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NullId(pub(crate) u32);

impl NullId {
    /// The raw index (stable within a single [`TermStore`]).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The Skolem term behind a [`SetId`]: `SK<set>(args…)`.
///
/// Top-level sets use an empty argument list; so does a nested set grouped by
/// the empty grouping function `SK()` (one global group). Different set
/// paths always denote different terms, matching the paper's convention that
/// every nested set in the target schema has a different SetID name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Term {
    /// The set type this SetID instantiates.
    pub set: SetPath,
    /// Grouping-function arguments (source values), shared with every other
    /// term interned from the same [`SkolemArgs`].
    pub args: Arc<[Value]>,
}

/// The term behind a labeled null: a Skolemized unknown `N_tag(args…)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NullTerm {
    /// Human-readable provenance tag (e.g. `m1.o.address`).
    pub tag: String,
    /// Values the null is a function of (the source binding).
    pub args: Arc<[Value]>,
}

/// A Skolem argument tuple together with its hash: built once per distinct
/// argument list and shared by every term interned from it (a mapping's
/// default groupings give several nested sets the same list).
#[derive(Debug, Clone)]
pub struct SkolemArgs {
    values: Arc<[Value]>,
    hash: u64,
}

impl SkolemArgs {
    /// Hash `values` once and make them shareable.
    pub fn new(values: impl Into<Arc<[Value]>>) -> Self {
        let values = values.into();
        SkolemArgs {
            hash: args_hash(&values),
            values,
        }
    }

    /// The argument values.
    pub fn values(&self) -> &Arc<[Value]> {
        &self.values
    }
}

fn args_hash(args: &[Value]) -> u64 {
    let mut h = DefaultHasher::new();
    args.hash(&mut h);
    h.finish()
}

/// The index key of a term: its label (set path or null tag) hashed
/// together with the hash of its arguments.
fn term_key<L: Hash + ?Sized>(label: &L, args_hash: u64) -> u64 {
    let mut h = DefaultHasher::new();
    label.hash(&mut h);
    h.write_u64(args_hash);
    h.finish()
}

/// Terminates a bucket chain in [`Buckets::next`].
const END: u32 = u32::MAX;

/// Hash-bucketed term ids: `head` maps a term key to the newest id carrying
/// it, `next[id]` links to the next older id with the same key. Lookups
/// compare the candidates against the stored terms, so the terms themselves
/// are stored once, in the store's `Vec`.
#[derive(Debug, Clone, Default)]
struct Buckets {
    head: HashMap<u64, u32>,
    next: Vec<u32>,
}

impl Buckets {
    /// The id under `key` whose stored term satisfies `is`, if any.
    fn find(&self, key: u64, is: impl Fn(usize) -> bool) -> Option<u32> {
        let mut id = *self.head.get(&key)?;
        while id != END {
            if is(id as usize) {
                return Some(id);
            }
            id = self.next[id as usize];
        }
        None
    }

    /// Append the next id, filed under `key` (or under no key at all, so no
    /// lookup ever finds it).
    fn push(&mut self, key: Option<u64>) -> u32 {
        let id = self.next.len() as u32;
        let older = key.and_then(|k| self.head.insert(k, id));
        self.next.push(older.unwrap_or(END));
        id
    }
}

/// Interner for SetIDs and labeled nulls. Each [`crate::Instance`] owns one.
///
/// Every term is stored once; ids are handed out in first-use order.
#[derive(Debug, Clone, Default)]
pub struct TermStore {
    sets: Vec<Term>,
    set_index: Buckets,
    nulls: Vec<NullTerm>,
    null_index: Buckets,
    fresh: u64,
}

impl TermStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a set term, returning its id (existing or new).
    pub fn set_id(&mut self, set: SetPath, args: Vec<Value>) -> SetId {
        let key = term_key(&set, args_hash(&args));
        self.find_set(key, &set, &args).unwrap_or_else(|| {
            self.push_set(
                key,
                Term {
                    set,
                    args: args.into(),
                },
            )
        })
    }

    /// Intern `SK<set>(args)` from shared arguments; the path and the
    /// argument tuple are cloned (a reference-count bump) only when the term
    /// is new.
    pub fn set_id_shared(&mut self, set: &SetPath, args: &SkolemArgs) -> SetId {
        let key = term_key(set, args.hash);
        self.find_set(key, set, &args.values).unwrap_or_else(|| {
            self.push_set(
                key,
                Term {
                    set: set.clone(),
                    args: Arc::clone(&args.values),
                },
            )
        })
    }

    fn find_set(&self, key: u64, set: &SetPath, args: &[Value]) -> Option<SetId> {
        self.set_index
            .find(key, |id| {
                let t = &self.sets[id];
                t.set == *set && *t.args == *args
            })
            .map(SetId)
    }

    fn push_set(&mut self, key: u64, term: Term) -> SetId {
        self.sets.push(term);
        SetId(self.set_index.push(Some(key)))
    }

    /// Intern a labeled null, returning its id (existing or new).
    pub fn null_id(&mut self, tag: impl Into<String>, args: Vec<Value>) -> NullId {
        let tag = tag.into();
        let key = term_key(tag.as_str(), args_hash(&args));
        self.find_null(key, &tag, &args).unwrap_or_else(|| {
            self.push_null(
                Some(key),
                NullTerm {
                    tag,
                    args: args.into(),
                },
            )
        })
    }

    /// Intern `N_tag(args)` from shared arguments; the tag and the argument
    /// tuple are cloned only when the null is new.
    pub fn null_id_shared(&mut self, tag: &str, args: &SkolemArgs) -> NullId {
        let key = term_key(tag, args.hash);
        self.find_null(key, tag, &args.values).unwrap_or_else(|| {
            self.push_null(
                Some(key),
                NullTerm {
                    tag: tag.to_owned(),
                    args: Arc::clone(&args.values),
                },
            )
        })
    }

    fn find_null(&self, key: u64, tag: &str, args: &[Value]) -> Option<NullId> {
        self.null_index
            .find(key, |id| {
                let t = &self.nulls[id];
                t.tag == tag && *t.args == *args
            })
            .map(NullId)
    }

    fn push_null(&mut self, key: Option<u64>, term: NullTerm) -> NullId {
        self.nulls.push(term);
        NullId(self.null_index.push(key))
    }

    /// A brand-new null, distinct from all others in this store. It is
    /// never indexed, so no later [`TermStore::null_id`] call returns it.
    pub fn fresh_null(&mut self) -> NullId {
        self.fresh += 1;
        let tag = format!("_fresh{}", self.fresh);
        self.push_null(
            None,
            NullTerm {
                tag,
                args: Arc::new([]),
            },
        )
    }

    /// Look up the term of a set id.
    pub fn set_term(&self, id: SetId) -> &Term {
        &self.sets[id.index()]
    }

    /// Look up the term of a null id.
    pub fn null_term(&self, id: NullId) -> &NullTerm {
        &self.nulls[id.index()]
    }

    /// Number of interned set terms.
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Number of interned nulls.
    pub fn null_count(&self) -> usize {
        self.nulls.len()
    }

    /// All interned set ids, in interning (ascending id) order.
    pub fn all_set_ids(&self) -> impl Iterator<Item = SetId> {
        (0..self.sets.len() as u32).map(SetId)
    }

    /// All interned null ids, in interning (ascending id) order.
    pub fn all_null_ids(&self) -> impl Iterator<Item = NullId> {
        (0..self.nulls.len() as u32).map(NullId)
    }

    /// All set ids whose term instantiates the given set path.
    pub fn set_ids_of(&self, path: &SetPath) -> Vec<SetId> {
        (0..self.sets.len() as u32)
            .map(SetId)
            .filter(|id| &self.set_term(*id).set == path)
            .collect()
    }

    /// Render a set id as `SKProjects(arg,…)` like the paper does, with
    /// nested ids rendered recursively.
    pub fn render_set(&self, id: SetId) -> String {
        let t = self.set_term(id);
        if t.args.is_empty() && t.set.depth() == 1 {
            // Top-level sets are just their name.
            return t.set.to_string();
        }
        format!("SK{}({})", t.set.label(), self.render_args(&t.args))
    }

    /// Render a null id as `N_tag(arg,…)`.
    pub fn render_null(&self, id: NullId) -> String {
        let t = self.null_term(id);
        if t.args.is_empty() {
            format!("N[{}]", t.tag)
        } else {
            format!("N[{}]({})", t.tag, self.render_args(&t.args))
        }
    }

    fn render_args(&self, args: &[Value]) -> String {
        let parts: Vec<String> = args.iter().map(|v| self.render_value(v)).collect();
        parts.join(",")
    }

    /// Render an arbitrary value using this store for ids.
    pub fn render_value(&self, v: &Value) -> String {
        match v {
            Value::Atom(a) => a.to_string(),
            Value::Null(n) => self.render_null(*n),
            Value::Set(s) => self.render_set(*s),
            Value::Choice(l, inner) => format!("{l}:{}", self.render_value(inner)),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SK{}/{}", self.set.label(), self.args.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;

    #[test]
    fn interning_dedups() {
        let mut st = TermStore::new();
        let p = SetPath::parse("Orgs.Projects");
        let a = st.set_id(p.clone(), vec![Value::Atom(Atom::int(1))]);
        let b = st.set_id(p.clone(), vec![Value::Atom(Atom::int(1))]);
        let c = st.set_id(p.clone(), vec![Value::Atom(Atom::int(2))]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(st.set_count(), 2);
        assert_eq!(st.set_ids_of(&p), vec![a, c]);
    }

    #[test]
    fn nulls_intern_and_fresh_are_distinct() {
        let mut st = TermStore::new();
        let n1 = st.null_id("m1.o.address", vec![Value::Atom(Atom::str("IBM"))]);
        let n2 = st.null_id("m1.o.address", vec![Value::Atom(Atom::str("IBM"))]);
        let n3 = st.null_id("m1.o.address", vec![Value::Atom(Atom::str("SBC"))]);
        assert_eq!(n1, n2);
        assert_ne!(n1, n3);
        let f1 = st.fresh_null();
        let f2 = st.fresh_null();
        assert_ne!(f1, f2);
    }

    #[test]
    fn fresh_nulls_never_reuse_an_interned_null() {
        let mut st = TermStore::new();
        let named = st.null_id("_fresh1", vec![]);
        let fresh = st.fresh_null();
        assert_ne!(named, fresh);
        assert_eq!(st.null_count(), 2);
        // Nor does a later lookup of the same tag find the fresh null.
        assert_eq!(st.null_id("_fresh1", vec![]), named);
        let fresh2 = st.fresh_null();
        assert_ne!(st.null_id("_fresh2", vec![]), fresh2);
    }

    #[test]
    fn rendering() {
        let mut st = TermStore::new();
        let top = st.set_id(SetPath::parse("Orgs"), vec![]);
        assert_eq!(st.render_set(top), "Orgs");
        let nested = st.set_id(
            SetPath::parse("Orgs.Projects"),
            vec![Value::Atom(Atom::int(111)), Value::Atom(Atom::str("IBM"))],
        );
        assert_eq!(st.render_set(nested), "SKProjects(111,IBM)");
        let n = st.null_id("addr", vec![]);
        assert_eq!(st.render_null(n), "N[addr]");
    }
}
