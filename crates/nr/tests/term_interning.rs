//! Randomized tests of the Skolem term store: seeded sequences of set and
//! null terms are interned through every entry point and cross-checked
//! against a reference first-use-order interner built on a `BTreeMap`.
//! Driven by the deterministic SplitMix64 generator, so every run checks
//! the same cases.

use std::collections::BTreeMap;

use muse_nr::{NullId, SetId, SetPath, SkolemArgs, TermStore, Value};
use muse_obs::Rng;

const PATHS: [&str; 4] = [
    "Orgs",
    "Orgs.Projects",
    "Orgs.Staff",
    "Orgs.Projects.Grants",
];
// `_fresh1` is also the tag of the first fresh null, which must stay distinct.
const TAGS: [&str; 4] = ["m1:o.address", "m2:e.phone", "src-null#0", "_fresh1"];

/// First-use-order reference interner.
#[derive(Default)]
struct Reference {
    sets: BTreeMap<(String, Vec<Value>), u32>,
    set_count: u32,
    nulls: BTreeMap<(String, Vec<Value>), u32>,
    null_count: u32,
}

impl Reference {
    fn set(&mut self, path: &str, args: &[Value]) -> u32 {
        let next = self.set_count;
        let id = *self
            .sets
            .entry((path.to_owned(), args.to_vec()))
            .or_insert(next);
        if id == next {
            self.set_count += 1;
        }
        id
    }

    fn null(&mut self, tag: &str, args: &[Value]) -> u32 {
        let next = self.null_count;
        let id = *self
            .nulls
            .entry((tag.to_owned(), args.to_vec()))
            .or_insert(next);
        if id == next {
            self.null_count += 1;
        }
        id
    }

    fn fresh(&mut self) -> u32 {
        self.null_count += 1;
        self.null_count - 1
    }
}

/// A random argument tuple of length 0..=3 over a small value pool (so
/// repeats are frequent), including references to ids handed out so far.
fn random_args(rng: &mut Rng, sets: &[SetId], nulls: &[NullId]) -> Vec<Value> {
    (0..rng.index(4))
        .map(|_| match rng.index(5) {
            0 if !sets.is_empty() => Value::Set(*rng.pick(sets)),
            1 if !nulls.is_empty() => Value::Null(*rng.pick(nulls)),
            2 => Value::str(*rng.pick(&["IBM", "SBC", ""])),
            _ => Value::int(rng.range(0, 3)),
        })
        .collect()
}

fn run(seed: u64) {
    let mut rng = Rng::new(seed);
    let mut store = TermStore::new();
    let mut reference = Reference::default();
    let mut sets: Vec<SetId> = Vec::new();
    let mut nulls: Vec<NullId> = Vec::new();
    // The previous argument tuple, re-offered under other paths and tags.
    let mut last = SkolemArgs::new(Vec::new());
    for step in 0..400 {
        let args = if rng.chance(0.3) {
            last.clone()
        } else {
            SkolemArgs::new(random_args(&mut rng, &sets, &nulls))
        };
        let values = args.values().to_vec();
        let (sets_before, nulls_before) = (store.set_count(), store.null_count());
        match rng.index(5) {
            0 | 1 => {
                let path = *rng.pick(&PATHS);
                let want = reference.set(path, &values);
                let id = if rng.chance(0.5) {
                    store.set_id(SetPath::parse(path), values.clone())
                } else {
                    store.set_id_shared(&SetPath::parse(path), &args)
                };
                assert_eq!(id.index() as u32, want, "seed {seed} step {step}: set id");
                let term = store.set_term(id);
                assert_eq!(term.set, SetPath::parse(path));
                assert_eq!(*term.args, *values);
                sets.push(id);
            }
            2 | 3 => {
                let tag = *rng.pick(&TAGS);
                let want = reference.null(tag, &values);
                let id = if rng.chance(0.5) {
                    store.null_id(tag, values.clone())
                } else {
                    store.null_id_shared(tag, &args)
                };
                assert_eq!(id.index() as u32, want, "seed {seed} step {step}: null id");
                let term = store.null_term(id);
                assert_eq!(term.tag, tag);
                assert_eq!(*term.args, *values);
                nulls.push(id);
            }
            _ => {
                let id = store.fresh_null();
                assert_eq!(
                    id.index() as u32,
                    reference.fresh(),
                    "seed {seed} step {step}: fresh"
                );
                nulls.push(id);
            }
        }
        // Re-interning only ever grows the store by the new term, if any.
        assert_eq!(store.set_count(), reference.set_count as usize);
        assert_eq!(store.null_count(), reference.null_count as usize);
        assert!(store.set_count() + store.null_count() <= sets_before + nulls_before + 1);
        last = args;
    }

    // Every term interned again, through either entry point, is found.
    for ((path, values), &id) in &reference.sets {
        let path = SetPath::parse(path);
        assert_eq!(
            store.set_id(path.clone(), values.clone()).index() as u32,
            id
        );
        let shared = SkolemArgs::new(values.clone());
        assert_eq!(store.set_id_shared(&path, &shared).index() as u32, id);
    }
    for ((tag, values), &id) in &reference.nulls {
        assert_eq!(
            store.null_id(tag.as_str(), values.clone()).index() as u32,
            id
        );
        let shared = SkolemArgs::new(values.clone());
        assert_eq!(store.null_id_shared(tag, &shared).index() as u32, id);
    }
    assert_eq!(store.set_count(), reference.set_count as usize);
    assert_eq!(store.null_count(), reference.null_count as usize);
}

#[test]
fn interning_matches_a_first_use_order_reference() {
    for seed in 0..64 {
        run(seed);
    }
}

#[test]
fn terms_from_one_shared_tuple_share_its_allocation() {
    let mut store = TermStore::new();
    let args = SkolemArgs::new(vec![Value::int(1), Value::str("IBM")]);
    let a = store.set_id_shared(&SetPath::parse("Orgs.Projects"), &args);
    let b = store.set_id_shared(&SetPath::parse("Orgs.Staff"), &args);
    let n = store.null_id_shared("m1:o.address", &args);
    assert_ne!(a, b);
    assert!(std::sync::Arc::ptr_eq(
        &store.set_term(a).args,
        args.values()
    ));
    assert!(std::sync::Arc::ptr_eq(
        &store.set_term(b).args,
        args.values()
    ));
    assert!(std::sync::Arc::ptr_eq(
        &store.null_term(n).args,
        args.values()
    ));
}
