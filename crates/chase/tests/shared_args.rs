//! Firing shares one Skolem argument tuple per binding. Under Clio-style
//! default groupings every nested set a mapping fills is grouped by the
//! same list of source attributes, and every unassigned target attribute is
//! a null Skolemized over the same binding key; the chase builds each of
//! those tuples once per binding and every term interned from it points at
//! that one allocation. The serial chase, the parallel chase (unit merge)
//! and the incremental store's re-fire must still agree byte for byte.

use std::sync::Arc;

use muse_chase::{chase, chase_par, DeltaStore};
use muse_mapping::Mapping;
use muse_nr::text::parse_schema;
use muse_nr::{display, Instance, InstanceBuilder, Schema, SetPath, Value};
use muse_obs::{Budget, Metrics, Outcome};

fn schemas() -> (Schema, Schema) {
    let (source, _) = parse_schema(
        "schema S
           Companies: set of { cid: int  cname: string  location: string }
           Projects: set of { pid: string  pname: string  cid: int }",
    )
    .unwrap();
    // Orgs fills two nested sets; `budget` and `lead` get no value from
    // the source, so they become labeled nulls.
    let (target, _) = parse_schema(
        "schema T
           Orgs: set of {
             oname: string
             budget: string
             Projects: set of { pname: string  lead: string }
             Sites: set of { site: string }
           }",
    )
    .unwrap();
    (source, target)
}

fn mapping(source: &Schema, target: &Schema) -> Mapping {
    let mut m = muse_mapping::parse_one(
        "m: for c in S.Companies, p in S.Projects
            satisfy p.cid = c.cid
            exists o in T.Orgs, p1 in o.Projects, s1 in o.Sites
            where c.cname = o.oname and p.pname = p1.pname and c.location = s1.site",
    )
    .unwrap();
    m.ensure_default_groupings(target, source).unwrap();
    m
}

/// 20 companies with 15 projects each: 300 bindings, above the size at
/// which the incremental store re-fires in parallel.
fn source_instance(schema: &Schema) -> Instance {
    let mut b = InstanceBuilder::new(schema);
    for c in 0..20 {
        b.push_top(
            "Companies",
            vec![
                Value::int(c),
                Value::str(format!("co{c}")),
                Value::str(format!("city{}", c % 3)),
            ],
        );
        for p in 0..15 {
            b.push_top(
                "Projects",
                vec![
                    Value::str(format!("p{c}-{p}")),
                    Value::str(format!("proj{}", p % 4)),
                    Value::int(c),
                ],
            );
        }
    }
    b.finish().unwrap()
}

fn incremental(
    store: &DeltaStore,
    s: &Schema,
    t: &Schema,
    src: &Instance,
    m: &Mapping,
) -> Instance {
    match store
        .chase_one(
            s,
            t,
            src,
            m,
            None,
            Budget::unlimited_ref(),
            &Metrics::disabled(),
        )
        .unwrap()
    {
        Outcome::Complete(out) => out,
        Outcome::Truncated { .. } => panic!("unlimited budget truncated"),
    }
}

#[test]
fn one_binding_shares_one_argument_tuple_across_its_terms() {
    let (s, t) = schemas();
    let m = mapping(&s, &t);
    assert_eq!(
        m.grouping(&SetPath::parse("Orgs.Projects")).unwrap().args,
        m.grouping(&SetPath::parse("Orgs.Sites")).unwrap().args,
        "default groupings take the same argument list"
    );
    let src = source_instance(&s);
    let out = chase(&s, &t, &src, std::slice::from_ref(&m)).unwrap();
    out.validate(&t).unwrap();

    let store = out.store();
    let orgs = out.root_id("Orgs").unwrap();
    assert_eq!(out.set_len(orgs), 300);
    for org in out.tuples(orgs) {
        let (Value::Null(budget), Value::Set(projects), Value::Set(sites)) =
            (&org[1], &org[2], &org[3])
        else {
            panic!("unexpected Org tuple {org:?}");
        };
        let args = &store.set_term(*projects).args;
        assert_eq!(args.len(), 6);
        assert!(Arc::ptr_eq(args, &store.set_term(*sites).args));

        // The binding's nulls share one binding key.
        let key = &store.null_term(*budget).args;
        let project = out.tuples(*projects).next().unwrap();
        let Value::Null(lead) = &project[1] else {
            panic!("unexpected project tuple {project:?}");
        };
        assert_ne!(budget, lead);
        assert!(Arc::ptr_eq(key, &store.null_term(*lead).args));
    }

    // Serial, parallel (unit merge) and incremental (serial and parallel
    // re-fire) runs agree byte for byte, SetID and null numbering included.
    let par = chase_par(&s, &t, &src, std::slice::from_ref(&m), 2).unwrap();
    let serial_refire = DeltaStore::new();
    let par_refire = DeltaStore::with_threads(2);
    let mut runs = vec![("chase_par", par)];
    for (what, delta) in [
        ("serial re-fire", &serial_refire),
        ("parallel re-fire", &par_refire),
    ] {
        // The first call materializes; the second answers from the store.
        incremental(delta, &s, &t, &src, &m);
        runs.push((what, incremental(delta, &s, &t, &src, &m)));
    }
    for (what, other) in &runs {
        assert_eq!(
            display::render(&t, &out),
            display::render(&t, other),
            "{what}"
        );
        assert_eq!(display::dump(&out), display::dump(other), "{what}");
    }
}
