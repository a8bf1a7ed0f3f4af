//! Property battery for the [`ProgramCache`] invalidation contract
//! (ISSUE 8 satellite): under *random interleavings* of data commits,
//! schema edits, and queries — including a capacity so small that entries
//! are constantly evicted — a cache-served answer must always equal a
//! from-scratch compile AND the core interpreter. A stale program (one
//! whose hoisted images or schema assumptions survived an edit they
//! shouldn't have) shows up as a divergence here.

use isis::prelude::*;
use isis_query::{PredicateProgram, ProgramCache};
use isis_sample::instrumental_music;
use proptest::prelude::*;

/// One step of a generated session.
#[derive(Debug, Clone)]
enum Step {
    /// Reassign a musician's `plays` (data-only delta: re-hoist path).
    Reassign(u8, u8),
    /// Move an instrument between families (data-only, but it moves the
    /// images mapped constants hoist — the stale-hoist trap).
    Refamily(u8, u8),
    /// Create a fresh base class (schema edit: must invalidate).
    NewClass(u8),
    /// Query predicate shape `i` and check every arm agrees.
    Query(u8),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Reassign(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Refamily(a, b)),
        any::<u8>().prop_map(Step::NewClass),
        any::<u8>().prop_map(Step::Query),
    ]
}

/// The predicate family under test: shapes that exercise identity
/// constants, mapped constants (hoisting), and a fallible ordering atom.
fn shape(im: &isis_sample::InstrumentalMusic, i: u8) -> Predicate {
    let insts: Vec<EntityId> = im.all_instruments.clone();
    let inst = insts[i as usize % insts.len()];
    match i % 4 {
        0 => Predicate::dnf(vec![Clause::new(vec![Atom::new(
            Map::single(im.plays),
            CompareOp::Match,
            Rhs::constant(im.instruments, [inst]),
        )])]),
        1 => Predicate::dnf(vec![Clause::new(vec![Atom::new(
            Map::single(im.family),
            CompareOp::SetEq,
            Rhs::Constant {
                class: im.instruments,
                anchors: [inst].into_iter().collect(),
                map: Map::single(im.family),
            },
        )])]),
        2 => {
            let other = insts[(i as usize + 1) % insts.len()];
            Predicate::cnf(vec![
                Clause::new(vec![Atom::new(
                    Map::single(im.plays),
                    CompareOp::Match,
                    Rhs::constant(im.instruments, [inst]),
                )]),
                Clause::new(vec![Atom::new(
                    Map::single(im.plays),
                    CompareOp::Superset,
                    Rhs::constant(im.instruments, [other]),
                )]),
            ])
        }
        // Fails on any candidate whose plays-set reaches the ordering
        // atom: error identity is part of the contract.
        _ => Predicate::cnf(vec![Clause::new(vec![Atom::new(
            Map::single(im.plays),
            CompareOp::Lt,
            Rhs::constant(im.instruments, [inst]),
        )])]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn cache_never_serves_a_stale_program(
        steps in proptest::collection::vec(step_strategy(), 1..40),
        capacity in prop_oneof![Just(1usize), Just(2), Just(128)],
    ) {
        let mut im = instrumental_music().unwrap();
        let cache = ProgramCache::with_capacity(capacity);
        let parents = [im.musicians, im.instruments];
        for step in &steps {
            match *step {
                Step::Reassign(a, b) => {
                    let m = im.all_musicians[a as usize % im.all_musicians.len()];
                    let inst = im.all_instruments[b as usize % im.all_instruments.len()];
                    im.db.assign_multi(m, im.plays, [inst]).unwrap();
                }
                Step::Refamily(a, b) => {
                    let inst = im.all_instruments[a as usize % im.all_instruments.len()];
                    let fams = [im.brass, im.woodwind, im.stringed, im.keyboard];
                    im.db
                        .assign_single(inst, im.family, fams[b as usize % fams.len()])
                        .unwrap();
                }
                Step::NewClass(a) => {
                    // Names must be unique; reuse attempts are fine to skip.
                    let _ = im.db.create_baseclass(&format!("cls_{a}"));
                }
                Step::Query(i) => {
                    let pred = shape(&im, i);
                    // Parent for shape 1 is instruments (family lives
                    // there); everything else queries musicians.
                    let parent = if i % 4 == 1 { parents[1] } else { parents[0] };
                    let cached = cache.with_plan(
                        &im.db, parent, None, &pred, None,
                        |prog, _| prog.evaluate_extent(&im.db, parent),
                    );
                    let fresh = PredicateProgram::compile(&im.db, parent, &pred)
                        .map(|p| p.evaluate_extent(&im.db, parent))
                        .and_then(|r| r);
                    let interp = im.db.evaluate_derived_members(parent, &pred);
                    match (&cached, &fresh) {
                        (Ok(a), Ok(b)) => prop_assert_eq!(a.as_slice(), b.as_slice(),
                            "cached != fresh compile for {}", pred),
                        (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
                        _ => panic!("arms disagree for {pred}: {cached:?} vs {fresh:?}"),
                    }
                    match (&cached, &interp) {
                        (Ok(a), Ok(b)) => prop_assert_eq!(a.as_slice(), b.as_slice(),
                            "cached != interpreted for {}", pred),
                        (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
                        _ => panic!("arms disagree for {pred}: {cached:?} vs {interp:?}"),
                    }
                }
            }
        }
        prop_assert!(cache.len() <= capacity);
    }
}
