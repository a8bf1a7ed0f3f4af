//! Incremental maintenance of derived subclasses.
//!
//! The paper leaves derived classes stale under data modification ("the
//! predicates of derived subclasses … do not (at present) form part of the
//! consistency requirements", §2) and the session refreshes them only on
//! commit. This module implements the natural extension: after a change to
//! attribute `A` of some entities, recompute the predicate *only for the
//! candidates the change can affect* — found by locating `A` inside the
//! predicate's maps and walking the prefix steps backwards through the
//! inverted indexes of the shared [`IndexService`].
//!
//! [`DerivedMaintainer::apply_round`] is the one delta round: every
//! maintainer collects against the pre-state indexes, the service drains
//! the window once, every maintainer collects again against the post-state
//! indexes, and each settles on the service's [`EvalPool`].

use std::cell::RefCell;
use std::collections::HashMap;

use isis_core::{
    AttrId, Change, ChangeSet, ClassId, Database, EntityId, Map, OrderedSet, Predicate, Result,
    Rhs, ValueClass,
};

use crate::error::QueryError;
use crate::parallel::EvalPool;
use crate::program::PredicateProgram;
use crate::service::IndexService;

/// Maintains one derived subclass incrementally. Holds no index: every
/// walk-back reads the [`IndexService`] the caller passes in, which must
/// index [`used_attrs`](DerivedMaintainer::used_attrs).
#[derive(Debug)]
pub struct DerivedMaintainer {
    class: ClassId,
    parent: ClassId,
    pred: Predicate,
    /// Every attribute any map of the predicate uses.
    used: Vec<AttrId>,
    /// base attribute → grouping-ranged used attributes keyed by it. A
    /// transition of the base re-partitions the grouping and silently
    /// changes the expansion of every stored value of the dependents.
    grouping_bases: HashMap<AttrId, Vec<AttrId>>,
    /// The predicate compiled once and shared by every [`settle`]; mapped
    /// constant images are re-hoisted lazily when the delta epoch moves
    /// (`RefCell`: settle takes `&self`).
    ///
    /// [`settle`]: DerivedMaintainer::settle
    program: RefCell<PredicateProgram>,
}

impl DerivedMaintainer {
    /// Creates a maintainer for a committed derived subclass.
    pub fn new(db: &Database, class: ClassId) -> Result<Self> {
        let rec = db.class(class)?;
        let parent = rec
            .parent
            .ok_or(isis_core::CoreError::DerivedClass(class))?;
        let pred = rec
            .kind
            .predicate()
            .cloned()
            .ok_or(isis_core::CoreError::DerivedClass(class))?;
        let used = Self::attrs_used(&pred);
        let grouping_bases = Self::find_grouping_bases(db, &used)?;
        let program = RefCell::new(PredicateProgram::compile(db, parent, &pred)?);
        Ok(DerivedMaintainer {
            class,
            parent,
            pred,
            used,
            grouping_bases,
            program,
        })
    }

    /// The derived class being maintained.
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// The attributes the predicate's maps traverse — the indexes a shared
    /// service must hold for this maintainer.
    pub fn used_attrs(&self) -> &[AttrId] {
        &self.used
    }

    fn find_grouping_bases(db: &Database, used: &[AttrId]) -> Result<HashMap<AttrId, Vec<AttrId>>> {
        let mut out: HashMap<AttrId, Vec<AttrId>> = HashMap::new();
        for &a in used {
            if let ValueClass::Grouping(g) = db.attr(a)?.value_class {
                out.entry(db.grouping(g)?.on_attr).or_default().push(a);
            }
        }
        Ok(out)
    }

    fn attrs_used(pred: &Predicate) -> Vec<AttrId> {
        let mut out = Vec::new();
        let mut push_map = |m: &Map| {
            for &a in m.steps() {
                if !out.contains(&a) {
                    out.push(a);
                }
            }
        };
        for atom in pred.atoms() {
            push_map(&atom.lhs);
            match &atom.rhs {
                Rhs::SelfMap(m) | Rhs::SourceMap(m) => push_map(m),
                Rhs::Constant { map, .. } => push_map(map),
            }
        }
        out
    }

    /// `true` if the predicate mentions `attr` in any map.
    pub fn depends_on(&self, attr: AttrId) -> bool {
        self.used.contains(&attr)
    }

    /// Candidates whose predicate result may change after attribute `attr`
    /// of the `owners` entities was modified.
    ///
    /// For every occurrence of `attr` at position *i* of a predicate map,
    /// the owners are walked backwards through the *i* prefix steps via the
    /// service's inverted indexes; survivors that are parent members are
    /// affected.
    fn affected_by(
        &self,
        db: &Database,
        service: &IndexService,
        attr: AttrId,
        owners: &OrderedSet,
    ) -> Result<OrderedSet> {
        let parent_members = db.members(self.parent)?;
        let mut affected = OrderedSet::new();
        if !self.depends_on(attr) {
            return Ok(affected);
        }
        for atom in self.pred.atoms() {
            self.walk_back(
                &atom.lhs,
                service,
                attr,
                owners,
                parent_members,
                &mut affected,
            );
            if let Rhs::SelfMap(m) = &atom.rhs {
                self.walk_back(m, service, attr, owners, parent_members, &mut affected);
            }
        }
        Ok(affected)
    }

    fn walk_back(
        &self,
        map: &Map,
        service: &IndexService,
        attr: AttrId,
        owners: &OrderedSet,
        parent_members: &OrderedSet,
        affected: &mut OrderedSet,
    ) {
        let steps = map.steps();
        for (i, &step) in steps.iter().enumerate() {
            if step != attr {
                continue;
            }
            // Invert the prefix steps[0..i] starting from the changed owners.
            let mut frontier = owners.clone();
            for &prev_attr in steps[..i].iter().rev() {
                let mut prev = OrderedSet::new();
                if let Some(idx) = service.index(prev_attr) {
                    for v in frontier.iter() {
                        if let Some(os) = idx.owners_of(v) {
                            prev.extend_from(os);
                        }
                    }
                }
                frontier = prev;
                if frontier.is_empty() {
                    break;
                }
            }
            for e in frontier.iter() {
                if parent_members.contains(e) {
                    affected.insert(e);
                }
            }
        }
    }

    /// Candidates affected by a transition of `base`, the attribute some
    /// used grouping-ranged attribute is keyed by: the re-partition can
    /// change the expansion of *any* stored value of the dependents, so
    /// every owner currently holding a value is walked back. Empty when
    /// `base` keys no used grouping.
    fn base_shift_affected(
        &self,
        db: &Database,
        service: &IndexService,
        base: AttrId,
    ) -> Result<OrderedSet> {
        let mut affected = OrderedSet::new();
        let Some(dependents) = self.grouping_bases.get(&base) else {
            return Ok(affected);
        };
        for &x in dependents {
            match service.index(x) {
                Some(idx) => {
                    let owners = idx.all_owners();
                    affected.extend_from(&self.affected_by(db, service, x, &owners)?);
                }
                // No index to bound the blast radius: conservatively
                // re-evaluate the whole parent extent.
                None => affected.extend_from(db.members(self.parent)?),
            }
        }
        Ok(affected)
    }

    /// Collects every candidate a change window can affect, walking the
    /// `service` indexes (which must still describe the *start* of the
    /// window; call again after the index drain for the end state).
    /// Read-only: does not touch indexes or membership.
    pub fn collect_affected(
        &self,
        db: &Database,
        service: &IndexService,
        changes: &ChangeSet,
    ) -> Result<OrderedSet> {
        let _span = isis_obs::global().span("query.incremental.collect");
        let mut affected = OrderedSet::new();
        for change in changes.iter() {
            match change {
                Change::AttrAssigned { entity, attr, .. } => {
                    if self.depends_on(*attr) {
                        let owners: OrderedSet = [*entity].into_iter().collect();
                        affected.extend_from(&self.affected_by(db, service, *attr, &owners)?);
                    }
                    affected.extend_from(&self.base_shift_affected(db, service, *attr)?);
                }
                Change::MembershipAdded { entity, class }
                | Change::MembershipRemoved { entity, class } => {
                    // Echoes of our own membership writes land here too;
                    // they re-evaluate to a no-op.
                    if *class == self.parent {
                        affected.insert(*entity);
                    }
                }
                Change::EntityInserted { .. }
                | Change::EntityDeleted { .. }
                | Change::EntityRenamed { .. }
                | Change::Schema(_) => {}
            }
        }
        Ok(affected)
    }

    /// Re-evaluates the predicate for the `affected` candidates and adds /
    /// removes membership as needed, evaluating over `pool`'s workers when
    /// the affected set is large enough to chunk (a refresh round hands in
    /// the [`IndexService`]'s pool so rounds and queries share workers; a
    /// one-worker pool never spawns). Returns `(added, removed)`.
    ///
    /// Two phases: every live affected candidate is evaluated first (no
    /// writes), then membership writes run serially in affected order, so
    /// the serial and pooled paths produce identical memberships, identical
    /// write order, and identical no-writes-on-error behaviour. Membership
    /// writes can't change attribute values or parent extents, so the
    /// phase-1 results stay valid through phase 2. Worker panics surface as
    /// [`QueryError::WorkerPanic`].
    pub fn settle(
        &self,
        db: &mut Database,
        affected: &OrderedSet,
        pool: &EvalPool,
    ) -> Result<(usize, usize), QueryError> {
        let obs = isis_obs::global();
        let _span = obs.span("query.incremental.settle");
        obs.count("query.incremental.candidates", affected.len() as u64);
        // One compiled program serves every candidate; mapped constant
        // images are re-hoisted once here if data changed since the last
        // settle (membership writes can't invalidate them).
        let mut prog = self.program.borrow_mut();
        prog.ensure_fresh(db)?;
        // Phase 1: evaluate. Deleted-later-in-the-window entities are
        // skipped (extents already scrubbed); candidates outside the parent
        // evaluate to "should not be a member" without running the program.
        let candidates: Vec<EntityId> = affected.iter().filter(|&e| db.entity(e).is_ok()).collect();
        let parent_members = db.members(self.parent)?;
        let eval_list: Vec<EntityId> = candidates
            .iter()
            .copied()
            .filter(|&e| parent_members.contains(e))
            .collect();
        let survivors = pool.evaluate(db, &prog, &eval_list, None)?;
        // Phase 2: write, serially, in affected order.
        let mut added = 0;
        let mut removed = 0;
        for &e in &candidates {
            let should = survivors.contains(e);
            let is = db.members(self.class)?.contains(e);
            if should && !is {
                db.force_membership(e, self.class)?;
                added += 1;
            } else if !should && is {
                db.remove_from_class(e, self.class)?;
                removed += 1;
            }
        }
        obs.count("query.incremental.added", added as u64);
        obs.count("query.incremental.removed", removed as u64);
        if added + removed > 0 {
            obs.flight_event("query.incremental.settle", || {
                isis_obs::Json::obj([
                    ("class", isis_obs::Json::from(self.class.raw() as u64)),
                    ("affected", isis_obs::Json::from(affected.len())),
                    ("added", isis_obs::Json::from(added)),
                    ("removed", isis_obs::Json::from(removed)),
                ])
            });
        }
        Ok((added, removed))
    }

    /// The one delta round over a change window, with a single shared
    /// index drain: every maintainer collects its affected candidates
    /// against the *pre-state* indexes (an owner leaving a posting list
    /// must still re-evaluate whoever used to reach it), `service` consumes
    /// the window once, every maintainer collects again against the
    /// post-state indexes, and each settles on the service's pool.
    ///
    /// `changes` must describe the transition from the state `service`'s
    /// indexes reflect to `db`'s (e.g. `db.changes_since(cursor)`), and
    /// `service` must index every maintainer's
    /// [`used_attrs`](DerivedMaintainer::used_attrs). Returns each
    /// maintainer's `(added, removed)` counts, in `maints` order.
    ///
    /// A window with schema edits is refused with
    /// [`QueryError::Unsupported`]: it may have replaced a predicate or an
    /// indexed attribute, so the caller rebuilds the maintainers and the
    /// service instead (the session's full refresh).
    pub fn apply_round(
        maints: &[DerivedMaintainer],
        db: &mut Database,
        service: &mut IndexService,
        changes: &ChangeSet,
    ) -> Result<Vec<(usize, usize)>, QueryError> {
        if changes.has_schema_changes() {
            return Err(QueryError::Unsupported(
                "a delta round cannot consume schema edits; rebuild the maintainers".into(),
            ));
        }
        // The phase spans keep the `session.refresh.*` names: this round is
        // the session's refresh, and `trace dump` readers key on them.
        let obs = isis_obs::global();
        let mut affected: Vec<OrderedSet> = Vec::with_capacity(maints.len());
        {
            let _collect = obs.span("session.refresh.collect");
            for m in maints {
                affected.push(m.collect_affected(db, service, changes)?);
            }
        }
        // The one drain: the maintainers and the ad-hoc query planner both
        // read these indexes afterwards.
        {
            let _apply = obs.span("session.refresh.apply");
            service.apply(db, changes)?;
        }
        {
            let _collect = obs.span("session.refresh.collect");
            for (m, aff) in maints.iter().zip(affected.iter_mut()) {
                aff.extend_from(&m.collect_affected(db, service, changes)?);
            }
        }
        let _settle = obs.span("session.refresh.settle");
        maints
            .iter()
            .zip(&affected)
            .map(|(m, aff)| m.settle(db, aff, service.eval_pool()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isis_sample::{instrumental_music, quartets_predicate, InstrumentalMusic};

    /// A service indexing every attribute the maintainers walk,
    /// synchronised to `db`'s current epoch.
    fn service_for(db: &Database, maints: &[DerivedMaintainer]) -> IndexService {
        let mut service = IndexService::new(db);
        for m in maints {
            for &attr in m.used_attrs() {
                service.ensure_index(db, attr).unwrap();
            }
        }
        service.set_cursor(db);
        service
    }

    /// Commits the §4.2 quartets query; returns the class, its predicate,
    /// one maintainer and a service over it.
    fn quartets(
        im: &mut InstrumentalMusic,
    ) -> (ClassId, Predicate, Vec<DerivedMaintainer>, IndexService) {
        let pred = quartets_predicate(im);
        let quartets = im
            .db
            .create_derived_subclass(im.music_groups, "quartets")
            .unwrap();
        im.db.commit_membership(quartets, pred.clone()).unwrap();
        let maints = vec![DerivedMaintainer::new(&im.db, quartets).unwrap()];
        let service = service_for(&im.db, &maints);
        (quartets, pred, maints, service)
    }

    /// Runs one round over everything recorded since `mark`, then moves
    /// `mark` past the window (the round's own membership writes land in
    /// the next window as echoes).
    fn round(
        db: &mut Database,
        maints: &[DerivedMaintainer],
        service: &mut IndexService,
        mark: &mut u64,
    ) -> Vec<(usize, usize)> {
        let changes = db.changes_since(*mark).unwrap();
        *mark = db.delta_epoch();
        DerivedMaintainer::apply_round(maints, db, service, &changes).unwrap()
    }

    fn assert_matches_full(db: &Database, class: ClassId, parent: ClassId, pred: &Predicate) {
        let got = db.members(class).unwrap();
        let want = db.evaluate_derived_members(parent, pred).unwrap();
        assert!(got.set_eq(&want), "delta {got:?} != full {want:?}");
    }

    #[test]
    fn maintainer_tracks_membership_changes() {
        let mut im = instrumental_music().unwrap();
        let (quartets, _, maints, mut service) = quartets(&mut im);
        assert!(maints[0].depends_on(im.size));
        assert!(maints[0].depends_on(im.members));
        assert!(maints[0].depends_on(im.plays));
        assert!(!maints[0].depends_on(im.family));
        let mut mark = im.db.delta_epoch();

        // Give String Fling a pianist: Gil learns piano.
        let gil = im.db.entity_by_name(im.musicians, "Gil").unwrap();
        im.db.add_value(gil, im.plays, im.piano).unwrap();
        let counts = round(&mut im.db, &maints, &mut service, &mut mark);
        assert_eq!(counts, vec![(1, 0)]);
        let fling = im
            .db
            .entity_by_name(im.music_groups, "String Fling")
            .unwrap();
        assert!(im.db.members(quartets).unwrap().contains(fling));

        // Shrink LaBelle Musique: it must leave.
        let edith = im.edith;
        let labelle = im.labelle;
        let cur = im.db.attr_value_set(labelle, im.members).unwrap();
        let without: Vec<_> = cur.iter().filter(|e| *e != edith).collect();
        im.db.assign_multi(labelle, im.members, without).unwrap();
        let three = im.db.int(3);
        im.db.assign_single(labelle, im.size, three).unwrap();
        let counts = round(&mut im.db, &maints, &mut service, &mut mark);
        assert_eq!(counts, vec![(0, 1)]);
        assert!(!im.db.members(quartets).unwrap().contains(labelle));
    }

    #[test]
    fn incremental_agrees_with_full_recompute() {
        let mut im = instrumental_music().unwrap();
        let (quartets, pred, maints, mut service) = quartets(&mut im);
        let mut mark = im.db.delta_epoch();
        let hana = im.db.entity_by_name(im.musicians, "Hana").unwrap();
        let trio = im
            .db
            .entity_by_name(im.music_groups, "Trio Grande")
            .unwrap();
        let dave = im.db.entity_by_name(im.musicians, "Dave").unwrap();
        let four = im.db.int(4);
        // 1. Trio Grande grows to four members (already has pianists).
        let mut members = im.db.attr_value_set(trio, im.members).unwrap();
        members.insert(dave);
        im.db
            .assign_multi(trio, im.members, members.iter())
            .unwrap();
        round(&mut im.db, &maints, &mut service, &mut mark);
        im.db.assign_single(trio, im.size, four).unwrap();
        round(&mut im.db, &maints, &mut service, &mut mark);
        // 2. Hana stops playing piano (affects Trio via members plays map).
        let guitar = im.db.entity_by_name(im.instruments, "guitar").unwrap();
        im.db.assign_multi(hana, im.plays, [guitar]).unwrap();
        round(&mut im.db, &maints, &mut service, &mut mark);
        assert_matches_full(&im.db, quartets, im.music_groups, &pred);
        // Trio Grande still qualifies through Fiona's piano.
        assert!(im.db.members(quartets).unwrap().contains(trio));
    }

    #[test]
    fn unrelated_attr_changes_touch_nothing() {
        let mut im = instrumental_music().unwrap();
        let (_, _, maints, service) = quartets(&mut im);
        let mark = im.db.delta_epoch();
        // A family reassignment is invisible to the quartets predicate…
        im.db
            .assign_single(im.flute, im.family, im.woodwind)
            .unwrap();
        // … and a popular-flag change likewise.
        let yes = im.db.boolean(true);
        let no = im.db.boolean(false);
        let popular = im.db.attr_value_set(im.flute, im.popular).unwrap();
        let flipped = if popular.contains(yes) { no } else { yes };
        im.db.assign_single(im.flute, im.popular, flipped).unwrap();
        let changes = im.db.changes_since(mark).unwrap();
        assert_eq!(changes.touched_attrs().len(), 2);
        let affected = maints[0]
            .collect_affected(&im.db, &service, &changes)
            .unwrap();
        assert!(affected.is_empty());
    }

    #[test]
    fn plays_change_affects_only_groups_reaching_the_musician() {
        let mut im = instrumental_music().unwrap();
        let (_, _, maints, service) = quartets(&mut im);
        let mark = im.db.delta_epoch();
        // Dave is in String Fling only.
        let dave = im.db.entity_by_name(im.musicians, "Dave").unwrap();
        im.db.add_value(dave, im.plays, im.piano).unwrap();
        let changes = im.db.changes_since(mark).unwrap();
        let affected = maints[0]
            .collect_affected(&im.db, &service, &changes)
            .unwrap();
        let fling = im
            .db
            .entity_by_name(im.music_groups, "String Fling")
            .unwrap();
        assert_eq!(affected.as_slice(), &[fling]);
    }

    #[test]
    fn round_consumes_the_delta_log() {
        let mut im = instrumental_music().unwrap();
        let (quartets, pred, maints, mut service) = quartets(&mut im);
        let mut mark = im.db.delta_epoch();

        // Gil learns piano → String Fling becomes a quartet.
        let gil = im.db.entity_by_name(im.musicians, "Gil").unwrap();
        im.db.add_value(gil, im.plays, im.piano).unwrap();
        // A brand-new qualifying group appears, member by member.
        let g = im.db.insert_entity(im.music_groups, "New Four").unwrap();
        let four = im.db.int(4);
        im.db.assign_single(g, im.size, four).unwrap();
        let kurt = im.db.entity_by_name(im.musicians, "Kurt").unwrap();
        let amy = im.db.entity_by_name(im.musicians, "Amy").unwrap();
        let bob = im.db.entity_by_name(im.musicians, "Bob").unwrap();
        let carol = im.db.entity_by_name(im.musicians, "Carol").unwrap();
        im.db
            .assign_multi(g, im.members, [kurt, amy, bob, carol])
            .unwrap();
        // And LaBelle Musique shrinks to a trio.
        let cur = im.db.attr_value_set(im.labelle, im.members).unwrap();
        let without: Vec<_> = cur.iter().filter(|e| *e != im.edith).collect();
        im.db.assign_multi(im.labelle, im.members, without).unwrap();
        let three = im.db.int(3);
        im.db.assign_single(im.labelle, im.size, three).unwrap();

        let counts = round(&mut im.db, &maints, &mut service, &mut mark);
        let (added, removed) = counts[0];
        assert!(added >= 2, "String Fling and New Four must join");
        assert!(removed >= 1, "LaBelle must leave");
        assert_matches_full(&im.db, quartets, im.music_groups, &pred);
        // The echo window (our own membership writes) settles to nothing.
        let echo = round(&mut im.db, &maints, &mut service, &mut mark);
        assert_eq!(echo, vec![(0, 0)]);
    }

    #[test]
    fn round_handles_entity_deletion() {
        let mut im = instrumental_music().unwrap();
        let (quartets, pred, maints, mut service) = quartets(&mut im);
        let mut mark = im.db.delta_epoch();
        // Deleting a quartet member's pianist can disqualify the group.
        let member_of_quartet = im
            .db
            .members(quartets)
            .unwrap()
            .iter()
            .next()
            .expect("seed data has a quartet");
        im.db.delete_entity(member_of_quartet).unwrap();
        round(&mut im.db, &maints, &mut service, &mut mark);
        assert_matches_full(&im.db, quartets, im.music_groups, &pred);
    }

    #[test]
    fn round_refuses_a_schema_window() {
        let mut im = instrumental_music().unwrap();
        let (quartets, _, maints, mut service) = quartets(&mut im);
        let mark = im.db.delta_epoch();
        im.db.create_baseclass("venues").unwrap();
        let gil = im.db.entity_by_name(im.musicians, "Gil").unwrap();
        im.db.add_value(gil, im.plays, im.piano).unwrap();
        let changes = im.db.changes_since(mark).unwrap();
        assert!(changes.has_schema_changes());
        let before = im.db.members(quartets).unwrap().clone();
        let stats = service.index_stats();
        let res = DerivedMaintainer::apply_round(&maints, &mut im.db, &mut service, &changes);
        assert!(
            matches!(res, Err(QueryError::Unsupported(_))),
            "a schema window must be refused: {res:?}"
        );
        // Refused before any work: no index drain, no membership write.
        assert_eq!(service.index_stats(), stats);
        assert!(im.db.members(quartets).unwrap().set_eq(&before));
    }

    #[test]
    fn grouping_rekey_mid_drain_updates_derived_membership() {
        use isis_core::{Atom, Clause, CompareOp, Multiplicity};
        let mut im = instrumental_music().unwrap();
        // sections: music_groups → by_family sets. The predicate asks which
        // groups' sections *expand* to a set containing the flute.
        let sections = im
            .db
            .create_attribute(
                im.music_groups,
                "sections",
                im.by_family,
                Multiplicity::Multi,
            )
            .unwrap();
        let fling = im
            .db
            .entity_by_name(im.music_groups, "String Fling")
            .unwrap();
        im.db.assign_multi(fling, sections, [im.brass]).unwrap();
        im.db
            .assign_multi(im.labelle, sections, [im.woodwind])
            .unwrap();
        let pred = Predicate::dnf(vec![Clause::new(vec![Atom::new(
            Map::single(sections),
            CompareOp::Match,
            Rhs::constant(im.instruments, [im.flute]),
        )])]);
        let flute_groups = im
            .db
            .create_derived_subclass(im.music_groups, "flute_groups")
            .unwrap();
        im.db.commit_membership(flute_groups, pred.clone()).unwrap();
        // flute starts mis-filed under brass → String Fling qualifies.
        assert!(im.db.members(flute_groups).unwrap().contains(fling));
        assert!(!im.db.members(flute_groups).unwrap().contains(im.labelle));
        let maints = vec![DerivedMaintainer::new(&im.db, flute_groups).unwrap()];
        let mut service = service_for(&im.db, &maints);
        let mut mark = im.db.delta_epoch();
        // Mid-drain re-key: the §4.2 correction moves flute to woodwind,
        // re-partitioning by_family and silently re-aiming every stored
        // sections value — without any transition of `sections` itself.
        let gil = im.db.entity_by_name(im.musicians, "Gil").unwrap();
        im.db.add_value(gil, im.plays, im.piano).unwrap(); // unrelated noise
        im.db
            .assign_single(im.flute, im.family, im.woodwind)
            .unwrap();
        let counts = round(&mut im.db, &maints, &mut service, &mut mark);
        assert_eq!(counts, vec![(1, 1)], "re-key must swap the member");
        let got = im.db.members(flute_groups).unwrap();
        assert!(got.contains(im.labelle), "woodwind sections now hold flute");
        assert!(!got.contains(fling), "brass sections lost the flute");
        assert_matches_full(&im.db, flute_groups, im.music_groups, &pred);
    }

    #[test]
    fn membership_change_reevaluates_entity() {
        let mut im = instrumental_music().unwrap();
        let (quartets, _, maints, mut service) = quartets(&mut im);
        let mut mark = im.db.delta_epoch();
        // A brand-new qualifying group appears: its MembershipAdded into
        // the parent puts it in the affected set.
        let g = im.db.insert_entity(im.music_groups, "New Four").unwrap();
        let four = im.db.int(4);
        im.db.assign_single(g, im.size, four).unwrap();
        let kurt = im.db.entity_by_name(im.musicians, "Kurt").unwrap();
        let amy = im.db.entity_by_name(im.musicians, "Amy").unwrap();
        let bob = im.db.entity_by_name(im.musicians, "Bob").unwrap();
        let carol = im.db.entity_by_name(im.musicians, "Carol").unwrap();
        im.db
            .assign_multi(g, im.members, [kurt, amy, bob, carol])
            .unwrap();
        let changes = im.db.changes_since(mark).unwrap();
        assert!(changes.iter().any(|c| matches!(
            c,
            Change::MembershipAdded { entity, class } if *entity == g && *class == im.music_groups
        )));
        let counts = round(&mut im.db, &maints, &mut service, &mut mark);
        assert_eq!(counts, vec![(1, 0)]);
        assert!(im.db.members(quartets).unwrap().contains(g));
    }
}
