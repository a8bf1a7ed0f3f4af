//! The three seeded workloads: set-up, one task, and the correctness
//! gates each task must pass.
//!
//! A task is one fixed user interaction. Every task input is drawn from a
//! generator seeded by `--seed`; the program only ever sees the generated
//! inputs, through the public `Session` API.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use isis_core::{
    Atom, AttrId, BaseKind, ClassId, Clause, CompareOp, Database, EntityId, Literal, Map,
    OrderedSet, Predicate, Rhs,
};
use isis_sample::synthetic::{synthetic_scaled, SchemaShape, SynthSpec, ValueDist};
use isis_sample::workload::navigation_chain;
use isis_session::{Command, Session};
use isis_store::{StoreDir, SyncPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clock::{Cost, Stopwatch};
use crate::trace;
use crate::user::{AtomSpec, User};
use crate::vfs::MeteredVfs;

/// The database name inside the store directory.
pub const DB_NAME: &str = "bench";

/// Every acknowledged publish is fsynced before the commit returns.
pub const SYNC: SyncPolicy = SyncPolicy::EverySync;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Navigate,
    Edit,
    Define,
}

/// A workload: its scale, data shape and why it was chosen.
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub entities: usize,
    pub dist: ValueDist,
    pub shape: SchemaShape,
    pub why: &'static str,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "navigate",
        kind: Kind::Navigate,
        entities: 100_000,
        dist: ValueDist::Zipf,
        shape: SchemaShape::Wide,
        why: "1e5 entities (66666 musicians), zipf, wide, EverySync; read-only browsing: \
              query planning, program cache, batch scan and views; never store, MVCC or undo",
    },
    Spec {
        name: "edit",
        kind: Kind::Edit,
        entities: 100_000,
        dist: ValueDist::Zipf,
        shape: SchemaShape::Wide,
        why: "1e5 entities (66666 musicians), zipf, wide, EverySync; data edits: undo \
              snapshots, MVCC commit, WAL append and fsync, delta refresh; little query work",
    },
    Spec {
        name: "define",
        kind: Kind::Define,
        entities: 10_000,
        dist: ValueDist::Uniform,
        shape: SchemaShape::Deep,
        why: "1e4 entities (6666 musicians, fits CPU cache), uniform, deep, EverySync; schema \
              work: full evaluation, snapshot checkpoints, full refresh with index rebuilds",
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A uniformly chosen item of a non-empty slice.
fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// The ids a workload needs, kept from the generator after its own
/// database copy is dropped.
struct Ids {
    musicians: ClassId,
    instruments: ClassId,
    plays: AttrId,
    union_attr: AttrId,
    members: AttrId,
    family: AttrId,
    size: AttrId,
    region: Option<AttrId>,
    wide_attrs: Vec<AttrId>,
    musician_ids: Vec<EntityId>,
    instrument_ids: Vec<EntityId>,
    family_ids: Vec<EntityId>,
    region_ids: Vec<EntityId>,
    booleans: ClassId,
    yes: EntityId,
    no: EntityId,
    integers: ClassId,
    /// The integer entities 0..100 that the data holds (wide attribute
    /// values, group sizes); `EntityId::NULL` where absent.
    ints: Vec<EntityId>,
}

/// Times of one set-up's parts: the whole (CPU and wall) and, in wall
/// seconds, two of its parts.
pub struct SetupTimes {
    pub total: Cost,
    pub generate_s: f64,
    pub open_shared_s: f64,
}

/// A workload ready to run: the session on its durable store.
pub struct Bench {
    kind: Kind,
    pub user: User,
    pub store: StoreDir,
    pub vfs: Arc<MeteredVfs>,
    ids: Ids,
    rng: StdRng,
    /// Navigate: the fixed refinement chains whose steps repeat.
    chains: Vec<Predicate>,
    /// Time spent in correctness gates since the caller last zeroed it;
    /// excluded from task latency and set-up time.
    pub gate: Cost,
}

/// How often navigate checks its query answers against the oracle (the
/// oracle scans the whole extent interpretively). Coprime with the chain
/// period (`CHAINS * CHAIN_STEPS`), so every chain step is checked in turn.
const CHECK_EVERY: u64 = 31;
/// Navigate: refinement chains and steps per chain.
const CHAINS: u64 = 8;
const CHAIN_STEPS: usize = 4;
/// Edit: gestures per task and musicians selected per gesture.
const GESTURES: usize = 4;
const SELECTED: usize = 4;

fn class_named(db: &Database, name: &str) -> Result<ClassId, String> {
    db.classes()
        .find(|(_, c)| c.name == name)
        .map(|(id, _)| id)
        .ok_or_else(|| format!("no class {name}"))
}

impl Bench {
    /// Generates the database, saves it, reopens it as a durable shared
    /// head, builds the session, installs the workload's derived
    /// subclasses and runs one warm-up task.
    pub fn setup(spec: &Spec, seed: u64, dir: &Path) -> Result<(Bench, SetupTimes), String> {
        let setup = Stopwatch::start();
        let t0 = Instant::now();
        let gen = trace::span("sample.generate", || {
            synthetic_scaled(SynthSpec {
                entities: spec.entities,
                dist: spec.dist,
                shape: spec.shape,
                seed,
            })
        })
        .map_err(|e| e.to_string())?;
        let generate_s = t0.elapsed().as_secs_f64();
        let mut s = gen.s;
        let chains = if spec.kind == Kind::Navigate {
            (0..CHAINS)
                .flat_map(|c| navigation_chain(&mut s, CHAIN_STEPS, seed ^ c))
                .collect()
        } else {
            Vec::new()
        };
        let find = |lit: Literal| {
            s.db.find_literal(lit.clone())
                .ok_or_else(|| format!("literal {lit:?} not interned"))
        };
        let ids = Ids {
            musicians: s.musicians,
            instruments: s.instruments,
            plays: s.plays,
            union_attr: s.union_attr,
            members: s.members,
            family: s.family,
            size: s.size,
            region: gen.region,
            wide_attrs: gen.wide_attrs,
            booleans: s.db.predefined(BaseKind::Booleans),
            yes: find(Literal::Bool(true))?,
            no: find(Literal::Bool(false))?,
            integers: s.db.predefined(BaseKind::Integers),
            ints: (0..100)
                .map(|k| s.db.find_literal(Literal::Int(k)).unwrap_or(EntityId::NULL))
                .collect(),
            musician_ids: s.musician_ids,
            instrument_ids: s.instrument_ids,
            family_ids: s.family_ids,
            region_ids: gen.region_ids,
        };

        let vfs = Arc::new(MeteredVfs::default());
        let store = StoreDir::open_with(dir, vfs.clone()).map_err(|e| e.to_string())?;
        trace::span("store.save", || store.save(&s.db, DB_NAME)).map_err(|e| e.to_string())?;
        drop(s.db);
        let t1 = Instant::now();
        let (shared, _) = trace::span("store.open_shared", || store.open_shared(DB_NAME, SYNC))
            .map_err(|e| e.to_string())?;
        let open_shared_s = t1.elapsed().as_secs_f64();
        let session = trace::span("session.build", || {
            Session::open(&shared).store(store.clone()).build()
        });
        drop(shared);

        let mut bench = Bench {
            kind: spec.kind,
            user: User::new(session),
            store,
            vfs,
            ids,
            rng: StdRng::seed_from_u64(seed),
            chains,
            gate: Cost::default(),
        };
        bench.install()?;
        bench.task(0)?;
        let times = SetupTimes {
            total: setup.elapsed() - bench.gate,
            generate_s,
            open_shared_s,
        };
        Ok((bench, times))
    }

    /// Commits the workload's standing derived subclasses and builds the
    /// index service over them.
    fn install(&mut self) -> Result<(), String> {
        let ids = &self.ids;
        let db = self.user.session.database();
        if db
            .entity_name(ids.musician_ids[0])
            .map_err(|e| e.to_string())?
            != "musician0"
        {
            return Err("entity ids changed across save and reopen".into());
        }
        let needed = match self.kind {
            Kind::Define => 1..7,
            _ => 0..100,
        };
        if let Some(k) = needed.into_iter().find(|&k| ids.ints[k].is_null()) {
            return Err(format!("the data holds no integer {k}"));
        }
        let plays = |inst: EntityId| AtomSpec {
            lhs: vec![ids.plays],
            op: CompareOp::Match,
            constants: vec![inst],
        };
        let union = || AtomSpec {
            lhs: vec![ids.union_attr],
            op: CompareOp::Superset,
            constants: vec![ids.yes],
        };
        let derived: Vec<(&str, &str, Vec<AtomSpec>)> = match self.kind {
            Kind::Navigate => vec![
                (
                    "musicians",
                    "hot_players",
                    vec![plays(ids.instrument_ids[0])],
                ),
                ("musicians", "union_members", vec![union()]),
            ],
            Kind::Edit => vec![
                (
                    "musicians",
                    "hot_players",
                    vec![plays(ids.instrument_ids[0])],
                ),
                ("musicians", "union_members", vec![union()]),
                (
                    "musicians",
                    "union_hot_players",
                    vec![plays(ids.instrument_ids[1]), union()],
                ),
            ],
            Kind::Define => vec![
                (
                    "music_groups",
                    "region0_groups",
                    vec![AtomSpec {
                        lhs: self.deep_map(4),
                        op: CompareOp::Match,
                        constants: vec![ids.region_ids[0]],
                    }],
                ),
                (
                    "music_groups",
                    "trios",
                    vec![AtomSpec {
                        lhs: vec![ids.size],
                        op: CompareOp::SetEq,
                        constants: vec![ids.ints[3]],
                    }],
                ),
            ],
        };
        // One publish per subclass: a single publish carrying more changes
        // than the session's delta-log window (64Ki by default) is refused
        // as a stale snapshot, and `union_members` alone adds ~46k
        // memberships at 1e5 entities.
        for (parent, name, atoms) in &derived {
            self.user.define_subclass(parent, name, atoms)?;
            self.user.publish()?;
        }
        self.user.refresh(true)?;
        self.gate(Bench::gate_derived)?;
        if self.kind != Kind::Define {
            self.user.browse(Command::PickByName("musicians".into()))?;
            self.user.browse(Command::ViewContents)?;
        }
        Ok(())
    }

    /// `members plays family [region]`: a 3- or 4-step map from music
    /// groups (not batch-compatible).
    fn deep_map(&self, steps: usize) -> Vec<AttrId> {
        let ids = &self.ids;
        let mut map = vec![ids.members, ids.plays, ids.family];
        if steps == 4 {
            map.extend(ids.region);
        }
        map
    }

    /// Runs task `i` (task 0 is the set-up's warm-up).
    pub fn task(&mut self, i: u64) -> Result<(), String> {
        match self.kind {
            Kind::Navigate => self.navigate(i),
            Kind::Edit => self.edit(),
            Kind::Define => self.define(i),
        }
    }

    /// Runs a correctness gate; its time is not part of the task latency.
    fn gate(&mut self, f: impl FnOnce(&mut Bench) -> Result<(), String>) -> Result<(), String> {
        let t = Stopwatch::start();
        let out = trace::span("bench.gate", || f(self));
        self.gate += t.elapsed();
        out
    }

    /// Refine a worksheet predicate (a repeated chain step, then a fresh
    /// refinement), scan the full extent on a non-indexed wide attribute,
    /// render the answer page, select one entity, follow `plays`, render
    /// again and pop.
    fn navigate(&mut self, i: u64) -> Result<(), String> {
        let ids = &self.ids;
        let musicians = ids.musicians;
        let step = self.chains[(i % self.chains.len() as u64) as usize].clone();
        let fresh = Predicate::cnf(vec![
            Clause::new(vec![Atom::new(
                Map::single(ids.plays),
                CompareOp::Match,
                Rhs::constant(ids.instruments, [pick(&mut self.rng, &ids.instrument_ids)]),
            )]),
            Clause::new(vec![Atom::new(
                Map::single(ids.union_attr),
                CompareOp::Superset,
                Rhs::constant(ids.booleans, [ids.yes]),
            )]),
        ]);
        let wide = Predicate::dnf(vec![Clause::new(vec![Atom::new(
            Map::single(pick(&mut self.rng, &ids.wide_attrs)),
            CompareOp::Match,
            Rhs::constant(ids.integers, [ids.ints[self.rng.gen_range(0..100usize)]]),
        )])]);
        let mut answers = Vec::with_capacity(3);
        for pred in [step, fresh, wide] {
            let ans = self.user.query(musicians, &pred)?;
            answers.push((pred, ans));
        }
        if i.is_multiple_of(CHECK_EVERY) {
            self.gate(|b| {
                let db = b.user.session.database();
                for (pred, ans) in &answers {
                    let oracle = db
                        .evaluate_derived_members(musicians, pred)
                        .map_err(|e| e.to_string())?;
                    if oracle.as_slice() != ans.as_slice() {
                        return Err(format!(
                            "query answer ({} members) differs from the oracle ({}) for {pred}",
                            ans.len(),
                            oracle.len()
                        ));
                    }
                }
                Ok(())
            })?;
        }
        let page = &answers[2].1;
        let e = if page.is_empty() {
            pick(&mut self.rng, &self.ids.musician_ids)
        } else {
            page.as_slice()[self.rng.gen_range(0..page.len())]
        };
        let plays = self.ids.plays;
        self.user.render()?;
        self.user.browse(Command::SelectEntity(e))?;
        self.user.browse(Command::Follow(plays))?;
        self.user.render()?;
        self.gate(|b| {
            let db = b.user.session.database();
            let want = db.attr_value(e, plays).map_err(|x| x.to_string())?.as_set();
            let got = b.user.session.pages().last().map(|p| p.selected.clone());
            if got.as_deref() != Some(want.as_slice()) {
                return Err(format!(
                    "follow plays from {e:?} selected {got:?}, want {want:?}"
                ));
            }
            Ok(())
        })?;
        self.user.browse(Command::Pop)?;
        // Deselect, so every task starts from the same page state.
        self.user.browse(Command::SelectEntity(e))
    }

    /// Four reassign gestures on selected musicians (plays and union
    /// alternate), then publish and a delta refresh.
    fn edit(&mut self) -> Result<(), String> {
        for g in 0..GESTURES {
            let mut chosen: Vec<EntityId> = Vec::with_capacity(SELECTED);
            while chosen.len() < SELECTED {
                let m = pick(&mut self.rng, &self.ids.musician_ids);
                if !chosen.contains(&m) {
                    chosen.push(m);
                }
            }
            let cmd = if g % 2 == 0 {
                // One of the hot instruments the derived classes test,
                // plus up to two others.
                let mut values = vec![self.ids.instrument_ids[self.rng.gen_range(0..2usize)]];
                for _ in 0..self.rng.gen_range(0..3usize) {
                    let v = pick(&mut self.rng, &self.ids.instrument_ids);
                    if !values.contains(&v) {
                        values.push(v);
                    }
                }
                Command::ReassignAttrValues {
                    attr: self.ids.plays,
                    values,
                }
            } else {
                let value = if self.rng.gen_bool(0.5) {
                    self.ids.yes
                } else {
                    self.ids.no
                };
                Command::ReassignAttrValue {
                    attr: self.ids.union_attr,
                    value,
                }
            };
            for &m in &chosen {
                self.user.browse(Command::SelectEntity(m))?;
            }
            self.user.edit(cmd)?;
            for &m in &chosen {
                self.user.browse(Command::SelectEntity(m))?;
            }
        }
        self.user.publish()?;
        self.user.refresh(false)?;
        self.gate(Bench::gate_derived)
    }

    /// Create a subclass with a two-atom worksheet (one atom a 3-4 step
    /// map), commit it, publish, refresh; then delete it, publish and
    /// refresh again, so the schema returns to its standing shape.
    fn define(&mut self, i: u64) -> Result<(), String> {
        let steps = 3 + self.rng.gen_range(0..2usize);
        let anchor = if steps == 4 {
            pick(&mut self.rng, &self.ids.region_ids)
        } else {
            pick(&mut self.rng, &self.ids.family_ids)
        };
        let sizes = vec![
            self.ids.ints[1 + self.rng.gen_range(0..6usize)],
            self.ids.ints[1 + self.rng.gen_range(0..6usize)],
        ];
        let atoms = [
            AtomSpec {
                lhs: self.deep_map(steps),
                op: CompareOp::Match,
                constants: vec![anchor],
            },
            AtomSpec {
                lhs: vec![self.ids.size],
                op: CompareOp::Match,
                constants: if sizes[0] == sizes[1] {
                    sizes[..1].to_vec()
                } else {
                    sizes
                },
            },
        ];
        let name = format!("probe{i}");
        self.user.define_subclass("music_groups", &name, &atoms)?;
        self.user.publish()?;
        self.user.refresh(true)?;
        self.gate(Bench::gate_derived)?;
        self.user.apply("session.schema_edit", Command::Delete)?;
        self.user.publish()?;
        self.user.refresh(true)?;
        self.gate(|b| {
            if class_named(b.user.session.database(), &name).is_ok() {
                return Err(format!("deleted class {name} is still live"));
            }
            b.gate_derived()
        })
    }

    /// Every derived subclass's members must equal the interpreted
    /// oracle's answer for its predicate on the same snapshot.
    fn gate_derived(&mut self) -> Result<(), String> {
        let db = self.user.session.database();
        for (_, c) in db.classes().filter(|(_, c)| c.is_derived()) {
            let (Some(parent), Some(pred)) = (c.parent, c.kind.predicate()) else {
                continue;
            };
            let oracle = db
                .evaluate_derived_members(parent, pred)
                .map_err(|e| e.to_string())?;
            if !oracle.set_eq(&c.members) {
                return Err(format!(
                    "derived class {} holds {} members, the oracle {}",
                    c.name,
                    c.members.len(),
                    oracle.len()
                ));
            }
        }
        Ok(())
    }
}

/// What recovery must reproduce: every live class's name and kind, the
/// extent of each class whose membership is logged (derived memberships
/// are recomputable and not logged), and every acknowledged edit.
#[derive(Debug)]
pub struct HeadPrint {
    classes: BTreeMap<String, (bool, Option<usize>)>,
    values: Vec<OrderedSet>,
}

impl HeadPrint {
    pub fn of(
        db: &Database,
        acked: &BTreeMap<(EntityId, AttrId), Vec<EntityId>>,
    ) -> Result<HeadPrint, String> {
        let classes = db
            .classes()
            .map(|(_, c)| {
                let derived = c.is_derived();
                (
                    c.name.clone(),
                    (derived, (!derived).then(|| c.members.len())),
                )
            })
            .collect();
        let values = acked
            .keys()
            .map(|&(e, a)| {
                db.attr_value(e, a)
                    .map(|v| v.as_set())
                    .map_err(|x| x.to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(HeadPrint { classes, values })
    }

    /// Checks the acknowledged edits themselves against this head.
    pub fn holds(&self, acked: &BTreeMap<(EntityId, AttrId), Vec<EntityId>>) -> Result<(), String> {
        for ((key, want), got) in acked.iter().zip(&self.values) {
            if got.as_slice() != want.as_slice() {
                return Err(format!(
                    "acknowledged edit {key:?} = {want:?} reads back as {got:?}"
                ));
            }
        }
        Ok(())
    }

    pub fn diff(&self, other: &HeadPrint) -> Option<String> {
        if self.classes != other.classes {
            return Some(format!(
                "classes differ: published {:?}, recovered {:?}",
                self.classes, other.classes
            ));
        }
        if self.values != other.values {
            return Some("acknowledged values differ after recovery".into());
        }
        None
    }
}
