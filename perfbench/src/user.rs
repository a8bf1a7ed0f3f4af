//! The simulated user's hands: each call the benchmark makes into the
//! session, wrapped in its span, with the per-layer counts gathered
//! around it while the task is traced.

use std::collections::BTreeMap;

use isis_core::{AttrId, ClassId, CompareOp, EntityId, Operator, OrderedSet, Predicate};
use isis_query::{ProgramCacheStats, QueryStats};
use isis_session::{Command, Session, SessionError};

use crate::trace;

/// Per-layer counts gathered during traced tasks.
#[derive(Debug, Default)]
pub struct Meter {
    pub queries: u64,
    pub cache_lookups: u64,
    pub cache_hits: u64,
    pub cache_evictions: u64,
    pub index_probes: u64,
    pub seq_scans: u64,
    pub scanned: u64,
    pub returned: u64,
    pub plan_ns: Vec<u64>,
    pub eval_ns: Vec<u64>,
    pub index_updates: u64,
    pub index_rebuilds: u64,
    pub changes: u64,
}

/// One worksheet atom: `lhs op {constants}`, the constants picked in the
/// class the lhs map ends at.
pub struct AtomSpec {
    pub lhs: Vec<AttrId>,
    pub op: CompareOp,
    pub constants: Vec<EntityId>,
}

pub struct User {
    pub session: Session,
    /// Whether the current task is traced (counts go to `meter`).
    pub traced: bool,
    pub meter: Meter,
    /// Acknowledged data edits: the value set each (entity, attribute)
    /// must hold once its commit returned.
    pub acked: BTreeMap<(EntityId, AttrId), Vec<EntityId>>,
    pending: Vec<((EntityId, AttrId), Vec<EntityId>)>,
}

fn err(e: SessionError) -> String {
    e.to_string()
}

impl User {
    pub fn new(session: Session) -> User {
        User {
            session,
            traced: false,
            meter: Meter::default(),
            acked: BTreeMap::new(),
            pending: Vec::new(),
        }
    }

    /// Applies one command inside a span named after the gesture class.
    pub fn apply(&mut self, span: &'static str, cmd: Command) -> Result<(), String> {
        trace::span(span, || self.session.apply(cmd)).map_err(err)
    }

    pub fn browse(&mut self, cmd: Command) -> Result<(), String> {
        self.apply("session.browse", cmd)
    }

    /// A data edit on every entity selected on the top page; the new value
    /// is acknowledged once the next publish returns.
    pub fn edit(&mut self, cmd: Command) -> Result<(), String> {
        let (attr, values) = match &cmd {
            Command::ReassignAttrValue { attr, value } => (*attr, vec![*value]),
            Command::ReassignAttrValues { attr, values } => (*attr, values.clone()),
            _ => return Err(format!("{cmd:?} is not a data edit")),
        };
        let selected = self
            .session
            .pages()
            .last()
            .map(|p| p.selected.clone())
            .unwrap_or_default();
        self.apply("session.edit", cmd)?;
        for e in selected {
            self.pending.push(((e, attr), values.clone()));
        }
        Ok(())
    }

    /// Answers a worksheet predicate through `Session::query` (through
    /// `Session::explain` in a traced task, for its plan and scan counts).
    pub fn query(&mut self, parent: ClassId, pred: &Predicate) -> Result<OrderedSet, String> {
        let (q0, c0) = self.service_counts();
        let out = if self.traced {
            let (set, rec) =
                trace::span("session.query", || self.session.explain(parent, pred)).map_err(err)?;
            self.meter.plan_ns.push(rec.plan_ns);
            self.meter.eval_ns.push(rec.eval_ns);
            self.meter.scanned += rec.scanned;
            self.meter.returned += rec.returned;
            set
        } else {
            trace::span("session.query", || self.session.query(parent, pred)).map_err(err)?
        };
        if self.traced {
            let (q, c) = self.service_counts();
            let m = &mut self.meter;
            m.queries += q.queries - q0.queries;
            m.index_probes += q.index_probes - q0.index_probes;
            m.seq_scans += q.seq_scans - q0.seq_scans;
            m.cache_hits += c.hits - c0.hits;
            m.cache_lookups +=
                (c.hits + c.misses + c.invalidations) - (c0.hits + c0.misses + c0.invalidations);
            m.cache_evictions += c.evictions - c0.evictions;
        }
        Ok(out)
    }

    /// Planner and program-cache counters of the session's index service.
    fn service_counts(&self) -> (QueryStats, ProgramCacheStats) {
        self.session
            .index_service()
            .map(|svc| (svc.query_stats(), svc.program_cache().stats()))
            .unwrap_or_default()
    }

    /// Builds the current view's scene and renders it to SVG.
    pub fn render(&mut self) -> Result<usize, String> {
        let scene = trace::span("views.scene", || self.session.scene()).map_err(err)?;
        let svg = trace::span("views.render", || isis_views::render::svg::render(&scene));
        Ok(std::hint::black_box(svg.len()))
    }

    /// Publishes the buffered edits to the durable shared head.
    pub fn publish(&mut self) -> Result<(), String> {
        let receipt =
            trace::span("session.publish", || self.session.commit_changes()).map_err(err)?;
        if self.traced {
            self.meter.changes += receipt.changes as u64;
        }
        self.acked.extend(self.pending.drain(..));
        Ok(())
    }

    /// Brings derived state up to date. `full` names the path the workload
    /// expects: a window with schema edits re-evaluates everything and
    /// builds a fresh index service; a data-only window takes the delta.
    pub fn refresh(&mut self, full: bool) -> Result<(), String> {
        let stats = |s: &Session| {
            s.index_service()
                .map(|svc| svc.index_stats())
                .unwrap_or_default()
        };
        let before = stats(&self.session);
        let span = if full {
            "session.refresh_full"
        } else {
            "session.refresh_delta"
        };
        self.apply(span, Command::Refresh)?;
        if self.traced {
            let after = stats(&self.session);
            if full {
                let built = self
                    .session
                    .index_service()
                    .map_or(0, |svc| svc.indexed_attrs().count());
                self.meter.index_rebuilds += (built + after.rebuilds) as u64;
            } else {
                self.meter.index_rebuilds += (after.rebuilds - before.rebuilds) as u64;
                self.meter.index_updates +=
                    (after.incremental_updates - before.incremental_updates) as u64;
            }
        }
        Ok(())
    }

    /// Creates subclass `name` of `parent` and commits its membership
    /// predicate (one DNF clause of `atoms`) through the worksheet.
    pub fn define_subclass(
        &mut self,
        parent: &str,
        name: &str,
        atoms: &[AtomSpec],
    ) -> Result<(), String> {
        self.browse(Command::PickByName(parent.into()))?;
        self.apply("session.schema_edit", Command::CreateSubclass(name.into()))?;
        let ws = "session.worksheet";
        self.apply(ws, Command::DefineMembership)?;
        for atom in atoms {
            self.apply(ws, Command::WsNewAtom)?;
            for &step in &atom.lhs {
                self.apply(ws, Command::WsLhsPush(step))?;
            }
            self.apply(ws, Command::WsOperator(Operator::plain(atom.op)))?;
            self.apply(ws, Command::WsRhsConstant(None))?;
            for &c in &atom.constants {
                self.apply(ws, Command::ConstantToggle(c))?;
            }
            self.apply(ws, Command::ConstantDone)?;
            self.apply(ws, Command::WsPlaceInClause(0))?;
        }
        self.apply("session.ws_commit", Command::WsCommit)
    }
}
