//! # isis-query
//!
//! Query processing for the ISIS reproduction, beyond the per-candidate
//! evaluator built into `isis-core`:
//!
//! * [`relmodel`] — a minimal relational model and the standard relational
//!   encoding of an ISIS database;
//! * [`algebra`] — a relationally-complete algebra (σ, π, ×, ∪, −, plus
//!   hash equijoin) with an evaluator;
//! * [`compile`] — compiles ISIS predicates into algebra plans, making the
//!   paper's "full power of relational algebra" claim machine-checkable;
//! * [`qbe`] — a Query-by-Example baseline, the paper's §1.1 comparator;
//! * [`index`] — inverted attribute indexes (groupings made operational);
//! * [`incremental`] — incremental maintenance of derived subclasses by
//!   inverse map traversal over the shared [`IndexService`], one delta
//!   round ([`DerivedMaintainer::apply_round`]) per window of the core
//!   delta log;
//! * [`service`] — the shared [`IndexService`]: one maintained index set
//!   (kept current by consuming [`isis_core::ChangeSet`]s) serving the
//!   evaluator, the optimizer, and derived-class maintenance,
//!   with an access-path planner and observable [`QueryStats`]; its
//!   `evaluate`/`explain` are the one query evaluation path;
//! * [`optimizer`] — a short-circuit atom/clause reordering optimizer with
//!   index-informed selectivity estimates;
//! * [`program`] — compiled predicate programs: constant hoisting,
//!   shared-map memoization, and barrier-respecting atom reordering, the
//!   artifact query and delta evaluation share;
//! * [`parallel`] — the [`EvalPool`] every evaluation runs on: serial on
//!   the calling thread for one worker or a small slice, otherwise chunked
//!   over a lazily-spawned persistent pool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
pub mod cache;
pub mod compile;
pub mod error;
pub mod explain;
pub mod incremental;
pub mod index;
mod manager;
pub mod optimizer;
pub mod parallel;
pub mod program;
pub mod qbe;
pub mod relmodel;
pub mod service;

pub use algebra::{eval_cached, Condition, Operand, RaExpr, ScalarOracle};
pub use cache::{predicate_fingerprint, CacheOutcome, CachedPlan, ProgramCache, ProgramCacheStats};
pub use compile::{
    compile_and_eval, compile_attr_derivation, compile_map, compile_subclass_predicate, eval_plan,
};
pub use error::QueryError;
pub use explain::{AtomPlan, ColumnStat, ExplainRecord, SlowQuery};
pub use incremental::DerivedMaintainer;
pub use index::AttrIndex;
pub use manager::IndexStats;
pub use optimizer::{estimate_atom, optimize, AtomEstimate, Explain};
pub use parallel::{chunk_decision, EvalPool};
pub use program::{MemoTable, PredicateProgram, BATCH_ROWS};
pub use qbe::{Cell, ConditionEntry, QbeQuery, TemplateRow};
pub use relmodel::{encode_database, Relation, RelationalDb};
pub use service::{AccessPath, IndexService, QueryStats};
