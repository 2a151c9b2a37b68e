//! The storage interpreters: milestone 2 (per-binding index lookups) and
//! the naive full-scan baseline.
//!
//! Both walk the XQ AST directly, holding only the current variable
//! bindings in memory — the paper's observation that XQ variables always
//! bind single nodes makes this possible. The difference is the access
//! path of an axis step:
//!
//! * [`AccessMode::Indexed`] — children via the parent index, descendants
//!   via clustered/label-interval scans (what Berkeley DB's B-trees gave
//!   the milestone-2 engines),
//! * [`AccessMode::FullScan`] — every step scans the whole clustered index
//!   and filters (the unoptimized strawman; the course's point was that
//!   the techniques taught speed this up "by several orders of
//!   magnitude").

use crate::{Error, QueryResult, Result};
use std::cell::RefCell;
use std::collections::HashMap;
use xmldb_physical::Error as ExecError;
use xmldb_storage::Seeker;
use xmldb_xasr::{predicates, NodeTuple, NodeType, XasrStore};
use xmldb_xml::XmlWriter;
use xmldb_xq::{Axis, Cond, Expr, NodeTest, Var};

/// How axis steps touch storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Index lookups per binding (milestone 2).
    Indexed,
    /// Full clustered scan per step (the unoptimized baseline).
    FullScan,
}

/// Evaluates `query` against a shredded document.
pub fn evaluate(store: &XasrStore, query: &Expr, mode: AccessMode) -> Result<QueryResult> {
    let mut out = XmlWriter::new();
    let mut env: HashMap<Var, NodeTuple> = HashMap::new();
    env.insert(Var::root(), store.root()?);
    let interp = Interp {
        store,
        mode,
        results: RefCell::default(),
    };
    interp.eval(query, &mut env, &mut out)?;
    Ok(QueryResult::new(out))
}

/// Evaluates a condition with indexed access (used by the TPM executor's
/// fallback path for `or`/`not` conditions).
pub(crate) fn eval_cond_indexed(
    store: &XasrStore,
    cond: &Cond,
    env: &mut HashMap<Var, NodeTuple>,
) -> Result<bool> {
    Interp {
        store,
        mode: AccessMode::Indexed,
        results: RefCell::default(),
    }
    .eval_cond(cond, env)
}

struct Interp<'a> {
    store: &'a XasrStore,
    mode: AccessMode,
    /// Writes every result subtree: results come in document order, so
    /// each costs a leaf-local seek of the clustered index.
    results: RefCell<Seeker>,
}

impl<'a> Interp<'a> {
    /// Writes `expr`'s output at `out`'s current position.
    fn eval(
        &self,
        expr: &Expr,
        env: &mut HashMap<Var, NodeTuple>,
        out: &mut XmlWriter,
    ) -> Result<()> {
        match expr {
            Expr::Empty => Ok(()),
            Expr::Text(t) => {
                out.text(t);
                Ok(())
            }
            Expr::Sequence(parts) => {
                for p in parts {
                    self.eval(p, env, out)?;
                }
                Ok(())
            }
            Expr::Element { name, content } => {
                out.open(name);
                self.eval(content, env, out)?;
                out.close();
                Ok(())
            }
            Expr::Var(v) => self.write(&lookup(env, v)?, out),
            Expr::Step(step) => {
                let base = lookup(env, &step.var)?;
                for tuple in self.axis(&base, step.axis, &step.test) {
                    self.write(&tuple?, out)?;
                }
                Ok(())
            }
            Expr::For { var, source, body } => {
                let base = lookup(env, &source.var)?;
                let tuples: Vec<Result<NodeTuple>> =
                    self.axis(&base, source.axis, &source.test).collect();
                let saved = env.get(var).cloned();
                for tuple in tuples {
                    env.insert(var.clone(), tuple?);
                    self.eval(body, env, out)?;
                }
                restore(env, var, saved);
                Ok(())
            }
            Expr::If { cond, then } => {
                if self.eval_cond(cond, env)? {
                    self.eval(then, env, out)?;
                }
                Ok(())
            }
        }
    }

    fn write(&self, tuple: &NodeTuple, out: &mut XmlWriter) -> Result<()> {
        let mut seeker = self.results.borrow_mut();
        Ok(self.store.write_subtree(tuple, &mut seeker, out)?)
    }

    /// Condition evaluation (shared with the TPM executor's fallback for
    /// `or`/`not` conditions).
    pub(crate) fn eval_cond(&self, cond: &Cond, env: &mut HashMap<Var, NodeTuple>) -> Result<bool> {
        match cond {
            Cond::True => Ok(true),
            Cond::VarEqConst(v, s) => {
                let tuple = lookup(env, v)?;
                Ok(text_value(&tuple)? == s.as_str())
            }
            Cond::VarEqVar(a, b) => {
                let ta = lookup(env, a)?;
                let tb = lookup(env, b)?;
                Ok(text_value(&ta)? == text_value(&tb)?)
            }
            Cond::Some {
                var,
                source,
                satisfies,
            } => {
                let base = lookup(env, &source.var)?;
                let tuples: Vec<Result<NodeTuple>> =
                    self.axis(&base, source.axis, &source.test).collect();
                let saved = env.get(var).cloned();
                for tuple in tuples {
                    env.insert(var.clone(), tuple?);
                    if self.eval_cond(satisfies, env)? {
                        restore(env, var, saved);
                        return Ok(true);
                    }
                }
                restore(env, var, saved);
                Ok(false)
            }
            Cond::And(x, y) => Ok(self.eval_cond(x, env)? && self.eval_cond(y, env)?),
            Cond::Or(x, y) => Ok(self.eval_cond(x, env)? || self.eval_cond(y, env)?),
            Cond::Not(c) => Ok(!self.eval_cond(c, env)?),
        }
    }

    /// Axis step: tuples reached from `base`, in document order.
    fn axis(
        &self,
        base: &NodeTuple,
        axis: Axis,
        test: &NodeTest,
    ) -> Box<dyn Iterator<Item = Result<NodeTuple>> + 'a> {
        let tuple_test = to_tuple_test(test);
        match (self.mode, axis) {
            (AccessMode::Indexed, Axis::Child) => Box::new(
                self.store
                    .children(base.in_)
                    .map(|r| r.map_err(Error::from))
                    .filter(move |r| keep(r, &tuple_test)),
            ),
            (AccessMode::Indexed, Axis::Descendant) => match test {
                NodeTest::Label(l) => Box::new(
                    self.store
                        .by_label_in_range(l, base.in_, base.out)
                        .map(|r| r.map_err(Error::from)),
                ),
                _ => Box::new(
                    self.store
                        .scan_in_range(base.in_, base.out)
                        .map(|r| r.map_err(Error::from))
                        .filter(move |r| keep(r, &tuple_test)),
                ),
            },
            (AccessMode::FullScan, Axis::Child) => {
                let parent_in = base.in_;
                Box::new(
                    self.store
                        .scan_all()
                        .map(|r| r.map_err(Error::from))
                        .filter(move |r| {
                            keep(r, &tuple_test)
                                && r.as_ref().map(|t| t.parent_in == parent_in).unwrap_or(true)
                        }),
                )
            }
            (AccessMode::FullScan, Axis::Descendant) => {
                let anchor = base.clone();
                Box::new(
                    self.store
                        .scan_all()
                        .map(|r| r.map_err(Error::from))
                        .filter(move |r| {
                            keep(r, &tuple_test)
                                && r.as_ref()
                                    .map(|t| predicates::is_descendant(&anchor, t))
                                    .unwrap_or(true)
                        }),
                )
            }
        }
    }
}

fn keep(r: &Result<NodeTuple>, test: &predicates::TupleTest) -> bool {
    match r {
        Ok(t) => test.matches(t),
        Err(_) => true, // propagate errors to the consumer
    }
}

fn to_tuple_test(test: &NodeTest) -> predicates::TupleTest {
    match test {
        NodeTest::Label(l) => predicates::TupleTest::Label(l.clone()),
        NodeTest::Star => predicates::TupleTest::AnyElement,
        NodeTest::Text => predicates::TupleTest::Text,
    }
}

fn lookup(env: &HashMap<Var, NodeTuple>, var: &Var) -> Result<NodeTuple> {
    env.get(var)
        .cloned()
        .ok_or_else(|| Error::Exec(ExecError::UnboundVariable(var.to_string())))
}

fn restore(env: &mut HashMap<Var, NodeTuple>, var: &Var, saved: Option<NodeTuple>) {
    match saved {
        Some(old) => {
            env.insert(var.clone(), old);
        }
        None => {
            env.remove(var);
        }
    }
}

fn text_value(tuple: &NodeTuple) -> Result<&str> {
    match tuple.kind {
        NodeType::Text => Ok(tuple.value.as_deref().unwrap_or("")),
        kind => Err(Error::Exec(ExecError::NonTextComparison {
            kind,
            value: tuple.value.clone(),
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmldb_storage::Env;
    use xmldb_xasr::shred_document;

    const FIGURE2: &str =
        "<journal><authors><name>Ana</name><name>Bob</name></authors><title>DB</title></journal>";

    fn run(query: &str, mode: AccessMode) -> String {
        let env = Env::memory();
        let store = shred_document(&env, "d", FIGURE2).unwrap();
        let q = xmldb_xq::parse(query).unwrap();
        evaluate(&store, &q, mode).unwrap().to_xml()
    }

    #[test]
    fn both_modes_match_m1_on_example2() {
        let q = "<names>{ for $j in /journal return for $n in $j//name return $n }</names>";
        let expected = "<names><name>Ana</name><name>Bob</name></names>";
        assert_eq!(run(q, AccessMode::Indexed), expected);
        assert_eq!(run(q, AccessMode::FullScan), expected);
    }

    #[test]
    fn conditions_and_output_order() {
        let q = "for $j in /journal return \
                 if (some $t in $j//text() satisfies $t = \"Bob\") then $j/title else ()";
        assert_eq!(run(q, AccessMode::Indexed), "<title>DB</title>");
        assert_eq!(run(q, AccessMode::FullScan), "<title>DB</title>");
    }

    #[test]
    fn full_scan_matches_indexed_on_many_queries() {
        let queries = [
            "()",
            "/journal",
            "//name",
            "for $x in /journal/* return <item>{ $x/text() }</item>",
            "for $a in //name/text(), $b in //name/text() return \
             if ($a = $b) then <same/> else ()",
            "for $x in //ghost return $x",
        ];
        for q in queries {
            assert_eq!(
                run(q, AccessMode::Indexed),
                run(q, AccessMode::FullScan),
                "mode mismatch for {q}"
            );
        }
    }

    #[test]
    fn non_text_comparison_errors() {
        let env = Env::memory();
        let store = shred_document(&env, "d", FIGURE2).unwrap();
        let q =
            xmldb_xq::parse("for $n in //name return if ($n = \"Ana\") then $n else ()").unwrap();
        let err = evaluate(&store, &q, AccessMode::Indexed).unwrap_err();
        assert!(err.is_non_text_comparison());
    }
}
