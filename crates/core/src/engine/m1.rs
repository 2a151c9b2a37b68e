//! Milestone 1: the in-memory XQ evaluator.
//!
//! A direct implementation of the denotational semantics over the DOM —
//! "the primary goal was to ensure that the students understood the XQ
//! semantics". This engine doubles as the correctness oracle the testbed
//! diffs every other engine against (the role Galax played in the course).

use crate::{Error, QueryResult, Result};
use std::collections::HashMap;
use xmldb_physical::Error as ExecError;
use xmldb_xasr::NodeType;
use xmldb_xml::{Document, NodeId, NodeKind, XmlWriter};
use xmldb_xq::{Axis, Cond, Expr, NodeTest, Var};

/// Evaluates `query` over an in-memory document. The implicit root
/// variable binds to the document's virtual root. The result is built as
/// a DOM — the denotational reading — and written out in one pass.
pub fn evaluate(doc: &Document, query: &Expr) -> Result<QueryResult> {
    let mut out = Document::new();
    let out_root = out.root();
    let mut env: HashMap<Var, NodeId> = HashMap::new();
    env.insert(Var::root(), doc.root());
    eval(doc, query, &mut env, &mut out, out_root)?;
    let mut writer = XmlWriter::new();
    writer.node(&out, out_root);
    Ok(QueryResult::new(writer))
}

/// Convenience: parse an XML string and evaluate a query string over it
/// without any storage environment.
pub fn evaluate_str(xml: &str, query: &str) -> Result<QueryResult> {
    let doc = xmldb_xml::parse(xml)?;
    let q = xmldb_xq::parse(query)?;
    evaluate(&doc, &q)
}

fn eval(
    doc: &Document,
    expr: &Expr,
    env: &mut HashMap<Var, NodeId>,
    out: &mut Document,
    parent: NodeId,
) -> Result<()> {
    match expr {
        Expr::Empty => Ok(()),
        Expr::Text(t) => {
            out.add_text(parent, t);
            Ok(())
        }
        Expr::Sequence(parts) => {
            for p in parts {
                eval(doc, p, env, out, parent)?;
            }
            Ok(())
        }
        Expr::Element { name, content } => {
            let id = out.add_element(parent, name.clone());
            eval(doc, content, env, out, id)
        }
        Expr::Var(v) => {
            let node = lookup(env, v)?;
            out.copy_subtree(parent, doc, node);
            Ok(())
        }
        Expr::Step(step) => {
            let base = lookup(env, &step.var)?;
            for node in axis_nodes(doc, base, step.axis, &step.test) {
                out.copy_subtree(parent, doc, node);
            }
            Ok(())
        }
        Expr::For { var, source, body } => {
            let base = lookup(env, &source.var)?;
            let nodes: Vec<NodeId> = axis_nodes(doc, base, source.axis, &source.test).collect();
            let saved = env.get(var).copied();
            // The DOM interpreter never touches the buffer pool, so its
            // loop iterations are the only place governor checks can fire.
            let gov = xmldb_storage::Governor::current();
            for node in nodes {
                gov.check().map_err(Error::Storage)?;
                env.insert(var.clone(), node);
                eval(doc, body, env, out, parent)?;
            }
            restore(env, var, saved);
            Ok(())
        }
        Expr::If { cond, then } => {
            if eval_cond(doc, cond, env)? {
                eval(doc, then, env, out, parent)?;
            }
            Ok(())
        }
    }
}

/// Evaluates a condition; non-text comparisons raise the runtime error the
/// paper permits.
pub fn eval_cond(doc: &Document, cond: &Cond, env: &mut HashMap<Var, NodeId>) -> Result<bool> {
    match cond {
        Cond::True => Ok(true),
        Cond::VarEqConst(v, s) => {
            let node = lookup(env, v)?;
            Ok(text_value(doc, node)? == s.as_str())
        }
        Cond::VarEqVar(a, b) => {
            let na = lookup(env, a)?;
            let nb = lookup(env, b)?;
            Ok(text_value(doc, na)? == text_value(doc, nb)?)
        }
        Cond::Some {
            var,
            source,
            satisfies,
        } => {
            let base = lookup(env, &source.var)?;
            let nodes: Vec<NodeId> = axis_nodes(doc, base, source.axis, &source.test).collect();
            let saved = env.get(var).copied();
            let gov = xmldb_storage::Governor::current();
            for node in nodes {
                gov.check().map_err(Error::Storage)?;
                env.insert(var.clone(), node);
                let holds = eval_cond(doc, satisfies, env)?;
                if holds {
                    restore(env, var, saved);
                    return Ok(true);
                }
            }
            restore(env, var, saved);
            Ok(false)
        }
        Cond::And(x, y) => Ok(eval_cond(doc, x, env)? && eval_cond(doc, y, env)?),
        Cond::Or(x, y) => Ok(eval_cond(doc, x, env)? || eval_cond(doc, y, env)?),
        Cond::Not(c) => Ok(!eval_cond(doc, c, env)?),
    }
}

fn lookup(env: &HashMap<Var, NodeId>, var: &Var) -> Result<NodeId> {
    env.get(var)
        .copied()
        .ok_or_else(|| Error::Exec(ExecError::UnboundVariable(var.to_string())))
}

fn restore(env: &mut HashMap<Var, NodeId>, var: &Var, saved: Option<NodeId>) {
    match saved {
        Some(old) => {
            env.insert(var.clone(), old);
        }
        None => {
            env.remove(var);
        }
    }
}

fn text_value(doc: &Document, node: NodeId) -> Result<&str> {
    match doc.kind(node) {
        NodeKind::Text => Ok(doc.value(node)),
        kind => Err(Error::Exec(ExecError::NonTextComparison {
            kind: match kind {
                NodeKind::Root => NodeType::Root,
                NodeKind::Element => NodeType::Element,
                NodeKind::Text => NodeType::Text,
            },
            value: Some(doc.value(node).to_string()),
        })),
    }
}

/// Nodes reached from `base` along `axis` satisfying `test`, in document
/// order.
fn axis_nodes<'a>(
    doc: &'a Document,
    base: NodeId,
    axis: Axis,
    test: &'a NodeTest,
) -> Box<dyn Iterator<Item = NodeId> + 'a> {
    let matches = move |id: NodeId| match test {
        NodeTest::Label(l) => doc.kind(id) == NodeKind::Element && doc.name(id) == l,
        NodeTest::Star => doc.kind(id) == NodeKind::Element,
        NodeTest::Text => doc.kind(id) == NodeKind::Text,
    };
    match axis {
        Axis::Child => Box::new(
            doc.children(base)
                .iter()
                .copied()
                .filter(move |&id| matches(id)),
        ),
        Axis::Descendant => Box::new(doc.descendants(base).filter(move |&id| matches(id))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURE2: &str =
        "<journal><authors><name>Ana</name><name>Bob</name></authors><title>DB</title></journal>";

    fn run(query: &str) -> String {
        evaluate_str(FIGURE2, query).unwrap().to_xml()
    }

    #[test]
    fn example2_names_query() {
        let out = run("<names>{ for $j in /journal return for $n in $j//name return $n }</names>");
        assert_eq!(out, "<names><name>Ana</name><name>Bob</name></names>");
    }

    #[test]
    fn empty_query() {
        assert_eq!(run("()"), "");
    }

    #[test]
    fn literal_constructors() {
        assert_eq!(run("<a><b/>hi</a>"), "<a><b/>hi</a>");
    }

    #[test]
    fn variable_output_copies_subtree() {
        assert_eq!(
            run("for $a in /journal/authors return $a"),
            "<authors><name>Ana</name><name>Bob</name></authors>"
        );
    }

    #[test]
    fn descendant_text_step() {
        assert_eq!(run("for $j in /journal return $j//text()"), "AnaBobDB");
    }

    #[test]
    fn star_step() {
        assert_eq!(
            run("for $a in /journal/authors return $a/*"),
            "<name>Ana</name><name>Bob</name>"
        );
    }

    #[test]
    fn if_some_condition() {
        let q = "for $j in /journal return \
                 if (some $t in $j//text() satisfies $t = \"Ana\") then <hit/> else ()";
        assert_eq!(run(q), "<hit/>");
        let q = "for $j in /journal return \
                 if (some $t in $j//text() satisfies $t = \"Zoe\") then <hit/> else ()";
        assert_eq!(run(q), "");
    }

    #[test]
    fn var_eq_var() {
        // Two different text nodes with different content.
        let q = "for $a in //name, $b in //title return \
                 if ($a = $b) then <eq/> else ()";
        // $a and $b bind to *element* nodes → runtime error.
        let err = evaluate_str(FIGURE2, q).unwrap_err();
        assert!(err.is_non_text_comparison(), "got {err}");
        // On text nodes it works.
        let q = "for $a in //name/text(), $b in //name/text() return \
                 if ($a = $b) then <eq/> else ()";
        assert_eq!(run(q), "<eq/><eq/>"); // Ana=Ana, Bob=Bob
    }

    #[test]
    fn and_or_not() {
        let q = "for $j in /journal return \
                 if (true() and not(some $v in $j/volume satisfies true())) \
                 then <novolume/> else ()";
        assert_eq!(run(q), "<novolume/>");
        let q = "for $j in /journal return \
                 if (some $t in $j//text() satisfies ($t = \"Ana\" or $t = \"Zoe\")) \
                 then <found/> else ()";
        assert_eq!(run(q), "<found/>");
    }

    #[test]
    fn nested_for_shadowing() {
        let q = "for $x in /journal return for $x in $x/authors return $x/name";
        assert_eq!(run(q), "<name>Ana</name><name>Bob</name>");
    }

    #[test]
    fn general_else() {
        let q = "for $j in /journal return \
                 if (some $v in $j/volume satisfies true()) then <v/> else <no/>";
        assert_eq!(run(q), "<no/>");
    }

    #[test]
    fn for_over_empty_axis_skips_comparisons() {
        // The condition would error, but the loop binds nothing.
        let q = "for $v in /journal/volume return if ($v = \"x\") then $v else ()";
        assert_eq!(run(q), "");
    }

    #[test]
    fn document_order_of_output() {
        // Mixed descendant steps keep document order.
        assert_eq!(
            run("for $x in /journal/* return $x"),
            "<authors><name>Ana</name><name>Bob</name></authors><title>DB</title>"
        );
    }
}
