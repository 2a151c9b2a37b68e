//! Resolved predicates: [`xmldb_algebra::AtomicPred`] with column
//! references bound to row positions. Produced by the planner, evaluated
//! per row here.

use crate::exec::Bindings;
use crate::{Error, Result};
use xmldb_algebra::{Attr, CmpOp};
use xmldb_xasr::{NodeTuple, NodeType};
use xmldb_xq::Var;

/// One side of a resolved comparison.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum PhysOperand {
    /// A field of the tuple at row position `pos`.
    Col { pos: usize, attr: Attr },
    /// A field of an externally bound variable's tuple.
    Ext { var: Var, attr: Attr },
    /// A numeric (in-value) constant.
    Num(u64),
    /// A string constant.
    Str(String),
    /// A node-type constant.
    Kind(NodeType),
}

/// A resolved atomic predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysPred {
    /// Comparison operator.
    pub op: CmpOp,
    /// Left operand.
    pub lhs: PhysOperand,
    /// Right operand.
    pub rhs: PhysOperand,
    /// XQ `=` semantics: error if a compared node is not a text node.
    pub strict_text: bool,
}

/// A runtime comparison value.
#[derive(Debug, Clone, PartialEq)]
enum Value<'a> {
    Num(u64),
    Str(Option<&'a str>),
    Kind(NodeType),
}

impl PhysPred {
    /// Evaluates the predicate over the row `left ++ right` and `bindings`.
    /// The row comes as two slices so that a join can test every (left
    /// row, inner row) pair without materializing it, and build only the
    /// pairs that pass; single rows pass an empty `right`.
    pub fn eval(
        &self,
        left: &[NodeTuple],
        right: &[NodeTuple],
        bindings: &Bindings,
    ) -> Result<bool> {
        let lhs = resolve(&self.lhs, left, right, bindings, self.strict_text)?;
        let rhs = resolve(&self.rhs, left, right, bindings, self.strict_text)?;
        let ord = match (&lhs, &rhs) {
            (Value::Num(a), Value::Num(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => match (a, b) {
                // SQL NULL semantics: comparisons with the root's NULL
                // value never hold.
                (None, _) | (_, None) => return Ok(false),
                (Some(a), Some(b)) => a.cmp(b),
            },
            (Value::Kind(a), Value::Kind(b)) => {
                return Ok(match self.op {
                    CmpOp::Eq => a == b,
                    // Kinds have no order; Lt/Gt never hold.
                    CmpOp::Lt | CmpOp::Gt => false,
                });
            }
            // Type-mismatched comparisons (planner bug or root NULL):
            // never hold.
            _ => return Ok(false),
        };
        Ok(match self.op {
            CmpOp::Eq => ord == std::cmp::Ordering::Equal,
            CmpOp::Lt => ord == std::cmp::Ordering::Less,
            CmpOp::Gt => ord == std::cmp::Ordering::Greater,
        })
    }
}

fn resolve<'a>(
    operand: &'a PhysOperand,
    left: &'a [NodeTuple],
    right: &'a [NodeTuple],
    bindings: &'a Bindings,
    strict_text: bool,
) -> Result<Value<'a>> {
    match operand {
        PhysOperand::Num(n) => Ok(Value::Num(*n)),
        PhysOperand::Str(s) => Ok(Value::Str(Some(s))),
        PhysOperand::Kind(k) => Ok(Value::Kind(*k)),
        PhysOperand::Col { pos, attr } => {
            let tuple = left
                .get(*pos)
                .or_else(|| right.get(*pos - left.len()))
                .ok_or_else(|| Error::Xasr(format!("row has no column {pos}")))?;
            field(tuple, *attr, strict_text)
        }
        PhysOperand::Ext { var, attr } => {
            let tuple = bindings
                .get(var)
                .ok_or_else(|| Error::UnboundVariable(var.to_string()))?;
            field(tuple, *attr, strict_text)
        }
    }
}

fn field(tuple: &NodeTuple, attr: Attr, strict_text: bool) -> Result<Value<'_>> {
    Ok(match attr {
        Attr::In => Value::Num(tuple.in_),
        Attr::Out => Value::Num(tuple.out),
        Attr::ParentIn => Value::Num(tuple.parent_in),
        Attr::Type => Value::Kind(tuple.kind),
        Attr::Value => {
            if strict_text && tuple.kind != NodeType::Text {
                return Err(Error::NonTextComparison {
                    kind: tuple.kind,
                    value: tuple.value.clone(),
                });
            }
            Value::Str(tuple.value.as_deref())
        }
    })
}

/// Evaluates a conjunction over the row `left ++ right` (see
/// [`PhysPred::eval`]).
pub fn eval_all(
    preds: &[PhysPred],
    left: &[NodeTuple],
    right: &[NodeTuple],
    bindings: &Bindings,
) -> Result<bool> {
    for p in preds {
        if !p.eval(left, right, bindings)? {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;

    fn elem(in_: u64, out: u64, parent: u64, label: &str) -> NodeTuple {
        NodeTuple {
            in_,
            out,
            parent_in: parent,
            kind: NodeType::Element,
            value: Some(label.into()),
        }
    }

    fn text(in_: u64, content: &str) -> NodeTuple {
        NodeTuple {
            in_,
            out: in_ + 1,
            parent_in: 0,
            kind: NodeType::Text,
            value: Some(content.into()),
        }
    }

    fn col(pos: usize, attr: Attr) -> PhysOperand {
        PhysOperand::Col { pos, attr }
    }

    #[test]
    fn structural_predicates() {
        let row: Row = vec![elem(2, 17, 1, "journal"), elem(4, 7, 3, "name")];
        let binds = Bindings::new();
        // Descendant: J.in < N.in ∧ N.out < J.out.
        let p1 = PhysPred {
            op: CmpOp::Lt,
            lhs: col(0, Attr::In),
            rhs: col(1, Attr::In),
            strict_text: false,
        };
        let p2 = PhysPred {
            op: CmpOp::Lt,
            lhs: col(1, Attr::Out),
            rhs: col(0, Attr::Out),
            strict_text: false,
        };
        assert!(eval_all(&[p1, p2], &row, &[], &binds).unwrap());
        // Child of root: parent_in = 1.
        let p = PhysPred {
            op: CmpOp::Eq,
            lhs: col(0, Attr::ParentIn),
            rhs: PhysOperand::Num(1),
            strict_text: false,
        };
        assert!(p.eval(&row, &[], &binds).unwrap());
    }

    #[test]
    fn label_and_kind_tests() {
        let row: Row = vec![elem(2, 17, 1, "journal")];
        let binds = Bindings::new();
        let is_elem = PhysPred {
            op: CmpOp::Eq,
            lhs: col(0, Attr::Type),
            rhs: PhysOperand::Kind(NodeType::Element),
            strict_text: false,
        };
        assert!(is_elem.eval(&row, &[], &binds).unwrap());
        let label = PhysPred {
            op: CmpOp::Eq,
            lhs: col(0, Attr::Value),
            rhs: PhysOperand::Str("journal".into()),
            strict_text: false,
        };
        assert!(label.eval(&row, &[], &binds).unwrap());
        let wrong = PhysPred {
            op: CmpOp::Eq,
            lhs: col(0, Attr::Value),
            rhs: PhysOperand::Str("title".into()),
            strict_text: false,
        };
        assert!(!wrong.eval(&row, &[], &binds).unwrap());
    }

    #[test]
    fn strict_text_errors_on_elements() {
        let row: Row = vec![elem(2, 17, 1, "journal")];
        let binds = Bindings::new();
        let p = PhysPred {
            op: CmpOp::Eq,
            lhs: col(0, Attr::Value),
            rhs: PhysOperand::Str("journal".into()),
            strict_text: true,
        };
        assert!(matches!(
            p.eval(&row, &[], &binds),
            Err(Error::NonTextComparison { .. })
        ));
    }

    #[test]
    fn strict_text_compares_text_nodes() {
        let row: Row = vec![text(5, "Ana"), text(9, "Ana")];
        let binds = Bindings::new();
        let p = PhysPred {
            op: CmpOp::Eq,
            lhs: col(0, Attr::Value),
            rhs: col(1, Attr::Value),
            strict_text: true,
        };
        assert!(p.eval(&row, &[], &binds).unwrap());
        let row2: Row = vec![text(5, "Ana"), text(9, "Bob")];
        assert!(!p.eval(&row2, &[], &binds).unwrap());
    }

    #[test]
    fn external_bindings_resolved() {
        let mut binds = Bindings::new();
        binds.bind(Var::named("x"), elem(2, 17, 1, "journal"));
        let row: Row = vec![elem(4, 7, 3, "name")];
        // N.in > $x.in (descendant lower bound via vartuple).
        let p = PhysPred {
            op: CmpOp::Gt,
            lhs: col(0, Attr::In),
            rhs: PhysOperand::Ext {
                var: Var::named("x"),
                attr: Attr::In,
            },
            strict_text: false,
        };
        assert!(p.eval(&row, &[], &binds).unwrap());
        let missing = PhysPred {
            op: CmpOp::Eq,
            lhs: PhysOperand::Ext {
                var: Var::named("nope"),
                attr: Attr::In,
            },
            rhs: PhysOperand::Num(1),
            strict_text: false,
        };
        assert!(matches!(
            missing.eval(&row, &[], &binds),
            Err(Error::UnboundVariable(_))
        ));
    }

    #[test]
    fn null_value_comparisons_are_false() {
        let root = NodeTuple {
            in_: 1,
            out: 10,
            parent_in: 0,
            kind: NodeType::Root,
            value: None,
        };
        let row: Row = vec![root];
        let binds = Bindings::new();
        let p = PhysPred {
            op: CmpOp::Eq,
            lhs: col(0, Attr::Value),
            rhs: PhysOperand::Str("x".into()),
            strict_text: false,
        };
        assert!(!p.eval(&row, &[], &binds).unwrap());
    }
}
