//! The algebraic engines (milestones 3 and 4): compile to TPM, plan each
//! relfor's PSX, execute.
//!
//! A query compiles once into a `Prog` — the TPM tree with a physical
//! [`Plan`] attached to every relfor. Execution walks the tree; each relfor
//! instantiates its plan per binding environment, exactly the semantics of
//!
//! ```text
//! [[relfor (x̄) in α return β]](t̄) := ⊎ [[β]](t̄, in⁻¹(ā)) for ā ∈ [[α]](t̄)
//! ```

use crate::engine::interp;
use crate::engine::QueryOptions;
use crate::{Error, QueryResult, Result};
use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;
use xmldb_algebra::rewrite::{optimize, RewriteOptions};
use xmldb_algebra::{compile_query, Tpm};
use xmldb_obs::span;
use xmldb_optimizer::{plan_psx, CostModel, Plan, PlanMetrics, PlannerConfig};
use xmldb_physical::Error as ExecError;
use xmldb_physical::{Bindings, ExecContext, LastKey, RowBatch, BATCH_ROWS};
use xmldb_storage::Seeker;
use xmldb_xasr::{NodeTuple, XasrStore};
use xmldb_xml::XmlWriter;
use xmldb_xq::{Cond, Expr, Var};

/// Evaluates `query` with the TPM pipeline under `config`. The explicit
/// logical-rewrite options are the ablation hook: disabling relfor merging
/// or redundant-relation elimination shows what each milestone-3 rewrite
/// buys.
pub fn evaluate(
    store: &XasrStore,
    query: &Expr,
    rewrites: &RewriteOptions,
    config: &PlannerConfig,
    options: &QueryOptions,
) -> Result<QueryResult> {
    let program = compile_program(store, query, rewrites, config, options);
    execute_program(&program, store)
}

/// An opaque, fully planned query (the prepared-query payload): the TPM
/// tree with a physical plan attached to every relfor.
pub struct CompiledProgram {
    prog: Prog,
    /// Number of planned relfors (= analyze metric slots).
    plan_count: usize,
}

impl CompiledProgram {
    /// Digest of the whole program's physical shape: FNV-1a over the
    /// per-relfor plan digests in pre-order. Two queries with the same
    /// value were planned identically — the flight recorder shows it so
    /// plan changes across runs stand out without diffing EXPLAIN text.
    pub fn plan_digest(&self) -> u64 {
        fn walk(prog: &Prog, bytes: &mut Vec<u8>) {
            match prog {
                Prog::Empty | Prog::Text(_) | Prog::VarOut(_) => {}
                Prog::Concat(parts) => parts.iter().for_each(|p| walk(p, bytes)),
                Prog::Constr { content, .. } => walk(content, bytes),
                Prog::RelFor { plan, body, .. } => {
                    bytes.extend_from_slice(&plan.digest().to_le_bytes());
                    walk(body, bytes);
                }
                Prog::IfFallback { body, .. } => walk(body, bytes),
            }
        }
        let mut bytes = Vec::new();
        walk(&self.prog, &mut bytes);
        xmldb_obs::fnv1a(&bytes)
    }
}

/// Compiles and plans a query once; the result can be executed repeatedly
/// via [`execute_program`].
pub fn compile_program(
    store: &XasrStore,
    query: &Expr,
    rewrites: &RewriteOptions,
    config: &PlannerConfig,
    options: &QueryOptions,
) -> CompiledProgram {
    compile(store, query, rewrites, config, options).1
}

/// [`compile_program`], also handing back the optimized TPM expression the
/// plans were made from (EXPLAIN renders it; executions do not need it).
fn compile(
    store: &XasrStore,
    query: &Expr,
    rewrites: &RewriteOptions,
    config: &PlannerConfig,
    options: &QueryOptions,
) -> (Tpm, CompiledProgram) {
    let tpm = {
        let _span = span("analyze");
        compile_query(query)
    };
    let tpm = {
        let _span = span("optimize");
        optimize(tpm, rewrites)
    };
    let _span = span("plan");
    let mut plan_count = 0;
    let prog = plan_tpm(&tpm, &model_for(store, options), config, &mut plan_count);
    (tpm, CompiledProgram { prog, plan_count })
}

/// Executes a previously compiled program against `store`.
pub fn execute_program(program: &CompiledProgram, store: &XasrStore) -> Result<QueryResult> {
    Exec {
        store,
        analyze: None,
        results: RefCell::default(),
    }
    .run(program)
}

/// [`execute_program`] with per-operator instrumentation: every plan
/// instantiates [`xmldb_physical::AnalyzedOperator`]-wrapped trees, and
/// the collected counters come back as one [`PlanMetrics`] per relfor (in
/// the order the relfors appear in EXPLAIN output). The result slot also
/// carries the runtime error when execution failed part-way — the metrics
/// up to the failure point are still returned, which is what makes the
/// trace useful for triage.
pub fn execute_program_analyzed(
    program: &CompiledProgram,
    store: &XasrStore,
) -> (Result<QueryResult>, Vec<PlanMetrics>) {
    let metrics = RefCell::new(vec![PlanMetrics::new(); program.plan_count]);
    let result = Exec {
        store,
        analyze: Some(&metrics),
        results: RefCell::default(),
    }
    .run(program);
    (result, metrics.into_inner())
}

/// EXPLAIN: the optimized TPM expression plus each relfor's physical plan.
///
/// With `analyze` (EXPLAIN ANALYZE) the query is also *run*, with
/// instrumented operators, and every plan line is annotated with actual
/// row counts, open counts and wall time, followed by the result summary
/// and the query's buffer-pool traffic (I/O snapshot delta). A runtime
/// error does not abort the rendering: the plans carry the counters
/// accumulated up to the failure and the error is reported in the
/// execution section — a mis-planned query's trace is exactly what triage
/// needs to see.
pub fn explain(
    store: &XasrStore,
    query: &Expr,
    rewrites: &RewriteOptions,
    config: &PlannerConfig,
    options: &QueryOptions,
    analyze: bool,
) -> Result<String> {
    let (tpm, program) = compile(store, query, rewrites, config, options);
    let mut out = String::new();
    out.push_str("=== TPM (merged) ===\n");
    out.push_str(&tpm.render());
    if !analyze {
        out.push_str("=== physical plans ===\n");
        render_prog(&program.prog, 0, None, &mut out);
        return Ok(out);
    }
    let governor = options.governor_handle();
    let _scope = governor.install();
    let io_before = store.env().io_stats();
    let started = Instant::now();
    let (result, metrics) = execute_program_analyzed(&program, store);
    let elapsed = started.elapsed();
    let io = store.env().io_stats().delta(&io_before);
    out.push_str("=== executed plans (EXPLAIN ANALYZE) ===\n");
    render_prog(&program.prog, 0, Some(&metrics), &mut out);
    let measured = (elapsed, &io, &governor.snapshot());
    super::render_execution(&mut out, store, &result, Some(measured));
    Ok(out)
}

fn model_for(store: &XasrStore, options: &QueryOptions) -> CostModel {
    match &options.stats_override {
        Some(stats) => CostModel::new(
            stats.clone(),
            store.clustered_pages(),
            store.label_index_pages(),
            store.parent_index_pages(),
            store.env().page_size(),
        ),
        None => CostModel::from_store(store),
    }
}

/// The TPM tree with physical plans attached to relfors.
enum Prog {
    Empty,
    Text(String),
    Concat(Vec<Prog>),
    Constr {
        label: String,
        content: Box<Prog>,
        /// The element serialized at compile time, when `content` reads
        /// no variable.
        constant: Option<String>,
    },
    VarOut(Var),
    /// A relfor: `plan`'s rows bind `vars` (and, under `outer_join`, one
    /// more variable) for `body`.
    RelFor {
        vars: Vec<Var>,
        /// The left-outer-join extension: the plan streams (vars ⟕ inner)
        /// rows; execution groups them by the `vars` prefix, emitting one
        /// `label` element per outer binding (empty for NULL-padded rows)
        /// and evaluating `body` inside it.
        outer_join: Option<OuterJoin>,
        plan: Plan,
        plan_index: usize,
        body: Box<Prog>,
    },
    IfFallback {
        cond: Cond,
        body: Box<Prog>,
    },
}

struct OuterJoin {
    inner_var: Var,
    label: String,
}

/// Plans every relfor in the TPM, assigning each one a dense `plan_index`
/// (pre-order) so EXPLAIN ANALYZE can associate one [`PlanMetrics`] slot
/// vector per planned relfor.
fn plan_tpm(tpm: &Tpm, model: &CostModel, config: &PlannerConfig, next_index: &mut usize) -> Prog {
    let mut relfor = |vars: &[Var], outer_join, plan, body: &Tpm| {
        let plan_index = *next_index;
        *next_index += 1;
        Prog::RelFor {
            vars: vars.to_vec(),
            outer_join,
            plan,
            plan_index,
            body: Box::new(plan_tpm(body, model, config, next_index)),
        }
    };
    match tpm {
        Tpm::Empty => Prog::Empty,
        Tpm::Text(t) => Prog::Text(t.clone()),
        Tpm::Concat(parts) => Prog::Concat(
            parts
                .iter()
                .map(|p| plan_tpm(p, model, config, next_index))
                .collect(),
        ),
        Tpm::Constr { label, content } => {
            let content = plan_tpm(content, model, config, next_index);
            let mut out = XmlWriter::new();
            out.open(label);
            let constant = content.write_const(&mut out).then(move || {
                out.close();
                out.into_string()
            });
            Prog::Constr {
                label: label.clone(),
                content: Box::new(content),
                constant,
            }
        }
        Tpm::VarOut(v) => Prog::VarOut(v.clone()),
        Tpm::RelFor { vars, source, body } => {
            relfor(vars, None, plan_psx(source, model, config), body)
        }
        Tpm::RelForOuter {
            outer_vars,
            outer_source,
            label,
            inner_var,
            inner_source,
            body,
        } => relfor(
            outer_vars,
            Some(OuterJoin {
                inner_var: inner_var.clone(),
                label: label.clone(),
            }),
            xmldb_optimizer::plan_outer_join(outer_source, inner_source, model, config),
            body,
        ),
        Tpm::IfFallback { cond, body } => Prog::IfFallback {
            cond: cond.clone(),
            body: Box::new(plan_tpm(body, model, config, next_index)),
        },
    }
}

fn render_prog(prog: &Prog, level: usize, metrics: Option<&[PlanMetrics]>, out: &mut String) {
    let pad = "  ".repeat(level);
    match prog {
        Prog::Empty => out.push_str(&format!("{pad}()\n")),
        Prog::Text(t) => out.push_str(&format!("{pad}text({t:?})\n")),
        Prog::Concat(parts) => {
            out.push_str(&format!("{pad}concat\n"));
            for p in parts {
                render_prog(p, level + 1, metrics, out);
            }
        }
        Prog::Constr { label, content, .. } => {
            out.push_str(&format!("{pad}constr({label})\n"));
            render_prog(content, level + 1, metrics, out);
        }
        Prog::VarOut(v) => out.push_str(&format!("{pad}emit {v}\n")),
        Prog::RelFor {
            vars,
            outer_join,
            plan,
            plan_index,
            body,
        } => {
            let vartuple = vars
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            match outer_join {
                None => out.push_str(&format!("{pad}relfor ({vartuple}):\n")),
                Some(OuterJoin { inner_var, label }) => out.push_str(&format!(
                    "{pad}relfor-outer ({vartuple}; {inner_var}) constr({label}):\n"
                )),
            }
            let rendered = match metrics {
                Some(m) => plan.explain_analyzed(&m[*plan_index]),
                None => plan.explain(),
            };
            for line in rendered.lines() {
                out.push_str(&format!("{pad}  | {line}\n"));
            }
            render_prog(body, level + 1, metrics, out);
        }
        Prog::IfFallback { cond, body } => {
            out.push_str(&format!("{pad}if* [{cond}] (interpreted)\n"));
            render_prog(body, level + 1, metrics, out);
        }
    }
}

impl Prog {
    /// Writes the program if it reads no variable, so that its output is
    /// the same under every environment; false (after a partial write) if
    /// it reads one.
    fn write_const(&self, out: &mut XmlWriter) -> bool {
        match self {
            Prog::Empty => {}
            Prog::Text(t) => out.text(t),
            Prog::Constr {
                constant: Some(xml),
                ..
            } => out.push_element(xml),
            Prog::Concat(parts) => return parts.iter().all(|p| p.write_const(out)),
            _ => return false,
        }
        true
    }
}

/// One execution of a program: what every step of the walk down the TPM
/// tree needs besides the variable environment and the output position.
struct Exec<'a> {
    store: &'a XasrStore,
    /// EXPLAIN ANALYZE: one metric-slot vector per planned relfor.
    analyze: Option<&'a RefCell<Vec<PlanMetrics>>>,
    /// Writes every result subtree: results come in document order, so
    /// each costs a leaf-local seek of the clustered index.
    results: RefCell<Seeker>,
}

impl Exec<'_> {
    fn run(&self, program: &CompiledProgram) -> Result<QueryResult> {
        let mut out = XmlWriter::new();
        let mut env: HashMap<Var, NodeTuple> = HashMap::new();
        env.insert(Var::root(), self.store.root()?);
        self.exec(&program.prog, &mut env, &mut out)?;
        Ok(QueryResult::new(out))
    }

    /// Writes `prog`'s output at `out`'s current position.
    fn exec(
        &self,
        prog: &Prog,
        env: &mut HashMap<Var, NodeTuple>,
        out: &mut XmlWriter,
    ) -> Result<()> {
        match prog {
            Prog::Empty => Ok(()),
            Prog::Text(t) => {
                out.text(t);
                Ok(())
            }
            Prog::Concat(parts) => {
                for p in parts {
                    self.exec(p, env, out)?;
                }
                Ok(())
            }
            Prog::Constr {
                constant: Some(xml),
                ..
            } => {
                out.push_element(xml);
                Ok(())
            }
            Prog::Constr { label, content, .. } => {
                out.open(label);
                self.exec(content, env, out)?;
                out.close();
                Ok(())
            }
            Prog::VarOut(v) => {
                let tuple = env
                    .get(v)
                    .ok_or_else(|| Error::Exec(ExecError::UnboundVariable(v.to_string())))?;
                let mut seeker = self.results.borrow_mut();
                Ok(self.store.write_subtree(tuple, &mut seeker, out)?)
            }
            Prog::RelFor {
                vars,
                outer_join,
                plan,
                plan_index,
                body,
            } => {
                // External variables become constants of this plan execution.
                let mut bindings = Bindings::new();
                for (var, tuple) in env.iter() {
                    bindings.bind(var.clone(), tuple.clone());
                }
                // The variables a row binds; save what they shadow.
                let inner_var = outer_join.as_ref().map(|oj| &oj.inner_var);
                let bound = || vars.iter().chain(inner_var);
                let saved: Vec<(Var, Option<NodeTuple>)> =
                    bound().map(|v| (v.clone(), env.get(v).cloned())).collect();
                // Left-outer relfors group their rows by the `vars` prefix;
                // each outer binding's element stays open until the key
                // changes or the rows end.
                let mut group = LastKey::default();
                let mut group_open = false;
                // The consumer of this relfor's rows: bind the row's
                // variables, evaluate `body`. A body that reads no variable
                // is written per row without binding any.
                let binds = !body.write_const(&mut XmlWriter::new());
                let mut consume = |batch: &RowBatch| -> Result<()> {
                    for row in batch.iter() {
                        debug_assert_eq!(row.len(), bound().count());
                        if let Some(OuterJoin { label, .. }) = outer_join {
                            let key = row[..vars.len()].iter().map(|t| t.in_);
                            if group.changes_to(key) {
                                if group_open {
                                    out.close();
                                }
                                out.open(label);
                                group_open = true;
                            }
                            if row[vars.len()].is_null() {
                                // Match-less outer binding: its element,
                                // opened above, stays empty.
                                continue;
                            }
                        }
                        if binds {
                            for (var, tuple) in bound().zip(row) {
                                match env.get_mut(var) {
                                    Some(slot) => slot.clone_from(tuple),
                                    None => {
                                        env.insert(var.clone(), tuple.clone());
                                    }
                                }
                            }
                        }
                        self.exec(body, env, out)?;
                    }
                    Ok(())
                };
                let result = self.drive(plan, *plan_index, &bindings, &mut consume);
                if group_open {
                    out.close();
                }
                for (var, old) in saved {
                    match old {
                        Some(t) => env.insert(var, t),
                        None => env.remove(&var),
                    };
                }
                result
            }
            Prog::IfFallback { cond, body } => {
                if interp::eval_cond_indexed(self.store, cond, env)? {
                    self.exec(body, env, out)?;
                }
                Ok(())
            }
        }
    }

    /// Runs `plan` under `bindings`, handing its rows to `consume` batch by
    /// batch in document order.
    fn drive(
        &self,
        plan: &Plan,
        plan_index: usize,
        bindings: &Bindings,
        consume: &mut dyn FnMut(&RowBatch) -> Result<()>,
    ) -> Result<()> {
        let ctx = ExecContext::new(self.store, bindings);
        // Metric slots are shared across re-instantiations of this plan
        // (one per outer binding), so counters accumulate and `opens`
        // counts re-executions.
        let mut op = match self.analyze {
            Some(cell) => plan.instantiate(Some(&mut cell.borrow_mut()[plan_index])),
            None => plan.instantiate(None),
        };
        op.open(&ctx)?;
        let result = (|| -> Result<()> {
            loop {
                let batch = op.next_batch(&ctx, BATCH_ROWS)?;
                if batch.is_empty() {
                    return Ok(());
                }
                consume(&batch)?;
            }
        })();
        op.close();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmldb_storage::Env;
    use xmldb_xasr::shred_document;

    const FIGURE2: &str =
        "<journal><authors><name>Ana</name><name>Bob</name></authors><title>DB</title></journal>";

    fn run(query: &str, config: &PlannerConfig) -> String {
        let env = Env::memory();
        let store = shred_document(&env, "d", FIGURE2).unwrap();
        let q = xmldb_xq::parse(query).unwrap();
        evaluate(
            &store,
            &q,
            &RewriteOptions::default(),
            config,
            &QueryOptions::default(),
        )
        .unwrap()
        .to_xml()
    }

    #[test]
    fn example2_both_planners() {
        let q = "<names>{ for $j in /journal return for $n in $j//name return $n }</names>";
        let expected = "<names><name>Ana</name><name>Bob</name></names>";
        assert_eq!(run(q, &PlannerConfig::heuristic()), expected);
        assert_eq!(run(q, &PlannerConfig::cost_based()), expected);
    }

    #[test]
    fn example5_if_some() {
        let q = "<names>{ for $j in /journal return \
                 if (some $t in $j//text() satisfies true()) \
                 then for $n in $j//name return $n else () }</names>";
        let expected = "<names><name>Ana</name><name>Bob</name></names>";
        assert_eq!(run(q, &PlannerConfig::cost_based()), expected);
        assert_eq!(run(q, &PlannerConfig::heuristic()), expected);
    }

    #[test]
    fn constructor_between_loops_not_merged_but_correct() {
        let q =
            "<names>{ for $j in /journal return <j>{ for $n in $j//name return $n }</j> }</names>";
        let expected = "<names><j><name>Ana</name><name>Bob</name></j></names>";
        assert_eq!(run(q, &PlannerConfig::cost_based()), expected);
    }

    #[test]
    fn fallback_condition_or() {
        let q = "for $j in /journal return \
                 if (some $t in $j//text() satisfies ($t = \"Ana\" or $t = \"Zoe\")) \
                 then <found/> else ()";
        assert_eq!(run(q, &PlannerConfig::cost_based()), "<found/>");
    }

    #[test]
    fn explain_contains_tpm_and_plans() {
        let env = Env::memory();
        let store = shred_document(&env, "d", FIGURE2).unwrap();
        let q = xmldb_xq::parse(
            "<names>{ for $j in /journal return for $n in $j//name return $n }</names>",
        )
        .unwrap();
        let text = explain(
            &store,
            &q,
            &RewriteOptions::default(),
            &PlannerConfig::cost_based(),
            &QueryOptions::default(),
            false,
        )
        .unwrap();
        assert!(text.contains("=== TPM (merged) ==="), "{text}");
        assert!(text.contains("relfor ($j, $n)"), "{text}");
        assert!(text.contains("=== physical plans ==="), "{text}");
        assert!(text.contains("project"), "{text}");
    }

    #[test]
    fn stats_override_still_correct() {
        let env = Env::memory();
        let store = shred_document(&env, "d", FIGURE2).unwrap();
        let q = xmldb_xq::parse("for $n in //name return $n").unwrap();
        let mut lying = store.stats().clone();
        lying.label_counts.insert("name".into(), 1_000_000);
        let opts = QueryOptions {
            stats_override: Some(lying),
            ..QueryOptions::default()
        };
        let rewrites = RewriteOptions::default();
        let out = evaluate(&store, &q, &rewrites, &PlannerConfig::cost_based(), &opts).unwrap();
        assert_eq!(out.to_xml(), "<name>Ana</name><name>Bob</name>");
    }
}
