//! Cost-based planning and execution for basic graph patterns (BGPs).
//!
//! The SPARQL engine the paper leans on (§3, the Jena query engine behind
//! the personalized knowledge base) evaluates conjunctive queries — sets
//! of triple patterns joined on shared variables. This module turns such a
//! set into an executable plan instead of evaluating patterns in textual
//! order:
//!
//! 1. **Selectivity estimation.** Each pattern's cardinality is read off
//!    the SPO/POS/OSP indexes with [`Graph::count_ids_capped`](crate::Graph::count_ids_capped): constants
//!    bound, variables wild, counts saturating at a fixed cap (4096) so
//!    planning stays cheap on large graphs. No samples, no histograms —
//!    the indexes *are* the statistics.
//! 2. **Greedy join ordering.** The most selective pattern runs first;
//!    every subsequent choice prefers patterns connected to the already
//!    bound variables (avoiding cartesian products) and, among those, the
//!    smallest estimate.
//! 3. **Join operators.** When the next pattern's index scan is sorted by
//!    a variable the current rows are already sorted by, the planner emits
//!    a **merge join** over the two sorted streams (the RDF-3X trick: the
//!    BTreeSet indexes hand out sorted runs for free). Otherwise it falls
//!    back to an **index nested-loop join**, probing the best index per
//!    row.
//!
//! On top of the required patterns the plan supports `OPTIONAL` groups
//! (left-outer joins), `UNION` blocks (bag union of arm expansions),
//! variable projection, and offset/limit paging. [`ExecPlan::explain`]
//! renders the chosen strategy as stable text so tests (and the gateway)
//! can pin join orders.
//!
//! Evaluation order is: required patterns (planner order), then `UNION`
//! blocks (order added), then `OPTIONAL` groups (order added), then the
//! offset/limit slice, then projection. Results are bags — duplicates are
//! preserved, matching SPARQL multiset semantics.
//!
//! # Examples
//!
//! ```
//! use cogsdk_rdf::{BgpQuery, Graph, Statement, Term};
//!
//! let mut g = Graph::new();
//! g.insert(Statement::new(Term::iri("ex:us"), Term::iri("ex:gdp"), Term::double(21000.0)));
//! g.insert(Statement::new(Term::iri("ex:us"), Term::iri("ex:name"), Term::string("US")));
//!
//! let q = BgpQuery::new()
//!     .pattern_text("(?c <ex:gdp> ?g)").unwrap()
//!     .pattern_text("(?c <ex:name> ?n)").unwrap()
//!     .select(["n"]);
//! let rows = q.execute(&g);
//! assert_eq!(rows.len(), 1);
//! assert_eq!(rows[0]["n"], Term::string("US"));
//! ```

use crate::dict::{IdTriple, TermDict, TermId};
use crate::graph::QueryView;
use crate::query::{QueryRows, Solution};
use crate::reason::{var_index, IdPattern, IdPatternTerm, PatternTerm, TriplePattern};
use crate::RdfError;
use std::collections::HashSet;
use std::time::Instant;

/// Cardinality estimates saturate here. Ordering patterns only needs
/// estimates good enough to rank them, and counting a BTree range is
/// `O(matches)` — without a cap, *planning* a query over a large graph
/// would cost as much as scanning it. `explain()` renders the saturated
/// value, so `est=4096` reads as "at least 4096".
const ESTIMATE_CAP: usize = 4096;

/// A basic graph pattern query: required patterns joined on shared
/// variables, plus optional groups, union blocks, projection and paging.
///
/// Build one with the fluent methods, then either [`execute`](Self::execute)
/// it directly or [`plan`](Self::plan) it first to inspect the chosen join
/// strategy via [`ExecPlan::explain`].
#[derive(Debug, Clone, Default)]
pub struct BgpQuery {
    patterns: Vec<TriplePattern>,
    unions: Vec<Vec<Vec<TriplePattern>>>,
    optionals: Vec<Vec<TriplePattern>>,
    select: Vec<String>,
    offset: usize,
    limit: Option<usize>,
}

impl BgpQuery {
    /// Creates an empty query.
    pub fn new() -> BgpQuery {
        BgpQuery::default()
    }

    /// Adds a required triple pattern.
    #[must_use]
    pub fn pattern(mut self, pattern: TriplePattern) -> BgpQuery {
        self.patterns.push(pattern);
        self
    }

    /// Adds a required pattern from `(term term term)` text — the same
    /// grammar as [`TriplePattern::parse`].
    ///
    /// # Errors
    ///
    /// Returns [`RdfError`] on malformed patterns.
    pub fn pattern_text(self, text: &str) -> Result<BgpQuery, RdfError> {
        Ok(self.pattern(TriplePattern::parse(text)?))
    }

    /// Adds an `OPTIONAL` group: a left-outer join against the patterns in
    /// `group`. Rows that match extend; rows that don't pass through with
    /// the group's variables unbound.
    #[must_use]
    pub fn optional(mut self, group: Vec<TriplePattern>) -> BgpQuery {
        self.optionals.push(group);
        self
    }

    /// Adds a `UNION` block: each input row is extended through every arm
    /// and the expansions are bag-unioned. A row that matches no arm is
    /// dropped.
    #[must_use]
    pub fn union(mut self, arms: Vec<Vec<TriplePattern>>) -> BgpQuery {
        self.unions.push(arms);
        self
    }

    /// Projects the result to the named variables (without `?`). An empty
    /// selection — the default — keeps every variable.
    #[must_use]
    pub fn select<I, S>(mut self, vars: I) -> BgpQuery
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.select = vars.into_iter().map(Into::into).collect();
        self
    }

    /// Skips the first `n` result rows (applied before `limit`).
    #[must_use]
    pub fn offset(mut self, n: usize) -> BgpQuery {
        self.offset = n;
        self
    }

    /// Caps the result at `n` rows (applied after `offset`).
    #[must_use]
    pub fn limit(mut self, n: usize) -> BgpQuery {
        self.limit = Some(n);
        self
    }

    /// Compiles the query into an executable plan against any
    /// [`QueryView`] — the live [`Graph`](crate::Graph) or a pinned
    /// [`EpochSnapshot`](crate::EpochSnapshot): greedy cost-based join
    /// ordering with merge joins where the index sort orders line up. The
    /// plan borrows nothing but holds term ids from the view's
    /// dictionary, so it must execute against the same view (or one
    /// sharing its dictionary, e.g. a paging snapshot).
    pub fn plan<V: QueryView>(&self, graph: &V) -> ExecPlan {
        self.plan_inner(graph, true)
    }

    /// Compiles the query *without* the optimizer: required patterns run
    /// pattern-at-a-time in the order they were added, always via nested
    /// loops. This is the reference baseline the oracle suite and the
    /// `ablation_query` bench compare the planner against.
    pub fn plan_textual<V: QueryView>(&self, graph: &V) -> ExecPlan {
        self.plan_inner(graph, false)
    }

    /// Plans and executes in one call.
    pub fn execute<V: QueryView>(&self, graph: &V) -> Vec<Solution> {
        self.plan(graph).execute(graph)
    }

    /// Executes with the optimizer bypassed (see
    /// [`plan_textual`](Self::plan_textual)).
    pub fn execute_textual<V: QueryView>(&self, graph: &V) -> Vec<Solution> {
        self.plan_textual(graph).execute(graph)
    }

    fn plan_inner<V: QueryView>(&self, graph: &V, optimize: bool) -> ExecPlan {
        let start = Instant::now();
        let dict = graph.dict();
        let mut vars: Vec<String> = Vec::new();

        let required: Vec<Option<IdPattern>> = self
            .patterns
            .iter()
            .map(|p| compile_lookup(p, dict, &mut vars))
            .collect();
        let unions: Vec<Vec<Option<Vec<IdPattern>>>> = self
            .unions
            .iter()
            .map(|arms| {
                arms.iter()
                    .map(|arm| compile_group(arm, dict, &mut vars))
                    .collect()
            })
            .collect();
        let optionals: Vec<Option<Vec<IdPattern>>> = self
            .optionals
            .iter()
            .map(|g| compile_group(g, dict, &mut vars))
            .collect();

        let nothing_to_match =
            self.patterns.is_empty() && self.unions.is_empty() && self.optionals.is_empty();
        let empty = nothing_to_match || required.iter().any(Option::is_none);

        let mut steps: Vec<Step> = Vec::new();
        let mut lines: Vec<String> = Vec::new();
        let mut merge_joins = 0usize;
        let mut loop_joins = 0usize;

        if empty {
            lines.push(if nothing_to_match {
                "empty (no patterns)".to_string()
            } else {
                "empty (a required pattern names a term absent from the dictionary)".to_string()
            });
        } else if !required.is_empty() {
            let pats: Vec<IdPattern> = required
                .iter()
                .map(|p| p.expect("emptiness checked above"))
                .collect();
            let est: Vec<usize> = pats
                .iter()
                .map(|p| {
                    graph.count_ids_capped(
                        const_slot(p.subject),
                        const_slot(p.predicate),
                        const_slot(p.object),
                        ESTIMATE_CAP,
                    )
                })
                .collect();
            let mut remaining: Vec<usize> = (0..pats.len()).collect();
            let mut bound: HashSet<usize> = HashSet::new();
            let mut sorted_var: Option<usize> = None;
            let mut first = true;
            while !remaining.is_empty() {
                let pick = if !optimize {
                    0
                } else if first {
                    argmin(&remaining, |&i| est[i])
                } else {
                    let connected: Vec<usize> = (0..remaining.len())
                        .filter(|&k| {
                            vars_of(pats[remaining[k]])
                                .iter()
                                .any(|v| bound.contains(v))
                        })
                        .collect();
                    if connected.is_empty() {
                        argmin(&remaining, |&i| est[i])
                    } else {
                        connected[argmin(&connected, |&k| est[remaining[k]])]
                    }
                };
                let idx = remaining.remove(pick);
                let p = pats[idx];
                let (index_name, sort_pos) = index_choice(p);
                let scan_sort_var = sort_pos.and_then(|pos| var_at(p, pos));
                let rendered = render_pattern(&self.patterns[idx]);
                if first {
                    steps.push(Step::Scan { pattern: p });
                    let sorted = match scan_sort_var {
                        Some(v) => format!(" sorted=?{}", vars[v]),
                        None => String::new(),
                    };
                    lines.push(format!(
                        "scan {index_name} {rendered} est={}{sorted}",
                        est[idx]
                    ));
                    sorted_var = scan_sort_var;
                    first = false;
                } else if optimize
                    && scan_sort_var.is_some()
                    && scan_sort_var == sorted_var
                    && scan_sort_var.is_some_and(|v| bound.contains(&v))
                {
                    let v = scan_sort_var.expect("checked");
                    let pos = sort_pos.expect("sort var implies sort position");
                    steps.push(Step::Merge {
                        pattern: p,
                        var: v,
                        pos,
                    });
                    merge_joins += 1;
                    lines.push(format!(
                        "merge[?{}] {index_name} {rendered} est={}",
                        vars[v], est[idx]
                    ));
                } else {
                    steps.push(Step::Loop { pattern: p });
                    loop_joins += 1;
                    lines.push(format!("loop {index_name} {rendered} est={}", est[idx]));
                }
                bound.extend(vars_of(p));
            }
        }

        if !empty {
            for (bi, arms) in unions.iter().enumerate() {
                let rendered: Vec<String> = arms
                    .iter()
                    .zip(&self.unions[bi])
                    .map(|(compiled, source)| match compiled {
                        Some(_) => format!("{{ {} }}", render_group(source)),
                        None => "{ no-match }".to_string(),
                    })
                    .collect();
                lines.push(format!("union {}", rendered.join(" | ")));
                steps.push(Step::Union {
                    arms: arms.iter().filter_map(Clone::clone).collect(),
                });
            }
            for (oi, group) in optionals.iter().enumerate() {
                let suffix = if group.is_none() { " no-match" } else { "" };
                lines.push(format!(
                    "optional {}{suffix}",
                    render_group(&self.optionals[oi])
                ));
                steps.push(Step::Optional {
                    group: group.clone(),
                });
            }
        }

        lines.push(format!(
            "slice offset={} limit={}",
            self.offset,
            self.limit
                .map_or_else(|| "none".to_string(), |l| l.to_string())
        ));
        lines.push(if self.select.is_empty() {
            "project *".to_string()
        } else {
            let names: Vec<String> = self.select.iter().map(|v| format!("?{v}")).collect();
            format!("project {}", names.join(" "))
        });

        let header = format!(
            "bgp {} patterns ({merge_joins} merge, {loop_joins} loop)",
            self.patterns.len()
        );
        lines.insert(0, header);

        ExecPlan {
            vars,
            select: self.select.clone(),
            steps,
            empty,
            offset: self.offset,
            limit: self.limit,
            explain: lines.join("\n"),
            plan_micros: start.elapsed().as_micros() as u64,
            merge_joins,
            loop_joins,
            patterns: self.patterns.len(),
        }
    }
}

/// One operator in an [`ExecPlan`].
#[derive(Debug, Clone)]
enum Step {
    /// The opening index scan (the most selective required pattern).
    Scan { pattern: IdPattern },
    /// Merge join: current rows and the pattern's index scan are both
    /// sorted by `var` (`pos` is the position of `var` in the scanned
    /// tuples).
    Merge {
        pattern: IdPattern,
        var: usize,
        pos: usize,
    },
    /// Index nested-loop join: per row, probe the best index.
    Loop { pattern: IdPattern },
    /// Bag union over arm expansions. Dead arms (unknown constants) are
    /// already pruned; an empty arm list matches nothing.
    Union { arms: Vec<Vec<IdPattern>> },
    /// Left-outer join against a pattern group. `None` means the group
    /// can never match (unknown constant): rows pass through unchanged.
    Optional { group: Option<Vec<IdPattern>> },
}

/// A compiled, executable query plan. Produced by [`BgpQuery::plan`];
/// holds term ids from the planning graph's dictionary, so it must run
/// against that graph or one sharing the dictionary (e.g. a clone taken
/// as a paging snapshot).
#[derive(Debug, Clone)]
pub struct ExecPlan {
    vars: Vec<String>,
    select: Vec<String>,
    steps: Vec<Step>,
    empty: bool,
    offset: usize,
    limit: Option<usize>,
    explain: String,
    plan_micros: u64,
    merge_joins: usize,
    loop_joins: usize,
    patterns: usize,
}

/// Counters describing one planned execution, for metrics and `EXPLAIN`
/// output at the gateway.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Time spent planning, in microseconds.
    pub plan_micros: u64,
    /// Result rows returned (after slice and projection).
    pub rows: usize,
    /// Merge-join operators in the plan.
    pub merge_joins: usize,
    /// Nested-loop-join operators in the plan.
    pub loop_joins: usize,
    /// Required patterns in the query.
    pub patterns: usize,
}

impl ExecPlan {
    /// A stable, line-oriented rendering of the plan: the join order, the
    /// index and operator chosen per pattern, cardinality estimates, and
    /// the slice/projection tail. Golden tests pin this text.
    pub fn explain(&self) -> &str {
        &self.explain
    }

    /// The plan's variable table: every variable across required patterns,
    /// unions and optionals, in first-appearance order.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// Time spent planning, in microseconds.
    pub fn plan_micros(&self) -> u64 {
        self.plan_micros
    }

    /// The stats record for one execution of this plan that returned
    /// `rows` rows.
    pub fn stats(&self, rows: usize) -> QueryStats {
        QueryStats {
            plan_micros: self.plan_micros,
            rows,
            merge_joins: self.merge_joins,
            loop_joins: self.loop_joins,
            patterns: self.patterns,
        }
    }

    /// Executes the plan, returning raw binding rows (indexes match
    /// [`vars`](Self::vars); `None` = unbound, ids relative to the view's
    /// dictionary). The offset/limit slice is applied; projection is not.
    pub fn rows<V: QueryView>(&self, graph: &V) -> Vec<Vec<Option<TermId>>> {
        let end = self.limit.map(|l| self.offset.saturating_add(l));
        slice(self.run(graph, end), self.offset, self.limit)
    }

    /// Executes the plan and materializes terms for the projected
    /// variables. Unbound variables (e.g. from unmatched optionals) are
    /// simply absent from their row.
    pub fn execute<V: QueryView>(&self, graph: &V) -> Vec<Solution> {
        QueryRows::project(&self.vars, &self.select, self.rows(graph)).to_solutions(graph.dict())
    }

    /// Like [`execute`](Self::execute), also returning the stats record
    /// the knowledge base publishes as `sdk_query_*` metrics.
    pub fn execute_with_stats<V: QueryView>(&self, graph: &V) -> (Vec<Solution>, QueryStats) {
        let out = self.execute(graph);
        let stats = self.stats(out.len());
        (out, stats)
    }

    /// Runs every step and returns the unsliced, unprojected rows. With
    /// `stop_after = Some(n)` the last step stops once it has produced
    /// `n` rows: the rows before it are still all needed (a later inner
    /// join may drop any of them), but the last step emits in final
    /// order, so its first `n` rows are the result's first `n`.
    pub(crate) fn run<V: QueryView>(
        &self,
        graph: &V,
        stop_after: Option<usize>,
    ) -> Vec<Vec<Option<TermId>>> {
        if self.empty || stop_after == Some(0) {
            return Vec::new();
        }
        let mut rows: Vec<Vec<Option<TermId>>> = vec![vec![None; self.vars.len()]];
        let last = self.steps.len().saturating_sub(1);
        for (i, step) in self.steps.iter().enumerate() {
            let cap = match stop_after {
                Some(n) if i == last => n,
                _ => usize::MAX,
            };
            rows = match step {
                Step::Scan { pattern } | Step::Loop { pattern } => {
                    solve_all(pattern, graph, &rows, cap)
                }
                Step::Merge { pattern, var, pos } => {
                    let scan = graph.match_ids(
                        const_slot(pattern.subject),
                        const_slot(pattern.predicate),
                        const_slot(pattern.object),
                    );
                    rows.sort_by_key(|r| r[*var]);
                    merge_join(rows, &scan, pattern, *var, *pos, cap)
                }
                Step::Union { arms } => {
                    let mut next = Vec::new();
                    for row in &rows {
                        for arm in arms {
                            next.extend(solve_group(arm, graph, row));
                        }
                        if next.len() >= cap {
                            break;
                        }
                    }
                    next
                }
                Step::Optional { group: Some(group) } => {
                    let mut next = Vec::new();
                    for row in &rows {
                        let extended = solve_group(group, graph, row);
                        if extended.is_empty() {
                            next.push(row.clone());
                        } else {
                            next.extend(extended);
                        }
                        if next.len() >= cap {
                            break;
                        }
                    }
                    next
                }
                Step::Optional { group: None } => rows,
            };
            if rows.is_empty() {
                break;
            }
        }
        if let Some(n) = stop_after {
            rows.truncate(n);
        }
        rows
    }
}

/// The `offset`/`limit` window of `rows`; an offset past the end is an
/// empty window.
pub(crate) fn slice<T>(mut rows: Vec<T>, offset: usize, limit: Option<usize>) -> Vec<T> {
    let end = limit.map_or(rows.len(), |l| offset.saturating_add(l));
    rows.truncate(end);
    rows.drain(..offset.min(rows.len()));
    rows
}

/// Pattern-at-a-time expansion of `rows` through one pattern: per row,
/// probe the index with the row's bindings and extend the row with each
/// match. Stops once `cap` rows exist.
fn solve_all<V: QueryView>(
    pattern: &IdPattern,
    graph: &V,
    rows: &[Vec<Option<TermId>>],
    cap: usize,
) -> Vec<Vec<Option<TermId>>> {
    let mut next = Vec::new();
    for row in rows {
        let matches = graph.match_ids(
            pattern.subject.bind(row),
            pattern.predicate.bind(row),
            pattern.object.bind(row),
        );
        for t in matches {
            if let Some(ext) = extend_row(row, pattern, t) {
                next.push(ext);
                if next.len() >= cap {
                    return next;
                }
            }
        }
    }
    next
}

/// Expands one row through every pattern of a group (inner join).
fn solve_group<V: QueryView>(
    group: &[IdPattern],
    graph: &V,
    row: &[Option<TermId>],
) -> Vec<Vec<Option<TermId>>> {
    let mut sub = vec![row.to_vec()];
    for pattern in group {
        sub = solve_all(pattern, graph, &sub, usize::MAX);
        if sub.is_empty() {
            break;
        }
    }
    sub
}

/// Many-to-many merge join of sorted `rows` (by `rows[i][var]`) with a
/// sorted index `scan` (by the tuple component at `pos`). Linear in
/// `|rows| + |scan| + |matches|`: the scan cursor never retreats past the
/// current key block. Stops once `cap` rows exist.
fn merge_join(
    rows: Vec<Vec<Option<TermId>>>,
    scan: &[IdTriple],
    pattern: &IdPattern,
    var: usize,
    pos: usize,
    cap: usize,
) -> Vec<Vec<Option<TermId>>> {
    let key_of = |t: &IdTriple| match pos {
        0 => t.0,
        1 => t.1,
        _ => t.2,
    };
    let mut out = Vec::new();
    let mut lo = 0usize;
    for row in rows {
        debug_assert!(row[var].is_some(), "merge var must be bound by prior joins");
        let Some(k) = row[var] else { continue };
        while lo < scan.len() && key_of(&scan[lo]) < k {
            lo += 1;
        }
        let mut i = lo;
        while i < scan.len() && key_of(&scan[i]) == k {
            if let Some(ext) = extend_row(&row, pattern, scan[i]) {
                out.push(ext);
                if out.len() >= cap {
                    return out;
                }
            }
            i += 1;
        }
    }
    out
}

/// Extends a binding row with one matched triple, checking constants and
/// already-bound variables (handles repeated-variable patterns).
fn extend_row(
    row: &[Option<TermId>],
    pattern: &IdPattern,
    t: IdTriple,
) -> Option<Vec<Option<TermId>>> {
    let mut out = row.to_vec();
    for (slot, val) in [
        (pattern.subject, t.0),
        (pattern.predicate, t.1),
        (pattern.object, t.2),
    ] {
        match slot {
            IdPatternTerm::Const(c) => {
                if c != val {
                    return None;
                }
            }
            IdPatternTerm::Var(i) => match out[i] {
                Some(bound) if bound != val => return None,
                Some(_) => {}
                None => out[i] = Some(val),
            },
        }
    }
    Some(out)
}

/// Compiles one pattern in lookup mode. Variables are registered in
/// `vars` for *all three* slots before the unknown-constant check, so a
/// dead pattern still contributes its variable names to the plan's table.
fn compile_lookup(
    pattern: &TriplePattern,
    dict: &TermDict,
    vars: &mut Vec<String>,
) -> Option<IdPattern> {
    let slot = |t: &PatternTerm, vars: &mut Vec<String>| match t {
        PatternTerm::Term(term) => dict.lookup(term).map(IdPatternTerm::Const),
        PatternTerm::Var(v) => Some(IdPatternTerm::Var(var_index(v, vars))),
    };
    let s = slot(&pattern.subject, vars);
    let p = slot(&pattern.predicate, vars);
    let o = slot(&pattern.object, vars);
    Some(IdPattern {
        subject: s?,
        predicate: p?,
        object: o?,
    })
}

/// Compiles a pattern group; `None` if any member references a term the
/// dictionary has never seen (the group can never match). Emptiness is
/// local to the group — a dead `OPTIONAL`/`UNION` arm must not empty the
/// whole query.
fn compile_group(
    group: &[TriplePattern],
    dict: &TermDict,
    vars: &mut Vec<String>,
) -> Option<Vec<IdPattern>> {
    let compiled: Vec<Option<IdPattern>> = group
        .iter()
        .map(|p| compile_lookup(p, dict, vars))
        .collect();
    compiled.into_iter().collect()
}

fn const_slot(slot: IdPatternTerm) -> Option<TermId> {
    match slot {
        IdPatternTerm::Const(c) => Some(c),
        IdPatternTerm::Var(_) => None,
    }
}

fn var_at(pattern: IdPattern, pos: usize) -> Option<usize> {
    let slot = match pos {
        0 => pattern.subject,
        1 => pattern.predicate,
        _ => pattern.object,
    };
    match slot {
        IdPatternTerm::Var(i) => Some(i),
        IdPatternTerm::Const(_) => None,
    }
}

fn vars_of(pattern: IdPattern) -> Vec<usize> {
    [pattern.subject, pattern.predicate, pattern.object]
        .into_iter()
        .filter_map(|s| match s {
            IdPatternTerm::Var(i) => Some(i),
            IdPatternTerm::Const(_) => None,
        })
        .collect()
}

/// Index routing mirror of [`Graph::match_ids`]: which index a
/// constants-only scan of `pattern` uses, and which tuple position the
/// results are (primarily) sorted by — `None` when fully bound.
fn index_choice(pattern: IdPattern) -> (&'static str, Option<usize>) {
    let bound = |s: IdPatternTerm| matches!(s, IdPatternTerm::Const(_));
    match (
        bound(pattern.subject),
        bound(pattern.predicate),
        bound(pattern.object),
    ) {
        (true, true, true) => ("SPO", None),
        (true, true, false) => ("SPO", Some(2)),
        (true, false, true) => ("OSP", Some(1)),
        (true, false, false) => ("SPO", Some(1)),
        (false, true, true) => ("POS", Some(0)),
        (false, true, false) => ("POS", Some(2)),
        (false, false, true) => ("OSP", Some(0)),
        (false, false, false) => ("SPO", Some(0)),
    }
}

fn argmin<T: Copy, K: Ord>(items: &[T], key: impl Fn(&T) -> K) -> usize {
    let mut best = 0;
    for i in 1..items.len() {
        if key(&items[i]) < key(&items[best]) {
            best = i;
        }
    }
    best
}

fn render_pattern(pattern: &TriplePattern) -> String {
    let slot = |t: &PatternTerm| match t {
        PatternTerm::Var(v) => format!("?{v}"),
        PatternTerm::Term(t) => t.to_string(),
    };
    format!(
        "({} {} {})",
        slot(&pattern.subject),
        slot(&pattern.predicate),
        slot(&pattern.object)
    )
}

fn render_group(group: &[TriplePattern]) -> String {
    let parts: Vec<String> = group.iter().map(render_pattern).collect();
    parts.join(" ")
}
