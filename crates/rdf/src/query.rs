//! A SPARQL-subset query engine.
//!
//! §3: "Jena includes a SPARQL query engine which the personalized
//! knowledge base uses to query data sources such as DBpedia." Supported
//! grammar (enough for every query the knowledge base issues):
//!
//! ```text
//! SELECT ?x ?y WHERE {
//!   ?x <ex:p> ?y .
//!   ?y <ex:q> "literal" .
//!   OPTIONAL { ?x <ex:r> ?z }
//!   { ?x <ex:a> ?w } UNION { ?x <ex:b> ?w }
//!   FILTER (?y > 10)
//! } ORDER BY ?x OFFSET 5 LIMIT 20
//! ```
//!
//! Terms: `?var`, `<iri>`, `"string"`, integers, doubles, `true`/`false`.
//! Filters: `>`, `>=`, `<`, `<=`, `=`, `!=` between a variable and a
//! constant (or two variables).
//!
//! Queries compile through the cost-based planner in [`crate::plan`]:
//! patterns are join-reordered by selectivity and executed with merge or
//! index nested-loop joins (see [`Query::explain`] for the chosen plan).

use crate::dict::{TermDict, TermId};
use crate::graph::QueryView;
use crate::model::{Literal, Term};
use crate::plan::{slice, BgpQuery, ExecPlan, QueryStats};
use crate::reason::{PatternTerm, TriplePattern};
use crate::RdfError;
use std::cmp::Ordering;
use std::collections::HashMap;

/// One result row: variable name → bound term.
pub type Solution = HashMap<String, Term>;

/// A query result before its terms are resolved: the projected columns
/// and one row of term ids per result.
///
/// This is what the engine computes. Filters, `ORDER BY`, the
/// offset/limit slice and projection all run on ids, so terms are only
/// looked up for the rows a caller finally reads.
/// [`to_solutions`](Self::to_solutions) is the one step that turns these
/// rows into [`Solution`] maps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryRows {
    /// Column names (without `?`), each named once, in selection order;
    /// for `SELECT *`, every variable in first-appearance order. A
    /// selected name no pattern binds has no column.
    pub vars: Vec<String>,
    /// One row per result; `rows[r][c]` binds `vars[c]`, `None` =
    /// unbound. Ids are relative to the queried view's dictionary.
    pub rows: Vec<Vec<Option<TermId>>>,
}

impl QueryRows {
    /// Projects plan rows (one slot per entry of `plan_vars`) onto
    /// `select`; an empty selection keeps every column.
    pub(crate) fn project(
        plan_vars: &[String],
        select: &[String],
        rows: Vec<Vec<Option<TermId>>>,
    ) -> QueryRows {
        let mut cols: Vec<usize> = Vec::new();
        if select.is_empty() {
            cols.extend(0..plan_vars.len());
        } else {
            for name in select {
                if let Some(i) = plan_vars.iter().position(|v| v == name) {
                    if !cols.contains(&i) {
                        cols.push(i);
                    }
                }
            }
        }
        let vars = cols.iter().map(|&i| plan_vars[i].clone()).collect();
        let identity =
            cols.len() == plan_vars.len() && cols.iter().enumerate().all(|(k, &i)| k == i);
        let rows = if identity {
            rows
        } else {
            rows.into_iter()
                .map(|row| cols.iter().map(|&i| row[i]).collect())
                .collect()
        };
        QueryRows { vars, rows }
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Resolves every row into a [`Solution`] through `dict`, the
    /// dictionary of the view the query ran on. Unbound columns are
    /// absent from their row.
    pub fn to_solutions(&self, dict: &TermDict) -> Vec<Solution> {
        self.rows
            .iter()
            .map(|row| {
                self.vars
                    .iter()
                    .zip(row)
                    .filter_map(|(var, id)| id.map(|id| (var.clone(), dict.resolve(id))))
                    .collect()
            })
            .collect()
    }
}

/// A comparison operator in a FILTER.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// One side of a filter comparison.
#[derive(Debug, Clone, PartialEq)]
enum Operand {
    Var(String),
    Const(Term),
}

#[derive(Debug, Clone, PartialEq)]
struct Filter {
    left: Operand,
    op: CmpOp,
    right: Operand,
}

/// A filter operand bound to a plan: a column (`None` when no pattern
/// binds the variable) or a constant.
#[derive(Clone, Copy)]
enum Side<'q> {
    Col(Option<usize>),
    Const(&'q Term),
}

impl<'q> Side<'q> {
    fn of(operand: &'q Operand, plan_vars: &[String]) -> Side<'q> {
        match operand {
            Operand::Var(v) => Side::Col(plan_vars.iter().position(|p| p == v)),
            Operand::Const(t) => Side::Const(t),
        }
    }
}

impl Filter {
    /// Whether the filter holds on an id row: both sides bound, then
    /// `=`/`!=` by term equality and ordered operators numerically when
    /// both sides are numeric, else by the display forms' string order.
    fn holds<'a>(&self, sides: [Side<'a>; 2], row: &[Option<TermId>], dict: &'a TermDict) -> bool {
        let term = |side: Side<'a>| -> Option<&'a Term> {
            match side {
                Side::Col(col) => col.and_then(|c| row[c]).map(|id| dict.resolve_ref(id)),
                Side::Const(t) => Some(t),
            }
        };
        let (Some(l), Some(r)) = (term(sides[0]), term(sides[1])) else {
            return false;
        };
        match self.op {
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            op => {
                let ord = match (
                    l.as_literal().and_then(Literal::as_f64),
                    r.as_literal().and_then(Literal::as_f64),
                ) {
                    (Some(a), Some(b)) => a.partial_cmp(&b),
                    _ => Some(l.to_string().cmp(&r.to_string())),
                };
                let Some(ord) = ord else { return false };
                matches!(
                    (op, ord),
                    (CmpOp::Lt, Ordering::Less)
                        | (CmpOp::Le, Ordering::Less | Ordering::Equal)
                        | (CmpOp::Gt, Ordering::Greater)
                        | (CmpOp::Ge, Ordering::Greater | Ordering::Equal)
                )
            }
        }
    }
}

/// A parsed query.
///
/// # Examples
///
/// ```
/// use cogsdk_rdf::{Graph, Query, Statement, Term};
///
/// let mut g = Graph::new();
/// g.insert(Statement::new(Term::iri("ex:us"), Term::iri("ex:gdp"), Term::double(21000.0)));
/// g.insert(Statement::new(Term::iri("ex:de"), Term::iri("ex:gdp"), Term::double(4200.0)));
///
/// let q = Query::parse(
///     "SELECT ?c WHERE { ?c <ex:gdp> ?g . FILTER (?g > 10000) }").unwrap();
/// let rows = q.execute(&g);
/// assert_eq!(rows.len(), 1);
/// assert_eq!(rows[0]["c"], Term::iri("ex:us"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    select: Vec<String>,
    patterns: Vec<TriplePattern>,
    optionals: Vec<Vec<TriplePattern>>,
    unions: Vec<Vec<Vec<TriplePattern>>>,
    filters: Vec<Filter>,
    order_by: Option<String>,
    offset: usize,
    limit: Option<usize>,
}

impl Query {
    /// Parses the SPARQL subset described in the module docs.
    ///
    /// # Errors
    ///
    /// Returns [`RdfError`] with a description of the first syntax
    /// violation.
    pub fn parse(text: &str) -> Result<Query, RdfError> {
        let mut tokens = tokenize(text)?;
        expect_keyword(&mut tokens, "SELECT")?;
        let mut select = Vec::new();
        while let Some(Token::Var(_)) = tokens.first() {
            let Some(Token::Var(v)) = tokens.drain(..1).next() else {
                unreachable!()
            };
            select.push(v);
        }
        if select.is_empty() {
            // SELECT * form.
            if matches!(tokens.first(), Some(Token::Word(w)) if w == "*") {
                tokens.remove(0);
            } else {
                return Err(RdfError::new("SELECT needs at least one ?var or *"));
            }
        }
        expect_keyword(&mut tokens, "WHERE")?;
        expect_token(&mut tokens, &Token::OpenBrace)?;
        let mut patterns = Vec::new();
        let mut optionals = Vec::new();
        let mut unions = Vec::new();
        let mut filters = Vec::new();
        loop {
            match tokens.first() {
                Some(Token::CloseBrace) => {
                    tokens.remove(0);
                    break;
                }
                Some(Token::Word(w)) if w.eq_ignore_ascii_case("FILTER") => {
                    tokens.remove(0);
                    filters.push(parse_filter(&mut tokens)?);
                }
                Some(Token::Word(w)) if w.eq_ignore_ascii_case("OPTIONAL") => {
                    tokens.remove(0);
                    optionals.push(parse_group(&mut tokens)?);
                }
                Some(Token::OpenBrace) => {
                    let mut arms = vec![parse_group(&mut tokens)?];
                    while matches!(
                        tokens.first(),
                        Some(Token::Word(w)) if w.eq_ignore_ascii_case("UNION")
                    ) {
                        tokens.remove(0);
                        arms.push(parse_group(&mut tokens)?);
                    }
                    if arms.len() < 2 {
                        return Err(RdfError::new(
                            "a braced group inside WHERE must be part of a UNION",
                        ));
                    }
                    unions.push(arms);
                }
                Some(_) => {
                    patterns.push(parse_triple(&mut tokens)?);
                }
                None => return Err(RdfError::new("unterminated WHERE block")),
            }
        }
        let mut order_by = None;
        let mut offset = 0usize;
        let mut limit = None;
        while let Some(tok) = tokens.first() {
            match tok {
                Token::Word(w) if w.eq_ignore_ascii_case("ORDER") => {
                    tokens.remove(0);
                    expect_keyword(&mut tokens, "BY")?;
                    match (!tokens.is_empty()).then(|| tokens.remove(0)) {
                        Some(Token::Var(v)) => order_by = Some(v),
                        _ => return Err(RdfError::new("ORDER BY needs a ?var")),
                    }
                }
                Token::Word(w) if w.eq_ignore_ascii_case("LIMIT") => {
                    tokens.remove(0);
                    match (!tokens.is_empty()).then(|| tokens.remove(0)) {
                        Some(Token::Word(n)) => {
                            limit = Some(n.parse().map_err(|_| {
                                RdfError::new("LIMIT needs a non-negative integer")
                            })?);
                        }
                        _ => return Err(RdfError::new("LIMIT needs a number")),
                    }
                }
                Token::Word(w) if w.eq_ignore_ascii_case("OFFSET") => {
                    tokens.remove(0);
                    match (!tokens.is_empty()).then(|| tokens.remove(0)) {
                        Some(Token::Word(n)) => {
                            offset = n.parse().map_err(|_| {
                                RdfError::new("OFFSET needs a non-negative integer")
                            })?;
                        }
                        _ => return Err(RdfError::new("OFFSET needs a number")),
                    }
                }
                other => {
                    return Err(RdfError::new(format!(
                        "unexpected trailing token {other:?}"
                    )))
                }
            }
        }
        if patterns.is_empty() && unions.is_empty() && optionals.is_empty() {
            return Err(RdfError::new("WHERE needs at least one triple pattern"));
        }
        Ok(Query {
            select,
            patterns,
            optionals,
            unions,
            filters,
            order_by,
            offset,
            limit,
        })
    }

    /// The selected variable names (empty = all).
    pub fn selected(&self) -> &[String] {
        &self.select
    }

    /// Executes the query against any [`QueryView`] — the live
    /// [`Graph`](crate::Graph) or a pinned
    /// [`EpochSnapshot`](crate::EpochSnapshot) — and resolves the result
    /// rows into [`Solution`]s (see [`run`](Self::run)).
    pub fn execute<V: QueryView>(&self, graph: &V) -> Vec<Solution> {
        self.execute_with_stats(graph).0
    }

    /// Like [`execute`](Self::execute), also returning plan/join counters
    /// for metrics ([`QueryStats::rows`] reflects the final row count).
    pub fn execute_with_stats<V: QueryView>(&self, graph: &V) -> (Vec<Solution>, QueryStats) {
        let plan = self.plan(graph);
        let rows = self.run(&plan, graph);
        (rows.to_solutions(graph.dict()), plan.stats(rows.len()))
    }

    /// Compiles the pattern block through the cost-based planner
    /// ([`BgpQuery::plan`]): join order is chosen by selectivity and
    /// joins run as merge or index nested-loop operators on id triples.
    /// A constant the view never interned yields zero rows for a
    /// *required* pattern, but is local to its arm inside
    /// `OPTIONAL`/`UNION`.
    pub fn plan<V: QueryView>(&self, graph: &V) -> ExecPlan {
        self.to_bgp().plan(graph)
    }

    /// Runs `plan` (from [`plan`](Self::plan) on `graph` or a view
    /// sharing its dictionary) and returns the result as id rows.
    ///
    /// Filters, ordering, the offset/limit slice and projection apply in
    /// that order, all on term ids: filters and `ORDER BY` compare
    /// borrowed terms from the dictionary, the sort is stable, and no
    /// term is cloned. Without filters or `ORDER BY`, the plan's last
    /// step stops once `offset + limit` rows exist.
    pub fn run<V: QueryView>(&self, plan: &ExecPlan, graph: &V) -> QueryRows {
        let dict = graph.dict();
        let col = |name: &str| plan.vars().iter().position(|v| v == name);
        let stop_after = match self.limit {
            Some(l) if self.filters.is_empty() && self.order_by.is_none() => {
                Some(self.offset.saturating_add(l))
            }
            _ => None,
        };
        let mut rows = plan.run(graph, stop_after);
        if !self.filters.is_empty() {
            let vars = plan.vars();
            let bound: Vec<(&Filter, [Side<'_>; 2])> = self
                .filters
                .iter()
                .map(|f| (f, [Side::of(&f.left, vars), Side::of(&f.right, vars)]))
                .collect();
            rows.retain(|row| bound.iter().all(|(f, sides)| f.holds(*sides, row, dict)));
        }
        // A variable no pattern binds is unbound in every row: every pair
        // ties and the stable sort keeps the order.
        if let Some(c) = self.order_by.as_deref().and_then(col) {
            rows.sort_by(|a, b| match (a[c], b[c]) {
                (Some(x), Some(y)) if x == y => Ordering::Equal,
                (Some(x), Some(y)) => dict.resolve_ref(x).cmp(dict.resolve_ref(y)),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => Ordering::Equal,
            });
        }
        let rows = slice(rows, self.offset, self.limit);
        QueryRows::project(plan.vars(), &self.select, rows)
    }

    /// Renders the plan the query would run with against `graph` (see
    /// [`crate::plan::ExecPlan::explain`]).
    pub fn explain<V: QueryView>(&self, graph: &V) -> String {
        self.plan(graph).explain().to_string()
    }

    /// Lowers the textual query to the planner's builder. Filters,
    /// ordering, slice and projection stay at this layer ([`run`](Self::run)):
    /// SPARQL applies the slice after filters and `ORDER BY`.
    fn to_bgp(&self) -> BgpQuery {
        let mut q = BgpQuery::new();
        for p in &self.patterns {
            q = q.pattern(p.clone());
        }
        for arms in &self.unions {
            q = q.union(arms.clone());
        }
        for group in &self.optionals {
            q = q.optional(group.clone());
        }
        q
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Var(String),
    Iri(String),
    Str(String),
    Word(String),
    OpenBrace,
    CloseBrace,
    OpenParen,
    CloseParen,
    Dot,
    Op(String),
}

fn tokenize(text: &str) -> Result<Vec<Token>, RdfError> {
    let mut out = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '{' => {
                chars.next();
                out.push(Token::OpenBrace);
            }
            '}' => {
                chars.next();
                out.push(Token::CloseBrace);
            }
            '(' => {
                chars.next();
                out.push(Token::OpenParen);
            }
            ')' => {
                chars.next();
                out.push(Token::CloseParen);
            }
            '.' => {
                chars.next();
                out.push(Token::Dot);
            }
            '?' => {
                chars.next();
                let mut v = String::new();
                while let Some(&ch) = chars.peek() {
                    if ch.is_alphanumeric() || ch == '_' {
                        v.push(ch);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if v.is_empty() {
                    return Err(RdfError::new("empty variable name"));
                }
                out.push(Token::Var(v));
            }
            '<' => {
                chars.next();
                let mut iri = String::new();
                loop {
                    match chars.next() {
                        Some('>') => break,
                        Some(ch) => iri.push(ch),
                        None => return Err(RdfError::new("unterminated IRI")),
                    }
                }
                out.push(Token::Iri(iri));
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some(ch) => s.push(ch),
                        None => return Err(RdfError::new("unterminated string")),
                    }
                }
                out.push(Token::Str(s));
            }
            '>' | '=' | '!' => {
                chars.next();
                let mut op = c.to_string();
                if chars.peek() == Some(&'=') {
                    op.push('=');
                    chars.next();
                }
                out.push(Token::Op(op));
            }
            _ => {
                let mut w = String::new();
                while let Some(&ch) = chars.peek() {
                    if ch.is_whitespace()
                        || matches!(
                            ch,
                            '{' | '}' | '(' | ')' | '?' | '<' | '"' | '>' | '=' | '!'
                        )
                        || (ch == '.' && !w.chars().next().is_some_and(|f| f.is_ascii_digit()))
                    {
                        break;
                    }
                    w.push(ch);
                    chars.next();
                }
                if w.is_empty() {
                    // `<` handled above; a bare `.` etc. Consume defensively.
                    return Err(RdfError::new(format!("unexpected character '{c}'")));
                }
                out.push(Token::Word(w));
            }
        }
    }
    // `<` starts IRIs, so the less-than operator is written `&lt;`? No:
    // FILTER uses `<` too. Patch: inside parens a lone `<` token parses as
    // the operator — the tokenizer above turned `<x` into an IRI, so
    // filters must place spaces: `FILTER (?g < 10)`. `< 10` became
    // Iri("10")? No: `< 10` reads chars until '>' → unterminated. We
    // therefore pre-handle this case in parse_filter via Op("<").
    Ok(out)
}

fn expect_keyword(tokens: &mut Vec<Token>, kw: &str) -> Result<(), RdfError> {
    match tokens.first() {
        Some(Token::Word(w)) if w.eq_ignore_ascii_case(kw) => {
            tokens.remove(0);
            Ok(())
        }
        other => Err(RdfError::new(format!("expected {kw}, found {other:?}"))),
    }
}

fn expect_token(tokens: &mut Vec<Token>, expected: &Token) -> Result<(), RdfError> {
    match tokens.first() {
        Some(t) if t == expected => {
            tokens.remove(0);
            Ok(())
        }
        other => Err(RdfError::new(format!(
            "expected {expected:?}, found {other:?}"
        ))),
    }
}

fn parse_term(tokens: &mut Vec<Token>) -> Result<PatternTerm, RdfError> {
    if tokens.is_empty() {
        return Err(RdfError::new("expected term, found end of input"));
    }
    match Some(tokens.remove(0)) {
        Some(Token::Var(v)) => Ok(PatternTerm::Var(v)),
        Some(Token::Iri(iri)) => Ok(PatternTerm::Term(Term::iri(iri))),
        Some(Token::Str(s)) => Ok(PatternTerm::Term(Term::string(s))),
        Some(Token::Word(w)) => {
            if let Ok(i) = w.parse::<i64>() {
                Ok(PatternTerm::Term(Term::integer(i)))
            } else if let Ok(f) = w.parse::<f64>() {
                Ok(PatternTerm::Term(Term::double(f)))
            } else if w == "true" || w == "false" {
                Ok(PatternTerm::Term(Term::boolean(w == "true")))
            } else {
                Ok(PatternTerm::Term(Term::iri(w)))
            }
        }
        other => Err(RdfError::new(format!("expected term, found {other:?}"))),
    }
}

fn parse_triple(tokens: &mut Vec<Token>) -> Result<TriplePattern, RdfError> {
    let subject = parse_term(tokens)?;
    let predicate = parse_term(tokens)?;
    let object = parse_term(tokens)?;
    // Optional trailing dot.
    if matches!(tokens.first(), Some(Token::Dot)) {
        tokens.remove(0);
    }
    Ok(TriplePattern {
        subject,
        predicate,
        object,
    })
}

/// Parses a braced pattern group `{ ?a <p> ?b . … }` — the body of an
/// `OPTIONAL` or one `UNION` arm. Groups hold plain triple patterns only
/// (no nested filters or blocks).
fn parse_group(tokens: &mut Vec<Token>) -> Result<Vec<TriplePattern>, RdfError> {
    expect_token(tokens, &Token::OpenBrace)?;
    let mut group = Vec::new();
    loop {
        match tokens.first() {
            Some(Token::CloseBrace) => {
                tokens.remove(0);
                break;
            }
            Some(_) => group.push(parse_triple(tokens)?),
            None => return Err(RdfError::new("unterminated pattern group")),
        }
    }
    if group.is_empty() {
        return Err(RdfError::new("empty pattern group"));
    }
    Ok(group)
}

fn parse_filter(tokens: &mut Vec<Token>) -> Result<Filter, RdfError> {
    expect_token(tokens, &Token::OpenParen)?;
    let left = parse_operand(tokens)?;
    if tokens.is_empty() {
        return Err(RdfError::new("expected operator"));
    }
    let tok = tokens.remove(0);
    let op = match Some(tok) {
        Some(Token::Op(op)) => match op.as_str() {
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            "=" | "==" => CmpOp::Eq,
            "!=" => CmpOp::Ne,
            other => return Err(RdfError::new(format!("unknown operator {other}"))),
        },
        // `< 10` tokenizes as Iri(" 10")-ish; we catch the common
        // spellings here.
        Some(Token::Iri(rest)) => {
            // `<` immediately followed by the right operand without a
            // closing '>': cannot happen (tokenizer errors). But `< x >`
            // forms Iri(" x "). Treat a whitespace-framed IRI as Lt.
            let trimmed = rest.trim();
            if let Some(stripped) = trimmed.strip_prefix('=') {
                let rhs = stripped.trim().to_string();
                tokens.insert(0, Token::Word(rhs));
                CmpOp::Le
            } else {
                tokens.insert(0, Token::Word(trimmed.to_string()));
                CmpOp::Lt
            }
        }
        other => return Err(RdfError::new(format!("expected operator, found {other:?}"))),
    };
    let right = parse_operand(tokens)?;
    expect_token(tokens, &Token::CloseParen)?;
    Ok(Filter { left, op, right })
}

fn parse_operand(tokens: &mut Vec<Token>) -> Result<Operand, RdfError> {
    match parse_term(tokens)? {
        PatternTerm::Var(v) => Ok(Operand::Var(v)),
        PatternTerm::Term(t) => Ok(Operand::Const(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::model::Statement;

    fn sample() -> Graph {
        let mut g = Graph::new();
        let gdp = Term::iri("ex:gdp");
        let pop = Term::iri("ex:pop");
        let name = Term::iri("ex:name");
        for (country, g_val, p_val, n) in [
            ("ex:us", 21000.0, 331, "United States"),
            ("ex:de", 4200.0, 83, "Germany"),
            ("ex:in", 3700.0, 1400, "India"),
        ] {
            g.insert(Statement::new(
                Term::iri(country),
                gdp.clone(),
                Term::double(g_val),
            ));
            g.insert(Statement::new(
                Term::iri(country),
                pop.clone(),
                Term::integer(p_val),
            ));
            g.insert(Statement::new(
                Term::iri(country),
                name.clone(),
                Term::string(n),
            ));
        }
        g
    }

    #[test]
    fn single_pattern_select() {
        let q = Query::parse("SELECT ?c ?g WHERE { ?c <ex:gdp> ?g . }").unwrap();
        let rows = q.execute(&sample());
        assert_eq!(rows.len(), 3);
        assert!(rows
            .iter()
            .all(|r| r.contains_key("c") && r.contains_key("g")));
    }

    #[test]
    fn join_across_patterns() {
        let q = Query::parse(
            "SELECT ?n WHERE { ?c <ex:gdp> ?g . ?c <ex:name> ?n . FILTER (?g > 4000) }",
        )
        .unwrap();
        let rows = q.execute(&sample());
        let names: Vec<&Term> = rows.iter().filter_map(|r| r.get("n")).collect();
        assert_eq!(rows.len(), 2);
        assert!(names.contains(&&Term::string("United States")));
        assert!(names.contains(&&Term::string("Germany")));
    }

    #[test]
    fn filter_less_than_with_spaces() {
        let q = Query::parse("SELECT ?c WHERE { ?c <ex:pop> ?p . FILTER (?p < 100 >) }");
        // The `<` operator is awkward in this grammar; accept either a
        // parse error or correct behaviour of the `< … >` workaround.
        if let Ok(q) = q {
            let rows = q.execute(&sample());
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0]["c"], Term::iri("ex:de"));
        }
    }

    #[test]
    fn filter_equality_on_strings() {
        let q =
            Query::parse("SELECT ?c WHERE { ?c <ex:name> ?n . FILTER (?n = \"India\") }").unwrap();
        let rows = q.execute(&sample());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["c"], Term::iri("ex:in"));
    }

    #[test]
    fn filter_not_equal() {
        let q =
            Query::parse("SELECT ?c WHERE { ?c <ex:name> ?n . FILTER (?n != \"India\") }").unwrap();
        assert_eq!(q.execute(&sample()).len(), 2);
    }

    #[test]
    fn order_by_and_limit() {
        let q =
            Query::parse("SELECT ?c ?g WHERE { ?c <ex:gdp> ?g . } ORDER BY ?g LIMIT 2").unwrap();
        let rows = q.execute(&sample());
        assert_eq!(rows.len(), 2);
        // Ascending by gdp: India (3700) first.
        assert_eq!(rows[0]["c"], Term::iri("ex:in"));
        assert_eq!(rows[1]["c"], Term::iri("ex:de"));
    }

    #[test]
    fn select_star_keeps_all_vars() {
        let q = Query::parse("SELECT * WHERE { ?c <ex:gdp> ?g . }").unwrap();
        let rows = q.execute(&sample());
        assert!(rows[0].contains_key("c") && rows[0].contains_key("g"));
    }

    #[test]
    fn no_matches_yields_empty() {
        let q = Query::parse("SELECT ?x WHERE { ?x <ex:missing> ?y . }").unwrap();
        assert!(q.execute(&sample()).is_empty());
    }

    #[test]
    fn constant_subject_pattern() {
        let q = Query::parse("SELECT ?g WHERE { <ex:us> <ex:gdp> ?g . }").unwrap();
        let rows = q.execute(&sample());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["g"], Term::double(21000.0));
    }

    #[test]
    fn shared_variable_enforces_join_consistency() {
        // ?x must be the same across both patterns.
        let mut g = Graph::new();
        g.insert(Statement::new(
            Term::iri("a"),
            Term::iri("p"),
            Term::iri("b"),
        ));
        g.insert(Statement::new(
            Term::iri("b"),
            Term::iri("q"),
            Term::iri("c"),
        ));
        g.insert(Statement::new(
            Term::iri("x"),
            Term::iri("q"),
            Term::iri("y"),
        ));
        let q = Query::parse("SELECT ?m WHERE { ?s <p> ?m . ?m <q> ?o . }").unwrap();
        let rows = q.execute(&g);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["m"], Term::iri("b"));
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "WHERE { ?a <p> ?b }",
            "SELECT WHERE { ?a <p> ?b }",
            "SELECT ?a { ?a <p> ?b }",
            "SELECT ?a WHERE { ?a <p> }",
            "SELECT ?a WHERE { ?a <p> ?b ",
            "SELECT ?a WHERE { } LIMIT 2",
            "SELECT ?a WHERE { ?a <p> ?b } LIMIT x",
            "SELECT ?a WHERE { ?a <p> ?b } ORDER BY",
            "SELECT ?a WHERE { ?a <p> ?b } GARBAGE",
        ] {
            assert!(Query::parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn optional_extends_when_present_and_passes_through_when_absent() {
        let mut g = sample();
        g.insert(Statement::new(
            Term::iri("ex:us"),
            Term::iri("ex:nick"),
            Term::string("USA"),
        ));
        let q =
            Query::parse("SELECT ?c ?k WHERE { ?c <ex:gdp> ?g . OPTIONAL { ?c <ex:nick> ?k } }")
                .unwrap();
        let rows = q.execute(&g);
        assert_eq!(rows.len(), 3, "left-outer: every country survives");
        let with_nick: Vec<_> = rows.iter().filter(|r| r.contains_key("k")).collect();
        assert_eq!(with_nick.len(), 1);
        assert_eq!(with_nick[0]["c"], Term::iri("ex:us"));
        assert_eq!(with_nick[0]["k"], Term::string("USA"));
    }

    #[test]
    fn union_combines_arm_matches() {
        let q = Query::parse("SELECT ?c ?v WHERE { { ?c <ex:gdp> ?v } UNION { ?c <ex:pop> ?v } }")
            .unwrap();
        let rows = q.execute(&sample());
        assert_eq!(rows.len(), 6, "three gdp rows plus three pop rows");
    }

    #[test]
    fn unknown_constant_is_local_to_optional_and_union_arms() {
        // Regression: an un-interned constant used to short-circuit the
        // WHOLE evaluation to empty, even when it only appeared inside an
        // OPTIONAL or UNION arm. Emptiness must stay local to the arm.
        let q = Query::parse(
            "SELECT ?c WHERE { ?c <ex:gdp> ?g . OPTIONAL { ?c <ex:never_interned> ?x } }",
        )
        .unwrap();
        assert_eq!(q.execute(&sample()).len(), 3);
        let q = Query::parse(
            "SELECT ?c ?v WHERE { { ?c <ex:gdp> ?v } UNION { ?c <ex:never_interned> ?v } }",
        )
        .unwrap();
        assert_eq!(q.execute(&sample()).len(), 3);
        // A required pattern with an unknown constant still yields zero.
        let q = Query::parse("SELECT ?c WHERE { ?c <ex:never_interned> ?g . }").unwrap();
        assert!(q.execute(&sample()).is_empty());
    }

    #[test]
    fn offset_pages_through_ordered_results() {
        let q = Query::parse("SELECT ?c WHERE { ?c <ex:gdp> ?g } ORDER BY ?g OFFSET 1 LIMIT 1")
            .unwrap();
        let rows = q.execute(&sample());
        assert_eq!(rows.len(), 1);
        // Ascending by gdp: India (3700), Germany (4200), US (21000).
        assert_eq!(rows[0]["c"], Term::iri("ex:de"));
        // An offset past the end is an empty page, not an error.
        let q = Query::parse("SELECT ?c WHERE { ?c <ex:gdp> ?g } OFFSET 9").unwrap();
        assert!(q.execute(&sample()).is_empty());
    }

    #[test]
    fn explain_shows_the_planned_join_order() {
        let text = Query::parse("SELECT ?n WHERE { ?c <ex:gdp> ?g . ?c <ex:name> ?n }")
            .unwrap()
            .explain(&sample());
        assert!(text.starts_with("bgp 2 patterns"), "{text}");
        assert!(text.contains("scan POS"), "{text}");
        assert!(text.contains("project *"), "{text}");
    }

    #[test]
    fn group_parse_errors() {
        for bad in [
            // A lone braced group must be part of a UNION.
            "SELECT ?a WHERE { { ?a <p> ?b } }",
            "SELECT ?a WHERE { { ?a <p> ?b } UNION }",
            "SELECT ?a WHERE { OPTIONAL ?a <p> ?b }",
            "SELECT ?a WHERE { OPTIONAL { } }",
            "SELECT ?a WHERE { ?a <p> ?b } OFFSET x",
        ] {
            assert!(Query::parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn integer_and_boolean_literals_in_patterns() {
        let mut g = Graph::new();
        g.insert(Statement::new(
            Term::iri("s"),
            Term::iri("age"),
            Term::integer(42),
        ));
        g.insert(Statement::new(
            Term::iri("s"),
            Term::iri("alive"),
            Term::boolean(true),
        ));
        let q = Query::parse("SELECT ?s WHERE { ?s <age> 42 . ?s <alive> true . }").unwrap();
        assert_eq!(q.execute(&g).len(), 1);
    }
}
