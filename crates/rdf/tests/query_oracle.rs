//! Randomized oracle suite for the textual `Query` layer: FILTER,
//! ORDER BY, OFFSET/LIMIT and SELECT projection on top of the planner.
//!
//! `query_property` already checks the planner's basic graph patterns
//! against a naive evaluator. This suite checks what `Query::parse` adds
//! above them. Each seeded case runs twice:
//!
//! * through `Query::parse(text).execute`, the engine under test;
//! * through a *materialize-first* reference kept here: the same pattern
//!   block runs as a `BgpQuery` returning every row as a `Solution`, and
//!   the test then filters, stably sorts, slices and projects those
//!   solutions with the textbook rules spelled out below.
//!
//! Both sides start from the planner's row order, so the results must
//! agree as *sequences*, ties under `ORDER BY` included. The generator
//! covers numeric and string filters (`>`, `>=`, `<`, `<=`, `=`, `!=`,
//! variable–variable comparisons), filters naming unbound or unknown
//! variables, `ORDER BY` with ties, unbound values and unknown
//! variables, OFFSET/LIMIT windows (including empty and past-the-end
//! ones), duplicate and unknown `SELECT` variables, `SELECT *`, and
//! `OPTIONAL` columns left unbound. The whole run folds into one pinned
//! FNV-1a digest.

use cogsdk_rdf::reason::{PatternTerm, TriplePattern};
use cogsdk_rdf::{BgpQuery, Graph, Literal, Query, Solution, Statement, Term};
use cogsdk_sim::rng::Rng;
use std::cmp::Ordering;

const CASES: u64 = 300;
const MASTER_SEED: u64 = 0x0_5E1E_C7ED;
const EXPECTED_DIGEST: u64 = 0xb8b2_5598_dff4_be37;

const VARS: [&str; 5] = ["a", "b", "c", "d", "e"];
/// A variable no pattern ever binds.
const UNKNOWN: &str = "zz";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

#[derive(Debug, Clone)]
enum Operand {
    Var(String),
    Const(Term),
}

#[derive(Debug, Clone)]
struct Filter {
    var: String,
    op: Op,
    right: Operand,
}

#[derive(Debug, Clone, Default)]
struct Case {
    triples: Vec<Statement>,
    required: Vec<[Operand; 3]>,
    optionals: Vec<Vec<[Operand; 3]>>,
    unions: Vec<Vec<Vec<[Operand; 3]>>>,
    filters: Vec<Filter>,
    order_by: Option<String>,
    select: Vec<String>,
    offset: Option<usize>,
    limit: Option<usize>,
}

// --- rendering ------------------------------------------------------------

/// Query-text spelling of an operand. Constants are only ever terms the
/// grammar reads back unchanged from their display form: IRIs, integers,
/// non-integral doubles, quote-free strings and booleans.
fn operand_text(o: &Operand) -> String {
    match o {
        Operand::Var(v) => format!("?{v}"),
        Operand::Const(t) => t.to_string(),
    }
}

fn pattern_text(p: &[Operand; 3]) -> String {
    format!(
        "{} {} {}",
        operand_text(&p[0]),
        operand_text(&p[1]),
        operand_text(&p[2])
    )
}

fn group_text(group: &[[Operand; 3]]) -> String {
    let parts: Vec<String> = group.iter().map(pattern_text).collect();
    format!("{{ {} }}", parts.join(" . "))
}

fn filter_text(f: &Filter) -> String {
    let right = operand_text(&f.right);
    match f.op {
        // `<` opens an IRI in this grammar, so the less-than forms are
        // spelled `< x >` and `<= x >`.
        Op::Lt => format!("FILTER (?{} < {right} >)", f.var),
        Op::Le => format!("FILTER (?{} <= {right} >)", f.var),
        Op::Gt => format!("FILTER (?{} > {right})", f.var),
        Op::Ge => format!("FILTER (?{} >= {right})", f.var),
        Op::Eq => format!("FILTER (?{} = {right})", f.var),
        Op::Ne => format!("FILTER (?{} != {right})", f.var),
    }
}

fn query_text(case: &Case, rng: &mut Rng) -> String {
    let select = if case.select.is_empty() {
        "*".to_string()
    } else {
        let names: Vec<String> = case.select.iter().map(|v| format!("?{v}")).collect();
        names.join(" ")
    };
    // A `.` may only follow a triple pattern.
    let mut body: Vec<String> = case
        .required
        .iter()
        .map(|p| format!("{} .", pattern_text(p)))
        .collect();
    for arms in &case.unions {
        let parts: Vec<String> = arms.iter().map(|arm| group_text(arm)).collect();
        body.push(parts.join(" UNION "));
    }
    for group in &case.optionals {
        body.push(format!("OPTIONAL {}", group_text(group)));
    }
    for f in &case.filters {
        body.push(filter_text(f));
    }
    let mut text = format!("SELECT {select} WHERE {{ {} }}", body.join(" "));
    if let Some(v) = &case.order_by {
        text.push_str(&format!(" ORDER BY ?{v}"));
    }
    let offset = case.offset.map(|n| format!(" OFFSET {n}"));
    let limit = case.limit.map(|n| format!(" LIMIT {n}"));
    if rng.chance(0.5) {
        text.extend(offset.into_iter().chain(limit));
    } else {
        text.extend(limit.into_iter().chain(offset));
    }
    text
}

// --- the materialize-first reference --------------------------------------

fn to_pattern(p: &[Operand; 3]) -> TriplePattern {
    let slot = |o: &Operand| match o {
        Operand::Var(v) => PatternTerm::Var(v.clone()),
        Operand::Const(t) => PatternTerm::Term(t.clone()),
    };
    TriplePattern {
        subject: slot(&p[0]),
        predicate: slot(&p[1]),
        object: slot(&p[2]),
    }
}

fn pattern_block(case: &Case) -> BgpQuery {
    let mut q = BgpQuery::new();
    for p in &case.required {
        q = q.pattern(to_pattern(p));
    }
    for arms in &case.unions {
        q = q.union(
            arms.iter()
                .map(|arm| arm.iter().map(to_pattern).collect())
                .collect(),
        );
    }
    for group in &case.optionals {
        q = q.optional(group.iter().map(to_pattern).collect());
    }
    q
}

/// A filter holds when both sides are bound and compare as asked:
/// `=`/`!=` by term equality; ordered operators numerically when both
/// sides are numeric, else by the display forms' string order.
fn holds(f: &Filter, row: &Solution) -> bool {
    let Some(left) = row.get(&f.var) else {
        return false;
    };
    let right = match &f.right {
        Operand::Var(v) => row.get(v),
        Operand::Const(t) => Some(t),
    };
    let Some(right) = right else {
        return false;
    };
    let ord = match (
        left.as_literal().and_then(Literal::as_f64),
        right.as_literal().and_then(Literal::as_f64),
    ) {
        (Some(a), Some(b)) => a.partial_cmp(&b),
        _ => Some(left.to_string().cmp(&right.to_string())),
    };
    match f.op {
        Op::Eq => left == right,
        Op::Ne => left != right,
        Op::Lt => ord == Some(Ordering::Less),
        Op::Le => matches!(ord, Some(Ordering::Less | Ordering::Equal)),
        Op::Gt => ord == Some(Ordering::Greater),
        Op::Ge => matches!(ord, Some(Ordering::Greater | Ordering::Equal)),
    }
}

fn reference(case: &Case, graph: &Graph) -> Vec<Solution> {
    let mut rows = pattern_block(case).execute(graph);
    rows.retain(|row| case.filters.iter().all(|f| holds(f, row)));
    if let Some(var) = &case.order_by {
        // Stable: ties keep the planner's order. Unbound sorts last.
        rows.sort_by(|a, b| match (a.get(var), b.get(var)) {
            (Some(x), Some(y)) => x.cmp(y),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => Ordering::Equal,
        });
    }
    let rows = rows
        .into_iter()
        .skip(case.offset.unwrap_or(0))
        .take(case.limit.unwrap_or(usize::MAX));
    if case.select.is_empty() {
        return rows.collect();
    }
    rows.map(|row| {
        case.select
            .iter()
            .filter_map(|v| row.get(v).map(|t| (v.clone(), t.clone())))
            .collect()
    })
    .collect()
}

/// One row as sorted `var=term` pairs; rows keep their order.
fn canon(rows: &[Solution]) -> Vec<String> {
    rows.iter()
        .map(|row| {
            let mut pairs: Vec<String> = row.iter().map(|(v, t)| format!("{v}={t}")).collect();
            pairs.sort();
            pairs.join("&")
        })
        .collect()
}

fn fnv1a(digest: u64, bytes: &[u8]) -> u64 {
    let mut h = digest;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// --- generation -----------------------------------------------------------

fn random_object(rng: &mut Rng) -> Term {
    match rng.below(12) {
        0..=2 => Term::iri(format!("ex:o{}", rng.below(4))),
        3..=4 => Term::integer(rng.below(5) as i64 - 1),
        // Non-negative and non-integral: the query grammar reads a
        // leading `-` with a `.` as two tokens, and `3.0` back as `3`.
        5..=6 => Term::double(rng.below(6) as f64 + 0.5),
        7..=9 => Term::string(["w0", "w1", "W1", "w2", "w10", ""][rng.below(6) as usize]),
        10 => Term::boolean(rng.chance(0.5)),
        _ => Term::iri(format!("ex:s{}", rng.below(6))),
    }
}

fn random_var(rng: &mut Rng) -> String {
    VARS[rng.below(VARS.len() as u64) as usize].to_string()
}

/// Derived from a graph triple (so joins have matches), with subject and
/// object usually turned into variables. Subjects lean on `?a` and
/// objects on `?b`–`?d`, so patterns join more often than they clash.
fn random_pattern(rng: &mut Rng, triples: &[Statement]) -> [Operand; 3] {
    let st = rng.choose(triples).clone();
    // Blank nodes cannot be written in the query text.
    let subject = if matches!(st.subject, Term::Blank(_)) || rng.chance(0.7) {
        Operand::Var(if rng.chance(0.7) {
            "a".to_string()
        } else {
            random_var(rng)
        })
    } else {
        Operand::Const(st.subject)
    };
    let predicate = if rng.chance(0.15) {
        Operand::Var("e".to_string())
    } else {
        Operand::Const(st.predicate)
    };
    let object = if rng.chance(0.75) {
        Operand::Var(["b", "c", "d"][rng.below(3) as usize].to_string())
    } else {
        Operand::Const(st.object)
    };
    [subject, predicate, object]
}

fn random_filter(rng: &mut Rng, bound: &[String]) -> Filter {
    let var = if bound.is_empty() || rng.chance(0.08) {
        UNKNOWN.to_string()
    } else {
        rng.choose(bound).clone()
    };
    let op = [Op::Lt, Op::Le, Op::Gt, Op::Ge, Op::Eq, Op::Ne][rng.below(6) as usize];
    let right = match op {
        // The `< x >` spelling only reads numbers and bare words back.
        Op::Lt | Op::Le => Operand::Const(if rng.chance(0.5) {
            Term::integer(rng.below(5) as i64 - 1)
        } else {
            Term::double(rng.below(5) as f64 + 0.5)
        }),
        _ if rng.chance(0.25) && !bound.is_empty() => Operand::Var(if rng.chance(0.1) {
            UNKNOWN.to_string()
        } else {
            rng.choose(bound).clone()
        }),
        _ => Operand::Const(random_object(rng)),
    };
    Filter { var, op, right }
}

fn vars_in(group: &[[Operand; 3]], out: &mut Vec<String>) {
    for p in group {
        for o in p {
            if let Operand::Var(v) = o {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
        }
    }
}

fn random_case(rng: &mut Rng) -> Case {
    let mut case = Case::default();
    for _ in 0..20 + rng.below(40) {
        let subject = if rng.chance(0.1) {
            Term::blank(format!("b{}", rng.below(3)))
        } else {
            Term::iri(format!("ex:s{}", rng.below(6)))
        };
        case.triples.push(Statement::new(
            subject,
            Term::iri(format!("ex:p{}", rng.below(4))),
            random_object(rng),
        ));
    }
    case.triples.sort();
    case.triples.dedup();

    for _ in 0..1 + rng.below(2) + u64::from(rng.chance(0.2)) {
        let p = random_pattern(rng, &case.triples);
        case.required.push(p);
    }
    if rng.chance(0.2) {
        let arms = (0..2)
            .map(|_| vec![random_pattern(rng, &case.triples)])
            .collect();
        case.unions.push(arms);
    }
    if rng.chance(0.35) {
        let group = vec![random_pattern(rng, &case.triples)];
        case.optionals.push(group);
    }
    let mut bound = Vec::new();
    vars_in(&case.required, &mut bound);
    for arms in &case.unions {
        for arm in arms {
            vars_in(arm, &mut bound);
        }
    }
    for group in &case.optionals {
        vars_in(group, &mut bound);
    }

    for _ in 0..rng.below(3) {
        let f = random_filter(rng, &bound);
        case.filters.push(f);
    }
    if rng.chance(0.6) {
        case.order_by = Some(if bound.is_empty() || rng.chance(0.1) {
            UNKNOWN.to_string()
        } else {
            rng.choose(&bound).clone()
        });
    }
    if rng.chance(0.75) {
        for _ in 0..1 + rng.below(4) {
            let v = if rng.chance(0.1) || bound.is_empty() {
                UNKNOWN.to_string()
            } else {
                // Draws with replacement, so duplicates occur.
                rng.choose(&bound).clone()
            };
            case.select.push(v);
        }
    }
    if rng.chance(0.5) {
        case.offset = Some(rng.below(5) as usize);
    }
    if rng.chance(0.5) {
        case.limit = Some(rng.below(7) as usize);
    }
    case
}

// --- the suite ------------------------------------------------------------

fn run_suite() -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut nonempty = 0usize;
    let mut filtered = 0usize;
    let mut ordered = 0usize;
    for case_idx in 0..CASES {
        let mut rng = Rng::new(MASTER_SEED ^ case_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let case = random_case(&mut rng);
        let text = query_text(&case, &mut rng);
        let mut graph = Graph::new();
        for st in &case.triples {
            graph.insert(st.clone());
        }

        let query = Query::parse(&text)
            .unwrap_or_else(|e| panic!("case {case_idx}: generated query rejected: {e}\n{text}"));
        let got = canon(&query.execute(&graph));
        let want = canon(&reference(&case, &graph));
        assert_eq!(
            got, want,
            "case {case_idx}: Query disagrees with the materialize-first reference\n{text}"
        );
        let (rows, stats) = query.execute_with_stats(&graph);
        assert_eq!(stats.rows, rows.len(), "case {case_idx}: stats.rows");

        if !got.is_empty() {
            nonempty += 1;
        }
        if !case.filters.is_empty() && !got.is_empty() {
            filtered += 1;
        }
        if case.order_by.is_some() && got.len() > 1 {
            ordered += 1;
        }
        for row in &got {
            digest = fnv1a(digest, row.as_bytes());
            digest = fnv1a(digest, b";");
        }
        digest = fnv1a(digest, b"|case|");
    }
    // The generator must exercise each layer, not return walls of empty
    // results.
    assert!(
        nonempty >= CASES as usize / 3,
        "only {nonempty} non-empty cases"
    );
    assert!(
        filtered >= CASES as usize / 10,
        "only {filtered} filtered cases"
    );
    assert!(
        ordered >= CASES as usize / 10,
        "only {ordered} ordered cases"
    );
    digest
}

#[test]
fn query_layer_matches_materialize_first_reference() {
    let first = run_suite();
    let second = run_suite();
    assert_eq!(first, second, "suite digest must be byte-deterministic");
    assert_eq!(
        first, EXPECTED_DIGEST,
        "suite digest drifted — semantics changed (update EXPECTED_DIGEST \
         only after auditing the diff): got {first:#018x}"
    );
}
