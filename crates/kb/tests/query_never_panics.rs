//! Never-panics property for the query surface: `Query::parse` (and the
//! engine behind it) and the `POST /query` handler.
//!
//! Queries and bodies come from outside the process, so each one must
//! end in `Ok` or `Err`, never in a panic. The seeded cases feed:
//!
//! * SPARQL-ish token soups, alone and inside a `SELECT … WHERE { … }`
//!   frame: overflowing numbers, negative and non-finite literals, stray
//!   braces, operators, quotes and keywords;
//! * `OFFSET`/`LIMIT` values that are negative, at `u64::MAX` or past it;
//! * JSON bodies with wrong field types and huge or negative `epoch`s;
//! * arbitrary text as the body.
//!
//! Whatever parses also runs, on a small knowledge base whose epochs
//! hold both a frozen base and delta runs.

use cogsdk_core::gateway::{HttpRequest, QueryHandler};
use cogsdk_json::{Json, Number};
use cogsdk_kb::gateway::gateway_query_handler;
use cogsdk_kb::kb::{KbOptions, PersonalKnowledgeBase};
use cogsdk_rdf::{Query, Statement, Term};
use cogsdk_store::kv::{KeyValueStore, MemoryKv};
use proptest::prelude::*;
use std::sync::Arc;

const TOKENS: [&str; 48] = [
    "SELECT",
    "select",
    "WHERE",
    "*",
    "{",
    "}",
    "(",
    ")",
    ".",
    "?x",
    "?y",
    "?",
    "?zz",
    "<kb:p>",
    "<kb:q>",
    "<kb:a>",
    "<",
    ">",
    "<=",
    ">=",
    "=",
    "!=",
    "!",
    "\"s\"",
    "\"",
    "\"unterminated",
    "FILTER",
    "OPTIONAL",
    "UNION",
    "ORDER",
    "BY",
    "LIMIT",
    "OFFSET",
    "0",
    "1",
    "-1",
    "2.5",
    "-0.5",
    "NaN",
    "inf",
    "-inf",
    "1e400",
    "true",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "_:b",
    "é東",
];

/// A run of tokens, joined by one separator (none, a space or a newline).
fn soup() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(0..TOKENS.len(), 0..24),
        prop_oneof![Just(""), Just(" "), Just("\n")],
    )
        .prop_map(|(picks, sep)| {
            let words: Vec<&str> = picks.into_iter().map(|i| TOKENS[i]).collect();
            words.join(sep)
        })
}

/// A number as query text: any `i64`, any `u64`, or one past `u64::MAX`.
fn count() -> impl Strategy<Value = String> {
    prop_oneof![
        any::<i64>().prop_map(|n| n.to_string()),
        any::<u64>().prop_map(|n| n.to_string()),
        (0u64..4).prop_map(|n| n.to_string()),
        Just("18446744073709551616".to_string()),
    ]
}

/// A well-formed query with an arbitrary `OFFSET`/`LIMIT` window.
fn paged() -> impl Strategy<Value = String> {
    (count(), count(), any::<bool>()).prop_map(|(offset, limit, order)| {
        let order = if order { "ORDER BY ?y " } else { "" };
        format!("SELECT * WHERE {{ ?x ?p ?y }} {order}OFFSET {offset} LIMIT {limit}")
    })
}

fn sparql() -> BoxedStrategy<String> {
    prop_oneof![
        soup(),
        (soup(), soup()).prop_map(|(body, tail)| {
            format!("SELECT ?x ?y WHERE {{ ?x <kb:p> ?y . {body} }} {tail}")
        }),
        paged(),
        "\\PC{0,48}",
    ]
    .boxed()
}

/// A JSON value of any type; strings are SPARQL-ish.
fn value() -> impl Strategy<Value = Json> {
    prop_oneof![
        sparql().prop_map(Json::String),
        any::<i64>().prop_map(|n| Json::Number(Number::Int(n))),
        prop::num::f64::NORMAL.prop_map(|f| Json::Number(Number::Float(f))),
        any::<bool>().prop_map(Json::Bool),
        Just(Json::Null),
        Just(Json::Array(vec![Json::Null])),
    ]
}

/// A field that is absent, well-typed (`good`), or any JSON value.
fn field(good: BoxedStrategy<Json>) -> impl Strategy<Value = Option<Json>> {
    prop_oneof![Just(None), good.prop_map(Some), value().prop_map(Some),]
}

fn body() -> impl Strategy<Value = String> {
    let objects = (
        field(
            prop_oneof![paged(), sparql()]
                .prop_map(Json::String)
                .boxed(),
        ),
        field(any::<bool>().prop_map(Json::Bool).boxed()),
        field((0i64..8).prop_map(|n| Json::Number(Number::Int(n))).boxed()),
    )
        .prop_map(|(sparql, explain, epoch)| {
            let mut out = Json::object();
            for (key, v) in [("sparql", sparql), ("explain", explain), ("epoch", epoch)] {
                if let Some(v) = v {
                    out.insert(key, v);
                }
            }
            out.to_json()
        });
    let objects = objects.boxed();
    prop_oneof![
        objects.clone(),
        objects,
        "\\PC{0,64}",
        value().prop_map(|v| v.to_json()),
    ]
}

fn small_kb() -> Arc<PersonalKnowledgeBase> {
    let remote: Arc<dyn KeyValueStore> = Arc::new(MemoryKv::new());
    let kb = PersonalKnowledgeBase::new(remote, KbOptions::default());
    let st = |s: Term, p: &str, o: Term| Statement::new(s, Term::iri(p), o);
    // One statement per publish: later epochs stack delta runs on the
    // first one's base.
    for (i, o) in [
        Term::integer(1),
        Term::double(2.5),
        Term::string("s"),
        Term::iri("kb:a"),
        Term::boolean(true),
    ]
    .into_iter()
    .enumerate()
    {
        kb.add_statement(st(Term::iri(format!("kb:s{i}")), "kb:p", o))
            .unwrap();
    }
    kb.add_statement(st(Term::blank("b"), "kb:q", Term::integer(-1)))
        .unwrap();
    Arc::new(kb)
}

fn post(body: String) -> HttpRequest {
    HttpRequest {
        method: "POST".to_string(),
        path: "/query".to_string(),
        query: Vec::new(),
        tenant: None,
        body,
    }
}

/// Generated inputs per property.
const CASES: usize = 1500;

#[test]
fn query_parse_and_run_never_panic() {
    let mut rng = test_runner::TestRng::from_name("query_parse_and_run_never_panic");
    let kb = small_kb();
    let snapshot = kb.query_snapshot();
    let texts = sparql();
    let mut parsed = 0;
    for _ in 0..CASES {
        let text = texts.generate(&mut rng);
        if let Ok(query) = Query::parse(&text) {
            parsed += 1;
            let _ = query.execute(&*snapshot);
            let _ = query.explain(&*snapshot);
        }
    }
    // Enough inputs get past the parser to exercise the engine too.
    assert!(parsed >= CASES / 20, "only {parsed} of {CASES} parsed");
}

#[test]
fn query_handler_never_panics() {
    let mut rng = test_runner::TestRng::from_name("query_handler_never_panics");
    let kb = small_kb();
    let handler: QueryHandler = gateway_query_handler(kb);
    let bodies = body();
    let mut answered = 0;
    for _ in 0..CASES {
        if handler(&post(bodies.generate(&mut rng))).is_ok() {
            answered += 1;
        }
    }
    // Enough bodies get through to run queries, not just to be rejected.
    assert!(
        answered >= CASES / 50,
        "only {answered} of {CASES} answered"
    );
}
