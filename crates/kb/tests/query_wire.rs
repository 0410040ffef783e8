//! The `/query` handler's wire contract.
//!
//! * **Bytes.** The exact JSON body the handler answers for a fixture is
//!   pinned, so any change to how rows are resolved, projected or
//!   serialized shows up as a byte diff. The fixture covers duplicate
//!   `SELECT` variables, an `OPTIONAL` variable left unbound, string
//!   literals with quotes, backslashes and non-ASCII text, integers,
//!   doubles, blank nodes and IRIs. Only `stats.plan_micros` (a wall-clock
//!   reading) is zeroed before the comparison.
//! * **Explain on a pinned epoch.** With `"explain": true` and an
//!   `"epoch"`, the `plan` field renders the plan that ran on that epoch,
//!   not a re-plan against whatever epoch is current.

use cogsdk_core::gateway::HttpRequest;
use cogsdk_json::Json;
use cogsdk_kb::gateway::gateway_query_handler;
use cogsdk_kb::kb::{KbOptions, PersonalKnowledgeBase};
use cogsdk_rdf::{Query, Statement, Term};
use cogsdk_store::kv::{KeyValueStore, MemoryKv};
use std::sync::Arc;

fn post(body: &str) -> HttpRequest {
    HttpRequest {
        method: "POST".to_string(),
        path: "/query".to_string(),
        query: Vec::new(),
        tenant: None,
        body: body.to_string(),
    }
}

fn kb_with(statements: Vec<Statement>) -> Arc<PersonalKnowledgeBase> {
    let remote: Arc<dyn KeyValueStore> = Arc::new(MemoryKv::new());
    let kb = PersonalKnowledgeBase::new(remote, KbOptions::default());
    for st in statements {
        kb.add_statement(st).unwrap();
    }
    Arc::new(kb)
}

fn fixture() -> Arc<PersonalKnowledgeBase> {
    let st = |s: Term, p: &str, o: Term| Statement::new(s, Term::iri(p), o);
    kb_with(vec![
        st(Term::iri("kb:a"), "kb:count", Term::integer(42)),
        st(Term::iri("kb:b"), "kb:count", Term::integer(-7)),
        st(Term::blank("n1"), "kb:count", Term::integer(3)),
        st(Term::iri("kb:a"), "kb:score", Term::double(2.5)),
        st(Term::iri("kb:b"), "kb:score", Term::double(0.1)),
        st(
            Term::iri("kb:a"),
            "kb:label",
            Term::string("He said \"hi\" to Zürich — 東京"),
        ),
        st(Term::blank("n1"), "kb:label", Term::string(r"C:\dir\file")),
        st(Term::iri("kb:b"), "kb:link", Term::iri("kb:a")),
    ])
}

/// The handler's answer for `body`, serialized as the gateway sends it,
/// with the wall-clock `plan_micros` zeroed.
fn wire(kb: &Arc<PersonalKnowledgeBase>, body: &str) -> String {
    let handler = gateway_query_handler(kb.clone());
    let mut out = handler(&post(body)).unwrap();
    if let Json::Object(entries) = &mut out {
        for (key, value) in entries.iter_mut() {
            if key == "stats" {
                value.insert("plan_micros", 0usize);
            }
        }
    }
    out.to_json()
}

#[test]
fn query_response_bytes_are_pinned() {
    let kb = fixture();
    let cases = [
        (
            r#"{"sparql": "SELECT ?s ?n ?s ?x WHERE { ?s <kb:count> ?n . OPTIONAL { ?s <kb:label> ?x } } ORDER BY ?n"}"#,
            r#"{"rows":[{"n":"-7","s":"<kb:b>"},{"n":"3","s":"_:n1","x":"\"C:\\dir\\file\""},{"n":"42","s":"<kb:a>","x":"\"He said \"hi\" to Zürich — 東京\""}],"stats":{"rows":3,"plan_micros":0,"merge_joins":0,"nested_loop_joins":0,"patterns":1},"epoch":8}"#,
        ),
        (
            r#"{"sparql": "SELECT * WHERE { ?s ?p ?o } ORDER BY ?o"}"#,
            r#"{"rows":[{"o":"<kb:a>","p":"<kb:link>","s":"<kb:b>"},{"o":"\"C:\\dir\\file\"","p":"<kb:label>","s":"_:n1"},{"o":"\"He said \"hi\" to Zürich — 東京\"","p":"<kb:label>","s":"<kb:a>"},{"o":"-7","p":"<kb:count>","s":"<kb:b>"},{"o":"3","p":"<kb:count>","s":"_:n1"},{"o":"42","p":"<kb:count>","s":"<kb:a>"},{"o":"0.1","p":"<kb:score>","s":"<kb:b>"},{"o":"2.5","p":"<kb:score>","s":"<kb:a>"}],"stats":{"rows":8,"plan_micros":0,"merge_joins":0,"nested_loop_joins":0,"patterns":1},"epoch":8}"#,
        ),
        (
            r#"{"sparql": "SELECT ?o ?zz ?o WHERE { <kb:a> ?p ?o } OFFSET 1 LIMIT 2"}"#,
            r#"{"rows":[{"o":"2.5"},{"o":"\"He said \"hi\" to Zürich — 東京\""}],"stats":{"rows":2,"plan_micros":0,"merge_joins":0,"nested_loop_joins":0,"patterns":1},"epoch":8}"#,
        ),
        (
            r#"{"sparql": "SELECT ?s ?v WHERE { ?s <kb:score> ?v . FILTER (?v > 1) }"}"#,
            r#"{"rows":[{"s":"<kb:a>","v":"2.5"}],"stats":{"rows":1,"plan_micros":0,"merge_joins":0,"nested_loop_joins":0,"patterns":1},"epoch":8}"#,
        ),
    ];
    for (body, want) in cases {
        let got = wire(&kb, body);
        assert_eq!(got, want, "body {body}");
    }
}

#[test]
fn explain_renders_the_pinned_epochs_plan() {
    let gdp = |s: &str, g: i64| Statement::new(Term::iri(s), Term::iri("kb:gdp"), Term::integer(g));
    let kb = kb_with(vec![gdp("kb:usa", 21000), gdp("kb:germany", 4200)]);
    let handler = gateway_query_handler(kb.clone());
    let sparql = "SELECT ?c WHERE { ?c <kb:gdp> ?g }";
    let first = handler(&post(&format!(r#"{{"sparql": "{sparql}"}}"#))).unwrap();
    let epoch = first.get("epoch").and_then(Json::as_usize).unwrap();

    // Ingest moves the current epoch on: five more rows match.
    for (i, g) in [1, 2, 3, 4, 5].into_iter().enumerate() {
        kb.add_statement(gdp(&format!("kb:c{i}"), g)).unwrap();
    }
    let current = kb.query_explain(sparql).unwrap();
    assert!(current.contains("est=7"), "{current}");

    let pinned = handler(&post(&format!(
        r#"{{"sparql": "{sparql}", "explain": true, "epoch": {epoch}}}"#
    )))
    .unwrap();
    assert_eq!(pinned.get("epoch").and_then(Json::as_usize), Some(epoch));
    assert_eq!(
        pinned.pointer("/stats/rows").and_then(Json::as_usize),
        Some(2)
    );
    let plan = pinned.get("plan").and_then(Json::as_str).unwrap();
    let snapshot = kb.query_snapshot_at(epoch as u64).unwrap();
    let want = Query::parse(sparql).unwrap().explain(&*snapshot);
    assert_eq!(plan, want, "plan must be the pinned epoch's");
    assert!(plan.contains("est=2"), "{plan}");
}
