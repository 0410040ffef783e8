//! The seeded generators and their oracles.

use cogsdk_core::CacheConfig;
use cogsdk_kb::{KbOptions, PersonalKnowledgeBase};
use cogsdk_loadbench::gen::{
    self, Corpus, Dataset, Expect, InvokeOp, InvokeStream, QueryOp, ReaderOp, PAYLOADS,
};
use cogsdk_rdf::Solution;
use cogsdk_store::MemoryKv;
use std::collections::HashSet;
use std::sync::Arc;

fn invoke_bytes(seed: u64, n: u64) -> Vec<u8> {
    let stream = InvokeStream::new(seed);
    (0..n)
        .flat_map(|i| {
            let mut b = gen::invoke_http(stream.op(i));
            b.extend(gen::invoke_http(stream.warm_op(i)));
            b
        })
        .collect()
}

fn query_bytes(seed: u64, n: u64) -> Vec<u8> {
    let ds = Dataset::new(seed, 5_000);
    let mut out = ds.csv().into_bytes();
    for i in 0..n {
        out.extend(gen::http("POST", "/query", &ds.op(i).body(7)));
    }
    out
}

fn ingest_bytes(seed: u64) -> Vec<u8> {
    let corpus = Corpus::new(seed, 1_024);
    let mut out = corpus.bulk_body(0..1_024).into_bytes();
    for i in 0..2_000 {
        out.extend(format!("{:?}", gen::reader_op(seed, i)).bytes());
    }
    out
}

#[test]
fn same_seed_gives_identical_inputs_and_another_seed_different_ones() {
    for (a, b, c) in [
        (
            invoke_bytes(1, 5_000),
            invoke_bytes(1, 5_000),
            invoke_bytes(2, 5_000),
        ),
        (
            query_bytes(1, 5_000),
            query_bytes(1, 5_000),
            query_bytes(2, 5_000),
        ),
        (ingest_bytes(1), ingest_bytes(1), ingest_bytes(2)),
    ] {
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}

#[test]
fn invoke_stream_has_the_planned_mix_and_outgrows_the_cache() {
    let stream = InvokeStream::new(3);
    let n = 100_000;
    let mut keys = HashSet::new();
    let (mut cached, mut class, mut metrics) = (0, 0, 0);
    for i in 0..n {
        match stream.op(i) {
            InvokeOp::Cached(k) => {
                cached += 1;
                keys.insert(k);
            }
            InvokeOp::Class(_) => class += 1,
            InvokeOp::Metrics => metrics += 1,
        }
    }
    let capacity = CacheConfig::default().capacity;
    assert!(
        keys.len() > capacity,
        "{} distinct keys vs cache of {capacity}",
        keys.len()
    );
    assert!(keys.len() <= PAYLOADS);
    assert_eq!(metrics, n / gen::METRICS_EVERY);
    let share = cached as f64 / (cached + class) as f64;
    assert!(
        (share - gen::CACHED_SHARE).abs() < 0.01,
        "cached share {share}"
    );
}

fn kb_with(ds: &Dataset) -> PersonalKnowledgeBase {
    let kb = PersonalKnowledgeBase::new(Arc::new(MemoryKv::new()), KbOptions::default());
    kb.ingest_csv("items", &ds.csv()).unwrap();
    kb.table_to_rdf("items", "item", "ds").unwrap();
    kb
}

fn canonical(rows: &[Solution]) -> Vec<String> {
    let mut out: Vec<String> = rows
        .iter()
        .map(|row| {
            let mut pairs: Vec<String> = row.iter().map(|(v, t)| format!("{v}={t}")).collect();
            pairs.sort();
            pairs.join("\u{1}")
        })
        .collect();
    out.sort();
    out
}

#[test]
fn query_oracle_agrees_with_the_knowledge_base() {
    let ds = Dataset::new(11, 2_000);
    let kb = kb_with(&ds);
    let mut kinds = HashSet::new();
    for i in 0..400 {
        let op = ds.op(i);
        kinds.insert(std::mem::discriminant(&op));
        let rows = kb.query(&op.sparql()).unwrap();
        match ds.expect(op) {
            Expect::Rows(want) => assert_eq!(canonical(&rows), want, "{op:?}"),
            Expect::Count(n) => assert_eq!(rows.len(), n, "{op:?}"),
        }
    }
    assert_eq!(kinds.len(), 4, "every query kind was drawn");
    assert_eq!(
        kb.query(&QueryOp::Needle.sparql()).unwrap().len(),
        gen::FLAGGED
    );
}

#[test]
fn query_oracle_catches_a_wrong_answer() {
    let ds = Dataset::new(5, 2_000);
    let kb = kb_with(&ds);
    let handler = cogsdk_kb::gateway_query_handler(Arc::new(kb));
    let request = |body: String| cogsdk_core::gateway::HttpRequest {
        method: "POST".into(),
        path: "/query".into(),
        query: Vec::new(),
        tenant: None,
        body,
    };
    let body = handler(&request(QueryOp::Point(3).body(0)))
        .unwrap()
        .to_json();
    assert!(gen::check_query(&ds.expect(QueryOp::Point(3)), 200, &body).is_ok());
    assert!(gen::check_query(&ds.expect(QueryOp::Point(4)), 200, &body).is_err());
    assert!(gen::check_query(&ds.expect(QueryOp::Point(3)), 500, &body).is_err());
}

#[test]
fn corpus_mention_oracle_agrees_with_ingest() {
    let corpus = Corpus::new(9, 300);
    let kb = PersonalKnowledgeBase::new(Arc::new(MemoryKv::new()), KbOptions::default());
    for doc in &corpus.docs {
        kb.ingest_text(doc).unwrap();
    }
    for j in 0..corpus.docs.len() {
        let rows = kb.query(&gen::doc_sparql(j)).unwrap();
        assert_eq!(
            canonical(&rows),
            corpus.doc_rows(j),
            "doc {j}: {}",
            corpus.docs[j]
        );
    }
    for e in 0..gen::ENTITIES.len() {
        let rows = kb.query(&gen::mentions_sparql(e)).unwrap();
        let mentioning = corpus.mentions.iter().filter(|m| m.contains(&e)).count();
        assert_eq!(
            rows.len(),
            mentioning.min(gen::MENTIONS_LIMIT),
            "entity {e}"
        );
    }
}

#[test]
fn reader_mix_is_half_point_lookups() {
    let points = (0..10_000)
        .filter(|&i| matches!(gen::reader_op(4, i), ReaderOp::Point(_)))
        .count();
    assert!((4_700..=5_300).contains(&points), "{points} point lookups");
}
