//! Seeded input generators and the oracles that check answers.
//!
//! Everything the program receives is produced here from `--seed`: the
//! `invoke_zipf` request stream, the `query_read` CSV and query mix, and
//! the `ingest_mixed` corpus and reader mix. Element `i` of each request
//! stream is a pure function of `(seed, i)`, so two clients pulling
//! indices from a shared counter together send exactly the stream.

use crate::rng::{Rng, Zipf};
use cogsdk_json::Json;
use cogsdk_rdf::Term;

/// Stream ids: one independent random stream per use.
const STREAM_INVOKE: u64 = 1;
const STREAM_INVOKE_WARM: u64 = 2;
const STREAM_QUERY: u64 = 3;
const STREAM_READER: u64 = 4;

/// Renders an HTTP/1.1 request.
pub fn http(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
    if method == "POST" {
        out.push_str("Content-Type: application/json\r\n");
    }
    out.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    out.into_bytes()
}

// ---------------------------------------------------------------------
// invoke_zipf
// ---------------------------------------------------------------------

/// Distinct payloads the Zipf draws range over: 4× the response cache.
pub const PAYLOADS: usize = 16_384;
/// Zipf exponent of the payload popularity.
pub const ZIPF_S: f64 = 1.0;
/// Share of invocations that go to `/invoke-cached`; the rest go to
/// `/invoke-class/nlu`.
pub const CACHED_SHARE: f64 = 0.8;
/// One `GET /metrics` scrape per this many requests.
pub const METRICS_EVERY: u64 = 2_000;
/// The healthy service behind `/invoke-cached`.
pub const CACHED_SERVICE: &str = "nlu-edge";
/// The class behind `/invoke-class`.
pub const CLASS: &str = "nlu";
/// The class members; the first one is the flaky one.
pub const CLASS_MEMBERS: [&str; 3] = ["nlu-a", "nlu-b", "nlu-c"];

/// One request of the `invoke_zipf` mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvokeOp {
    /// `POST /invoke-cached/nlu-edge` for payload `key`.
    Cached(u32),
    /// `POST /invoke-class/nlu` for payload `key`.
    Class(u32),
    /// `GET /metrics`.
    Metrics,
}

/// The `invoke_zipf` request stream for one seed.
#[derive(Debug, Clone)]
pub struct InvokeStream {
    seed: u64,
    zipf: Zipf,
    /// Rank → payload id, so the hot keys are scattered over the id space
    /// (and over the cache's shards) rather than being ids 0, 1, 2, ….
    perm: Vec<u32>,
}

impl InvokeStream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> InvokeStream {
        let mut perm: Vec<u32> = (0..PAYLOADS as u32).collect();
        Rng::new(seed).shuffle(&mut perm);
        InvokeStream {
            seed,
            zipf: Zipf::new(PAYLOADS, ZIPF_S),
            perm,
        }
    }

    /// Request `i` of the measured stream.
    pub fn op(&self, i: u64) -> InvokeOp {
        self.draw(STREAM_INVOKE, i)
    }

    /// Request `i` of the warm-up stream (same distribution, independent
    /// draws), sent before timing starts so the cache is in steady state.
    pub fn warm_op(&self, i: u64) -> InvokeOp {
        self.draw(STREAM_INVOKE_WARM, i)
    }

    fn draw(&self, stream: u64, i: u64) -> InvokeOp {
        if stream == STREAM_INVOKE && (i + 1).is_multiple_of(METRICS_EVERY) {
            return InvokeOp::Metrics;
        }
        let mut rng = Rng::at(self.seed, stream, i);
        let cached = rng.unit() < CACHED_SHARE;
        let key = self.perm[self.zipf.sample(&mut rng)];
        if cached {
            InvokeOp::Cached(key)
        } else {
            InvokeOp::Class(key)
        }
    }
}

/// The payload JSON for key `k`; the sim services echo it back.
pub fn invoke_payload(key: u32) -> String {
    format!(r#"{{"doc":{key},"lang":"en","text":"customer review number {key}"}}"#)
}

/// The raw HTTP bytes of an `invoke_zipf` request.
pub fn invoke_http(op: InvokeOp) -> Vec<u8> {
    let body = |key| {
        format!(
            r#"{{"operation":"analyze","payload":{}}}"#,
            invoke_payload(key)
        )
    };
    match op {
        InvokeOp::Cached(key) => http(
            "POST",
            &format!("/invoke-cached/{CACHED_SERVICE}"),
            &body(key),
        ),
        InvokeOp::Class(key) => http("POST", &format!("/invoke-class/{CLASS}"), &body(key)),
        InvokeOp::Metrics => http("GET", "/metrics", ""),
    }
}

/// Checks an `invoke_zipf` response: status, JSON shape, the echoed
/// payload, and `cache_hit` / `services_tried`. Returns the number of
/// services tried for class requests.
pub fn check_invoke(op: InvokeOp, status: u16, body: &str) -> Result<Option<usize>, String> {
    if status != 200 {
        return Err(format!("{op:?}: status {status}: {body}"));
    }
    if op == InvokeOp::Metrics {
        return if body.contains("gateway_requests_total") {
            Ok(None)
        } else {
            Err("metrics scrape lacks gateway_requests_total".into())
        };
    }
    let json = Json::parse(body).map_err(|e| format!("{op:?}: bad JSON: {e}"))?;
    let (InvokeOp::Cached(key) | InvokeOp::Class(key)) = op else {
        unreachable!("metrics handled above")
    };
    let expected = Json::parse(&invoke_payload(key)).expect("payload is valid JSON");
    if json.get("payload") != Some(&expected) {
        return Err(format!("{op:?}: payload mismatch: {body}"));
    }
    match op {
        InvokeOp::Cached(_) => match json.get("cache_hit").and_then(Json::as_bool) {
            Some(_) => Ok(None),
            None => Err(format!("{op:?}: no boolean cache_hit: {body}")),
        },
        _ => {
            let service = json.get("service").and_then(Json::as_str).unwrap_or("");
            let tried = json.get("services_tried").and_then(Json::as_usize);
            match tried {
                Some(n @ 1..=3) if CLASS_MEMBERS.contains(&service) => Ok(Some(n)),
                _ => Err(format!("{op:?}: bad class response: {body}")),
            }
        }
    }
}

// ---------------------------------------------------------------------
// query_read
// ---------------------------------------------------------------------

/// CSV rows; three statements each, about 198k triples in all.
pub const ROWS: usize = 66_000;
/// Categories: about 66 items each, the join fan-out.
pub const CATEGORIES: usize = 1_000;
/// Bands: about 200 items each, the sorted and paged result sets.
pub const BANDS: usize = 330;
/// Distinct scores. With them the dictionary holds about 77k terms on
/// every seed, well clear of the power-of-two sizes where hash tables
/// grow, so memory does not jump between seeds.
pub const SCORES: u64 = 10_000;
/// Rows carrying the `rare` flag, the needle of the star query.
pub const FLAGGED: usize = 10;
/// Page size of the `ORDER BY … LIMIT` queries.
pub const PAGE: usize = 100;

/// One CSV row.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Item {
    category: usize,
    band: usize,
    score: i64,
    flagged: bool,
}

/// The seeded `query_read` dataset and its oracle indexes.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The rows, in CSV order.
    items: Vec<Item>,
    by_category: Vec<Vec<usize>>,
    band_sizes: Vec<usize>,
    flagged: Vec<usize>,
    seed: u64,
}

impl Dataset {
    /// The dataset for `seed` with `rows` rows.
    pub fn new(seed: u64, rows: usize) -> Dataset {
        let mut rng = Rng::new(seed ^ 0x5157_5245_4144);
        let mut items: Vec<Item> = (0..rows)
            .map(|_| Item {
                category: rng.below(CATEGORIES as u64) as usize,
                band: rng.below(BANDS as u64) as usize,
                score: rng.below(SCORES) as i64,
                flagged: false,
            })
            .collect();
        let mut flagged = Vec::new();
        while flagged.len() < FLAGGED.min(rows) {
            let i = rng.below(rows as u64) as usize;
            if !items[i].flagged {
                items[i].flagged = true;
                flagged.push(i);
            }
        }
        flagged.sort_unstable();
        let mut by_category = vec![Vec::new(); CATEGORIES];
        let mut band_sizes = vec![0; BANDS];
        for (i, item) in items.iter().enumerate() {
            by_category[item.category].push(i);
            band_sizes[item.band] += 1;
        }
        Dataset {
            items,
            by_category,
            band_sizes,
            flagged,
            seed,
        }
    }

    /// The CSV text the knowledge base ingests.
    pub fn csv(&self) -> String {
        let mut out = String::with_capacity(self.items.len() * 40);
        out.push_str("item,category,band,score,flag\n");
        for (i, item) in self.items.iter().enumerate() {
            out.push_str(&format!(
                "item_{i:05},cat_{},band_{},{},{}\n",
                item.category,
                item.band,
                item.score,
                if item.flagged { "rare" } else { "" }
            ));
        }
        out
    }

    /// Query `i` of the `query_read` mix: 50 % subject point lookups,
    /// 20 % the needle star, 20 % category ⋈ score joins, 10 % pinned
    /// `ORDER BY … LIMIT` pages.
    pub fn op(&self, i: u64) -> QueryOp {
        let mut rng = Rng::at(self.seed, STREAM_QUERY, i);
        let roll = rng.below(100);
        if roll < 50 {
            QueryOp::Point(rng.below(self.items.len() as u64) as usize)
        } else if roll < 70 {
            QueryOp::Needle
        } else if roll < 90 {
            QueryOp::Join(rng.below(CATEGORIES as u64) as usize)
        } else {
            let band = rng.below(BANDS as u64) as usize;
            let size = self.band_sizes[band].max(1) as u64;
            QueryOp::Page {
                band,
                offset: rng.below(size) as usize,
            }
        }
    }

    /// What the oracle says `op` must return.
    pub fn expect(&self, op: QueryOp) -> Expect {
        match op {
            QueryOp::Point(i) => {
                let item = &self.items[i];
                let mut rows = vec![
                    row(&[
                        ("o", Term::string(format!("cat_{}", item.category))),
                        ("p", pred("category")),
                    ]),
                    row(&[
                        ("o", Term::string(format!("band_{}", item.band))),
                        ("p", pred("band")),
                    ]),
                    row(&[("o", Term::integer(item.score)), ("p", pred("score"))]),
                ];
                if item.flagged {
                    rows.push(row(&[("o", Term::string("rare")), ("p", pred("flag"))]));
                }
                Expect::Rows(sorted(rows))
            }
            QueryOp::Needle => Expect::Rows(sorted(
                self.flagged
                    .iter()
                    .map(|&i| {
                        let item = &self.items[i];
                        row(&[
                            ("c", Term::string(format!("cat_{}", item.category))),
                            ("s", Term::integer(item.score)),
                            ("x", subject(i)),
                        ])
                    })
                    .collect(),
            )),
            QueryOp::Join(c) => Expect::Rows(sorted(
                self.by_category[c]
                    .iter()
                    .map(|&i| row(&[("s", Term::integer(self.items[i].score)), ("x", subject(i))]))
                    .collect(),
            )),
            QueryOp::Page { band, offset } => {
                Expect::Count(self.band_sizes[band].saturating_sub(offset).min(PAGE))
            }
        }
    }
}

/// One query of the `query_read` mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOp {
    /// All predicates and objects of one item.
    Point(usize),
    /// The three-pattern star anchored on the 10-row flag.
    Needle,
    /// Items of one category joined with their scores.
    Join(usize),
    /// One `ORDER BY ?s LIMIT 100 OFFSET k` page of a band.
    Page {
        /// Band index.
        band: usize,
        /// Page offset.
        offset: usize,
    },
}

impl QueryOp {
    /// The SPARQL text.
    pub fn sparql(self) -> String {
        match self {
            QueryOp::Point(i) => format!("SELECT ?p ?o WHERE {{ <ds:item_{i:05}> ?p ?o }}"),
            QueryOp::Needle => "SELECT ?x ?c ?s WHERE { ?x <ds:category> ?c . ?x <ds:score> ?s . ?x <ds:flag> \"rare\" }".to_string(),
            QueryOp::Join(c) => format!(
                "SELECT ?x ?s WHERE {{ ?x <ds:category> \"cat_{c}\" . ?x <ds:score> ?s }}"
            ),
            QueryOp::Page { band, offset } => format!(
                "SELECT ?x ?s WHERE {{ ?x <ds:band> \"band_{band}\" . ?x <ds:score> ?s }} ORDER BY ?s LIMIT {PAGE} OFFSET {offset}"
            ),
        }
    }

    /// The `/query` body; pages are pinned to `epoch`.
    pub fn body(self, epoch: u64) -> String {
        let mut body = Json::object();
        body.insert("sparql", self.sparql());
        if matches!(self, QueryOp::Page { .. }) {
            body.insert("epoch", epoch as usize);
        }
        body.to_json()
    }
}

fn subject(i: usize) -> Term {
    Term::iri(format!("ds:item_{i:05}"))
}

fn pred(name: &str) -> Term {
    Term::iri(format!("ds:{name}"))
}

/// One canonical row: `var=term` pairs in variable order, the same form
/// [`canonical_rows`] makes of a response.
fn row(pairs: &[(&str, Term)]) -> String {
    let mut pairs: Vec<String> = pairs.iter().map(|(v, t)| format!("{v}={t}")).collect();
    pairs.sort();
    pairs.join("\u{1}")
}

fn sorted(mut rows: Vec<String>) -> Vec<String> {
    rows.sort();
    rows
}

/// The oracle's answer to one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// Exactly this row set (canonical, sorted).
    Rows(Vec<String>),
    /// Exactly this many rows.
    Count(usize),
}

/// Canonical sorted rows of a `/query` response body's `rows` array.
pub fn canonical_rows(json: &Json) -> Option<Vec<String>> {
    let rows = json.get("rows")?.as_array()?;
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        let mut pairs = Vec::new();
        for (var, term) in r.as_object()? {
            pairs.push(format!("{var}={}", term.as_str()?));
        }
        pairs.sort();
        out.push(pairs.join("\u{1}"));
    }
    out.sort();
    Some(out)
}

/// Checks a `/query` response against the oracle; returns the row count.
pub fn check_query(expect: &Expect, status: u16, body: &str) -> Result<usize, String> {
    if status != 200 {
        return Err(format!("query status {status}: {body}"));
    }
    let json = Json::parse(body).map_err(|e| format!("query: bad JSON: {e}"))?;
    let rows = canonical_rows(&json).ok_or_else(|| format!("query: bad rows: {body}"))?;
    match expect {
        Expect::Rows(want) if &rows == want => Ok(rows.len()),
        Expect::Count(n) if rows.len() == *n => Ok(rows.len()),
        Expect::Rows(want) => Err(format!(
            "query: wrong answer ({} rows, want {} exact rows)",
            rows.len(),
            want.len()
        )),
        Expect::Count(n) => Err(format!(
            "query: wrong answer ({} rows, want {n})",
            rows.len()
        )),
    }
}

// ---------------------------------------------------------------------
// ingest_mixed
// ---------------------------------------------------------------------

/// Documents per `/ingest/bulk` request (the default batch size, so one
/// request is one group commit).
pub const BULK_DOCS: usize = 256;

/// Surface forms the built-in entity catalog resolves, with the
/// canonical id each resolves to.
pub const ENTITIES: [(&str, &str); 20] = [
    ("IBM", "ibm"),
    ("Microsoft", "microsoft"),
    ("Google", "google"),
    ("Amazon", "amazon"),
    ("Intel", "intel"),
    ("Oracle", "oracle"),
    ("Samsung", "samsung"),
    ("Toyota", "toyota"),
    ("Siemens", "siemens"),
    ("Nestle", "nestle"),
    ("NASA", "nasa"),
    ("Germany", "germany"),
    ("France", "france"),
    ("Japan", "japan"),
    ("China", "china"),
    ("London", "london"),
    ("Paris", "paris"),
    ("Tokyo", "tokyo"),
    ("Berlin", "berlin"),
    ("Alan Turing", "alan_turing"),
];

const TEMPLATES: [&str; 6] = [
    "{A} acquired {B}. {C} praised the excellent deal.",
    "{A} praised {B}. {C} welcomed the partnership.",
    "{A} criticized {B}. {C} condemned the terrible move.",
    "Reporters in {C} said {A} and {B} signed an agreement.",
    "{A} welcomed the merger with {B}. Markets in {C} rose sharply.",
    "{A} condemned the terrible decision by {B}. Officials in {C} were disappointed.",
];

/// The seeded `ingest_mixed` corpus with its mention oracle.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Document texts, in push order (document `j` gets id `kb:doc_j`).
    pub docs: Vec<String>,
    /// Entity indexes (into [`ENTITIES`]) each document mentions, sorted.
    pub mentions: Vec<Vec<usize>>,
    /// Per entity, the documents mentioning it, ascending.
    mentioning: Vec<Vec<usize>>,
}

impl Corpus {
    /// `n` documents for `seed`, each naming three distinct entities.
    pub fn new(seed: u64, n: usize) -> Corpus {
        let mut rng = Rng::new(seed ^ 0x494E_4745_5354);
        let mut docs = Vec::with_capacity(n);
        let mut mentions = Vec::with_capacity(n);
        for _ in 0..n {
            let mut picks: Vec<usize> = Vec::with_capacity(3);
            while picks.len() < 3 {
                let e = rng.below(ENTITIES.len() as u64) as usize;
                if !picks.contains(&e) {
                    picks.push(e);
                }
            }
            let template = TEMPLATES[rng.below(TEMPLATES.len() as u64) as usize];
            docs.push(
                template
                    .replace("{A}", ENTITIES[picks[0]].0)
                    .replace("{B}", ENTITIES[picks[1]].0)
                    .replace("{C}", ENTITIES[picks[2]].0),
            );
            picks.sort_unstable();
            mentions.push(picks);
        }
        let mut mentioning = vec![Vec::new(); ENTITIES.len()];
        for (j, picks) in mentions.iter().enumerate() {
            for &e in picks {
                mentioning[e].push(j);
            }
        }
        Corpus {
            docs,
            mentions,
            mentioning,
        }
    }

    /// The documents mentioning entity `e`, ascending.
    pub fn mentioning(&self, e: usize) -> &[usize] {
        &self.mentioning[e]
    }

    /// The `/ingest/bulk` body for documents `range`.
    pub fn bulk_body(&self, range: std::ops::Range<usize>) -> String {
        let mut docs = Json::Array(Vec::new());
        for d in &self.docs[range] {
            docs.push(d.as_str());
        }
        let mut body = Json::object();
        body.insert("documents", docs);
        body.to_json()
    }

    /// Canonical rows of `SELECT ?p ?o WHERE { <kb:doc_j> ?p ?o }`.
    pub fn doc_rows(&self, j: usize) -> Vec<String> {
        let mut rows = vec![row(&[
            ("o", Term::iri("kb:Document")),
            ("p", Term::iri("rdf:type")),
        ])];
        for &e in &self.mentions[j] {
            rows.push(row(&[
                ("o", Term::iri(format!("kb:{}", ENTITIES[e].1))),
                ("p", Term::iri("kb:mentions")),
            ]));
        }
        sorted(rows)
    }
}

/// Rows the mentions query asks for at most.
pub const MENTIONS_LIMIT: usize = 20;

/// One read of the `ingest_mixed` reader client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReaderOp {
    /// `?d kb:mentions <entity> LIMIT 20`.
    Mentions(usize),
    /// Point lookup of an acknowledged document; the draw is mapped onto
    /// the acknowledged prefix when the request is sent.
    Point(u64),
}

/// Read `i` of the reader stream: half mentions queries, half point
/// lookups.
pub fn reader_op(seed: u64, i: u64) -> ReaderOp {
    let mut rng = Rng::at(seed, STREAM_READER, i);
    if rng.below(2) == 0 {
        ReaderOp::Mentions(rng.below(ENTITIES.len() as u64) as usize)
    } else {
        ReaderOp::Point(rng.next_u64())
    }
}

/// SPARQL of a mentions query.
pub fn mentions_sparql(entity: usize) -> String {
    format!(
        "SELECT ?d WHERE {{ ?d <kb:mentions> <kb:{}> }} LIMIT {MENTIONS_LIMIT}",
        ENTITIES[entity].1
    )
}

/// SPARQL of a document point lookup.
pub fn doc_sparql(j: usize) -> String {
    format!("SELECT ?p ?o WHERE {{ <kb:doc_{j}> ?p ?o }}")
}

/// A `/query` body around `sparql`.
pub fn query_body(sparql: &str) -> String {
    let mut body = Json::object();
    body.insert("sparql", sparql);
    body.to_json()
}
