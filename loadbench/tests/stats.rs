//! The order statistics and the result line every run prints.

use cogsdk_json::Json;
use cogsdk_loadbench::stats::{metric, quantile, Hist, Outcome};

#[test]
fn histogram_quantiles_match_exact_ones_within_a_bucket() {
    let values: Vec<f64> = (1..=100_000).map(|i| 10.0 + f64::from(i) * 0.37).collect();
    let mut a = Hist::default();
    let mut b = Hist::default();
    for (i, &v) in values.iter().enumerate() {
        if i % 3 == 0 {
            a.add(v)
        } else {
            b.add(v)
        }
    }
    a.merge(&b);
    assert_eq!(a.count(), 100_000);
    for q in [0.5, 0.9, 0.99] {
        let exact = quantile(&values, q);
        let approx = a.quantile(q);
        assert!(
            (approx / exact - 1.0).abs() < 1e-3,
            "q{q}: {approx} vs {exact}"
        );
    }
    assert_eq!(Hist::default().median(), 0.0);
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let mut out = Outcome::default();
    assert_eq!(out.record::<()>(Ok(())), Some(()));
    assert_eq!(out.record::<()>(Err("wrong rows".into())), None);
    out.metrics = vec![
        metric("req_p50_ms", "ms", 0.25),
        metric("setup_s", "s", f64::NAN),
    ];
    let json = Json::parse(&out.json_line()).unwrap();
    let keys: Vec<&str> = json
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(json.get("correct").and_then(Json::as_bool), Some(false));
    assert_eq!(json.get("attempted").and_then(Json::as_usize), Some(2));
    assert_eq!(json.get("failed").and_then(Json::as_usize), Some(1));
    assert_eq!(
        json.pointer("/metrics/req_p50_ms/unit")
            .and_then(Json::as_str),
        Some("ms")
    );
    // A value that is not a number is never printed as one JSON rejects.
    assert!(json
        .pointer("/metrics/setup_s/value")
        .and_then(Json::as_f64)
        .is_some());
}
