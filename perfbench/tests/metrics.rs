//! The metric names, units and directions the benchmark prints must be
//! exactly the ones `BENCHMARK.json` declares, in the same order.

use roccc_perfbench::report::{render, Header, Report, END_TO_END, PER_LAYER};

/// `(name, unit, better)` of every metric object in one section of
/// `BENCHMARK.json` (a flat list of one-line objects).
fn declared(section: &str) -> Vec<(String, String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |obj: &str, key: &str| -> String {
        let k = format!("\"{key}\": \"");
        let i = obj
            .find(&k)
            .unwrap_or_else(|| panic!("{key} missing in {obj}"))
            + k.len();
        obj[i..i + obj[i..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
        .collect()
}

/// `(name, unit)` pairs in the JSON result line of a rendered report.
fn printed(trace: bool) -> Vec<(String, String)> {
    let out = render(
        &Header {
            workload: "certify",
            seed: 1,
            seconds: 1.0,
            trace,
        },
        &Report::default(),
    );
    let last = out.lines().last().expect("result line");
    let metrics = &last[last.find("\"metrics\"").expect("metrics key")..];
    metrics
        .split("{\"value\"")
        .zip(metrics.split("\"unit\": \"").skip(1))
        .map(|(head, unit)| {
            let name = head
                .trim_end_matches(": ")
                .rsplit('"')
                .nth(1)
                .expect("name");
            (
                name.to_string(),
                unit[..unit.find('"').expect("unit end")].to_string(),
            )
        })
        .collect()
}

#[test]
fn end_to_end_metrics_match_benchmark_json() {
    let want: Vec<(String, String, String)> = END_TO_END
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
        .collect();
    assert_eq!(declared("end_to_end"), want);
    let names: Vec<(String, String)> = want.into_iter().map(|(n, u, _)| (n, u)).collect();
    assert_eq!(printed(false), names);
}

#[test]
fn per_layer_metrics_match_benchmark_json() {
    let want: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    let got: Vec<(String, String)> = declared("per_layer")
        .into_iter()
        .map(|(n, u, _)| (n, u))
        .collect();
    assert_eq!(got, want);
    assert_eq!(printed(true), want);
}
