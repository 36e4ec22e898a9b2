//! Toy-scale smoke runs of every workload, untraced and traced: each run
//! passes every correctness check and its JSON line carries exactly the
//! metrics `BENCHMARK.json` names, with the units it names.

use std::path::PathBuf;

use e2ebench::{run, Args, Scale, Workload};

/// `(name, unit)` of every metric listed under `key` in BENCHMARK.json.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let json = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let list = json
        .as_object()
        .and_then(|o| o.get(key))
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"));
    list.iter()
        .map(|m| {
            let o = m.as_object().expect("metric entry is an object");
            let field = |f: &str| o.get(f).and_then(|v| v.as_str()).unwrap().to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric in a JSON result line.
fn emitted(line: &str) -> Vec<(String, String)> {
    let json = serde_json::from_str(line).expect("result line parses");
    let metrics = json
        .as_object()
        .and_then(|o| o.get("metrics"))
        .and_then(|m| m.as_object())
        .expect("metrics object");
    metrics
        .iter()
        .map(|(name, v)| {
            let unit = v
                .as_object()
                .and_then(|o| o.get("unit"))
                .and_then(|u| u.as_str())
                .unwrap();
            (name.clone(), unit.to_owned())
        })
        .collect()
}

fn smoke(workload: Workload, trace: bool) {
    let args = Args {
        workload,
        seed: 7,
        seconds: 0.6,
        trace,
        scale: Scale::toy(),
        root: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "smoke-{}-{}",
            workload.name(),
            u8::from(trace)
        )),
        exe: PathBuf::from(env!("CARGO_BIN_EXE_e2ebench")),
    };
    let outcome = run(&args).expect("run completes");
    for c in &outcome.checks {
        assert!(
            c.passed,
            "{}: check {} failed: {}",
            workload.name(),
            c.name,
            c.detail
        );
    }
    assert!(outcome.correct(), "{}", outcome.render());
    assert!(outcome.attempted > 0);
    assert_eq!(outcome.failed, 0);
    let line = outcome.json();
    let mut got = emitted(&line);
    let mut want = declared(if trace { "per_layer" } else { "end_to_end" });
    got.sort();
    want.sort();
    assert_eq!(got, want, "{} trace={trace}", workload.name());
    // The report prints every end-to-end metric with its sample count.
    let report = outcome.render();
    let kind = if trace { "traced" } else { "metric" };
    for (name, unit) in declared("end_to_end") {
        let line = report
            .lines()
            .find(|l| l.starts_with(&format!("{kind} {name} ")))
            .unwrap_or_else(|| panic!("{name} missing from the report"));
        assert!(line.contains(&format!(" {unit} n=")), "{line}");
    }
    if !trace {
        let values = serde_json::from_str(&line).unwrap();
        let metrics = values.as_object().unwrap().get("metrics").unwrap();
        for (name, _) in declared("end_to_end") {
            let v = metrics.as_object().unwrap().get(&name).unwrap();
            let value = v.as_object().unwrap().get("value").unwrap();
            assert!(
                value.as_f64().is_some_and(|x| x > 0.0),
                "{name} must be positive, got {value:?}"
            );
        }
    }
}

#[test]
fn cached_read_smoke() {
    smoke(Workload::CachedRead, false);
    smoke(Workload::CachedRead, true);
}

#[test]
fn origin_query_smoke() {
    smoke(Workload::OriginQuery, false);
    smoke(Workload::OriginQuery, true);
}

#[test]
fn replicated_write_smoke() {
    smoke(Workload::ReplicatedWrite, false);
    smoke(Workload::ReplicatedWrite, true);
}
