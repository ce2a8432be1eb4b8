//! Runs every workload through both passes with windows of seconds and
//! holds the output, the binary's catalogue and `BENCHMARK.json` to
//! each other.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_benchmark");

fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(BIN).args(args).output().expect("run the benchmark binary");
    assert!(
        out.status.success(),
        "benchmark {args:?} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The string value of `"key": "value"` or number of `"key": 1.5`
/// inside one flat JSON object.
fn field(object: &str, key: &str) -> Option<String> {
    let rest = &object[object.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let rest = rest.trim_start();
    Some(match rest.strip_prefix('"') {
        Some(s) => s[..s.find('"')?].to_string(),
        None => rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim().to_string(),
    })
}

/// The flat objects of the array under `section` in `BENCHMARK.json`.
fn section<'a>(json: &'a str, section: &str) -> Vec<&'a str> {
    let start = json.find(&format!("\"{section}\":")).expect("section present");
    let array = &json[start..start + json[start..].find(']').expect("array closes")];
    array.split('{').skip(1).map(|o| &o[..o.find('}').expect("object closes")]).collect()
}

/// Metric names of a result line, checked for shape on the way.
fn metric_names(line: &str) -> BTreeSet<String> {
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "unexpected result: {line}");
    // every piece but the last ends with the name of the metric whose
    // value opens the next piece
    let mut pieces: Vec<&str> = line.split("\": {\"value\": ").collect();
    pieces.pop();
    pieces.iter().filter_map(|p| p.rsplit('"').next()).map(str::to_string).collect()
}

#[test]
fn output_catalogue_and_benchmark_json_agree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let json = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let named = |s: &str| -> Vec<String> {
        section(&json, s).iter().map(|o| field(o, "name").expect("name")).collect()
    };
    let (workloads, end_to_end, per_layer) =
        (named("workloads"), named("end_to_end"), named("per_layer"));

    // the binary's own catalogue, field by field
    let mut expected = Vec::new();
    for o in section(&json, "workloads") {
        let f = |k| field(o, k).expect("workload field");
        expected.push(format!("workload {} {}", f("name"), f("why")));
    }
    for o in section(&json, "end_to_end") {
        let f = |k| field(o, k).expect("end_to_end field");
        expected.push(format!(
            "end_to_end {} {} {} {}",
            f("name"),
            f("unit"),
            f("better"),
            f("bound")
        ));
    }
    for o in section(&json, "per_layer") {
        let f = |k| field(o, k).expect("per_layer field");
        expected.push(format!("per_layer {} {}", f("name"), f("unit")));
    }
    let catalogue = stdout_of(&["--catalogue"]);
    assert_eq!(catalogue.lines().collect::<Vec<_>>(), expected, "catalogue != BENCHMARK.json");

    for name in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(!name.is_empty() && name.chars().all(ok), "bad name {name:?}");
    }

    // every workload emits exactly the listed metrics, in both passes
    for w in &workloads {
        // the traced pass measures two quarters of its window, and a
        // debug build needs most of a second for one IMPALA update
        for (trace, seconds, listed) in [("0", "1", &end_to_end), ("1", "4", &per_layer)] {
            let args = ["--quick", "--seconds", seconds, "--workload", w, "--seed", "5"];
            let out = stdout_of(&[&args[..], &["--trace", trace]].concat());
            let emitted = metric_names(out.lines().last().expect("a result line"));
            let listed: BTreeSet<String> = listed.iter().cloned().collect();
            assert_eq!(emitted, listed, "{w} --trace {trace}");
        }
    }
}

#[test]
fn sources_call_only_api_the_roadmap_keeps() {
    // spelled in halves so this file passes its own check
    let forbidden = [
        ["run_apex_", "legacy"],
        ["run_impala_", "legacy"],
        ["Transport", "::"],
        ["set_plain", "_wire"],
        ["_ali", "ased"],
    ]
    .map(|halves| halves.concat());
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    for entry in std::fs::read_dir(src).expect("src directory") {
        let path = entry.expect("directory entry").path();
        let text = std::fs::read_to_string(&path).expect("source file");
        for ident in &forbidden {
            assert!(!text.contains(ident.as_str()), "{} uses {ident}", path.display());
        }
    }
}
