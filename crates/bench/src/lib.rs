//! Shared utilities for the figure-regeneration harness.
//!
//! Each `fig*` binary regenerates one figure of the paper's evaluation
//! (§5). Scaling figures (6, 9) *measure* real per-task costs on this
//! machine and replay the coordination at scale on the calibrated
//! discrete-event simulators from `rlgraph-sim` (see DESIGN.md §2 for the
//! substitution rationale). Figures 5a/5b/7a are direct measurements;
//! figures 7b/8 run real training against a virtual clock.

use std::time::{Duration, Instant};

/// Runs `f` once for warm-up, then `runs` times, returning the mean
/// duration per run.
pub fn measure<F: FnMut()>(mut f: F, warmup: usize, runs: usize) -> Duration {
    for _ in 0..warmup {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..runs.max(1) {
        f();
    }
    t0.elapsed() / runs.max(1) as u32
}

/// Prints a TSV header line.
pub fn tsv_header(columns: &[&str]) {
    println!("{}", columns.join("\t"));
}

/// Prints one TSV row.
pub fn tsv_row(values: &[String]) {
    println!("{}", values.join("\t"));
}

/// Formats a duration as fractional milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Parses an optional `--trace <path>` (or `--trace=<path>`) flag from the
/// process arguments. The scaling binaries use it to dump a Chrome
/// trace-event JSON of the simulated cluster run.
pub fn trace_arg() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace" {
            return args.next().map(Into::into);
        }
        if let Some(p) = a.strip_prefix("--trace=") {
            return Some(p.into());
        }
    }
    None
}

/// Runs a traced Ape-X simulation on a virtual clock and returns the
/// Chrome trace-event JSON (worker/shard/learner spans in simulated time).
pub fn apex_sim_chrome_trace(params: &rlgraph_sim::ApexSimParams) -> String {
    let (rec, vt) = rlgraph_obs::Recorder::virtual_time();
    let _ = rlgraph_sim::simulate_apex_traced(params, &rec, Some(&vt));
    rlgraph_obs::chrome_trace(&rec)
}

/// Runs a traced IMPALA simulation on a virtual clock and returns the
/// Chrome trace-event JSON (actor/learner spans plus queue-depth series).
pub fn impala_sim_chrome_trace(params: &rlgraph_sim::ImpalaSimParams) -> String {
    let (rec, vt) = rlgraph_obs::Recorder::virtual_time();
    let _ = rlgraph_sim::simulate_impala_traced(params, &rec, Some(&vt));
    rlgraph_obs::chrome_trace(&rec)
}

/// The small convolutional policy used by the act-throughput benchmarks
/// (3 conv layers + dueling head, the paper's Fig. 5b architecture scaled
/// to the GridPong raster).
pub fn pong_conv_network() -> rlgraph_nn::NetworkSpec {
    use rlgraph_nn::{Activation, LayerSpec, NetworkSpec};
    NetworkSpec::new(vec![
        LayerSpec::Conv2d {
            filters: 8,
            kernel: 4,
            stride: 2,
            padding: 1,
            activation: Activation::Relu,
        },
        LayerSpec::Conv2d {
            filters: 16,
            kernel: 4,
            stride: 2,
            padding: 1,
            activation: Activation::Relu,
        },
        LayerSpec::Conv2d {
            filters: 16,
            kernel: 3,
            stride: 1,
            padding: 1,
            activation: Activation::Relu,
        },
        LayerSpec::Flatten,
        LayerSpec::Dense { units: 64, activation: Activation::Relu },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_mean() {
        let d = measure(|| std::thread::sleep(Duration::from_millis(2)), 1, 3);
        assert!(d >= Duration::from_millis(1));
        assert!(d < Duration::from_millis(50));
    }

    #[test]
    fn ms_formats() {
        assert_eq!(ms(Duration::from_millis(1)), "1.000");
    }

    #[test]
    fn apex_sim_trace_has_valid_chrome_shape() {
        use rlgraph_obs::json;
        use std::collections::HashMap;
        let params = rlgraph_sim::ApexSimParams {
            num_workers: 2,
            num_shards: 1,
            duration: 5.0,
            ..Default::default()
        };
        let trace = apex_sim_chrome_trace(&params);
        let v = json::parse(&trace).expect("trace must be valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_arr()).expect("traceEvents array");
        assert!(!events.is_empty());
        let mut saw_complete = false;
        let mut saw_counter = false;
        let mut saw_thread_name = false;
        let mut last_ts: HashMap<i64, f64> = HashMap::new();
        for ev in events {
            let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph");
            match ph {
                "X" => {
                    saw_complete = true;
                    let tid = ev.get("tid").and_then(|t| t.as_num()).expect("tid") as i64;
                    let ts = ev.get("ts").and_then(|t| t.as_num()).expect("ts");
                    assert!(ev.get("dur").and_then(|d| d.as_num()).expect("dur") >= 0.0);
                    let last = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
                    assert!(ts >= *last, "ts not monotone on tid {tid}: {ts} < {last}");
                    *last = ts;
                }
                "C" => saw_counter = true,
                "M" if ev.get("name").and_then(|n| n.as_str()) == Some("thread_name") => {
                    saw_thread_name = true;
                }
                _ => {}
            }
        }
        assert!(saw_complete, "simulated run must emit complete spans");
        assert!(saw_counter, "frames/updates counter series expected");
        assert!(saw_thread_name, "track metadata expected");
        for name in ["collect", "train", "insert", "sample"] {
            assert!(trace.contains(&format!("\"{name}\"")), "missing span {name}");
        }
    }

    #[test]
    fn impala_sim_trace_parses_and_names_tracks() {
        use rlgraph_obs::json;
        let params =
            rlgraph_sim::ImpalaSimParams { num_actors: 3, duration: 5.0, ..Default::default() };
        let trace = impala_sim_chrome_trace(&params);
        let v = json::parse(&trace).expect("trace must be valid JSON");
        assert!(v.get("traceEvents").and_then(|e| e.as_arr()).is_some());
        assert!(trace.contains("actor-0"));
        assert!(trace.contains("\"rollout\""));
        assert!(trace.contains("queue_depth"));
    }
}
