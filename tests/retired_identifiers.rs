//! The second generation of the distributed layer — the hand-woven
//! drivers, the metric aliases that fanned `frag.<stage>.*` out to their
//! names — is retired, and so is the wire's capability negotiation (the
//! downgrade latches for peers older than this build, of which there are
//! none) with the simulator's private chaos model, and the five
//! private-stopwatch bench binaries the repo benchmark superseded, with
//! their result files, baseline script and env knob; and the second
//! Ape-X graph declaration, the driver configs' reader-less read-side
//! view and the mux server's private error-response encoder, which the
//! shared call layer and Ape-X parts replaced. This fails if an
//! identifier of any of them comes back in a source file under
//! `crates/*/src`, `examples/` or `tests/`, in a script, or in a document
//! that describes the repo as it is (`CHANGES.md`, `CHANGELOG.md` and
//! `ROADMAP.md` record history and are not read).

use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn retired_identifiers_stay_retired() {
    // spelled in halves so this file passes its own check
    let retired = [
        ["_leg", "acy"],
        ["_ali", "ased"],
        ["legacy", "_alias"],
        ["set_plain", "_wire"],
        ["CAP_CODEC", "_V2"],
        ["LOCAL", "_CAPS"],
        ["caps_", "confirmed"],
        ["probe_", "rejected"],
        ["v2", "_ok"],
        ["get_weights", "_v1"],
        ["encode_frame_", "negotiated"],
        ["simulate_apex", "_chaos"],
        ["obs_", "bench"],
        ["codec_", "bench"],
        ["net_", "bench"],
        ["kernel_", "bench"],
        ["serve_", "throughput"],
        ["bench_seed", "_gemm"],
        ["RLGRAPH_SEED", "_GEMM_MS"],
        ["BENCH_", "obs.json"],
        ["BENCH_", "codec.json"],
        ["BENCH_", "net.json"],
        ["BENCH_", "kernels.json"],
        ["net_apex", "_graph"],
        ["Driver", "Common"],
        ["encode_error", "_response"],
    ]
    .map(|h| h.concat());

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates directory") {
        rust_files(&krate.expect("directory entry").path().join("src"), &mut files);
    }
    rust_files(&root.join("examples"), &mut files);
    rust_files(&root.join("tests"), &mut files);
    assert!(files.len() > 100, "the walk found only {} files", files.len());
    for script in std::fs::read_dir(root.join("scripts")).expect("scripts directory") {
        files.push(script.expect("directory entry").path());
    }
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"] {
        files.push(root.join(doc));
    }

    for path in &files {
        let text = std::fs::read_to_string(path).expect("source file");
        for ident in &retired {
            assert!(!text.contains(ident.as_str()), "{} uses {ident}", path.display());
        }
    }
}

/// The tensor kernels address their operands through `shape::Walk` — one
/// odometer per op, contiguous inner runs — not by decomposing every flat
/// index (a divide and a modulo per axis and an allocation per element).
/// One arm of one kernel still does, the broadcast in `zip_f32` that is
/// neither same-shape, suffix nor scalar (ROADMAP item 1(g) says why it
/// goes in a change of its own): the list below may only shrink. The
/// suffix test and per-element modulo that `zip_f32` used before the walk
/// stay gone.
#[test]
fn kernels_do_not_decompose_indices_per_element() {
    const NOT_YET_ROUTED: [(&str, &str); 1] = [("elementwise.rs", "zip_f32")];
    const GONE: [&str; 2] = ["is_suffix", "% lane"];
    let kernels = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/rlgraph-tensor/src/kernels");
    let mut files = Vec::new();
    rust_files(&kernels, &mut files);
    assert!(files.len() >= 10, "the walk found only {} kernel files", files.len());
    let call = ["unrav", "el("].concat();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("source file");
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        let allowed = NOT_YET_ROUTED.iter().filter(|(file, _)| *file == name).count();
        assert_eq!(
            text.matches(&call).count(),
            allowed,
            "{} calls {call}; only {NOT_YET_ROUTED:?} may, once each",
            path.display()
        );
        for gone in GONE {
            assert!(!text.contains(gone), "{} brings back `{gone}`", path.display());
        }
    }
}

/// A source file's text up to its `#[cfg(test)]` module.
fn non_test_source(path: &Path) -> String {
    let text = std::fs::read_to_string(path).expect("source file");
    text.split("#[cfg(test)]\nmod ").next().unwrap_or_default().to_string()
}

/// What differs between the two RPC stacks is how I/O is scheduled, and
/// between the three Ape-X drivers clock, transport and fault model; the
/// call protocol and the Ape-X recipe each have one definition below
/// those forks (DESIGN.md §11, §15). This counts the tokens a second
/// copy cannot be written without, in `crates/*/src` outside test
/// modules (the benchmark is its own program): the trace-context and
/// error codecs are called from `call.rs` alone, the frame magic is
/// compared in one function, and the replica-seed stride and the
/// shard-seed offset are each written once.
#[test]
fn protocol_and_recipe_are_written_once() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates directory") {
        let krate = krate.expect("directory entry").path();
        if krate.file_name().is_some_and(|n| n != "benchmark") {
            rust_files(&krate.join("src"), &mut files);
        }
    }
    assert!(files.len() > 100, "the walk found only {} files", files.len());
    let sources: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|path| {
            let text = non_test_source(&path);
            (path, text)
        })
        .collect();

    let codec_calls = [
        ["put_trace", "_context("],
        ["get_trace", "_context("],
        ["put_rl", "_error("],
        ["get_rl", "_error("],
    ]
    .map(|h| h.concat());
    let callers: Vec<&Path> = sources
        .iter()
        .filter(|(path, text)| {
            !path.ends_with("rlgraph-reactor/src/codec.rs")
                && codec_calls.iter().any(|call| text.contains(call.as_str()))
        })
        .map(|(path, _)| path.as_path())
        .collect();
    assert!(
        matches!(callers[..], [one] if one.ends_with("rlgraph-reactor/src/call.rs")),
        "the payload codecs are called from {callers:?}; only the call layer may"
    );

    let once = [
        (["!= MA", "GIC"].concat(), "the frame magic is compared"),
        (["79", "19"].concat(), "the replica-seed stride is written"),
        (["wrapping_add(10", "00"].concat(), "the shard-seed offset is written"),
    ];
    for (token, what) in &once {
        let sites: Vec<String> = sources
            .iter()
            .flat_map(|(path, text)| {
                text.match_indices(token.as_str()).map(move |_| path.display().to_string())
            })
            .collect();
        assert_eq!(sites.len(), 1, "{what} at {sites:?}; one definition, below the fork");
    }
}
