//! Observability: metrics, spans, and trace export around a live agent.
//!
//! ```text
//! cargo run --release --example observability [-- <trace.json>]
//! ```
//!
//! Trains a small DQN on CartPole with an enabled [`Recorder`], then
//! prints the aggregate summary (counters, gauges, histogram
//! percentiles, span totals), the session's per-op time accounting, and
//! a Graphviz heat-map of where graph time went. Passing a path writes
//! a Chrome trace-event JSON loadable in `chrome://tracing`.

use rlgraph::prelude::*;
use rlgraph_obs::{summary, write_chrome_trace};
use rlgraph_tensor::Tensor as T;

fn main() -> rlgraph_core::Result<()> {
    let recorder = Recorder::wall();

    let config = DqnConfig {
        network: NetworkSpec::mlp(&[32], Activation::Tanh),
        memory_capacity: 5000,
        batch_size: 16,
        seed: 11,
        ..DqnConfig::default()
    };
    let mut env = CartPole::new(11, 200);
    let mut agent = DqnAgent::new(config, &env.state_space(), &env.action_space())?;
    agent.set_recorder(&recorder);

    for _episode in 0..30 {
        let mut obs = env.reset();
        loop {
            let batched = T::stack(&[obs.clone()]).expect("stack one obs");
            let action_b = agent.get_actions(batched, true)?;
            let action = action_b.unstack().expect("one action").remove(0);
            let step = env.step(&action).map_err(|e| rlgraph_core::CoreError::new(e.message()))?;
            agent.observe(
                T::stack(&[obs]).expect("batch"),
                T::stack(&[action]).expect("batch"),
                T::from_vec(vec![step.reward], &[1]).expect("shape"),
                T::stack(std::slice::from_ref(&step.obs)).expect("batch"),
                T::from_vec_bool(vec![step.terminal], &[1]).expect("shape"),
            )?;
            agent.update()?;
            obs = step.obs;
            if step.terminal {
                break;
            }
        }
    }

    println!("{}", summary(&recorder));

    // The static session keeps its per-op / per-device accounting
    // regardless of the recorder (same numbers `Session::stats()` always
    // reported).
    let exec = agent.executor_mut();
    if let Some(static_exec) = exec.as_static() {
        let stats = static_exec.session().stats();
        let mut ops: Vec<_> = stats.per_op_time_us.iter().collect();
        ops.sort_by(|a, b| b.1.cmp(a.1));
        println!("== top ops by session time ==");
        for (name, us) in ops.iter().take(8) {
            println!("{name:<44} {us:>10} us");
        }
        let dot = rlgraph_core::dot::graph_to_dot_profiled(
            static_exec.session().graph(),
            "dqn_profiled",
            Some(&static_exec.session().node_profile()),
        );
        println!("\nprofiled DOT export: {} bytes (red = hot nodes)", dot.len());
    }

    if let Some(path) = std::env::args().nth(1) {
        let path = std::path::PathBuf::from(path);
        write_chrome_trace(&recorder, &path)
            .map_err(|e| rlgraph_core::CoreError::new(format!("write trace: {e}")))?;
        println!("wrote Chrome trace to {}", path.display());
    }
    Ok(())
}
