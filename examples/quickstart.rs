//! Quickstart: a dueling double-DQN learns CartPole.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Demonstrates the paper's agent API (Listing 2): `get_actions`,
//! `observe`, `update` — each served by a single backend call — plus the
//! declarative JSON configuration style (§3.4).

use rlgraph::prelude::*;
use rlgraph_tensor::Tensor as T;

fn main() -> rlgraph_core::Result<()> {
    // The paper's declarative JSON agent configuration.
    let config = DqnConfig::from_json(
        r#"{
            "backend": "static",
            "network": {"layers": [
                {"type": "dense", "units": 64, "activation": "tanh"},
                {"type": "dense", "units": 64, "activation": "tanh"}
            ]},
            "dueling": true,
            "double": true,
            "memory_capacity": 20000,
            "batch_size": 32,
            "gamma": 0.99,
            "optimizer": {"type": "adam", "lr": 0.001, "beta1": 0.9,
                           "beta2": 0.999, "epsilon": 1e-8},
            "epsilon": {"start": 1.0, "end": 0.02, "decay_steps": 4000},
            "target_sync_every": 100,
            "seed": 7
        }"#,
    )?;

    let mut env = CartPole::new(7, 200);
    let mut agent = DqnAgent::new(config, &env.state_space(), &env.action_space())?;
    let report = agent.build_report();
    println!(
        "built DQN: {} components ({} touched), {} graph nodes, {} variables",
        report.num_components,
        report.num_components_touched,
        report.num_nodes,
        report.num_variables
    );
    println!(
        "build overhead: trace {:.1} ms + build {:.1} ms",
        report.assemble_time.as_secs_f64() * 1e3,
        report.build_time.as_secs_f64() * 1e3
    );

    let mut returns: Vec<f32> = Vec::new();
    for episode in 0..300 {
        let mut obs = env.reset();
        let mut ep_return = 0.0;
        loop {
            let batched = T::stack(&[obs.clone()]).expect("stack one obs");
            let action_b = agent.get_actions(batched, true)?;
            let action = action_b.unstack().expect("one action").remove(0);
            let step = env.step(&action).map_err(|e| rlgraph_core::CoreError::new(e.message()))?;
            ep_return += step.reward;
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
        returns.push(ep_return);
        if (episode + 1) % 25 == 0 {
            let recent: f32 =
                returns.iter().rev().take(25).sum::<f32>() / returns.len().min(25) as f32;
            println!("episode {:>4}  mean return (last 25): {:>6.1}", episode + 1, recent);
            if recent > 150.0 {
                println!("solved — mean return above 150");
                break;
            }
        }
    }
    let tail = &returns[returns.len().saturating_sub(25)..];
    let final_mean: f32 = tail.iter().sum::<f32>() / tail.len() as f32;
    println!("final mean return: {:.1} over {} episodes", final_mean, returns.len());
    Ok(())
}
