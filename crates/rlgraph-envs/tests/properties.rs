//! Property tests on environment invariants.

use proptest::prelude::*;
use rlgraph_envs::{CartPole, Env, GridPong, GridPongConfig, PongObs, VectorEnv};
use rlgraph_tensor::Tensor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// GridPong observations always belong to the declared state space,
    /// under any action sequence and configuration.
    #[test]
    fn pong_observations_stay_in_space(
        seed in 0u64..500,
        pixels in any::<bool>(),
        actions in prop::collection::vec(0i64..3, 1..80),
    ) {
        let mut env = GridPong::new(GridPongConfig {
            seed,
            obs: if pixels { PongObs::Pixels } else { PongObs::Vector },
            points_to_win: 3,
            ..Default::default()
        });
        let space = env.state_space();
        let mut obs = env.reset();
        prop_assert!(space.contains(&obs.clone().into()));
        for a in actions {
            let step = env.step(&Tensor::scalar_i64(a)).unwrap();
            obs = step.obs;
            prop_assert!(space.contains(&obs.clone().into()), "obs left the space");
            prop_assert!(step.reward.abs() <= 3.0, "reward {} out of range", step.reward);
            if step.terminal {
                break;
            }
        }
    }

    /// Points are conserved: total |reward| equals the score delta.
    #[test]
    fn pong_rewards_match_score(seed in 0u64..500) {
        let mut env = GridPong::new(GridPongConfig {
            seed,
            obs: PongObs::Vector,
            points_to_win: 3,
            ..Default::default()
        });
        env.reset();
        let mut plus = 0u32;
        let mut minus = 0u32;
        for i in 0..3000 {
            let step = env.step(&Tensor::scalar_i64(i % 3)).unwrap();
            if step.reward > 0.0 {
                plus += step.reward as u32;
            } else if step.reward < 0.0 {
                minus += (-step.reward) as u32;
            }
            if step.terminal {
                break;
            }
        }
        let (agent, opponent) = env.score();
        prop_assert_eq!(agent, plus);
        prop_assert_eq!(opponent, minus);
    }

    /// CartPole state stays finite for any bounded action sequence.
    #[test]
    fn cartpole_state_finite(seed in 0u64..500, actions in prop::collection::vec(0i64..2, 1..200)) {
        let mut env = CartPole::new(seed, 500);
        let obs = env.reset();
        prop_assert!(obs.as_f32().unwrap().iter().all(|v| v.is_finite()));
        for a in actions {
            let step = env.step(&Tensor::scalar_i64(a)).unwrap();
            prop_assert!(step.obs.as_f32().unwrap().iter().all(|v| v.is_finite()));
            if step.terminal {
                break;
            }
        }
    }

    /// Vector env frame accounting equals steps × envs × frame_skip.
    #[test]
    fn vector_env_frame_accounting(n_envs in 1usize..5, steps in 1usize..30, seed in 0u64..100) {
        let mut v = VectorEnv::from_factory(n_envs, |i| {
            Box::new(GridPong::new(GridPongConfig {
                seed: seed + i as u64,
                obs: PongObs::Vector,
                points_to_win: 1_000_000,
                ..Default::default()
            }))
        })
        .unwrap();
        v.reset_all();
        let skip = 4u64; // default frame skip
        for _ in 0..steps {
            let actions: Vec<Tensor> = (0..n_envs).map(|_| Tensor::scalar_i64(1)).collect();
            v.step(&actions).unwrap();
        }
        prop_assert_eq!(v.stats().env_frames, (steps * n_envs) as u64 * skip);
    }
}
