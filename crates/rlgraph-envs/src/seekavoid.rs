//! SeekAvoid: a DM-Lab `seekavoid_arena_01` analogue.
//!
//! An agent with a heading moves in a 2-D arena collecting good apples
//! (+1) while avoiding bad balloons (-1). Observations are a ray-cast
//! first-person view — `[3, rays]` channels (wall depth, good-item signal,
//! bad-item signal) — whose rendering cost scales with `render_cost`, the
//! knob that reproduces the paper's "more expensive to render than Atari
//! tasks" regime for the IMPALA throughput comparison (Fig. 9).

use crate::env::{Env, EnvStep};
use crate::EnvError;
use rand::RngExt as _;
use rand::SeedableRng;
use rlgraph_spaces::Space;
use rlgraph_tensor::Tensor;

/// SeekAvoid configuration.
#[derive(Debug, Clone)]
pub struct SeekAvoidConfig {
    /// number of good pickups
    pub num_good: usize,
    /// number of bad pickups
    pub num_bad: usize,
    /// rays in the first-person view
    pub rays: usize,
    /// extra render iterations per frame (cost knob)
    pub render_cost: usize,
    /// episode step cap
    pub max_steps: u32,
    /// frames per step
    pub frame_skip: usize,
    /// RNG seed (item placement)
    pub seed: u64,
}

impl Default for SeekAvoidConfig {
    fn default() -> Self {
        SeekAvoidConfig {
            num_good: 6,
            num_bad: 4,
            rays: 24,
            render_cost: 4,
            max_steps: 600,
            frame_skip: 4,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Item {
    x: f32,
    y: f32,
    good: bool,
    taken: bool,
}

/// The SeekAvoid environment. Actions: 0 = forward, 1 = turn left,
/// 2 = turn right, 3 = back.
#[derive(Debug)]
pub struct SeekAvoid {
    cfg: SeekAvoidConfig,
    rng: rand::rngs::StdRng,
    x: f32,
    y: f32,
    heading: f32,
    items: Vec<Item>,
    steps: u32,
    done: bool,
}

const PICKUP_RADIUS: f32 = 0.08;
const MOVE_SPEED: f32 = 0.035;
const TURN_SPEED: f32 = 0.35;
const FOV: f32 = 1.6; // radians

impl SeekAvoid {
    /// Creates a SeekAvoid arena with the given configuration.
    pub fn new(cfg: SeekAvoidConfig) -> Self {
        let rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        let mut env = SeekAvoid {
            rng,
            x: 0.5,
            y: 0.5,
            heading: 0.0,
            items: Vec::new(),
            steps: 0,
            done: true,
            cfg,
        };
        env.scatter_items();
        env
    }

    /// Remaining (good, bad) pickups.
    pub fn remaining(&self) -> (usize, usize) {
        let good = self.items.iter().filter(|i| i.good && !i.taken).count();
        let bad = self.items.iter().filter(|i| !i.good && !i.taken).count();
        (good, bad)
    }

    fn scatter_items(&mut self) {
        self.items.clear();
        for k in 0..self.cfg.num_good + self.cfg.num_bad {
            let x: f32 = self.rng.random_range(0.1..0.9);
            let y: f32 = self.rng.random_range(0.1..0.9);
            self.items.push(Item { x, y, good: k < self.cfg.num_good, taken: false });
        }
    }

    /// Ray-cast render: per ray, distance to the wall plus signals for the
    /// nearest visible good/bad item. `render_cost` repeats the march to
    /// simulate expensive 3-D rendering.
    fn render(&self) -> Tensor {
        let rays = self.cfg.rays;
        let mut depth = vec![0.0f32; rays];
        let mut good_sig = vec![0.0f32; rays];
        let mut bad_sig = vec![0.0f32; rays];
        for r in 0..rays {
            let angle = self.heading - FOV / 2.0 + FOV * r as f32 / (rays.max(2) - 1) as f32;
            let (dx, dy) = (angle.cos(), angle.sin());
            // Repeat the march `render_cost` times (cost knob): each pass
            // recomputes the same result, mimicking heavier shading.
            for _pass in 0..self.cfg.render_cost.max(1) {
                let mut t = 0.0f32;
                let mut wall = 1.0f32;
                let mut g = 0.0f32;
                let mut b = 0.0f32;
                while t < 1.5 {
                    let px = self.x + dx * t;
                    let py = self.y + dy * t;
                    if !(0.0..=1.0).contains(&px) || !(0.0..=1.0).contains(&py) {
                        wall = t;
                        break;
                    }
                    for item in &self.items {
                        if item.taken {
                            continue;
                        }
                        let d2 = (item.x - px).powi(2) + (item.y - py).powi(2);
                        if d2 < PICKUP_RADIUS * PICKUP_RADIUS {
                            let sig = (1.5 - t).max(0.0) / 1.5;
                            if item.good {
                                g = g.max(sig);
                            } else {
                                b = b.max(sig);
                            }
                        }
                    }
                    t += 0.02;
                }
                depth[r] = wall;
                good_sig[r] = g;
                bad_sig[r] = b;
            }
        }
        let mut data = depth;
        data.extend(good_sig);
        data.extend(bad_sig);
        Tensor::from_vec(data, &[3, rays]).expect("render shape consistent")
    }

    fn physics(&mut self, action: i64) -> f32 {
        match action {
            0 => {
                self.x = (self.x + self.heading.cos() * MOVE_SPEED).clamp(0.02, 0.98);
                self.y = (self.y + self.heading.sin() * MOVE_SPEED).clamp(0.02, 0.98);
            }
            1 => self.heading -= TURN_SPEED,
            2 => self.heading += TURN_SPEED,
            3 => {
                self.x = (self.x - self.heading.cos() * MOVE_SPEED).clamp(0.02, 0.98);
                self.y = (self.y - self.heading.sin() * MOVE_SPEED).clamp(0.02, 0.98);
            }
            _ => {}
        }
        let mut reward = 0.0;
        for item in &mut self.items {
            if item.taken {
                continue;
            }
            let d2 = (item.x - self.x).powi(2) + (item.y - self.y).powi(2);
            if d2 < PICKUP_RADIUS * PICKUP_RADIUS {
                item.taken = true;
                reward += if item.good { 1.0 } else { -1.0 };
            }
        }
        reward
    }
}

impl Env for SeekAvoid {
    fn state_space(&self) -> Space {
        Space::float_box_bounded(&[3, self.cfg.rays], 0.0, 1.5)
    }

    fn action_space(&self) -> Space {
        Space::int_box(4)
    }

    fn reset(&mut self) -> Tensor {
        self.x = 0.5;
        self.y = 0.5;
        self.heading = 0.0;
        self.steps = 0;
        self.done = false;
        self.scatter_items();
        self.render()
    }

    fn step(&mut self, action: &Tensor) -> crate::Result<EnvStep> {
        if self.done {
            return Err(EnvError::new("step called on a finished episode; call reset"));
        }
        let a = action.scalar_value_i64().map_err(|e| EnvError::new(e.message()))?;
        if !(0..4).contains(&a) {
            return Err(EnvError::new(format!("action {} outside [0, 4)", a)));
        }
        let mut reward = 0.0;
        for _ in 0..self.cfg.frame_skip {
            reward += self.physics(a);
        }
        self.steps += 1;
        let all_good_taken = self.items.iter().filter(|i| i.good).all(|i| i.taken);
        let terminal = self.steps >= self.cfg.max_steps || all_good_taken;
        self.done = terminal;
        Ok(EnvStep { obs: self.render(), reward, terminal })
    }

    fn frame_skip(&self) -> usize {
        self.cfg.frame_skip
    }

    fn name(&self) -> &str {
        "seekavoid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn observation_matches_space() {
        let mut env = SeekAvoid::new(SeekAvoidConfig::default());
        let obs = env.reset();
        assert_eq!(obs.shape(), env.state_space().shape().unwrap());
        assert!(env.state_space().contains(&obs.clone().into()));
    }

    #[test]
    fn wandering_collects_items() {
        let mut env = SeekAvoid::new(SeekAvoidConfig { seed: 4, ..Default::default() });
        env.reset();
        let (good0, bad0) = env.remaining();
        assert_eq!((good0, bad0), (6, 4));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut collected = 0;
        for _ in 0..600 {
            let a = rng.random_range(0..4i64);
            let r = env.step(&Tensor::scalar_i64(a)).unwrap();
            if r.reward != 0.0 {
                collected += 1;
            }
            if r.terminal {
                break;
            }
        }
        let (good, bad) = env.remaining();
        assert!(collected > 0 || (good, bad) != (good0, bad0), "random walk never hit an item");
    }

    #[test]
    fn render_cost_scales_time() {
        let time_with = |cost: usize| {
            let mut env =
                SeekAvoid::new(SeekAvoidConfig { render_cost: cost, ..Default::default() });
            env.reset();
            let t0 = Instant::now();
            for _ in 0..30 {
                env.step(&Tensor::scalar_i64(0)).unwrap();
            }
            t0.elapsed()
        };
        let cheap = time_with(1);
        let expensive = time_with(16);
        assert!(
            expensive > cheap * 2,
            "render cost knob should dominate step time: {:?} vs {:?}",
            cheap,
            expensive
        );
    }

    #[test]
    fn action_validated() {
        let mut env = SeekAvoid::new(SeekAvoidConfig::default());
        env.reset();
        assert!(env.step(&Tensor::scalar_i64(4)).is_err());
    }
}
