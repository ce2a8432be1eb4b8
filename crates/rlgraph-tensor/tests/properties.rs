//! Property-based tests for tensor kernels and autodiff.

use proptest::prelude::*;
use rlgraph_tensor::{forward, OpKind, Tape, Tensor};

fn small_shape() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..4, 0..3)
}

fn tensor_with_shape(shape: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let n: usize = shape.iter().product();
    prop::collection::vec(-10.0f32..10.0, n..=n)
        .prop_map(move |data| Tensor::from_vec(data, &shape).unwrap())
}

fn small_tensor() -> impl Strategy<Value = Tensor> {
    small_shape().prop_flat_map(tensor_with_shape)
}

proptest! {
    /// a + b == b + a under broadcasting.
    #[test]
    fn add_commutes(a in small_tensor(), b in small_tensor()) {
        let ab = forward(&OpKind::Add, &[&a, &b]);
        let ba = forward(&OpKind::Add, &[&b, &a]);
        match (ab, ba) {
            (Ok(x), Ok(y)) => prop_assert!(x.allclose(&y, 1e-6)),
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "one direction broadcast, the other failed"),
        }
    }

    /// (a + b) + c ≈ a + (b + c) for same-shape tensors.
    #[test]
    fn add_associates(shape in small_shape(), seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&shape, -5.0, 5.0, &mut rng);
        let b = Tensor::rand_uniform(&shape, -5.0, 5.0, &mut rng);
        let c = Tensor::rand_uniform(&shape, -5.0, 5.0, &mut rng);
        let l = forward(&OpKind::Add, &[&forward(&OpKind::Add, &[&a, &b]).unwrap(), &c]).unwrap();
        let r = forward(&OpKind::Add, &[&a, &forward(&OpKind::Add, &[&b, &c]).unwrap()]).unwrap();
        prop_assert!(l.allclose(&r, 1e-4));
    }

    /// Multiplying by ones is the identity.
    #[test]
    fn mul_ones_identity(a in small_tensor()) {
        let ones = Tensor::ones(a.shape());
        let r = forward(&OpKind::Mul, &[&a, &ones]).unwrap();
        prop_assert!(r.allclose(&a, 0.0));
    }

    /// Sum over all axes equals the scalar sum of the data.
    #[test]
    fn sum_matches_iter(a in small_tensor()) {
        prop_assume!(!a.is_empty());
        let s = forward(&OpKind::Sum { axes: None, keep_dims: false }, &[&a]).unwrap();
        let expect: f32 = a.as_f32().unwrap().iter().sum();
        prop_assert!((s.scalar_value().unwrap() - expect).abs() < 1e-3);
    }

    /// Reducing one axis then the other equals reducing both at once.
    #[test]
    fn staged_reduction(r in 1usize..4, c in 1usize..4, seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&[r, c], -5.0, 5.0, &mut rng);
        let both = forward(&OpKind::Sum { axes: None, keep_dims: false }, &[&a]).unwrap();
        let ax0 = forward(&OpKind::Sum { axes: Some(vec![0]), keep_dims: false }, &[&a]).unwrap();
        let staged = forward(&OpKind::Sum { axes: None, keep_dims: false }, &[&ax0]).unwrap();
        prop_assert!((both.scalar_value().unwrap() - staged.scalar_value().unwrap()).abs() < 1e-3);
    }

    /// Transpose twice with the same 2-D perm is the identity.
    #[test]
    fn transpose_involution(r in 1usize..5, c in 1usize..5, seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&[r, c], -5.0, 5.0, &mut rng);
        let t = forward(&OpKind::Transpose { perm: vec![1, 0] }, &[&a]).unwrap();
        let tt = forward(&OpKind::Transpose { perm: vec![1, 0] }, &[&t]).unwrap();
        prop_assert_eq!(tt, a);
    }

    /// Softmax outputs are a probability distribution for any logits.
    #[test]
    fn softmax_is_distribution(n in 1usize..8, seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&[n], -30.0, 30.0, &mut rng);
        let s = forward(&OpKind::Softmax { axis: 0 }, &[&a]).unwrap();
        let v = s.as_f32().unwrap();
        prop_assert!(v.iter().all(|&x| (0.0..=1.0 + 1e-5).contains(&x)));
        prop_assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    /// Autodiff of sum(a * b) w.r.t. a is exactly b (linearity).
    #[test]
    fn autodiff_linear_in_weights(shape in small_shape(), seed in 0u64..1000) {
        use rand::SeedableRng;
        prop_assume!(!shape.is_empty() && shape.iter().product::<usize>() > 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&shape, -5.0, 5.0, &mut rng);
        let b = Tensor::rand_uniform(&shape, -5.0, 5.0, &mut rng);
        let mut tape = Tape::new();
        let ai = tape.leaf(a, true);
        let bi = tape.leaf(b.clone(), false);
        let m = tape.apply(OpKind::Mul, &[ai, bi]).unwrap();
        let l = tape.apply(OpKind::Sum { axes: None, keep_dims: false }, &[m]).unwrap();
        let grads = tape.backward(l).unwrap();
        prop_assert!(grads[&ai].allclose(&b, 1e-5));
    }

    /// Gradient of a composite scalar function matches finite differences.
    #[test]
    fn autodiff_matches_finite_difference(n in 1usize..5, seed in 0u64..200) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x0 = Tensor::rand_uniform(&[n], 0.5, 2.0, &mut rng);
        let eval = |x: &Tensor| -> (f32, Option<Vec<f32>>) {
            let mut t = Tape::new();
            let xi = t.leaf(x.clone(), true);
            let lg = t.apply(OpKind::Log, &[xi]).unwrap();
            let sq = t.apply(OpKind::Square, &[xi]).unwrap();
            let s = t.apply(OpKind::Add, &[lg, sq]).unwrap();
            let l = t.apply(OpKind::Mean { axes: None, keep_dims: false }, &[s]).unwrap();
            let v = t.value(l).scalar_value().unwrap();
            let g = t.backward(l).unwrap().get(&xi).map(|g| g.as_f32().unwrap().to_vec());
            (v, g)
        };
        let (f0, grad) = eval(&x0);
        let grad = grad.unwrap();
        let eps = 1e-3f32;
        for (i, &g) in grad.iter().enumerate().take(n) {
            let mut xp = x0.clone();
            xp.as_f32_mut().unwrap()[i] += eps;
            let (f1, _) = eval(&xp);
            let num = (f1 - f0) / eps;
            prop_assert!((num - g).abs() < 2e-2,
                "index {}: numeric {} vs analytic {}", i, num, g);
        }
    }

    /// Gather then gather_grad conserves the gradient mass.
    #[test]
    fn gather_grad_conserves_mass(rows in 1usize..6, picks in 1usize..6, seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let params = Tensor::rand_uniform(&[rows, 2], -1.0, 1.0, &mut rng);
        let idx = Tensor::rand_int(&[picks], 0, rows as i64, &mut rng);
        let g = Tensor::rand_uniform(&[picks, 2], -1.0, 1.0, &mut rng);
        let scattered = forward(&OpKind::GatherGrad, &[&g, &idx, &params]).unwrap();
        let total_g: f32 = g.as_f32().unwrap().iter().sum();
        let total_s: f32 = scattered.as_f32().unwrap().iter().sum();
        prop_assert!((total_g - total_s).abs() < 1e-4);
    }

    /// Reshape round-trips through any compatible factorisation.
    #[test]
    fn reshape_roundtrip(a in small_tensor()) {
        let n = a.len();
        let flat = forward(&OpKind::Reshape { shape: vec![-1] }, &[&a]);
        if n == 0 {
            return Ok(());
        }
        let flat = flat.unwrap();
        prop_assert_eq!(flat.len(), n);
        let spec: Vec<isize> = a.shape().iter().map(|&d| d as isize).collect();
        if !spec.is_empty() {
            let back = forward(&OpKind::Reshape { shape: spec }, &[&flat]).unwrap();
            prop_assert_eq!(back, a);
        }
    }
}
