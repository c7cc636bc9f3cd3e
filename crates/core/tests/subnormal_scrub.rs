//! The moment-matching basis carries no subnormal numbers.
//!
//! Krylov content decays exponentially away from the ports, so on a long
//! or heavily loaded line the far entries of a shifted solve fall below
//! `f64::MIN_POSITIVE`. Every multiply–add on such operands takes a slow
//! microcode path, and none of them can matter: basis columns are unit
//! norm, and the projector drops block slices whose norm is ≤ 1e-150. So
//! the recurrences scrub subnormals to zero after every shifted solve and
//! after every normalization. These tests pin that contract on a ladder
//! whose raw solves do hold subnormals, under both orthogonalization
//! kernels and both solver backends, and check that the reduced models
//! still meet the end-to-end bars (q ≤ n/5, relative error ≤ 1e-6).

use bdsm_circuit::{mna, Network};
use bdsm_core::engine::ReductionEngine;
use bdsm_core::krylov::{collect_points, KrylovOpts, OrthoKernel};
use bdsm_core::reduce::{reduce_network, ReductionOpts, SolverBackend};
use bdsm_core::synth::rc_ladder_loaded;
use bdsm_core::transfer::{eval_transfer, transfer_rel_err, SparseTransferEvaluator};
use bdsm_linalg::{Complex64, DenseLu};

const N: usize = 600;
const S0: f64 = 1.0e2;

/// 600 sections with a 0.5 Ω load tap on every bus: the response to an end
/// port decays by about e^{-1.4} per section, so the interior of the line
/// falls through the subnormal range.
fn decaying_ladder() -> Network {
    rc_ladder_loaded(N, 1.0, 1e-3, 0.5, 1)
}

fn opts(ortho: OrthoKernel, backend: SolverBackend) -> ReductionOpts {
    ReductionOpts {
        num_blocks: 6,
        krylov: KrylovOpts {
            expansion_points: vec![S0],
            jomega_points: vec![5.0e1, 4.5e2, 4.0e3],
            moments_per_point: 2,
            deflation_tol: 1e-12,
            ortho,
        },
        rank_tol: 1e-12,
        max_reduced_dim: Some(N / 5),
        backend,
        ..ReductionOpts::default()
    }
}

fn subnormals(xs: &[f64]) -> usize {
    xs.iter().filter(|v| v.is_subnormal()).count()
}

const CASES: [(OrthoKernel, SolverBackend); 4] = [
    (OrthoKernel::Blocked, SolverBackend::Sparse),
    (OrthoKernel::Mgs, SolverBackend::Sparse),
    (OrthoKernel::Blocked, SolverBackend::Dense),
    (OrthoKernel::Mgs, SolverBackend::Dense),
];

#[test]
fn raw_shifted_solve_of_the_ladder_holds_subnormals() {
    // The test's subject: without the scrub these values would enter the
    // basis.
    let desc = mna::assemble(&decaying_ladder()).unwrap();
    let (g, c) = (desc.g.to_dense(), desc.c.to_dense());
    let lu = DenseLu::factor(&g.add(&c.scaled(S0)).unwrap()).unwrap();
    let r = lu.solve(&desc.b.to_dense().col(0)).unwrap();
    assert!(
        subnormals(&r) > 0,
        "the raw solve decayed without passing through the subnormal range"
    );
}

#[test]
fn fixed_shift_basis_has_no_subnormals() {
    let net = decaying_ladder();
    for (ortho, backend) in CASES {
        let opts = opts(ortho, backend);
        let engine = ReductionEngine::new(&net, &opts).unwrap();
        let plan = engine.plan().unwrap();
        let basis = engine.basis(&plan, &collect_points(&opts.krylov)).unwrap();
        assert_eq!(basis.nrows(), N);
        assert_eq!(
            subnormals(basis.as_slice()),
            0,
            "{ortho:?}/{backend:?}: subnormal entries in the global basis"
        );
    }
}

#[test]
fn scrubbed_reductions_meet_the_end_to_end_bars() {
    let net = decaying_ladder();
    let omegas: Vec<f64> = (0..12)
        .map(|i| (50.0f64.ln() + (4.0e3f64.ln() - 50.0f64.ln()) * i as f64 / 11.0).exp())
        .collect();
    let mut dims = Vec::new();
    for (ortho, backend) in CASES {
        let rm = reduce_network(&net, &opts(ortho, backend)).unwrap();
        let q = rm.reduced_dim();
        assert!(q * 5 <= N, "{ortho:?}/{backend:?}: q = {q} > n/5");
        let full = SparseTransferEvaluator::new(
            &rm.full.g,
            &rm.full.c,
            rm.full.b.clone(),
            rm.full.l.clone(),
        )
        .unwrap();
        for &w in &omegas {
            let s = Complex64::jomega(w);
            let hf = full.eval(s).unwrap();
            let hr = eval_transfer(&rm.g, &rm.c, &rm.b, &rm.l, s).unwrap();
            let rel = transfer_rel_err(&hf, &hr);
            assert!(
                rel <= 1e-6,
                "{ortho:?}/{backend:?}: relative error {rel:.3e} at ω = {w:.3e}"
            );
        }
        dims.push(q);
    }
    // Both backends run the same recurrence: same kernel, same dimension.
    assert_eq!(dims[0], dims[2], "blocked: sparse and dense dims differ");
    assert_eq!(dims[1], dims[3], "MGS: sparse and dense dims differ");
}
