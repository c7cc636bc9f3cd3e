//! The traced run's per-layer measurements: replays of the engine stages
//! and direct calls into each crate's public kernels on the workload's
//! own data, every call wrapped in a span. Each per-layer metric is the
//! median self time (or a count) of its spans.

use crate::cluster::{Cluster, MODEL};
use crate::gen::{self, Rng};
use crate::run::{BenchResult, Run};
use crate::serving::{self, Reply};
use crate::stats;
use bdsm_circuit::{mna, Network};
use bdsm_cluster::wire::{Frame, ReplyStamp, Response};
use bdsm_core::engine::{ReductionEngine, ShiftStrategy};
use bdsm_core::transfer::{eval_transfer_factored, ZLu};
use bdsm_core::ExpansionPoint;
use bdsm_linalg::{gemm_acc, Complex64, Matrix, Svd};
use bdsm_rom::{Reducer, RomArtifact, RomServer};
use bdsm_sim::TransientSolver;
use bdsm_sparse::{LuWorkspace, ShiftedPencil};
use std::hint::black_box;

/// Every per-layer metric, in report order.
pub const PER_LAYER: [&str; 30] = [
    "core.plan_ms",
    "core.basis_ms",
    "core.basis_cols",
    "core.projector_ms",
    "core.congruence_ms",
    "core.certify_ms",
    "core.replay_coverage",
    "core.cpu_over_wall",
    "core.max_rel_err",
    "sparse.factor_ms.ladder",
    "sparse.factor_ms.mesh",
    "sparse.solve_ms",
    "sparse.factor_nnz",
    "linalg.gemm_gflops",
    "linalg.svd_ms",
    "core.zlu_factor_ms",
    "core.eval_factored_ms",
    "sim.transient_setup_ms",
    "sim.step_us",
    "rom.encode_ms",
    "rom.decode_ms",
    "rom.artifact_mb",
    "rom.session_open_ms",
    "rom.cold_sample_ms",
    "rom.warm_sample_ms",
    "cluster.ping_us",
    "cluster.overhead_ms",
    "cluster.wire_encode_mb_s",
    "cluster.wire_decode_mb_s",
    "cluster.retries",
];

/// Repetitions of each kernel probe; metrics are medians over them.
const REPS: usize = 7;
/// Column width of the basis panels the Krylov orthogonalization updates.
const PANEL: usize = 8;
/// Wire codec calls per span (one reply is a few hundred bytes).
const WIRE_CALLS: usize = 200;
const PINGS: usize = 50;

/// What the probes run on: the workload's network, reducer and built
/// artifact, plus facts the untraced part of the traced run measured.
pub struct LayerInput<'a> {
    pub net: &'a Network,
    pub reducer: &'a Reducer,
    pub bytes: &'a [u8],
    /// Median wall seconds of the workload's builds (`reduce_to_artifact`).
    pub build_s: f64,
    /// Process CPU seconds ÷ wall seconds over those builds.
    pub cpu_over_wall: f64,
    /// Worst held-out residual of the builds.
    pub max_rel_err: f64,
    /// Transient step of the workload.
    pub h: f64,
    /// Whether the workload's network is the ladder (else the mesh).
    pub ladder_workload: bool,
}

/// Median duration (ms) of the recorded spans named `name`.
fn median_ms(run: &Run, name: &str) -> (f64, usize) {
    let by = run.tracer.self_ms_by_name();
    let v = by.get(name).cloned().unwrap_or_default();
    (stats::median(&v), v.len())
}

/// The engine replay and the kernel probes (everything but the cluster).
pub fn measure_kernels(run: &mut Run, inp: &LayerInput) -> BenchResult<()> {
    run.tracer.set_recording(true);
    let seed = run.args.seed;
    let artifact = RomArtifact::from_bytes(inp.bytes)?;
    let (lo, hi) = artifact
        .provenance
        .certificate
        .frequency_envelope()
        .ok_or("artifact has no certified envelope")?;
    let mut rng = Rng::new(seed, gen::STREAM_CHECKS ^ 0x5A5A);

    // core: replay the engine stages with the shift set the build chose.
    let engine = ReductionEngine::new(inp.net, inp.reducer.opts())?;
    let shifts = artifact.provenance.shifts.clone();
    let certify_omegas: Vec<f64> = match &inp.reducer.opts().shift_strategy {
        ShiftStrategy::Adaptive(a) => a.candidate_omegas.clone(),
        ShiftStrategy::Fixed => shifts
            .iter()
            .filter_map(|p| match *p {
                ExpansionPoint::Jomega(w) => Some(w),
                ExpansionPoint::Real(_) => None,
            })
            .collect(),
    };
    // The adaptive mesh replay certifies against the full model and takes
    // seconds; the fixed ladder replay takes about one build.
    let replays = match &inp.reducer.opts().shift_strategy {
        ShiftStrategy::Adaptive(_) => 2,
        ShiftStrategy::Fixed => 3,
    };
    let mut global = Matrix::zeros(0, 0);
    let mut block0 = 0;
    let mut replay_matches = true;
    for _ in 0..replays {
        let op = run.op_id();
        let root = run.tracer.begin("probe.replay", op);
        let (plan, _) = run.tracer.time("core.plan", op, || engine.plan());
        let plan = plan?;
        let (basis, _) = run
            .tracer
            .time("core.basis", op, || engine.basis(&plan, &shifts));
        global = basis?;
        let (proj, _) = run
            .tracer
            .time("core.projector", op, || engine.projector(&plan, &global));
        let proj = proj?;
        let (rom, _) = run
            .tracer
            .time("core.congruence", op, || engine.congruence(&plan, &proj));
        let rom = rom?;
        let (cert, _) = run.tracer.time("core.certify_full", op, || {
            engine.certify_full(&plan, &rom, &certify_omegas)
        });
        black_box(cert?);
        run.tracer.end(root);
        replay_matches &= rom.g.as_slice() == artifact.g.as_slice();
        block0 = plan.block_sizes[0];
    }
    let mut replay_ms = 0.0;
    for (stage, metric) in [
        ("core.plan", "core.plan_ms"),
        ("core.basis", "core.basis_ms"),
        ("core.projector", "core.projector_ms"),
        ("core.congruence", "core.congruence_ms"),
        ("core.certify_full", "core.certify_ms"),
    ] {
        let (ms, n) = median_ms(run, stage);
        replay_ms += ms;
        run.metric(metric, ms, "ms", n);
    }
    run.metric("core.basis_cols", global.ncols() as f64, "count", 1);
    run.metric(
        "core.replay_coverage",
        replay_ms / (inp.build_s * 1e3),
        "ratio",
        replays,
    );
    run.metric("core.cpu_over_wall", inp.cpu_over_wall, "ratio", 1);
    run.metric("core.max_rel_err", inp.max_rel_err, "ratio", 1);
    run.note("replay_matches_build", replay_matches.to_string());

    // sparse: shifted factorizations of both topologies at a workload
    // shift, and a multi-RHS solve on the workload's own pencil.
    let s = Complex64::jomega((lo * hi).sqrt());
    let (ladder, mesh) = if inp.ladder_workload {
        (None, Some(gen::mesh(100, 100, seed)))
    } else {
        (Some(gen::ladder(10_000, seed)), None)
    };
    for (name, net, metric, own) in [
        (
            "sparse.factor.ladder",
            ladder.as_ref().unwrap_or(inp.net),
            "sparse.factor_ms.ladder",
            inp.ladder_workload,
        ),
        (
            "sparse.factor.mesh",
            mesh.as_ref().unwrap_or(inp.net),
            "sparse.factor_ms.mesh",
            !inp.ladder_workload,
        ),
    ] {
        let desc = mna::assemble(net)?;
        let pencil = ShiftedPencil::new(&desc.g.to_csc(), &desc.c.to_csc())?;
        let mut ws = LuWorkspace::new();
        let b = desc.b.to_dense();
        let m = b.ncols();
        let rhs: Vec<f64> = (0..m).flat_map(|j| b.col(j)).collect();
        for _ in 0..REPS {
            let op = run.op_id();
            let root = run.tracer.begin("probe.sparse", op);
            let (lu, _) = run
                .tracer
                .time(name, op, || pencil.factor_complex_with(s, &mut ws));
            let lu = lu?;
            if own {
                let (x, _) = run
                    .tracer
                    .time("sparse.solve", op, || lu.solve_multi_real(&rhs, m));
                black_box(x?);
                run.metric("sparse.factor_nnz", lu.factor_nnz() as f64, "count", 1);
            }
            run.tracer.end(root);
        }
        let (ms, n) = median_ms(run, name);
        run.metric(metric, ms, "ms", n);
    }
    let (ms, n) = median_ms(run, "sparse.solve");
    run.metric("sparse.solve_ms", ms, "ms", n);

    // linalg: one panel update at the basis shape, one block-slice SVD.
    // Panels hold seeded values of unit scale: the rate is the kernel's at
    // the basis shape. (The ladder basis itself decays along the chain
    // into subnormal numbers, which the kernel handles far slower; their
    // share is recorded separately.)
    let (rows, k) = global.shape();
    let a_panel: Vec<f64> = (0..rows * k).map(|_| rng.unit() - 0.5).collect();
    let b_panel: Vec<f64> = (0..k * PANEL).map(|_| rng.unit() - 0.5).collect();
    let subnormal = global
        .as_slice()
        .iter()
        .filter(|v| v.is_subnormal())
        .count();
    run.note(
        "basis_subnormal_share",
        format!(
            "{}",
            subnormal as f64 / global.as_slice().len().max(1) as f64
        ),
    );
    let slice = Matrix::from_fn(block0, k, |i, j| global[(i, j)]);
    for _ in 0..REPS {
        let op = run.op_id();
        let root = run.tracer.begin("probe.linalg", op);
        let mut c = vec![0.0; rows * PANEL];
        run.tracer.time("linalg.gemm_acc", op, || {
            gemm_acc(rows, k, PANEL, &a_panel, rows, &b_panel, k, &mut c, rows);
            black_box(&c);
        });
        let (svd, _) = run.tracer.time("linalg.svd", op, || Svd::compute(&slice));
        black_box(svd?);
        run.tracer.end(root);
    }
    let (gemm_ms, n) = median_ms(run, "linalg.gemm_acc");
    let flops = 2.0 * rows as f64 * k as f64 * PANEL as f64;
    run.metric(
        "linalg.gemm_gflops",
        flops / (gemm_ms * 1e-3) / 1e9,
        "GFLOP/s",
        n,
    );
    let (ms, n) = median_ms(run, "linalg.svd");
    run.metric("linalg.svd_ms", ms, "ms", n);

    // Serving kernels, sim, rom: on the served artifact.
    let steps = 200;
    let wave: Vec<Vec<f64>> = (0..steps)
        .map(|_| (0..artifact.num_inputs()).map(|_| rng.unit()).collect())
        .collect();
    for _ in 0..REPS {
        let w = rng.log_uniform(lo, hi);
        let omegas: Vec<f64> = (0..gen::REQUEST_FREQS)
            .map(|_| rng.log_uniform(lo, hi))
            .collect();
        let op = run.op_id();
        let root = run.tracer.begin("probe.serve", op);
        let (lu, _) = run.tracer.time("core.zlu_factor", op, || {
            ZLu::factor_shifted(&artifact.g, &artifact.c, Complex64::jomega(w))
        });
        let lu = lu?;
        let (h, _) = run.tracer.time("core.eval_factored", op, || {
            eval_transfer_factored(&lu, &artifact.b, &artifact.l)
        });
        black_box(h?);
        let (solver, _) = run.tracer.time("sim.transient_setup", op, || {
            TransientSolver::new(&artifact.g, &artifact.c, &artifact.b, &artifact.l, inp.h)
        });
        let mut solver = solver?;
        let (y, _) = run
            .tracer
            .time("sim.run_series", op, || solver.run_series(&wave));
        black_box(y?);
        let (bytes, _) = run.tracer.time("rom.encode", op, || artifact.to_bytes());
        let (decoded, _) = run
            .tracer
            .time("rom.decode", op, || RomArtifact::from_bytes(&bytes));
        let decoded = decoded?;
        let ((server, id), _) = run.tracer.time("rom.session_open", op, || {
            let mut server = RomServer::new();
            let id = server.load_artifact(decoded);
            (server, id)
        });
        let (cold, _) = run
            .tracer
            .time("rom.cold_sweep", op, || server.transfer_sweep(id, &omegas));
        let (warm, _) = run
            .tracer
            .time("rom.warm_sweep", op, || server.transfer_sweep(id, &omegas));
        if cold? != warm? {
            return Err("cold and warm replies differ".into());
        }
        run.tracer.end(root);
    }
    let per_sample = 1.0 / gen::REQUEST_FREQS as f64;
    for (span, metric, unit, scale) in [
        ("core.zlu_factor", "core.zlu_factor_ms", "ms", 1.0),
        ("core.eval_factored", "core.eval_factored_ms", "ms", 1.0),
        ("sim.transient_setup", "sim.transient_setup_ms", "ms", 1.0),
        ("sim.run_series", "sim.step_us", "us", 1e3 / steps as f64),
        ("rom.encode", "rom.encode_ms", "ms", 1.0),
        ("rom.decode", "rom.decode_ms", "ms", 1.0),
        ("rom.session_open", "rom.session_open_ms", "ms", 1.0),
        ("rom.cold_sweep", "rom.cold_sample_ms", "ms", per_sample),
        ("rom.warm_sweep", "rom.warm_sample_ms", "ms", per_sample),
    ] {
        let (ms, n) = median_ms(run, span);
        run.metric(metric, ms * scale, unit, n);
    }
    run.metric("rom.artifact_mb", inp.bytes.len() as f64 / 1e6, "MB", 1);

    Ok(())
}

/// The cluster probes on a probe cluster over `bytes` (two by-band shards
/// on the current worker count), shut down afterwards.
pub fn measure_probe_cluster(run: &mut Run, bytes: &[u8]) -> BenchResult<()> {
    let cluster = Cluster::spawn(bytes)?;
    measure_cluster(run, &cluster, bytes)?;
    cluster.shutdown()
}

/// The cluster probes: ping floor, overhead over a warm local server,
/// wire codec rates at the workload's reply size, retries.
pub fn measure_cluster(run: &mut Run, cluster: &Cluster, bytes: &[u8]) -> BenchResult<()> {
    run.tracer.set_recording(true);
    let artifact = RomArtifact::from_bytes(bytes)?;
    let (lo, hi) = artifact
        .provenance
        .certificate
        .frequency_envelope()
        .ok_or("artifact has no certified envelope")?;
    let mut rng = Rng::new(run.args.seed, gen::STREAM_CHECKS ^ 0xC1);
    let client = &cluster.client;
    for _ in 0..PINGS {
        let op = run.op_id();
        let (r, _) = run.tracer.time("cluster.ping", op, || client.ping(0));
        r?;
    }
    let (ping_ms, n) = median_ms(run, "cluster.ping");
    run.metric("cluster.ping_us", ping_ms * 1e3, "us", n);

    // Overhead: a warm cluster request against the same request on a warm
    // local server.
    let mut local = RomServer::new();
    let id = local.load_artifact(artifact);
    let omegas: Vec<f64> = (0..gen::REQUEST_FREQS)
        .map(|_| rng.log_uniform(lo, hi))
        .collect();
    let remote_first = client.transfer_sweep(MODEL, &omegas)?;
    let local_first = local.transfer_sweep(id, &omegas)?;
    if !serving::bitwise_eq(
        &Reply::Sweep(remote_first),
        &Reply::Sweep(local_first.clone()),
    ) {
        return Err("cluster reply differs from the local server's".into());
    }
    let mut diffs = Vec::new();
    for _ in 0..4 * REPS {
        let op = run.op_id();
        let (r, remote_ms) = run.tracer.time("cluster.request", op, || {
            client.transfer_sweep(MODEL, &omegas)
        });
        black_box(r?);
        let (l, local_ms) = run.tracer.time("rom.local_request", op, || {
            local.transfer_sweep(id, &omegas)
        });
        black_box(l?);
        diffs.push(remote_ms - local_ms);
    }
    run.metric(
        "cluster.overhead_ms",
        stats::median(&diffs),
        "ms",
        diffs.len(),
    );

    // Wire codec at the workload's reply size.
    let reply = Response::Sweep(
        ReplyStamp {
            shard: 0,
            plan_digest: client.plan().digest(),
        },
        local_first,
    );
    let encoded = reply.to_frame().encode();
    for _ in 0..REPS {
        let op = run.op_id();
        run.tracer.time("cluster.wire_encode", op, || {
            for _ in 0..WIRE_CALLS {
                black_box(black_box(&reply).to_frame().encode());
            }
        });
        let (back, _) = run.tracer.time("cluster.wire_decode", op, || {
            let mut last = None;
            for _ in 0..WIRE_CALLS {
                let frame = Frame::decode(black_box(&encoded));
                last = Some(frame.and_then(|f| Response::from_frame(&f)));
            }
            last
        });
        if back.expect("at least one call")? != reply {
            return Err("wire round trip changed the reply".into());
        }
    }
    let mb = (encoded.len() * WIRE_CALLS) as f64 / 1e6;
    let (ms, n) = median_ms(run, "cluster.wire_encode");
    run.metric("cluster.wire_encode_mb_s", mb / (ms * 1e-3), "MB/s", n);
    let (ms, n) = median_ms(run, "cluster.wire_decode");
    run.metric("cluster.wire_decode_mb_s", mb / (ms * 1e-3), "MB/s", n);
    run.metric(
        "cluster.retries",
        client.metrics().retries as f64,
        "count",
        1,
    );
    Ok(())
}
