//! The serving workloads over the 100×100 mesh ROM: `serve-cold` (fresh
//! sessions, fresh frequencies: every sample factors) and `serve-hot` (a
//! 2-shard loopback cluster, a warmed pool of frequencies: every sample
//! hits). Also the session runner `reduce-ladder` reuses.

use crate::cluster::{Cluster, MODEL};
use crate::gen::{self, FreqSource, Request, RequestGen, Rng};
use crate::host;
use crate::layers::{self, LayerInput};
use crate::run::{json_number, print_setup, BenchResult, Latencies, Run, SetupTiming, QUERY_KINDS};
use crate::serving::{self, Served};
use crate::stats;
use bdsm_circuit::{mna, Network};
use bdsm_core::engine::AdaptiveShiftOpts;
use bdsm_core::transfer::{transfer_rel_err, CMatrix, SparseTransferEvaluator};
use bdsm_rom::{Reducer, RomArtifact, RomServer};
use bdsm_sim::TransientSolver;
use std::collections::HashMap;
use std::time::Instant;

/// Sweep and port requests a serving run must hold so that p95 has
/// fifteen samples beyond it; the timed phase runs past `--seconds` (up
/// to [`MAX_OVERRUN`]×) until it has them.
pub const MIN_QUERIES: usize = 300;
pub const MIN_TRANSIENTS: usize = 10;
pub const MAX_OVERRUN: f64 = 3.0;
/// Requests per `serve-cold` session.
const SESSION_REQUESTS: usize = 8;
/// Frequencies in the `serve-hot` pool. A warm solve streams the whole
/// cached factorization of the 533-state pencil (4.5 MB); eight keep the
/// working set at 36 MB, where 32 (145 MB) made latency depend on how much
/// of a shared host's last-level cache other tenants left over.
const POOL: usize = 8;
/// Held-out frequencies of the build check.
const HELD_OUT: usize = 8;

/// The headline reducer: adaptive shifts, exact interfaces, certified.
pub fn mesh_reducer() -> BenchResult<Reducer> {
    Ok(Reducer::builder()
        .blocks(4)
        .jomega_shifts(&[4.5e2])
        .moments(2)
        .budget(2000)
        .adaptive(AdaptiveShiftOpts {
            candidate_omegas: AdaptiveShiftOpts::log_grid(5.0e1, 4.0e3, 6),
            tol: 1e-6,
            max_shifts: 4,
        })
        .exact_interfaces()
        .build()?)
}

/// A timed phase: latency samples and kept replies, split by whether the
/// operation was traced (`[untraced, traced]`), and the phase's wall and
/// process CPU seconds, kept apart.
pub struct Phase {
    pub lat: [Latencies; 2],
    pub kept: Vec<Served>,
    started: Instant,
    cpu0: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Phase {
    pub fn start() -> Self {
        Phase {
            lat: Default::default(),
            kept: Vec::new(),
            started: Instant::now(),
            cpu0: host::cpu_seconds(),
            wall_s: 0.0,
            cpu_s: 0.0,
        }
    }

    pub fn stop(&mut self) {
        self.wall_s = self.started.elapsed().as_secs_f64();
        self.cpu_s = host::cpu_seconds() - self.cpu0;
    }

    pub fn queries(&self) -> usize {
        QUERY_KINDS.iter().map(|k| self.samples(k)).sum()
    }

    pub fn transients(&self) -> usize {
        self.samples("transient")
    }

    fn samples(&self, kind: &str) -> usize {
        self.lat
            .iter()
            .map(|l| l.by_kind.get(kind).map_or(0, Vec::len))
            .sum()
    }

    /// Whether the timed phase has run `seconds` and holds `min_queries`
    /// query and [`MIN_TRANSIENTS`] transient samples.
    pub fn done(&self, seconds: f64, min_queries: usize) -> bool {
        let elapsed = self.started.elapsed().as_secs_f64();
        let enough = self.queries() >= min_queries && self.transients() >= MIN_TRANSIENTS;
        (elapsed >= seconds && enough) || elapsed >= seconds * MAX_OVERRUN
    }
}

/// Whether operation `i` of the timed phase is traced: in a traced run,
/// every other operation, so both kinds run under the same conditions and
/// their difference is the tracing overhead.
pub fn traced_op(run: &mut Run, i: usize) -> usize {
    let traced = run.args.trace && i % 2 == 1;
    run.tracer.set_recording(traced);
    usize::from(traced)
}

/// One session: decode the artifact bytes into a fresh `RomServer` and
/// issue `requests`, waiting for each reply.
pub fn session(
    run: &mut Run,
    phase: &mut Phase,
    t: usize,
    bytes: &[u8],
    source: usize,
    requests: Vec<Request>,
    h: f64,
) {
    let op = run.op_id();
    let root = run.tracer.begin("session", op);
    let (decoded, decode_ms) = run
        .tracer
        .time("rom.decode", op, || RomArtifact::from_bytes(bytes));
    if let Some(artifact) = run.record("session", decoded) {
        let ((server, id), open_ms) = run.tracer.time("rom.session_open", op, || {
            let mut server = RomServer::new();
            let id = server.load_artifact(artifact);
            (server, id)
        });
        phase.lat[t].push("session_open", decode_ms + open_ms);
        for request in requests {
            let rid = run.op_id();
            let (reply, ms) = run.tracer.time(serving::local_span(&request), rid, || {
                serving::serve_local(&server, id, &request, h)
            });
            if let Some(reply) = run.record(request.kind(), reply) {
                phase.lat[t].push(request.kind(), ms);
                phase.kept.push(Served {
                    request,
                    reply,
                    source,
                });
            }
        }
    }
    run.tracer.end(root);
}

/// Full-model `H(jω)` on a grid, through the sparse evaluator — the
/// reference the build check compares against, computed once per seed.
pub fn full_sweep(net: &Network, omegas: &[f64]) -> BenchResult<Vec<CMatrix>> {
    let desc = mna::assemble(net)?;
    let ev = SparseTransferEvaluator::new(
        &desc.g.to_csc(),
        &desc.c.to_csc(),
        desc.b.to_dense(),
        desc.l.to_dense(),
    )?;
    Ok(ev.eval_jomega_sweep(omegas)?)
}

/// Worst relative residual of an artifact against full-model samples.
pub fn held_out_residual(a: &RomArtifact, omegas: &[f64], full: &[CMatrix]) -> f64 {
    omegas
        .iter()
        .zip(full)
        .map(|(&w, hf)| {
            serving::direct_transfer(a, w).map_or(f64::INFINITY, |hr| transfer_rel_err(hf, &hr))
        })
        .fold(0.0, f64::max)
}

/// Build statistics of a run: wall seconds per build, CPU ÷ wall, worst
/// held-out residual.
#[derive(Default)]
pub struct Builds {
    /// `reduce_to_artifact` + `to_bytes`, per successful build.
    pub wall_s: Vec<f64>,
    /// `reduce_to_artifact` alone, with whether the build was traced.
    reduce_s: Vec<(bool, f64)>,
    pub cpu_s: f64,
    pub total_wall_s: f64,
    pub max_rel_err: f64,
}

impl Builds {
    /// Times one `reduce_to_artifact` + `to_bytes` under a span.
    pub fn build(
        &mut self,
        run: &mut Run,
        reducer: &Reducer,
        net: &Network,
    ) -> Option<(RomArtifact, Vec<u8>)> {
        let op = run.op_id();
        let root = run.tracer.begin("build", op);
        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        let traced = run.tracer.recording();
        let (artifact, ms) = run.tracer.time("rom.reduce_to_artifact", op, || {
            reducer.reduce_to_artifact(net)
        });
        self.reduce_s.push((traced, ms / 1e3));
        let out = run.record("build", artifact).map(|a| {
            let (bytes, _) = run.tracer.time("rom.encode", op, || a.to_bytes());
            (a, bytes)
        });
        let wall = t0.elapsed().as_secs_f64();
        self.cpu_s += host::cpu_seconds() - cpu0;
        self.total_wall_s += wall;
        if out.is_some() {
            self.wall_s.push(wall);
        }
        run.tracer.end(root);
        out
    }

    /// Checks a build's held-out residual, counting a failure over
    /// [`serving::BUILD_TOL`].
    pub fn check(&mut self, run: &mut Run, a: &RomArtifact, omegas: &[f64], full: &[CMatrix]) {
        let err = held_out_residual(a, omegas, full);
        self.max_rel_err = self.max_rel_err.max(err);
        if !serving::within(err, serving::BUILD_TOL) {
            run.check_failed("build", format!("held-out residual {err:e}"));
        }
    }

    /// Median `reduce_to_artifact` seconds of the untraced builds (of all
    /// builds when every build was traced).
    pub fn untraced_reduce_s(&self) -> f64 {
        let untraced: Vec<f64> = self.reduce_s.iter().filter(|b| !b.0).map(|b| b.1).collect();
        if untraced.is_empty() {
            stats::median(&self.reduce_s.iter().map(|b| b.1).collect::<Vec<_>>())
        } else {
            stats::median(&untraced)
        }
    }

    pub fn cpu_over_wall(&self) -> f64 {
        self.cpu_s / self.total_wall_s
    }
}

/// Reports the end-to-end metrics every workload shares.
pub fn report_end_to_end(
    run: &mut Run,
    phase: &Phase,
    setups: &[SetupTiming],
    reduce_s: &[f64],
    builds: &Builds,
    rom_dim: usize,
) {
    let setup_s: Vec<f64> = setups.iter().map(|t| t.setup_s).collect();
    let lat = &phase.lat[0];
    let q = lat.queries();
    let tr = lat.transients();
    run.metric("setup_s", stats::median(&setup_s), "s", setup_s.len());
    run.metric("reduce_s", stats::median(reduce_s), "s", reduce_s.len());
    run.metric("rom_dim", rom_dim as f64, "states", 1);
    run.metric("query_p50_ms", stats::percentile(&q, 50.0), "ms", q.len());
    run.metric("query_p95_ms", stats::percentile(&q, 95.0), "ms", q.len());
    run.metric("transient_p50_ms", stats::median(&tr), "ms", tr.len());
    let served = phase.lat[0].queries().len() + phase.lat[0].transients().len();
    run.metric("qps", served as f64 / phase.wall_s, "1/s", served);
    run.metric("peak_rss_mb", host::peak_rss_mb(), "MB", 1);
    let steady = stats::highest_steady_percentile(q.len(), &[50.0, 90.0, 95.0, 99.0], 10);
    let (q1, q3) = stats::quartiles(&q).unwrap_or((f64::NAN, f64::NAN));
    run.note(
        "timed_phase",
        format!(
            "{{\"wall_s\": {}, \"cpu_s\": {}, \"query_samples\": {}, \"transient_samples\": {}, \
             \"query_quartiles_ms\": [{}, {}], \"highest_steady_percentile\": {}, \
             \"build_cpu_s\": {}, \"build_wall_s\": {}}}",
            phase.wall_s,
            phase.cpu_s,
            q.len(),
            tr.len(),
            json_number(q1),
            json_number(q3),
            steady.map_or("null".to_string(), |p| p.to_string()),
            builds.cpu_s,
            builds.total_wall_s,
        ),
    );
}

/// Traced runs: the self-time table of the timed phase's traced
/// operations, and the tracing overhead (traced minus untraced medians).
pub fn report_traced_phase(run: &mut Run, phase: &Phase, roots: &[&str]) {
    let spans = run.tracer.spans().to_vec();
    let self_ns = run.tracer.self_times_ns();
    let mut by_name: std::collections::BTreeMap<&str, (usize, f64)> = Default::default();
    let mut total_ms = 0.0;
    for (s, ns) in spans.iter().zip(&self_ns) {
        if s.name.starts_with("probe.") || !in_roots(&spans, s, roots) {
            continue;
        }
        let name = if roots.contains(&s.name) {
            "unattributed"
        } else {
            s.name
        };
        let e = by_name.entry(name).or_default();
        e.0 += 1;
        e.1 += *ns as f64 / 1e6;
        if s.parent.is_none() {
            total_ms += s.duration_ns() as f64 / 1e6;
        }
    }
    println!("self time of traced operations ({total_ms:.1} ms):");
    let mut json = String::from("[");
    for (i, (name, (count, ms))) in by_name.iter().enumerate() {
        println!(
            "  {name:<28} n={count:<6} {ms:>12.3} ms {:>6.2} %",
            100.0 * ms / total_ms
        );
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "{{\"span\": \"{name}\", \"count\": {count}, \"self_ms\": {ms}, \"share\": {}}}",
            ms / total_ms
        ));
    }
    json.push(']');
    run.note("self_time_table", json);

    let mut over = String::from("{");
    let kinds: Vec<&'static str> = phase.lat[0].by_kind.keys().copied().collect();
    for (i, kind) in kinds.iter().enumerate() {
        let base = stats::median(&phase.lat[0].by_kind[kind]);
        let traced = phase.lat[1]
            .by_kind
            .get(kind)
            .map_or(f64::NAN, |v| stats::median(v));
        println!(
            "tracing overhead {kind:<14} {:+.4} ms on a base of {base:.4} ms",
            traced - base
        );
        if i > 0 {
            over.push_str(", ");
        }
        over.push_str(&format!(
            "\"{kind}\": {{\"base_ms\": {}, \"traced_ms\": {}, \"overhead_ms\": {}}}",
            json_number(base),
            json_number(traced),
            json_number(traced - base)
        ));
    }
    over.push('}');
    run.note("tracing_overhead", over);
}

/// Whether span `s` lies under one of the timed phase's root spans.
fn in_roots(spans: &[crate::trace::Span], s: &crate::trace::Span, roots: &[&str]) -> bool {
    let mut cur = s;
    loop {
        match cur.parent {
            Some(p) => cur = &spans[p],
            None => return roots.contains(&cur.name),
        }
    }
}

/// Checks kept replies: every transient for finite outputs, and a
/// seeded sample (one reply in `every`, one frequency of each sampled
/// sweep or port reply) against a direct evaluation on the artifact.
pub fn check_replies(
    run: &mut Run,
    kept: &[Served],
    artifact: &RomArtifact,
    h: f64,
    every: usize,
) -> BenchResult<()> {
    let mut rng = Rng::new(run.args.seed, gen::STREAM_CHECKS);
    let mut solver = TransientSolver::new(&artifact.g, &artifact.c, &artifact.b, &artifact.l, h)?;
    let mut cache: HashMap<u64, CMatrix> = HashMap::new();
    let mut direct = |w: f64| -> Result<CMatrix, String> {
        if let Some(m) = cache.get(&w.to_bits()) {
            return Ok(m.clone());
        }
        let m = serving::direct_transfer(artifact, w)?;
        cache.insert(w.to_bits(), m.clone());
        Ok(m)
    };
    for s in kept {
        if !serving::all_finite(&s.reply) {
            run.check_failed(s.request.kind(), "non-finite output".to_string());
            continue;
        }
        if rng.below(every) != 0 {
            continue;
        }
        let idx: Vec<usize> = match &s.request {
            Request::Transient(_) => Vec::new(),
            Request::Sweep(w) | Request::Port { omegas: w, .. } => vec![rng.below(w.len())],
        };
        if let Err(why) = serving::check_reply(s, &idx, &mut direct, &mut solver) {
            run.check_failed(s.request.kind(), why);
        }
    }
    Ok(())
}

/// The mesh set-up both serving workloads share: generate, build,
/// encode. Returns the network, reducer, artifact and bytes.
fn build_mesh(
    run: &mut Run,
    builds: &mut Builds,
) -> BenchResult<(Network, Reducer, RomArtifact, Vec<u8>)> {
    let net = gen::mesh(100, 100, run.args.seed);
    let reducer = mesh_reducer()?;
    let (artifact, bytes) = builds
        .build(run, &reducer, &net)
        .ok_or("the mesh artifact build failed")?;
    Ok((net, reducer, artifact, bytes))
}

/// Transient step of a served artifact: twice the certified floor.
fn transient_step(a: &RomArtifact) -> f64 {
    2.0 * a
        .provenance
        .certificate
        .min_transient_step()
        .unwrap_or(1e-3)
}

fn envelope(a: &RomArtifact) -> BenchResult<(f64, f64)> {
    Ok(a.provenance
        .certificate
        .frequency_envelope()
        .ok_or("the served artifact has no certified envelope")?)
}

pub fn run_cold(run: &mut Run) -> BenchResult<()> {
    let mut setups = run.args.setups_in_children()?;
    let mut builds = Builds::default();
    let t0 = Instant::now();
    let (net, reducer, artifact, bytes) = build_mesh(run, &mut builds)?;
    setups.push(SetupTiming {
        setup_s: t0.elapsed().as_secs_f64(),
        build_s: builds.wall_s[0],
    });
    if run.args.setup_only {
        print_setup(setups[0]);
        return Ok(());
    }
    let (lo, hi) = envelope(&artifact)?;
    let h = transient_step(&artifact);
    let mut held = Rng::new(run.args.seed, gen::STREAM_HELD_OUT);
    let held_out = gen::frequency_set(&mut held, HELD_OUT, lo, hi);
    let full = full_sweep(&net, &held_out)?;
    builds.check(run, &artifact, &held_out, &full);

    let ports = (artifact.num_outputs(), artifact.num_inputs());
    let mut reqs = RequestGen::new(run.args.seed, 8, gen::REQUEST_FREQS, ports);
    let fresh = FreqSource::Fresh { lo, hi };
    let mut phase = Phase::start();
    let mut i = 0;
    while !phase.done(run.args.seconds, MIN_QUERIES) {
        let t = traced_op(run, i);
        let requests: Vec<Request> = (0..SESSION_REQUESTS).map(|_| reqs.next(&fresh)).collect();
        session(run, &mut phase, t, &bytes, 0, requests, h);
        i += 1;
    }
    phase.stop();
    run.tracer.set_recording(false);
    run.capture_host();

    check_replies(run, &phase.kept, &artifact, h, 4)?;
    if run.args.trace {
        report_traced_phase(run, &phase, &["session"]);
        layers::measure_kernels(
            run,
            &LayerInput {
                net: &net,
                reducer: &reducer,
                bytes: &bytes,
                build_s: builds.untraced_reduce_s(),
                cpu_over_wall: builds.cpu_over_wall(),
                max_rel_err: builds.max_rel_err,
                h,
                ladder_workload: false,
            },
        )?;
        layers::measure_probe_cluster(run, &bytes)?;
    } else {
        let reduce_s: Vec<f64> = setups.iter().map(|t| t.build_s).collect();
        report_end_to_end(
            run,
            &phase,
            &setups,
            &reduce_s,
            &builds,
            artifact.reduced_dim(),
        );
    }
    Ok(())
}

/// Restores the worker count the process started with.
fn restore_threads(outer: Option<&str>) {
    match outer {
        Some(v) => std::env::set_var("BDSM_THREADS", v),
        None => std::env::remove_var("BDSM_THREADS"),
    }
}

pub fn run_hot(run: &mut Run) -> BenchResult<()> {
    let outer_threads = std::env::var("BDSM_THREADS").ok();
    let mut setups = run.args.setups_in_children()?;
    let mut builds = Builds::default();
    let t0 = Instant::now();
    let (net, reducer, artifact, bytes) = build_mesh(run, &mut builds)?;
    // The build runs on the default worker count; serving runs on one
    // worker per shard, so the shard threads are the only parallelism.
    std::env::set_var("BDSM_THREADS", "1");
    let cluster = Cluster::spawn(&bytes)?;
    let (lo, hi) = envelope(&artifact)?;
    let pool = gen::frequency_set(
        &mut Rng::new(run.args.seed, gen::STREAM_HELD_OUT),
        POOL,
        lo,
        hi,
    );
    cluster.client.transfer_sweep(MODEL, &pool)?;
    setups.push(SetupTiming {
        setup_s: t0.elapsed().as_secs_f64(),
        build_s: builds.wall_s[0],
    });
    if run.args.setup_only {
        cluster.shutdown()?;
        print_setup(setups[0]);
        return Ok(());
    }
    let h = transient_step(&artifact);

    let ports = (artifact.num_outputs(), artifact.num_inputs());
    let mut reqs = RequestGen::new(run.args.seed, 16, gen::REQUEST_FREQS, ports);
    let from_pool = FreqSource::Pool(&pool);
    let mut phase = Phase::start();
    let mut i = 0;
    while !phase.done(run.args.seconds, MIN_QUERIES) {
        let t = traced_op(run, i);
        let request = reqs.next(&from_pool);
        let op = run.op_id();
        let root = run.tracer.begin("request", op);
        let (reply, ms) = run.tracer.time(serving::cluster_span(&request), op, || {
            serving::serve_cluster(&cluster.client, MODEL, &request, h)
        });
        run.tracer.end(root);
        if let Some(reply) = run.record(request.kind(), reply) {
            phase.lat[t].push(request.kind(), ms);
            phase.kept.push(Served {
                request,
                reply,
                source: 0,
            });
        }
        i += 1;
    }
    phase.stop();
    run.tracer.set_recording(false);
    run.capture_host();

    if run.args.trace {
        report_traced_phase(run, &phase, &["request"]);
        layers::measure_cluster(run, &cluster, &bytes)?;
    } else {
        let reduce_s: Vec<f64> = setups.iter().map(|t| t.build_s).collect();
        report_end_to_end(
            run,
            &phase,
            &setups,
            &reduce_s,
            &builds,
            artifact.reduced_dim(),
        );
    }
    cluster.shutdown()?;
    // Kernel probes and checks run on the worker count the process
    // started with.
    restore_threads(outer_threads.as_deref());
    let mut held = Rng::new(run.args.seed ^ 0xB0B, gen::STREAM_HELD_OUT);
    let held_out = gen::frequency_set(&mut held, HELD_OUT, lo, hi);
    let full = full_sweep(&net, &held_out)?;
    builds.check(run, &artifact, &held_out, &full);
    if run.args.trace {
        layers::measure_kernels(
            run,
            &LayerInput {
                net: &net,
                reducer: &reducer,
                bytes: &bytes,
                build_s: builds.untraced_reduce_s(),
                cpu_over_wall: builds.cpu_over_wall(),
                max_rel_err: builds.max_rel_err,
                h,
                ladder_workload: false,
            },
        )?;
    }

    // Every frequency reply, and a seeded sample of the transients, must
    // equal the same request on a local server bit for bit; a sample is
    // also held to the direct evaluation.
    let mut local = RomServer::new();
    let id = local.load_artifact(artifact.clone());
    let mut rng = Rng::new(run.args.seed, gen::STREAM_CHECKS ^ 0xC0);
    for s in &phase.kept {
        if matches!(s.request, Request::Transient(_)) && rng.below(4) != 0 {
            continue;
        }
        let want = serving::serve_local(&local, id, &s.request, h)?;
        if !serving::bitwise_eq(&s.reply, &want) {
            run.check_failed(
                s.request.kind(),
                "cluster reply differs from the local server's".into(),
            );
        }
    }
    check_replies(run, &phase.kept, &artifact, h, 8)?;
    Ok(())
}
