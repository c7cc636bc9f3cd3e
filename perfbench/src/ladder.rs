//! `reduce-ladder`: repeated builds of a 10⁴-state loaded RC ladder ROM
//! (fixed shifts; the ladder's banded pencil makes sparse LU trivial, so
//! the Krylov basis dominates). A request is a build, so the query
//! metrics report build latency; each build is followed by its first use,
//! a session of transient simulations on a fresh server.

use crate::gen::{self, FreqSource, RequestGen, Rng};
use crate::layers::{self, LayerInput};
use crate::run::{print_setup, BenchResult, Run, SetupTiming};
use crate::serve::{self, Builds, Phase};
use crate::serving::{self, Served};
use bdsm_rom::{Reducer, RomArtifact, RomServer};
use std::hint::black_box;
use std::time::Instant;

const N: usize = 10_000;
const SHIFTS: [f64; 8] = [2.0e1, 5.0e1, 1.5e2, 4.5e2, 1.5e3, 4.0e3, 1.2e4, 4.0e4];
/// Builds a run must hold; at about 0.8 s a build, `--seconds` gives more.
/// Only the median of so few is steady: p95 reads the slowest builds.
const MIN_BUILDS: usize = 10;
/// Transient batches of each first-use session: enough that a run holds
/// over a hundred transient samples, so their median is steady.
const FIRST_USE_TRANSIENTS: usize = 6;
const HELD_OUT: usize = 16;
/// Transient step: twice the floor of the certified band's top.
const H: f64 = 2.0 / 4.0e4;

/// 8 blocks, 8 fixed `jω` shifts at 2 moments each, budget n/5.
pub fn reducer() -> BenchResult<Reducer> {
    Ok(Reducer::builder()
        .blocks(8)
        .jomega_shifts(&SHIFTS)
        .moments(2)
        .budget(N / 5)
        .build()?)
}

pub fn run(run: &mut Run) -> BenchResult<()> {
    let seed = run.args.seed;
    let mut setups = run.args.setups_in_children()?;
    let t0 = Instant::now();
    let net = gen::ladder(N, seed);
    let reducer = reducer()?;
    let t_build = Instant::now();
    let warm = reducer.reduce_to_artifact(&net)?;
    black_box(warm.to_bytes());
    setups.push(SetupTiming {
        setup_s: t0.elapsed().as_secs_f64(),
        build_s: t_build.elapsed().as_secs_f64(),
    });
    if run.args.setup_only {
        print_setup(setups[0]);
        return Ok(());
    }

    // The build check's reference: the full model on a held-out grid
    // between the shifts, computed once per seed.
    let mut held = Rng::new(seed, gen::STREAM_HELD_OUT);
    let held_out = gen::frequency_set(&mut held, HELD_OUT, SHIFTS[0], SHIFTS[7]);
    let full = serve::full_sweep(&net, &held_out)?;

    // Every first-use request is a transient batch (a block of one).
    let mut reqs = RequestGen::new(seed, 1, gen::REQUEST_FREQS, (2, 2));
    let fresh = FreqSource::Fresh {
        lo: SHIFTS[0],
        hi: SHIFTS[7],
    };
    let mut builds = Builds::default();
    let mut artifacts: Vec<Vec<u8>> = Vec::new();
    let mut phase = Phase::start();
    let mut i = 0;
    while !phase.done(run.args.seconds, MIN_BUILDS) {
        let t = serve::traced_op(run, i);
        i += 1;
        let Some((artifact, bytes)) = builds.build(run, &reducer, &net) else {
            continue;
        };
        let build_ms = builds.wall_s.last().map_or(f64::NAN, |s| s * 1e3);
        phase.lat[t].push("build", build_ms);
        warm_up(artifact, &mut reqs, &fresh)?;
        let first_use = (0..FIRST_USE_TRANSIENTS)
            .map(|_| reqs.next(&fresh))
            .collect();
        serve::session(run, &mut phase, t, &bytes, artifacts.len(), first_use, H);
        artifacts.push(bytes);
    }
    phase.stop();
    run.tracer.set_recording(false);
    run.capture_host();

    // Checks: every build against the full model, its replies against a
    // direct evaluation on its own matrices.
    let mut rom_dim = 0;
    let mut by_build: Vec<Vec<Served>> = artifacts.iter().map(|_| Vec::new()).collect();
    for s in std::mem::take(&mut phase.kept) {
        by_build[s.source].push(s);
    }
    for (bytes, kept) in artifacts.iter().zip(&by_build) {
        let a = RomArtifact::from_bytes(bytes)?;
        builds.check(run, &a, &held_out, &full);
        rom_dim = a.reduced_dim();
        serve::check_replies(run, kept, &a, H, 1)?;
    }

    if run.args.trace {
        let first = artifacts.first().ok_or("no build succeeded")?;
        serve::report_traced_phase(run, &phase, &["build", "session"]);
        layers::measure_kernels(
            run,
            &LayerInput {
                net: &net,
                reducer: &reducer,
                bytes: first,
                build_s: builds.untraced_reduce_s(),
                cpu_over_wall: builds.cpu_over_wall(),
                max_rel_err: builds.max_rel_err,
                h: H,
                ladder_workload: true,
            },
        )?;
        layers::measure_probe_cluster(run, first)?;
    } else {
        let reduce_s = builds.wall_s.clone();
        serve::report_end_to_end(run, &phase, &setups, &reduce_s, &builds, rom_dim);
    }
    Ok(())
}

/// One unmeasured first use of a fresh build; its reply is discarded. A
/// build hands its memory back to the kernel, so the first use after it
/// pays page faults whose cost on a shared virtual host swings from run to
/// run, which would decide the transient latency.
fn warm_up(artifact: RomArtifact, reqs: &mut RequestGen, fresh: &FreqSource) -> BenchResult<()> {
    let mut server = RomServer::new();
    let id = server.load_artifact(artifact);
    black_box(serving::serve_local(&server, id, &reqs.next(fresh), H)?);
    Ok(())
}
