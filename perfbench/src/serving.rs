//! Issuing generated requests against a local `RomServer` or a cluster,
//! and the output checks every served reply is held to.

use crate::gen::Request;
use bdsm_cluster::{ClusterClient, ClusterError};
use bdsm_core::transfer::{eval_transfer, transfer_rel_err, CMatrix};
use bdsm_linalg::Complex64;
use bdsm_rom::{RomArtifact, RomError, RomId, RomServer};
use bdsm_sim::TransientSolver;

/// Relative tolerance of a served reply against a direct evaluation.
pub const REPLY_TOL: f64 = 1e-9;
/// Relative tolerance of a transient against a direct solver run.
pub const TRANSIENT_TOL: f64 = 1e-9;
/// Held-out-grid residual a build must stay within.
pub const BUILD_TOL: f64 = 1e-6;

/// `err ≤ tol`; a NaN error is never within tolerance.
pub fn within(err: f64, tol: f64) -> bool {
    err <= tol
}

/// A served reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Sweep(Vec<CMatrix>),
    Port(Vec<Complex64>),
    Transient(Vec<Vec<Vec<f64>>>),
}

/// One request and its reply, kept for the checks after the timed phase.
pub struct Served {
    pub request: Request,
    pub reply: Reply,
    /// Which artifact served it (the build index on reduce-ladder).
    pub source: usize,
}

/// Span name of a request kind served by a local `RomServer`.
pub fn local_span(req: &Request) -> &'static str {
    match req {
        Request::Sweep(_) => "rom.transfer_sweep",
        Request::Port { .. } => "rom.port_response",
        Request::Transient(_) => "rom.transient_batch",
    }
}

/// Span name of a request kind served by the cluster.
pub fn cluster_span(req: &Request) -> &'static str {
    match req {
        Request::Sweep(_) => "cluster.transfer_sweep",
        Request::Port { .. } => "cluster.port_response",
        Request::Transient(_) => "cluster.transient",
    }
}

pub fn serve_local(
    server: &RomServer,
    id: RomId,
    req: &Request,
    h: f64,
) -> Result<Reply, RomError> {
    Ok(match req {
        Request::Sweep(omegas) => Reply::Sweep(server.transfer_sweep(id, omegas)?),
        Request::Port {
            out_port,
            in_port,
            omegas,
        } => Reply::Port(server.port_response(id, *out_port, *in_port, omegas)?),
        Request::Transient(waveforms) => {
            Reply::Transient(server.transient_batch(id, h, waveforms)?)
        }
    })
}

/// The cluster has no batched transient: a transient request sends one
/// transient per waveform, in order, and waits for each.
pub fn serve_cluster(
    client: &ClusterClient,
    model: u64,
    req: &Request,
    h: f64,
) -> Result<Reply, ClusterError> {
    Ok(match req {
        Request::Sweep(omegas) => Reply::Sweep(client.transfer_sweep(model, omegas)?),
        Request::Port {
            out_port,
            in_port,
            omegas,
        } => Reply::Port(client.port_response(model, *out_port, *in_port, omegas)?),
        Request::Transient(waveforms) => Reply::Transient(
            waveforms
                .iter()
                .map(|w| client.transient(model, h, w))
                .collect::<Result<_, _>>()?,
        ),
    })
}

/// `H(jω)` evaluated directly on the artifact's own matrices.
pub fn direct_transfer(a: &RomArtifact, omega: f64) -> Result<CMatrix, String> {
    eval_transfer(&a.g, &a.c, &a.b, &a.l, Complex64::jomega(omega)).map_err(|e| e.to_string())
}

/// Checks the frequency samples `idx` of a sweep or port reply against
/// `direct` (a direct evaluation of `H(jω)`); `Err` describes the first
/// mismatch.
pub fn check_frequency_reply(
    req: &Request,
    reply: &Reply,
    idx: &[usize],
    direct: &mut dyn FnMut(f64) -> Result<CMatrix, String>,
) -> Result<(), String> {
    let shape_ok = match (req, reply) {
        (Request::Sweep(w), Reply::Sweep(m)) => w.len() == m.len(),
        (Request::Port { omegas: w, .. }, Reply::Port(v)) => w.len() == v.len(),
        _ => false,
    };
    if !shape_ok {
        return Err("reply does not match its request's shape".to_string());
    }
    for &i in idx {
        match (req, reply) {
            (Request::Sweep(omegas), Reply::Sweep(mats)) => {
                let want = direct(omegas[i])?;
                let err = transfer_rel_err(&want, &mats[i]);
                if !within(err, REPLY_TOL) {
                    return Err(format!("sweep at ω={} off by {err:e}", omegas[i]));
                }
            }
            (
                Request::Port {
                    out_port,
                    in_port,
                    omegas,
                },
                Reply::Port(vals),
            ) => {
                let want = direct(omegas[i])?[(*out_port, *in_port)];
                let err = (vals[i] - want).abs() / want.abs().max(f64::MIN_POSITIVE);
                if !within(err, REPLY_TOL) {
                    return Err(format!("port at ω={} off by {err:e}", omegas[i]));
                }
            }
            _ => return Err("reply kind does not match its request".to_string()),
        }
    }
    Ok(())
}

/// Checks a transient reply: finite, and within [`TRANSIENT_TOL`] of a
/// direct run of `solver` (a `TransientSolver` on the artifact's
/// matrices at the request's step), relative to the largest output
/// magnitude.
pub fn check_transient_reply(
    solver: &mut TransientSolver,
    req: &Request,
    reply: &Reply,
) -> Result<(), String> {
    let (Request::Transient(waveforms), Reply::Transient(outs)) = (req, reply) else {
        return Err("reply kind does not match its request".to_string());
    };
    if outs.len() != waveforms.len() {
        return Err("wrong number of waveforms".to_string());
    }
    for (w, got) in waveforms.iter().zip(outs) {
        solver.reset();
        let want = solver.run_series(w).map_err(|e| e.to_string())?;
        if got.len() != want.len() || got.iter().zip(&want).any(|(g, r)| g.len() != r.len()) {
            return Err("transient output has the wrong shape".to_string());
        }
        let scale = want
            .iter()
            .flatten()
            .fold(0.0_f64, |m, v| m.max(v.abs()))
            .max(f64::MIN_POSITIVE);
        let mut worst = 0.0_f64;
        for (g, r) in got.iter().flatten().zip(want.iter().flatten()) {
            if !g.is_finite() {
                return Err("non-finite transient output".to_string());
            }
            worst = worst.max((g - r).abs());
        }
        if !within(worst / scale, TRANSIENT_TOL) {
            return Err(format!("transient off by {:e}", worst / scale));
        }
    }
    Ok(())
}

/// Checks any reply: frequency samples `idx` against `direct`, transients
/// against `solver`.
pub fn check_reply(
    served: &Served,
    idx: &[usize],
    direct: &mut dyn FnMut(f64) -> Result<CMatrix, String>,
    solver: &mut TransientSolver,
) -> Result<(), String> {
    match served.request {
        Request::Transient(_) => check_transient_reply(solver, &served.request, &served.reply),
        _ => check_frequency_reply(&served.request, &served.reply, idx, direct),
    }
}

/// Whether every number in a reply is finite.
pub fn all_finite(reply: &Reply) -> bool {
    match reply {
        Reply::Sweep(mats) => mats
            .iter()
            .all(|m| (0..m.nrows()).all(|i| (0..m.ncols()).all(|j| m[(i, j)].is_finite()))),
        Reply::Port(vals) => vals.iter().all(|v| v.is_finite()),
        Reply::Transient(outs) => outs.iter().flatten().flatten().all(|v| v.is_finite()),
    }
}

/// Bitwise equality of two replies (`-0.0 ≠ 0.0`, NaN payloads compared).
pub fn bitwise_eq(a: &Reply, b: &Reply) -> bool {
    fn c_eq(x: &Complex64, y: &Complex64) -> bool {
        x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()
    }
    fn m_eq(x: &CMatrix, y: &CMatrix) -> bool {
        x.nrows() == y.nrows()
            && x.ncols() == y.ncols()
            && (0..x.nrows()).all(|i| (0..x.ncols()).all(|j| c_eq(&x[(i, j)], &y[(i, j)])))
    }
    match (a, b) {
        (Reply::Sweep(x), Reply::Sweep(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| m_eq(p, q))
        }
        (Reply::Port(x), Reply::Port(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| c_eq(p, q))
        }
        (Reply::Transient(x), Reply::Transient(y)) => {
            let bits = |t: &Vec<Vec<Vec<f64>>>| -> Vec<Vec<Vec<u64>>> {
                t.iter()
                    .map(|w| {
                        w.iter()
                            .map(|s| s.iter().map(|v| v.to_bits()).collect())
                            .collect()
                    })
                    .collect()
            };
            bits(x) == bits(y)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitwise_eq_tells_signed_zeros_apart() {
        let a = Reply::Port(vec![Complex64 { re: 0.0, im: 1.0 }]);
        let b = Reply::Port(vec![Complex64 { re: -0.0, im: 1.0 }]);
        assert!(bitwise_eq(&a, &a.clone()));
        assert!(!bitwise_eq(&a, &b));
        assert!(!bitwise_eq(&a, &Reply::Transient(vec![])));
    }
}
