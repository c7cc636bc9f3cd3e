//! Moment-matching Krylov bases for descriptor models.
//!
//! For an expansion point `s₀`, the transfer function
//! `H(s) = L (G + sC)⁻¹ B` has the Taylor/moment structure generated by
//! `A = −(G + s₀C)⁻¹ C` and `R = (G + s₀C)⁻¹ B`: a projection basis whose
//! span contains `{R, AR, …, A^{q−1}R}` matches the first `q` block moments
//! of `H` around `s₀`. This module builds such a basis with a block Arnoldi
//! recurrence (modified Gram–Schmidt with reorthogonalization and
//! deflation), optionally over several expansion points.
//!
//! # Multi-shift fan-out
//!
//! Expansion points are mutually independent until their subspaces are
//! unioned, so the expensive work — one shifted factorization plus the
//! block recurrence per point — fans out over [`crate::par`] workers, each
//! point deflating only against its **own** candidates. The factorization
//! and the recurrence are further *pipelined* through
//! [`crate::par::pipelined_map_with`]: workers refactorize upcoming shifts
//! while earlier shifts' recurrences are still accumulating basis blocks,
//! so a host with more cores than shifts stays busy.
//!
//! The per-point candidate sets are then merged into one orthonormal
//! global basis. The default [`OrthoKernel::Blocked`] kernel does this
//! with panel-blocked block-classical-Gram–Schmidt (BCGS2 on
//! `dense::gemm`-shaped kernels) over a **fixed binary merge tree** whose
//! shape depends only on the number of points — sibling merges at each
//! level run in parallel, and because every node is a pure function of its
//! children, the produced basis is bitwise-identical for any worker count.
//! [`OrthoKernel::Mgs`] retains the historical sequential
//! modified-Gram–Schmidt pass in point order as a testable oracle: both
//! kernels produce the same span with the same accepted/deflated column
//! counts at default tolerances.
//!
//! Every point writes its candidates straight into its own column range of
//! one shared column-major buffer, sized up front for every column its
//! recurrence can produce, and the merge tree then runs in that same
//! buffer — so the basis stage holds one copy of the candidates and no
//! per-point or per-node clones.
//!
//! # Subnormal scrub
//!
//! Krylov content decays exponentially away from the ports, so on long or
//! heavily loaded lines the far entries of a shifted solve fall below
//! `f64::MIN_POSITIVE`, and every multiply–add on such subnormal operands
//! takes a microcode slow path. The recurrences therefore set subnormal
//! entries to zero after every shifted solve and after normalizing every
//! accepted column — in both kernels, so they keep their parity. This
//! cannot change a reduced model beyond rounding: global columns are unit
//! norm, and the projector drops block slices whose norm is ≤ 1e-150, so
//! a zeroed entry sat more than 10¹⁵⁷ below any slice that survives.
//!
//! Two shifted-solve backends implement the same recurrence:
//! [`global_krylov_basis`] densifies and LU-factors `G + s₀C` per point
//! (the verification oracle), while [`global_krylov_basis_sparse`] builds a
//! [`ShiftedPencil`] once — pattern union plus fill-reducing ordering — and
//! refactors it numerically per expansion point through a per-worker
//! [`LuWorkspace`], which is what makes `n ≫ 10⁴` grids tractable.

use crate::par;
use crate::transfer::ZLu;
use bdsm_linalg::{Complex64, DenseLu, LinalgError, Matrix, Result};
use bdsm_sparse::{CscMatrix, LuWorkspace, ShiftedPencil, SparseLu};
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// Options controlling the moment-matching basis.
#[derive(Debug, Clone)]
pub struct KrylovOpts {
    /// Real expansion points `s₀` (must keep `G + s₀C` nonsingular).
    pub expansion_points: Vec<f64>,
    /// Imaginary-axis expansion points `s₀ = jω₀`, given as angular
    /// frequencies `ω₀`. The complex Krylov vectors are split into real and
    /// imaginary parts (two basis columns each), keeping the basis — and
    /// hence the congruence transform — real while matching moments exactly
    /// where frequency-domain accuracy is wanted.
    pub jomega_points: Vec<f64>,
    /// Block moments matched per expansion point (`q ≥ 1`).
    pub moments_per_point: usize,
    /// Relative norm threshold under which a candidate direction is
    /// considered linearly dependent and deflated.
    pub deflation_tol: f64,
    /// Which orthogonalization kernel builds local sets and the merge.
    pub ortho: OrthoKernel,
}

impl Default for KrylovOpts {
    fn default() -> Self {
        KrylovOpts {
            expansion_points: vec![0.0],
            jomega_points: Vec::new(),
            moments_per_point: 4,
            deflation_tol: 1e-10,
            ortho: OrthoKernel::Blocked,
        }
    }
}

/// Orthogonalization kernel selection — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrthoKernel {
    /// Panel-blocked block-classical-Gram–Schmidt (two GEMM-shaped
    /// projection passes per candidate panel plus a small intra-panel
    /// sweep) with a fixed binary merge tree across points. The default:
    /// parallelizes the merge and keeps flops in contiguous kernels.
    #[default]
    Blocked,
    /// Sequential modified Gram–Schmidt with reorthogonalization, one
    /// candidate at a time in point order — the historical formulation,
    /// retained as the parity oracle for the blocked kernel.
    Mgs,
}

/// One expansion point of either kind — the unit of work of the
/// multi-shift fan-out and the currency of the adaptive engine's greedy
/// selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExpansionPoint {
    /// Real shift `s₀` (must keep `G + s₀C` nonsingular).
    Real(f64),
    /// Imaginary-axis shift `s₀ = jω₀`, stored as the angular frequency.
    Jomega(f64),
}

/// The expansion points of a [`KrylovOpts`], in deterministic merge order
/// (real points first, then `jω` points, each in declaration order).
pub fn collect_points(opts: &KrylovOpts) -> Vec<ExpansionPoint> {
    opts.expansion_points
        .iter()
        .map(|&s| ExpansionPoint::Real(s))
        .chain(
            opts.jomega_points
                .iter()
                .map(|&w| ExpansionPoint::Jomega(w)),
        )
        .collect()
}

/// Builds a global orthonormal moment-matching basis for `(G, C, B)`.
///
/// Returns an `n × q` matrix with orthonormal columns whose span contains
/// the union of the block Krylov subspaces of every expansion point.
///
/// # Errors
///
/// - [`LinalgError::InvalidArgument`] on shape mismatches, empty options, or
///   a fully deflated (empty) basis.
/// - [`LinalgError::Singular`] if `G + s₀C` is singular at some point.
pub fn global_krylov_basis(
    g: &Matrix,
    c: &Matrix,
    b: &Matrix,
    opts: &KrylovOpts,
) -> Result<Matrix> {
    let n = g.nrows();
    validate_krylov_args(g.is_square() && c.shape() == (n, n), n, b, opts)?;
    let points = collect_points(opts);
    let cands = candidates_for_points_dense(g, c, b, opts, &points)?;
    merge_candidates(cands, opts.deflation_tol, opts.ortho)
}

/// A shift's numeric factors, produced ahead of its recurrence by the
/// factor-queue pipeline (dense-oracle flavour).
enum DenseFactor {
    Real(DenseLu),
    Jomega(ZLu),
}

/// Per-point candidate sets through the dense oracle kernels, pipelined
/// over [`crate::par`] — the staged engine's Basis-stage workhorse for
/// [`crate::reduce::SolverBackend::Dense`]. The producer stage factors
/// `G + s₀C` per shift; the consumer stage runs that shift's block
/// recurrence, overlapping with later shifts' factorizations.
pub(crate) fn candidates_for_points_dense(
    g: &Matrix,
    c: &Matrix,
    b: &Matrix,
    opts: &KrylovOpts,
    points: &[ExpansionPoint],
) -> Result<Candidates> {
    let n = g.nrows();
    Candidates::pipelined(
        b,
        opts,
        points,
        || (),
        |(), i, pt| {
            let mut s = bdsm_obs::timing_span!("krylov.point", point = i, stage = "factor");
            match pt {
                ExpansionPoint::Real(s0) => {
                    s.attr("s0", s0);
                    let shifted = g.add(&c.scaled(s0))?;
                    Ok(DenseFactor::Real(DenseLu::factor(&shifted)?))
                }
                ExpansionPoint::Jomega(omega) => {
                    s.attr("omega", omega);
                    Ok(DenseFactor::Jomega(ZLu::factor_shifted(
                        g,
                        c,
                        Complex64::jomega(omega),
                    )?))
                }
            }
        },
        |i, pt, factored, out| {
            let mut s = bdsm_obs::timing_span!("krylov.point", point = i, stage = "recur");
            match (pt, factored) {
                (ExpansionPoint::Real(s0), DenseFactor::Real(lu)) => {
                    s.attr("s0", s0);
                    real_point_candidates(
                        b,
                        opts,
                        |vs| solve_columns(n, vs, |v| lu.solve(v)),
                        |v| c.matvec(v),
                        out,
                    )
                }
                (ExpansionPoint::Jomega(omega), DenseFactor::Jomega(lu)) => {
                    s.attr("omega", omega);
                    // C is real and v complex: row-wise accumulation over dense C.
                    let apply_c = |v: &[Complex64]| -> Result<Vec<Complex64>> {
                        Ok((0..n)
                            .map(|i| {
                                let row = c.row(i);
                                let mut acc = Complex64::ZERO;
                                for (cij, vj) in row.iter().zip(v) {
                                    acc += *vj * *cij;
                                }
                                acc
                            })
                            .collect())
                    };
                    jomega_point_candidates(
                        b,
                        opts,
                        |vs| solve_columns(n, vs, |v| lu.solve_real(v)),
                        |vs| solve_columns(n, vs, |v| lu.solve(v)),
                        apply_c,
                        out,
                    )
                }
                _ => unreachable!("factor queue delivered a mismatched shift kind"),
            }
        },
    )
}

/// Builds the same global moment-matching basis as [`global_krylov_basis`],
/// but through the sparse factorization subsystem: the `G + s₀C` pattern
/// and its fill-reducing ordering are analysed once, and each expansion
/// point is a numeric-only sparse refactorization through its worker's
/// reusable [`LuWorkspace`].
///
/// # Errors
///
/// - [`LinalgError::InvalidArgument`] on shape mismatches, empty options,
///   or a fully deflated (empty) basis.
/// - [`LinalgError::Singular`] if `G + s₀C` is singular at some point.
pub fn global_krylov_basis_sparse(
    g: &CscMatrix<f64>,
    c: &CscMatrix<f64>,
    b: &Matrix,
    opts: &KrylovOpts,
) -> Result<Matrix> {
    let n = g.nrows();
    validate_krylov_args(g.is_square() && c.shape() == (n, n), n, b, opts)?;
    let pencil = ShiftedPencil::new(g, c)?;
    let points = collect_points(opts);
    let cands = candidates_for_points_sparse(&pencil, c, b, opts, &points)?;
    merge_candidates(cands, opts.deflation_tol, opts.ortho)
}

/// A shift's numeric factors from the sparse subsystem, produced on a
/// worker by the factor-queue pipeline while other shifts recur.
enum SparseFactor {
    Real(SparseLu<f64>),
    Jomega(SparseLu<Complex64>),
}

/// Per-point candidate sets through the sparse subsystem, pipelined over
/// [`crate::par`] with per-worker [`LuWorkspace`] scratch. Takes the
/// [`ShiftedPencil`] from the caller so the adaptive engine amortizes the
/// symbolic analysis across every greedy round, not just within one call.
///
/// The producer stage runs `ShiftedPencil::factor_*_with` — a numeric-only
/// refactorization through the worker's reusable workspace — and the
/// consumer stage runs the shift's block recurrence, so per-shift
/// refactorization overlaps basis accumulation (the factor queue). Both
/// stages are pure functions of their expansion point, so results are
/// bitwise-independent of the worker schedule.
pub(crate) fn candidates_for_points_sparse(
    pencil: &ShiftedPencil,
    c: &CscMatrix<f64>,
    b: &Matrix,
    opts: &KrylovOpts,
    points: &[ExpansionPoint],
) -> Result<Candidates> {
    let n = b.nrows();
    Candidates::pipelined(
        b,
        opts,
        points,
        || (LuWorkspace::<f64>::new(), LuWorkspace::<Complex64>::new()),
        |(ws_re, ws_cx), i, pt| {
            let mut s = bdsm_obs::timing_span!("krylov.point", point = i, stage = "factor");
            match pt {
                ExpansionPoint::Real(s0) => {
                    s.attr("s0", s0);
                    Ok(SparseFactor::Real(pencil.factor_real_with(s0, ws_re)?))
                }
                ExpansionPoint::Jomega(omega) => {
                    s.attr("omega", omega);
                    Ok(SparseFactor::Jomega(
                        pencil.factor_complex_with(Complex64::jomega(omega), ws_cx)?,
                    ))
                }
            }
        },
        |i, pt, factored, out| {
            let mut s = bdsm_obs::timing_span!("krylov.point", point = i, stage = "recur");
            match (pt, factored) {
                (ExpansionPoint::Real(s0), SparseFactor::Real(lu)) => {
                    s.attr("s0", s0);
                    real_point_candidates(
                        b,
                        opts,
                        |vs| lu.solve_multi(vs, vs.len() / n),
                        |v| c.matvec(v),
                        out,
                    )
                }
                (ExpansionPoint::Jomega(omega), SparseFactor::Jomega(lu)) => {
                    s.attr("omega", omega);
                    jomega_point_candidates(
                        b,
                        opts,
                        |vs| lu.solve_multi_real(vs, vs.len() / n),
                        |vs| lu.solve_multi(vs, vs.len() / n),
                        |v| c.matvec_complex(v),
                        out,
                    )
                }
                _ => unreachable!("factor queue delivered a mismatched shift kind"),
            }
        },
    )
}

/// Applies a single-vector solve to every column of the column-major
/// panel `vs` (leading dimension `n`) — the dense oracle's stand-in for
/// the sparse subsystem's multi-RHS solve.
fn solve_columns<T, U>(
    n: usize,
    vs: &[T],
    solve: impl Fn(&[T]) -> Result<Vec<U>>,
) -> Result<Vec<U>> {
    let mut x = Vec::with_capacity(vs.len());
    for v in vs.chunks_exact(n) {
        x.extend(solve(v)?);
    }
    Ok(x)
}

fn validate_krylov_args(shapes_ok: bool, n: usize, b: &Matrix, opts: &KrylovOpts) -> Result<()> {
    if !shapes_ok {
        return Err(LinalgError::InvalidArgument {
            what: "krylov: G and C must be square with equal shape",
        });
    }
    if b.nrows() != n || b.ncols() == 0 {
        return Err(LinalgError::InvalidArgument {
            what: "krylov: B must have n rows and at least one column",
        });
    }
    if (opts.expansion_points.is_empty() && opts.jomega_points.is_empty())
        || opts.moments_per_point == 0
    {
        return Err(LinalgError::InvalidArgument {
            what: "krylov: need at least one expansion point and one moment",
        });
    }
    Ok(())
}

/// A contiguous range of `width` columns of a candidate buffer, starting
/// at column `start`, whose first `cols` columns are orthonormal. Leaves
/// are one expansion point's candidate set; inner nodes are merge-tree
/// nodes over adjacent sets.
#[derive(Debug, Clone, Copy)]
struct ColumnRange {
    start: usize,
    width: usize,
    cols: usize,
}

/// Every expansion point's locally orthonormal candidate columns, in one
/// column-major buffer (leading dimension `n`), in point order.
///
/// Each point owns a column range sized for every column its recurrence
/// can produce and writes its candidates straight into it, so the sets
/// never exist as separate allocations; the fixed-shift merge then runs in
/// this very buffer.
pub(crate) struct Candidates {
    n: usize,
    data: Vec<f64>,
    sets: Vec<ColumnRange>,
}

impl Candidates {
    /// Runs the factor-queue pipeline ([`crate::par::pipelined_map_with`])
    /// over `points`: `produce` factors a shift on a worker, and `consume`
    /// runs its recurrence into the point's column range, returning how
    /// many columns it kept. The first failure in point order is returned.
    fn pipelined<S, P: Send>(
        b: &Matrix,
        opts: &KrylovOpts,
        points: &[ExpansionPoint],
        init: impl Fn() -> S + Sync,
        produce: impl Fn(&mut S, usize, ExpansionPoint) -> Result<P> + Sync,
        consume: impl Fn(usize, ExpansionPoint, P, &mut [f64]) -> Result<usize> + Sync,
    ) -> Result<Candidates> {
        let n = b.nrows();
        if n == 0 {
            return Err(LinalgError::InvalidArgument {
                what: "krylov: the state dimension must be positive",
            });
        }
        // Per moment, a real point yields at most one column per input and
        // a jω point two (real and imaginary parts).
        let real_width = b.ncols() * opts.moments_per_point;
        let mut sets = Vec::with_capacity(points.len());
        let mut total = 0;
        for pt in points {
            let width = match pt {
                ExpansionPoint::Real(_) => real_width,
                ExpansionPoint::Jomega(_) => 2 * real_width,
            };
            sets.push(ColumnRange {
                start: total,
                width,
                cols: 0,
            });
            total += width;
        }
        let mut data = vec![0.0; n * total];
        let kept = {
            let items: Vec<(ExpansionPoint, Mutex<&mut [f64]>)> = points
                .iter()
                .copied()
                .zip(split_ranges(&mut data, n, &sets))
                .collect();
            par::pipelined_map_with(
                &items,
                init,
                |state, i, &(pt, _)| produce(state, i, pt),
                |_, i, (pt, out), factored| {
                    let mut out = out.lock().unwrap_or_else(PoisonError::into_inner);
                    consume(i, *pt, factored?, &mut out)
                },
            )
        };
        for (set, kept) in sets.iter_mut().zip(kept) {
            set.cols = kept?;
        }
        Ok(Candidates { n, data, sets })
    }

    /// The orthonormal columns of one set (or tree node).
    fn columns(&self, r: ColumnRange) -> std::slice::ChunksExact<'_, f64> {
        self.data[r.start * self.n..(r.start + r.cols) * self.n].chunks_exact(self.n)
    }
}

/// Carves the column-major buffer `data` (leading dimension `n`) into the
/// consecutive column ranges `ranges`, one lock per range so workers can
/// fill disjoint ranges concurrently.
fn split_ranges<'a>(
    data: &'a mut [f64],
    n: usize,
    ranges: &[ColumnRange],
) -> Vec<Mutex<&'a mut [f64]>> {
    let mut rest = data;
    ranges
        .iter()
        .map(|r| {
            let (range, tail) = std::mem::take(&mut rest).split_at_mut(r.width * n);
            rest = tail;
            Mutex::new(range)
        })
        .collect()
}

/// Merges per-point candidate sets into one orthonormal basis — the only
/// cross-point coupling, so the result depends on the fixed point order,
/// never on how the points were scheduled across workers.
pub(crate) fn merge_candidates(cands: Candidates, tol: f64, kernel: OrthoKernel) -> Result<Matrix> {
    match kernel {
        OrthoKernel::Mgs => merge_sets_mgs(&cands, tol),
        OrthoKernel::Blocked => merge_sets_blocked(cands, tol),
    }
}

/// Merges **cached** per-point candidate sets (the adaptive engine's
/// cross-round cache) — the same pass and set order as
/// [`merge_candidates`], so a cached point contributes exactly the columns
/// it would have contributed in a single fixed-shift call. The cache is
/// only read: its kept columns are copied into a fresh merge buffer.
pub(crate) fn merge_candidate_sets(
    cache: &[Candidates],
    tol: f64,
    kernel: OrthoKernel,
) -> Result<Matrix> {
    let n = cache.first().map_or(0, |c| c.n);
    let total: usize = cache.iter().flat_map(|c| &c.sets).map(|s| s.cols).sum();
    let mut data = Vec::with_capacity(n * total);
    let mut sets = Vec::new();
    for c in cache {
        for &s in &c.sets {
            sets.push(ColumnRange {
                start: data.len() / n,
                width: s.cols,
                cols: s.cols,
            });
            c.columns(s).for_each(|col| data.extend_from_slice(col));
        }
    }
    merge_candidates(Candidates { n, data, sets }, tol, kernel)
}

/// The oracle merge: sequential MGS over every candidate in point order.
fn merge_sets_mgs(cands: &Candidates, tol: f64) -> Result<Matrix> {
    let n = cands.n;
    let mut basis: Vec<f64> = Vec::new();
    let mut k = 0;
    for (i, &set) in cands.sets.iter().enumerate() {
        let _s = bdsm_obs::timing_span!("krylov.merge", point = i);
        for v in cands.columns(set) {
            basis.extend_from_slice(v);
            let (done, slot) = basis.split_at_mut(k * n);
            if orthonormalize_against(slot, done, tol) {
                k += 1;
            } else {
                basis.truncate(k * n);
            }
        }
    }
    finish_merge(basis, n, k)
}

/// The default merge: per-point panels are pairwise-combined up a fixed
/// binary tree (adjacent siblings, left-to-right), every node absorbing
/// its right child's columns into its left child with the panel-blocked
/// kernel. The tree shape depends only on the number of sets, each node is
/// a pure function of its children, and nodes of one level fan out over
/// [`crate::par`] — so the basis is bitwise-identical for any worker
/// count, and column order still follows point order.
///
/// The tree runs inside the candidate buffer itself: sibling nodes own
/// disjoint column ranges, and a merge compacts the accepted right-child
/// columns leftwards in place, so no node is ever copied.
fn merge_sets_blocked(cands: Candidates, tol: f64) -> Result<Matrix> {
    let Candidates {
        n,
        mut data,
        sets: mut nodes,
    } = cands;
    let mut level = 1u64;
    while nodes.len() > 1 {
        let pairs: Vec<ColumnRange> = nodes
            .chunks(2)
            .map(|pair| ColumnRange {
                start: pair[0].start,
                width: pair.iter().map(|nd| nd.width).sum(),
                cols: 0,
            })
            .collect();
        let jobs: Vec<_> = nodes
            .chunks(2)
            .zip(split_ranges(&mut data, n, &pairs))
            .collect();
        nodes = par::parallel_map(&jobs, |i, (pair, range)| {
            let &[left, right] = *pair else {
                return pair[0]; // Odd node rides up unchanged.
            };
            let _s = bdsm_obs::timing_span!(
                "krylov.merge",
                level = level,
                node = i as u64,
                left = left.cols as u64,
                right = right.cols as u64,
            );
            let mut range = range.lock().unwrap_or_else(PoisonError::into_inner);
            merge_pair(n, &mut range, left, right, tol)
        });
        level += 1;
    }
    let _s = bdsm_obs::timing_span!("krylov.merge", level = level);
    let k = nodes.first().map_or(0, |root| root.cols);
    data.truncate(n * k);
    finish_merge(data, n, k)
}

/// Absorbs `right`'s panel into `left`'s inside their shared column range
/// `cols` (left's columns first), `ORTHO_PANEL` candidates at a time.
/// Accepted columns land right after `left`'s panel; each candidate chunk
/// is copied out before it is absorbed, and no more columns are accepted
/// than consumed, so the writes never reach an unread candidate.
fn merge_pair(
    n: usize,
    cols: &mut [f64],
    left: ColumnRange,
    right: ColumnRange,
    tol: f64,
) -> ColumnRange {
    let mut q = left.cols;
    let mut cands = Vec::with_capacity(n * ORTHO_PANEL);
    let mut scratch = Vec::new();
    for c0 in (left.width..left.width + right.cols).step_by(ORTHO_PANEL) {
        let c1 = (c0 + ORTHO_PANEL).min(left.width + right.cols);
        cands.clear();
        cands.extend_from_slice(&cols[c0 * n..c1 * n]);
        blocked_absorb(
            n,
            &mut cols[..(q + c1 - c0) * n],
            &mut q,
            &mut cands,
            tol,
            &mut scratch,
        );
    }
    ColumnRange {
        start: left.start,
        width: left.width + right.width,
        cols: q,
    }
}

/// Turns the merged column-major `n × k` panel `basis` into the row-major
/// global basis, reusing its allocation.
fn finish_merge(mut basis: Vec<f64>, n: usize, k: usize) -> Result<Matrix> {
    if k == 0 {
        return Err(LinalgError::InvalidArgument {
            what: "krylov: all start vectors deflated; basis is empty",
        });
    }
    if bdsm_obs::enabled(bdsm_obs::ObsLevel::Timings) {
        bdsm_obs::metrics().basis_columns.set(k as u64);
    }
    col_to_row_major(&mut basis, n, k);
    Matrix::from_vec(n, k, basis)
}

/// Reorders a column-major `n × k` matrix into row-major order in place:
/// entry `(i, j)` moves from `j·n + i` to `i·k + j`, and every cycle of
/// that permutation is followed once.
fn col_to_row_major(a: &mut [f64], n: usize, k: usize) {
    debug_assert_eq!(a.len(), n * k);
    let mut moved = vec![0u64; a.len().div_ceil(64)];
    for start in 0..a.len() {
        if moved[start / 64] >> (start % 64) & 1 == 1 {
            continue;
        }
        let mut carry = a[start];
        let mut p = start;
        loop {
            let q = (p % n) * k + p / n;
            std::mem::swap(&mut a[q], &mut carry);
            moved[q / 64] |= 1 << (q % 64);
            if q == start {
                break;
            }
            p = q;
        }
    }
}

/// Candidate-panel width of the blocked kernel: candidates are absorbed
/// this many columns at a time, so the two projection passes stay
/// GEMM-shaped while the intra-panel cleanup stays tiny.
const ORTHO_PANEL: usize = 8;

/// Absorbs a column-major panel of candidates `v` (leading dimension `n`)
/// into the orthonormal panel held in the first `*qc` columns of `q`: two
/// block-classical-Gram–Schmidt projection passes against it
/// ([`bdsm_linalg::block_project`] — `H = QᵀV; V -= QH` on the contiguous
/// panel), then a sequential intra-panel MGS sweep with the oracle's
/// deflation rule (remainder ≤ `tol` × entry norm deflates). Accepted
/// columns are normalized, scrubbed of subnormals, and written after the
/// panel, so `q` must have room for every candidate; `*qc` counts them in.
fn blocked_absorb(
    n: usize,
    q: &mut [f64],
    qc: &mut usize,
    v: &mut [f64],
    tol: f64,
    scratch: &mut Vec<f64>,
) {
    let pc = v.len() / n;
    if pc == 0 {
        return;
    }
    debug_assert!(q.len() >= (*qc + pc) * n);
    let norm0: Vec<f64> = v.chunks_exact(n).map(bdsm_linalg::vector::norm2).collect();
    if *qc > 0 {
        if bdsm_obs::enabled(bdsm_obs::ObsLevel::Timings) {
            bdsm_obs::metrics().ortho_panel_merges.inc();
        }
        // Two passes = block reorthogonalization, the panel analogue of the
        // oracle's second MGS sweep.
        for _ in 0..2 {
            bdsm_linalg::block_project(n, *qc, &q[..*qc * n], pc, v, scratch);
        }
    }
    let first_new = *qc;
    for (j, col) in v.chunks_exact_mut(n).enumerate() {
        if norm0[j] == 0.0 {
            continue;
        }
        let (panel, free) = q.split_at_mut(*qc * n);
        // Intra-panel cleanup: two MGS passes against the columns this very
        // panel contributed (everything older is already projected out by
        // the block passes)...
        for _ in 0..2 {
            for qt in panel[first_new * n..].chunks_exact(n) {
                let h = bdsm_linalg::vector::dot(qt, col);
                bdsm_linalg::vector::axpy(-h, qt, col);
            }
        }
        // ...then one sweep over the whole accumulated panel: the intra
        // passes can shrink the column and re-magnify ε-level components
        // against the older columns, and this final sweep restores
        // ε-orthogonality relative to the column's *final* norm.
        for qt in panel.chunks_exact(n) {
            let h = bdsm_linalg::vector::dot(qt, col);
            bdsm_linalg::vector::axpy(-h, qt, col);
        }
        let norm1 = bdsm_linalg::vector::normalize(col, 0.0);
        if norm1 > tol * norm0[j] {
            bdsm_linalg::vector::flush_subnormals(col);
            free[..n].copy_from_slice(col);
            *qc += 1;
        }
    }
}

/// A point-local accumulating orthonormal basis, built in place in the
/// point's column range of the candidate buffer with either kernel, so
/// both recurrences stay kernel-agnostic.
struct LocalBasis<'a> {
    kernel: OrthoKernel,
    n: usize,
    /// Column-major; the first `cols` columns are the basis so far, the
    /// rest is room for every candidate still to come.
    out: &'a mut [f64],
    cols: usize,
    scratch: Vec<f64>,
}

impl<'a> LocalBasis<'a> {
    fn new(kernel: OrthoKernel, n: usize, out: &'a mut [f64]) -> Self {
        LocalBasis {
            kernel,
            n,
            out,
            cols: 0,
            scratch: Vec::new(),
        }
    }

    /// Orthonormalizes the column-major candidate panel `block` (used as
    /// scratch) against the basis and appends the columns that survive
    /// deflation; returns their column indices.
    fn absorb(&mut self, block: &mut [f64], tol: f64) -> Range<usize> {
        let n = self.n;
        let before = self.cols;
        match self.kernel {
            OrthoKernel::Mgs => {
                for v in block.chunks_exact(n) {
                    let (basis, free) = self.out.split_at_mut(self.cols * n);
                    let slot = &mut free[..n];
                    slot.copy_from_slice(v);
                    if orthonormalize_against(slot, basis, tol) {
                        self.cols += 1;
                    }
                }
            }
            OrthoKernel::Blocked => {
                for chunk in block.chunks_mut(ORTHO_PANEL * n) {
                    let room = (self.cols + chunk.len() / n) * n;
                    blocked_absorb(
                        n,
                        &mut self.out[..room],
                        &mut self.cols,
                        chunk,
                        tol,
                        &mut self.scratch,
                    );
                }
            }
        }
        before..self.cols
    }

    fn columns(&self, r: Range<usize>) -> std::slice::ChunksExact<'_, f64> {
        self.out[r.start * self.n..r.end * self.n].chunks_exact(self.n)
    }
}

/// The input matrix `B` as a column-major panel — the start block's
/// right-hand sides.
fn input_panel(b: &Matrix) -> Vec<f64> {
    (0..b.ncols()).flat_map(|j| b.col(j)).collect()
}

/// Computes one real expansion point's locally-orthonormal candidate set
/// into `out` (column-major, room for every candidate) and returns how
/// many columns it kept, given the point's blocked shifted solve
/// `(G + s₀C)⁻¹·` on a column-major panel (multi-RHS — the whole start
/// block and every recurrence block go through one batched triangular
/// pass) and the `C·` product — the recurrence is backend-agnostic; only
/// those two operators differ between the dense oracle and the sparse
/// subsystem. Every solve is scrubbed of subnormals (see the module docs).
fn real_point_candidates(
    b: &Matrix,
    opts: &KrylovOpts,
    solve_block: impl Fn(&[f64]) -> Result<Vec<f64>>,
    apply_c: impl Fn(&[f64]) -> Result<Vec<f64>>,
    out: &mut [f64],
) -> Result<usize> {
    let mut local = LocalBasis::new(opts.ortho, b.nrows(), out);
    // Start block R = (G + s0 C)^{-1} B, all inputs in one batched solve.
    let mut block = solve_block(&input_panel(b))?;
    for moment in 1..=opts.moments_per_point {
        bdsm_linalg::vector::flush_subnormals(&mut block);
        let kept = local.absorb(&mut block, opts.deflation_tol);
        if kept.is_empty() || moment == opts.moments_per_point {
            break; // The subspace is exhausted at this point, or matched.
        }
        // Next block: v ← (G + s0 C)^{-1} C v. Using the orthonormalized
        // previous block preserves the Krylov span.
        let mut rhs = Vec::with_capacity(kept.len() * b.nrows());
        for v in local.columns(kept) {
            rhs.extend(apply_c(v)?);
        }
        block = solve_block(&rhs)?;
    }
    Ok(local.cols)
}

/// Computes one imaginary-axis expansion point's (`s₀ = jω₀`) candidate
/// set into `out` and returns how many columns it kept, splitting each
/// complex vector into real and imaginary directions while the complex
/// recurrence keeps running on the raw (subnormal-scrubbed) vectors.
fn jomega_point_candidates(
    b: &Matrix,
    opts: &KrylovOpts,
    solve_start_block: impl Fn(&[f64]) -> Result<Vec<Complex64>>,
    solve_block: impl Fn(&[Complex64]) -> Result<Vec<Complex64>>,
    apply_c: impl Fn(&[Complex64]) -> Result<Vec<Complex64>>,
    out: &mut [f64],
) -> Result<usize> {
    let n = b.nrows();
    let mut local = LocalBasis::new(opts.ortho, n, out);
    // Complex start block R = (G + jω₀C)^{-1} B, batched over the inputs.
    let mut block = solve_start_block(&input_panel(b))?;
    let mut parts = Vec::with_capacity(2 * block.len());
    for moment in 1..=opts.moments_per_point {
        bdsm_linalg::vector::flush_subnormals_complex(&mut block);
        parts.clear();
        for v in block.chunks_exact(n) {
            parts.extend(v.iter().map(|z| z.re));
            parts.extend(v.iter().map(|z| z.im));
        }
        if local.absorb(&mut parts, opts.deflation_tol).is_empty()
            || moment == opts.moments_per_point
        {
            break;
        }
        // v ← (G + jω₀C)^{-1} C v, with C real and v complex.
        let mut rhs = Vec::with_capacity(block.len());
        for v in block.chunks_exact(n) {
            rhs.extend(apply_c(v)?);
        }
        block = solve_block(&rhs)?;
    }
    Ok(local.cols)
}

/// Orthogonalizes `v` against the column-major orthonormal `basis` (two
/// MGS passes), normalizes it, and scrubs its subnormal entries — the same
/// post-normalization step as the blocked kernel, so the two keep their
/// parity.
///
/// Returns `false` — leaving `v` unspecified — when the remainder falls
/// below `tol` times the original norm (deflation).
fn orthonormalize_against(v: &mut [f64], basis: &[f64], tol: f64) -> bool {
    let norm0 = bdsm_linalg::vector::norm2(v);
    if norm0 == 0.0 {
        return false;
    }
    // Two passes below = one re-orthogonalization per accepted candidate.
    if !basis.is_empty() && bdsm_obs::enabled(bdsm_obs::ObsLevel::Timings) {
        bdsm_obs::metrics().mgs_reorth_passes.inc();
    }
    for _ in 0..2 {
        for q in basis.chunks_exact(v.len()) {
            let h = bdsm_linalg::vector::dot(q, v);
            bdsm_linalg::vector::axpy(-h, q, v);
        }
    }
    let norm1 = bdsm_linalg::vector::normalize(v, 0.0);
    bdsm_linalg::vector::flush_subnormals(v);
    norm1 > tol * norm0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag_system(n: usize) -> (Matrix, Matrix, Matrix) {
        let g = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                2.0 + i as f64
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let c = Matrix::from_fn(n, n, |i, j| if i == j { 1.0 + 0.1 * i as f64 } else { 0.0 });
        let mut b = Matrix::zeros(n, 1);
        b[(0, 0)] = 1.0;
        (g, c, b)
    }

    #[test]
    fn basis_is_orthonormal() {
        let (g, c, b) = diag_system(12);
        let opts = KrylovOpts {
            expansion_points: vec![1.0],
            jomega_points: vec![],
            moments_per_point: 5,
            deflation_tol: 1e-10,
            ortho: Default::default(),
        };
        let v = global_krylov_basis(&g, &c, &b, &opts).unwrap();
        assert_eq!(v.nrows(), 12);
        assert_eq!(v.ncols(), 5);
        let vtv = v.transpose().matmul(&v).unwrap();
        let err = vtv.sub(&Matrix::identity(5)).unwrap().norm_max();
        assert!(err < 1e-12, "basis not orthonormal: {err}");
    }

    #[test]
    fn basis_contains_moment_directions() {
        // The first moment direction (G + s0 C)^{-1} b must lie in span(V):
        // ‖(I − V Vᵀ) r‖ ≈ 0.
        let (g, c, b) = diag_system(10);
        let s0 = 2.0;
        let opts = KrylovOpts {
            expansion_points: vec![s0],
            jomega_points: vec![],
            moments_per_point: 3,
            deflation_tol: 1e-12,
            ortho: Default::default(),
        };
        let v = global_krylov_basis(&g, &c, &b, &opts).unwrap();
        let shifted = g.add(&c.scaled(s0)).unwrap();
        let r = DenseLu::factor(&shifted).unwrap().solve(&b.col(0)).unwrap();
        let coeffs = v.tr_matvec(&r).unwrap();
        let proj = v.matvec(&coeffs).unwrap();
        let resid: Vec<f64> = r.iter().zip(&proj).map(|(a, p)| a - p).collect();
        let rel = bdsm_linalg::vector::norm2(&resid) / bdsm_linalg::vector::norm2(&r);
        assert!(rel < 1e-12, "moment direction escaped the basis: {rel}");
    }

    #[test]
    fn deflation_caps_basis_size() {
        // With C = 0 the recurrence dies after the first moment: every
        // candidate beyond it is linearly dependent (in fact zero).
        let (g, _, b) = diag_system(8);
        let c = Matrix::zeros(8, 8);
        let opts = KrylovOpts {
            expansion_points: vec![0.0],
            jomega_points: vec![],
            moments_per_point: 6,
            deflation_tol: 1e-10,
            ortho: Default::default(),
        };
        let v = global_krylov_basis(&g, &c, &b, &opts).unwrap();
        assert_eq!(v.ncols(), 1);
    }

    #[test]
    fn multi_point_union_is_larger() {
        let (g, c, b) = diag_system(16);
        let one = KrylovOpts {
            expansion_points: vec![1.0],
            jomega_points: vec![],
            moments_per_point: 2,
            deflation_tol: 1e-10,
            ortho: Default::default(),
        };
        let two = KrylovOpts {
            expansion_points: vec![1.0, 100.0],
            jomega_points: vec![],
            moments_per_point: 2,
            deflation_tol: 1e-10,
            ortho: Default::default(),
        };
        let v1 = global_krylov_basis(&g, &c, &b, &one).unwrap();
        let v2 = global_krylov_basis(&g, &c, &b, &two).unwrap();
        assert!(v2.ncols() > v1.ncols());
    }

    #[test]
    fn rejects_bad_arguments() {
        let (g, c, b) = diag_system(4);
        let mut opts = KrylovOpts::default();
        opts.expansion_points.clear();
        assert!(global_krylov_basis(&g, &c, &b, &opts).is_err());
        let opts = KrylovOpts {
            moments_per_point: 0,
            ..KrylovOpts::default()
        };
        assert!(global_krylov_basis(&g, &c, &b, &opts).is_err());
        assert!(global_krylov_basis(&g, &c, &Matrix::zeros(4, 0), &KrylovOpts::default()).is_err());
        assert!(global_krylov_basis(&Matrix::zeros(3, 4), &c, &b, &KrylovOpts::default()).is_err());
    }

    #[test]
    fn sparse_basis_spans_dense_basis() {
        // Same options through both backends: the spans must coincide, so
        // every dense basis column must be reproduced by the sparse one.
        let (g, c, b) = diag_system(14);
        let opts = KrylovOpts {
            expansion_points: vec![1.0, 50.0],
            jomega_points: vec![10.0],
            moments_per_point: 2,
            deflation_tol: 1e-10,
            ortho: Default::default(),
        };
        let vd = global_krylov_basis(&g, &c, &b, &opts).unwrap();
        let vs = global_krylov_basis_sparse(
            &CscMatrix::from_dense(&g, 0.0),
            &CscMatrix::from_dense(&c, 0.0),
            &b,
            &opts,
        )
        .unwrap();
        assert_eq!(vd.ncols(), vs.ncols());
        for j in 0..vd.ncols() {
            let col = vd.col(j);
            let coeffs = vs.tr_matvec(&col).unwrap();
            let proj = vs.matvec(&coeffs).unwrap();
            let resid: Vec<f64> = col.iter().zip(&proj).map(|(a, p)| a - p).collect();
            let rel = bdsm_linalg::vector::norm2(&resid);
            assert!(
                rel < 1e-10,
                "dense direction {j} escaped sparse span: {rel}"
            );
        }
    }

    #[test]
    fn sparse_basis_rejects_bad_arguments() {
        let (g, c, b) = diag_system(6);
        let gs = CscMatrix::from_dense(&g, 0.0);
        let cs = CscMatrix::from_dense(&c, 0.0);
        let mut opts = KrylovOpts::default();
        opts.expansion_points.clear();
        assert!(global_krylov_basis_sparse(&gs, &cs, &b, &opts).is_err());
        assert!(
            global_krylov_basis_sparse(&gs, &cs, &Matrix::zeros(6, 0), &KrylovOpts::default())
                .is_err()
        );
        let c5 = CscMatrix::from_dense(&Matrix::zeros(5, 5), 0.0);
        assert!(global_krylov_basis_sparse(&gs, &c5, &b, &KrylovOpts::default()).is_err());
    }

    #[test]
    fn singular_shift_reported() {
        // G singular and s0 = 0 → factorization must fail loudly.
        let g = Matrix::zeros(3, 3);
        let c = Matrix::identity(3);
        let mut b = Matrix::zeros(3, 1);
        b[(0, 0)] = 1.0;
        let opts = KrylovOpts {
            expansion_points: vec![0.0],
            jomega_points: vec![],
            moments_per_point: 1,
            deflation_tol: 1e-10,
            ortho: Default::default(),
        };
        assert!(matches!(
            global_krylov_basis(&g, &c, &b, &opts),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn col_to_row_major_matches_an_out_of_place_transpose() {
        for (n, k) in [(100, 7), (64, 3), (31, 4), (33, 1), (1, 5)] {
            let src: Vec<f64> = (0..n * k).map(|x| x as f64).collect();
            let want: Vec<f64> = (0..n * k).map(|p| src[(p % k) * n + p / k]).collect();
            let mut got = src.clone();
            col_to_row_major(&mut got, n, k);
            assert_eq!(got, want, "n = {n}, k = {k}");
        }
    }

    #[test]
    fn point_order_not_schedule_determines_basis() {
        // Identical options must give a bitwise-identical basis however the
        // point fan-out is scheduled; here we at least pin repeatability,
        // and the reduction-level tests pin thread-count invariance.
        let (g, c, b) = diag_system(18);
        let opts = KrylovOpts {
            expansion_points: vec![1.0, 30.0],
            jomega_points: vec![5.0, 80.0],
            moments_per_point: 2,
            deflation_tol: 1e-10,
            ortho: Default::default(),
        };
        let v1 = global_krylov_basis(&g, &c, &b, &opts).unwrap();
        let v2 = global_krylov_basis(&g, &c, &b, &opts).unwrap();
        assert_eq!(v1.as_slice(), v2.as_slice());
    }
}
