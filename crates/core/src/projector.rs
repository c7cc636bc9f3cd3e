//! Block-diagonal projection `V = diag(V₁, …, V_k)` and congruence
//! transforms — the "structured" part of BDSM.
//!
//! Given a global moment-matching basis `V_g` and a block partition of the
//! states, each block takes the column space of its own row slice of `V_g`
//! (compressed by SVD with a rank tolerance). Because
//! `span(diag(V₁,…,V_k)) ⊇ span(V_g)`, the block-diagonal projector matches
//! at least as many moments as the global one while keeping the reduced
//! matrices block-structured — sparsity the flat projector destroys.

use bdsm_linalg::{LinalgError, Matrix, Result, Svd};
use bdsm_sparse::{CscMatrix, Scalar};

/// How interface (boundary) states are treated by the projector — the
/// paper's exact boundary treatment versus the folded approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InterfacePolicy {
    /// Interface states are folded into the per-block SVD bases like any
    /// other state. The historical behaviour, and the default.
    #[default]
    Folded,
    /// Interface states are preserved **exactly**: each block basis is
    /// augmented with identity columns on its interface rows (deduplicated
    /// against the block's SVD directions), so interface-bus voltages are
    /// reproduced verbatim by the reduced model — its state vector carries
    /// them as plain coordinates.
    Exact,
}

/// An orthonormal block-diagonal projection matrix.
#[derive(Debug, Clone)]
pub struct BlockDiagProjector {
    blocks: Vec<Matrix>,
    row_offsets: Vec<usize>,
    col_offsets: Vec<usize>,
    /// `(full state row, reduced column)` pairs of exactly-preserved
    /// interface states; empty under [`InterfacePolicy::Folded`].
    interface: Vec<(usize, usize)>,
}

impl BlockDiagProjector {
    /// Builds the projector from a global basis and per-block state counts.
    ///
    /// Block `i` keeps the left singular vectors of its (column-normalized)
    /// row slice of `global` whose singular values exceed `rank_tol · σ_max`,
    /// capped at `max_block_dim` dominant directions when given (the knob
    /// that enforces a reduced-dimension budget). A block whose slice is
    /// numerically zero keeps a single canonical unit vector so every block
    /// retains at least one reduced state.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if the block sizes do not
    /// sum to the basis row count or contain a zero, and propagates SVD
    /// failures.
    pub fn from_global_basis(
        global: &Matrix,
        block_sizes: &[usize],
        rank_tol: f64,
        max_block_dim: Option<usize>,
    ) -> Result<Self> {
        let none: Vec<Vec<usize>> = vec![Vec::new(); block_sizes.len()];
        Self::from_global_basis_with_interface(global, block_sizes, rank_tol, max_block_dim, &none)
    }

    /// [`from_global_basis`](Self::from_global_basis) with the paper's
    /// exact boundary treatment: `interface_local[i]` lists the local row
    /// indices (sorted, unique) of block `i` that are interface states.
    ///
    /// Each listed row gets a dedicated identity column placed **ahead**
    /// of the block's SVD directions, and the Krylov slice is exactly
    /// orthogonalized against those unit columns (its interface rows are
    /// zeroed) before compression — so the interface rows of the final
    /// basis are exact unit vectors and the reduced state carries the
    /// interface voltages verbatim. Krylov columns whose content was
    /// (numerically) pure interface energy are deduplicated away instead
    /// of polluting the SVD. `max_block_dim` caps only the appended SVD
    /// directions; identity columns are mandatory and never truncated.
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidArgument`] on inconsistent block sizes or
    /// out-of-range/unsorted interface indices; SVD failures propagate.
    pub fn from_global_basis_with_interface(
        global: &Matrix,
        block_sizes: &[usize],
        rank_tol: f64,
        max_block_dim: Option<usize>,
        interface_local: &[Vec<usize>],
    ) -> Result<Self> {
        if block_sizes.iter().sum::<usize>() != global.nrows() {
            return Err(LinalgError::InvalidArgument {
                what: "projector: block sizes must sum to the state dimension",
            });
        }
        if block_sizes.contains(&0) {
            return Err(LinalgError::InvalidArgument {
                what: "projector: empty blocks are not allowed",
            });
        }
        if interface_local.len() != block_sizes.len() {
            return Err(LinalgError::InvalidArgument {
                what: "projector: interface lists must match the block count",
            });
        }
        for (size, iface) in block_sizes.iter().zip(interface_local) {
            let in_range = iface.iter().all(|&li| li < *size);
            let sorted_unique = iface.windows(2).all(|w| w[0] < w[1]);
            if !in_range || !sorted_unique {
                return Err(LinalgError::InvalidArgument {
                    what: "projector: interface rows must be sorted, unique, in range",
                });
            }
        }
        // Blocks are independent, so the per-block SVD compression fans out
        // over the shared work queue of `crate::par` — dynamic scheduling
        // absorbs whatever imbalance the rank structure introduces, and the
        // results land in block order, keeping the projector deterministic
        // for any worker count. Each task copies out its own row slice, so
        // only the slices in flight are alive at once.
        let mut rows = Vec::with_capacity(block_sizes.len());
        let mut row0 = 0;
        for (&size, iface) in block_sizes.iter().zip(interface_local) {
            rows.push((row0, size, iface));
            row0 += size;
        }
        let blocks = crate::par::parallel_map(&rows, |bi, &(row0, size, iface)| {
            let _s = bdsm_obs::span!("svd.block", block = bi, rows = size);
            let slice = global.submatrix(row0, row0 + size, 0, global.ncols());
            compress_block_interface(&slice, rank_tol, max_block_dim, iface)
        })
        .into_iter()
        .collect::<Result<Vec<Matrix>>>()?;
        let mut proj = Self::from_blocks(blocks);
        for (bi, iface) in interface_local.iter().enumerate() {
            for (t, &li) in iface.iter().enumerate() {
                proj.interface
                    .push((proj.row_offsets[bi] + li, proj.col_offsets[bi] + t));
            }
        }
        Ok(proj)
    }

    /// The `(full state row, reduced column)` pairs of exactly-preserved
    /// interface states, in block order. Empty when the projector was
    /// built with [`InterfacePolicy::Folded`] semantics.
    pub fn interface_map(&self) -> &[(usize, usize)] {
        &self.interface
    }

    /// Congruence transform `VᵀAV` of a *sparse* matrix, accumulating one
    /// rank-one block contribution per stored entry — `O(nnz · qᵢqⱼ)` work
    /// and no `n × q` intermediate, which is what keeps the projection step
    /// viable at `n ≫ 10⁴`.
    ///
    /// The work is partitioned into **block pairs** `(i, j)` — a fixed
    /// decomposition independent of the worker count — that fan out over
    /// [`crate::par`]: pair `(i, j)` owns exactly the entries of `A` in
    /// block `i`'s row band and block `j`'s column band, and writes the
    /// disjoint output block `(VᵢᵀAᵢⱼVⱼ)`. Within a pair, entries are
    /// consumed in CSC order (columns ascending, rows ascending inside a
    /// column) — the same accumulation order per output entry as a serial
    /// sweep over the whole matrix — so the result is bitwise-identical
    /// for **any** `BDSM_THREADS`, including the historical serial code.
    /// Structural zeros of the basis rows (the interface identity columns
    /// of [`InterfacePolicy::Exact`]) are skipped via per-row nonzero
    /// lists, making the exact-interface congruence `O(nnz · kᵢkⱼ)` in the
    /// per-row Krylov ranks instead of the inflated block dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `a` is not `n × n`.
    pub fn project_square_sparse(&self, a: &CscMatrix<f64>) -> Result<Matrix> {
        let n = self.nrows();
        if a.shape() != (n, n) {
            return Err(LinalgError::ShapeMismatch {
                op: "project-square-sparse",
                lhs: (n, n),
                rhs: a.shape(),
            });
        }
        let k = self.num_blocks();
        // Per-block row → nonzero (column, value) lists. Skipping an exact
        // zero drops only `±0.0` additions, which cannot change any
        // accumulator bit (a finite accumulator is unchanged by adding
        // ±0.0, and products with a zero factor contribute exactly ±0.0),
        // so the row lists preserve bitwise equality with the dense scan.
        let row_nz: Vec<Vec<Vec<(usize, f64)>>> = self
            .blocks
            .iter()
            .map(|blk| {
                (0..blk.nrows())
                    .map(|li| {
                        (0..blk.ncols())
                            .filter_map(|aa| {
                                let v = blk[(li, aa)];
                                (v != 0.0).then_some((aa, v))
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        // Diagonal pairs first: they carry most of the entries on grid
        // matrices, and fronting them keeps the shared work queue busy.
        let mut pairs: Vec<(usize, usize)> = (0..k).map(|i| (i, i)).collect();
        for i in 0..k {
            for j in 0..k {
                if i != j {
                    pairs.push((i, j));
                }
            }
        }
        let partials = crate::par::parallel_map(&pairs, |_, &(bi, bj)| {
            let _s = bdsm_obs::span!("project.pair", i = bi, j = bj);
            self.project_block_pair(a, bi, bj, &row_nz[bi], &row_nz[bj])
        });
        let mut out = Matrix::zeros(self.ncols(), self.ncols());
        for (&(bi, bj), partial) in pairs.iter().zip(&partials) {
            out.set_block(self.col_offsets[bi], self.col_offsets[bj], partial);
        }
        Ok(out)
    }

    /// One block pair's congruence contribution `VᵢᵀAᵢⱼVⱼ` (`qᵢ × qⱼ`),
    /// scanning the CSC columns of block `j`'s band and binary-searching
    /// each column's sorted rows for block `i`'s band.
    fn project_block_pair(
        &self,
        a: &CscMatrix<f64>,
        bi: usize,
        bj: usize,
        rows_i: &[Vec<(usize, f64)>],
        rows_j: &[Vec<(usize, f64)>],
    ) -> Matrix {
        let (r0, r1) = (self.row_offsets[bi], self.row_offsets[bi + 1]);
        let (c0, c1) = (self.row_offsets[bj], self.row_offsets[bj + 1]);
        let mut out = Matrix::zeros(self.blocks[bi].ncols(), self.blocks[bj].ncols());
        for c in c0..c1 {
            let rows = a.col_rows(c);
            let vals = a.col_values(c);
            let lo = rows.partition_point(|&r| r < r0);
            let hi = rows.partition_point(|&r| r < r1);
            let lj = c - c0;
            for (&r, &v) in rows[lo..hi].iter().zip(&vals[lo..hi]) {
                if Scalar::is_zero(v) {
                    continue;
                }
                // out[aa, bb] += Vi[li, aa] · v · Vj[lj, bb].
                for &(aa, via) in &rows_i[r - r0] {
                    let w = via * v;
                    for &(bb, vjb) in &rows_j[lj] {
                        out[(aa, bb)] += w * vjb;
                    }
                }
            }
        }
        out
    }

    /// Assembles a projector directly from per-block orthonormal bases.
    pub fn from_blocks(blocks: Vec<Matrix>) -> Self {
        let mut row_offsets = vec![0];
        let mut col_offsets = vec![0];
        for b in &blocks {
            row_offsets.push(row_offsets.last().unwrap() + b.nrows());
            col_offsets.push(col_offsets.last().unwrap() + b.ncols());
        }
        BlockDiagProjector {
            blocks,
            row_offsets,
            col_offsets,
            interface: Vec::new(),
        }
    }

    /// Number of blocks `k`.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Full state dimension `n` (sum of block rows).
    pub fn nrows(&self) -> usize {
        *self.row_offsets.last().unwrap()
    }

    /// Reduced dimension `q` (sum of block columns).
    pub fn ncols(&self) -> usize {
        *self.col_offsets.last().unwrap()
    }

    /// The per-block reduced dimensions `qᵢ`.
    pub fn block_dims(&self) -> Vec<usize> {
        self.blocks.iter().map(Matrix::ncols).collect()
    }

    /// Basis of block `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn block(&self, i: usize) -> &Matrix {
        &self.blocks[i]
    }

    /// Densifies `V = diag(V₁, …, V_k)`; off-block entries are exactly zero.
    pub fn to_dense(&self) -> Matrix {
        let mut v = Matrix::zeros(self.nrows(), self.ncols());
        for (i, b) in self.blocks.iter().enumerate() {
            v.set_block(self.row_offsets[i], self.col_offsets[i], b);
        }
        v
    }

    /// Worst per-block deviation from orthonormality, `max‖VᵢᵀVᵢ − I‖_max`.
    pub fn orthonormality_error(&self) -> f64 {
        self.blocks
            .iter()
            .map(|b| {
                let gram = b.transpose().matmul(b).expect("square product");
                gram.sub(&Matrix::identity(b.ncols()))
                    .expect("same shape")
                    .norm_max()
            })
            .fold(0.0, f64::max)
    }

    /// Congruence transform `VᵀAV`, computed block-pair by block-pair so the
    /// cost scales with the block structure rather than `n²q²`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `a` is not `n × n`.
    pub fn project_square(&self, a: &Matrix) -> Result<Matrix> {
        let n = self.nrows();
        if a.shape() != (n, n) {
            return Err(LinalgError::ShapeMismatch {
                op: "project-square",
                lhs: (n, n),
                rhs: a.shape(),
            });
        }
        let mut out = Matrix::zeros(self.ncols(), self.ncols());
        for i in 0..self.num_blocks() {
            let (r0, r1) = (self.row_offsets[i], self.row_offsets[i + 1]);
            for j in 0..self.num_blocks() {
                let (c0, c1) = (self.row_offsets[j], self.row_offsets[j + 1]);
                let aij = a.submatrix(r0, r1, c0, c1);
                let prod = self.blocks[i]
                    .transpose()
                    .matmul(&aij)?
                    .matmul(&self.blocks[j])?;
                out.set_block(self.col_offsets[i], self.col_offsets[j], &prod);
            }
        }
        Ok(out)
    }

    /// Input projection `VᵀB` (`q × m`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b` does not have `n` rows.
    pub fn project_input(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.nrows();
        if b.nrows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "project-input",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut out = Matrix::zeros(self.ncols(), b.ncols());
        for (i, blk) in self.blocks.iter().enumerate() {
            let slice = b.submatrix(self.row_offsets[i], self.row_offsets[i + 1], 0, b.ncols());
            let prod = blk.transpose().matmul(&slice)?;
            out.set_block(self.col_offsets[i], 0, &prod);
        }
        Ok(out)
    }

    /// Output projection `LV` (`p × q`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `l` does not have `n` columns.
    pub fn project_output(&self, l: &Matrix) -> Result<Matrix> {
        let n = self.nrows();
        if l.ncols() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "project-output",
                lhs: (n, n),
                rhs: l.shape(),
            });
        }
        let mut out = Matrix::zeros(l.nrows(), self.ncols());
        for (i, blk) in self.blocks.iter().enumerate() {
            let slice = l.submatrix(0, l.nrows(), self.row_offsets[i], self.row_offsets[i + 1]);
            let prod = slice.matmul(blk)?;
            out.set_block(0, self.col_offsets[i], &prod);
        }
        Ok(out)
    }
}

/// Compresses one block's slice under the exact interface policy: unit
/// columns on the interface rows first, then the SVD directions of the
/// slice with its interface rows zeroed (exact orthogonalization against
/// the unit columns). Columns whose energy was (numerically) pure
/// interface content are deduplicated away — the unit columns already
/// span them. With no interface rows this is exactly
/// [`compress_block_slice`].
fn compress_block_interface(
    slice: &Matrix,
    rank_tol: f64,
    max_block_dim: Option<usize>,
    iface: &[usize],
) -> Result<Matrix> {
    if iface.is_empty() {
        return compress_block_slice(slice, rank_tol, max_block_dim);
    }
    let size = slice.nrows();
    // Zero the interface rows of every Krylov column; drop a column when
    // that removes (numerically) all of it — its content lives in the
    // identity columns already — and renormalize the survivors.
    let mut cols: Vec<Vec<f64>> = Vec::new();
    for j in 0..slice.ncols() {
        let mut col = slice.col(j);
        let pre = bdsm_linalg::vector::norm2(&col);
        for &li in iface {
            col[li] = 0.0;
        }
        let post = bdsm_linalg::vector::norm2(&col);
        if pre > 1e-150 && post > 1e-12 * pre {
            bdsm_linalg::vector::scale(1.0 / post, &mut col);
            cols.push(col);
        }
    }
    // The budget cap applies to the appended SVD directions only: identity
    // columns are the exactness contract and are never truncated.
    let max_extra = max_block_dim.map(|cap| cap.saturating_sub(iface.len()));
    let extra = if cols.is_empty() || max_extra == Some(0) {
        None
    } else {
        let svd = Svd::compute(&Matrix::from_cols(&cols))?;
        let sigma_max = svd.sigma.first().copied().unwrap_or(0.0);
        let mut rank = svd
            .sigma
            .iter()
            .filter(|&&s| s > rank_tol * sigma_max)
            .count();
        if let Some(cap) = max_extra {
            rank = rank.min(cap);
        }
        (rank > 0).then(|| svd.u.submatrix(0, size, 0, rank))
    };
    let extra_cols = extra.as_ref().map_or(0, Matrix::ncols);
    let mut out = Matrix::zeros(size, iface.len() + extra_cols);
    for (t, &li) in iface.iter().enumerate() {
        out[(li, t)] = 1.0;
    }
    if let Some(u) = extra {
        out.set_block(0, iface.len(), &u);
    }
    Ok(out)
}

/// Compresses one block's row slice of the global basis into an
/// orthonormal block basis.
///
/// Krylov content decays exponentially away from the ports, so a far
/// block's slice can be tiny. The basis holds no subnormal entries (the
/// Krylov recurrences scrub them, see [`crate::krylov`]), and a slice
/// whose norm is ≤ 1e-150 is dropped as numerically dead, so a scrubbed
/// entry was more than 10¹⁵⁷ below any slice that is kept. Normalizing
/// each surviving column keeps every moment direction that reaches the
/// block, at any magnitude, and protects the Jacobi SVD from
/// under/overflow. A block whose slice is numerically zero keeps a single
/// canonical unit vector so every block retains at least one reduced state.
fn compress_block_slice(
    slice: &Matrix,
    rank_tol: f64,
    max_block_dim: Option<usize>,
) -> Result<Matrix> {
    let size = slice.nrows();
    let mut cols: Vec<Vec<f64>> = Vec::new();
    for j in 0..slice.ncols() {
        let mut col = slice.col(j);
        let norm = bdsm_linalg::vector::norm2(&col);
        if norm > 1e-150 {
            bdsm_linalg::vector::scale(1.0 / norm, &mut col);
            cols.push(col);
        }
    }
    if cols.is_empty() {
        let mut e = Matrix::zeros(size, 1);
        e[(0, 0)] = 1.0;
        return Ok(e);
    }
    let svd = Svd::compute(&Matrix::from_cols(&cols))?;
    let sigma_max = svd.sigma.first().copied().unwrap_or(0.0);
    let mut rank = svd
        .sigma
        .iter()
        .filter(|&&s| s > rank_tol * sigma_max)
        .count()
        .max(1);
    if let Some(cap) = max_block_dim {
        rank = rank.min(cap.max(1));
    }
    Ok(svd.u.submatrix(0, size, 0, rank))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_basis() -> Matrix {
        // 6 states, 2 basis columns with energy in every block.
        Matrix::from_fn(6, 2, |i, j| ((i + 1) as f64 * 0.3 + j as f64).sin() + 0.5)
    }

    #[test]
    fn block_structure_and_orthonormality() {
        let v = demo_basis();
        let p = BlockDiagProjector::from_global_basis(&v, &[2, 2, 2], 1e-12, None).unwrap();
        assert_eq!(p.num_blocks(), 3);
        assert_eq!(p.nrows(), 6);
        assert!(p.orthonormality_error() < 1e-13);
        let dense = p.to_dense();
        // Off-block entries are exactly zero by construction.
        let dims = p.block_dims();
        let mut c0 = 0;
        for (bi, &q) in dims.iter().enumerate() {
            for i in 0..6 {
                for j in c0..c0 + q {
                    if i / 2 != bi {
                        assert_eq!(dense[(i, j)], 0.0);
                    }
                }
            }
            c0 += q;
        }
    }

    #[test]
    fn span_contains_global_basis() {
        // diag-blocks span every row slice, so V Vᵀ v_g = v_g for each
        // global column.
        let vg = demo_basis();
        let p = BlockDiagProjector::from_global_basis(&vg, &[3, 3], 1e-12, None).unwrap();
        let v = p.to_dense();
        for j in 0..vg.ncols() {
            let col = vg.col(j);
            let coeffs = v.tr_matvec(&col).unwrap();
            let back = v.matvec(&coeffs).unwrap();
            let resid: Vec<f64> = col.iter().zip(&back).map(|(a, b)| a - b).collect();
            assert!(bdsm_linalg::vector::norm2(&resid) < 1e-12);
        }
    }

    #[test]
    fn projections_match_dense_products() {
        let vg = demo_basis();
        let p = BlockDiagProjector::from_global_basis(&vg, &[2, 4], 1e-12, None).unwrap();
        let v = p.to_dense();
        let a = Matrix::from_fn(6, 6, |i, j| ((i * 7 + j) as f64 * 0.11).cos());
        let b = Matrix::from_fn(6, 2, |i, j| (i + j) as f64);
        let l = Matrix::from_fn(3, 6, |i, j| (i as f64 - j as f64) * 0.2);

        let ref_a = v.transpose().matmul(&a).unwrap().matmul(&v).unwrap();
        let got_a = p.project_square(&a).unwrap();
        assert!(got_a.sub(&ref_a).unwrap().norm_max() < 1e-13);

        let ref_b = v.transpose().matmul(&b).unwrap();
        assert!(p.project_input(&b).unwrap().sub(&ref_b).unwrap().norm_max() < 1e-13);

        let ref_l = l.matmul(&v).unwrap();
        assert!(
            p.project_output(&l)
                .unwrap()
                .sub(&ref_l)
                .unwrap()
                .norm_max()
                < 1e-13
        );
    }

    #[test]
    fn sparse_congruence_matches_dense() {
        let vg = demo_basis();
        let p = BlockDiagProjector::from_global_basis(&vg, &[2, 4], 1e-12, None).unwrap();
        let a = Matrix::from_fn(6, 6, |i, j| {
            // A sparse-ish pattern with off-block coupling.
            if i == j || (i + 2 * j) % 5 == 0 {
                ((i * 3 + j) as f64 * 0.17).sin()
            } else {
                0.0
            }
        });
        let sparse = CscMatrix::from_dense(&a, 0.0);
        let dense_result = p.project_square(&a).unwrap();
        let sparse_result = p.project_square_sparse(&sparse).unwrap();
        assert!(sparse_result.sub(&dense_result).unwrap().norm_max() < 1e-13);
        let bad = CscMatrix::from_dense(&Matrix::zeros(5, 5), 0.0);
        assert!(p.project_square_sparse(&bad).is_err());
    }

    #[test]
    fn zero_slice_gets_canonical_vector() {
        // Basis with no energy in the second block.
        let mut vg = Matrix::zeros(4, 1);
        vg[(0, 0)] = 1.0;
        vg[(1, 0)] = -1.0;
        let p = BlockDiagProjector::from_global_basis(&vg, &[2, 2], 1e-12, None).unwrap();
        assert_eq!(p.block_dims(), vec![1, 1]);
        assert_eq!(p.block(1)[(0, 0)], 1.0);
        assert!(p.orthonormality_error() < 1e-15);
    }

    #[test]
    fn exact_interface_rows_are_unit_vectors() {
        let vg = demo_basis();
        let iface = vec![vec![1], vec![0, 2]];
        let p =
            BlockDiagProjector::from_global_basis_with_interface(&vg, &[3, 3], 1e-12, None, &iface)
                .unwrap();
        // Interface map points at exact unit rows.
        let map = p.interface_map().to_vec();
        assert_eq!(map.len(), 3);
        let dense = p.to_dense();
        for &(row, col) in &map {
            for j in 0..dense.ncols() {
                let expect = if j == col { 1.0 } else { 0.0 };
                assert_eq!(dense[(row, j)], expect, "row {row} not a unit vector");
            }
        }
        assert_eq!(map[0], (1, 0)); // block 0, local row 1 → first column
        assert!(p.orthonormality_error() < 1e-12);
        // The augmented span still contains every global basis column.
        let v = p.to_dense();
        for j in 0..vg.ncols() {
            let col = vg.col(j);
            let coeffs = v.tr_matvec(&col).unwrap();
            let back = v.matvec(&coeffs).unwrap();
            let resid: Vec<f64> = col.iter().zip(&back).map(|(a, b)| a - b).collect();
            assert!(bdsm_linalg::vector::norm2(&resid) < 1e-12);
        }
    }

    #[test]
    fn interface_only_columns_are_deduplicated() {
        // A basis column living purely on the interface row must not add
        // an SVD direction beyond the identity column.
        let mut vg = Matrix::zeros(4, 2);
        vg[(1, 0)] = 1.0; // pure interface content
        vg[(0, 1)] = 0.5;
        vg[(3, 1)] = -0.5;
        let p = BlockDiagProjector::from_global_basis_with_interface(
            &vg,
            &[4],
            1e-12,
            None,
            &[vec![1]],
        )
        .unwrap();
        // 1 identity column + 1 surviving Krylov direction.
        assert_eq!(p.ncols(), 2);
        assert!(p.orthonormality_error() < 1e-14);
    }

    #[test]
    fn interface_budget_caps_only_extra_directions() {
        let vg = demo_basis();
        let p = BlockDiagProjector::from_global_basis_with_interface(
            &vg,
            &[6],
            1e-12,
            Some(2),
            &[vec![0, 3, 5]],
        )
        .unwrap();
        // Cap 2 < 3 identity columns: identities survive, no extras fit.
        assert_eq!(p.ncols(), 3);
        assert_eq!(p.interface_map().len(), 3);
    }

    #[test]
    fn interface_validation_rejects_bad_lists() {
        let vg = demo_basis();
        let bad_len = vec![vec![0]];
        assert!(BlockDiagProjector::from_global_basis_with_interface(
            &vg,
            &[3, 3],
            1e-12,
            None,
            &bad_len
        )
        .is_err());
        let out_of_range = vec![vec![5], vec![]];
        assert!(BlockDiagProjector::from_global_basis_with_interface(
            &vg,
            &[3, 3],
            1e-12,
            None,
            &out_of_range
        )
        .is_err());
        let unsorted = vec![vec![2, 1], vec![]];
        assert!(BlockDiagProjector::from_global_basis_with_interface(
            &vg,
            &[3, 3],
            1e-12,
            None,
            &unsorted
        )
        .is_err());
    }

    #[test]
    fn interface_congruence_matches_dense_reference() {
        let vg = demo_basis();
        let p = BlockDiagProjector::from_global_basis_with_interface(
            &vg,
            &[2, 4],
            1e-12,
            None,
            &[vec![1], vec![0, 3]],
        )
        .unwrap();
        let a = Matrix::from_fn(6, 6, |i, j| {
            if i == j || (i + 2 * j) % 4 == 0 {
                ((i * 5 + j) as f64 * 0.23).sin()
            } else {
                0.0
            }
        });
        let sparse = CscMatrix::from_dense(&a, 0.0);
        let dense_result = p.project_square(&a).unwrap();
        let sparse_result = p.project_square_sparse(&sparse).unwrap();
        assert!(sparse_result.sub(&dense_result).unwrap().norm_max() < 1e-13);
    }

    #[test]
    fn parallel_congruence_matches_serial_accumulation_bitwise() {
        // The block-pair fan-out's contract: contributions to each output
        // entry accumulate in exactly the order of a serial CSC sweep over
        // the whole matrix, so the parallel result is byte-for-byte the
        // serial one whatever the ambient worker count. Pin it against an
        // inline reimplementation of that serial sweep (the historical
        // code) rather than by mutating BDSM_THREADS, which would race
        // sibling tests reading the environment from worker threads.
        let vg = Matrix::from_fn(24, 4, |i, j| ((i * 3 + 2 * j) as f64 * 0.13).sin());
        let p = BlockDiagProjector::from_global_basis(&vg, &[6, 6, 6, 6], 1e-12, None).unwrap();
        let a = Matrix::from_fn(24, 24, |i, j| {
            if i.abs_diff(j) <= 2 {
                ((i * 7 + j) as f64 * 0.11).cos()
            } else {
                0.0
            }
        });
        let sparse = CscMatrix::from_dense(&a, 0.0);
        let parallel = p.project_square_sparse(&sparse).unwrap();

        let mut block_of_row = vec![0usize; p.nrows()];
        for bi in 0..p.num_blocks() {
            block_of_row[p.row_offsets[bi]..p.row_offsets[bi + 1]].fill(bi);
        }
        let mut serial = Matrix::zeros(p.ncols(), p.ncols());
        for (r, c, v) in sparse.iter() {
            if v == 0.0 {
                continue;
            }
            let (bi, bj) = (block_of_row[r], block_of_row[c]);
            let (vi, vj) = (&p.blocks[bi], &p.blocks[bj]);
            let (li, lj) = (r - p.row_offsets[bi], c - p.row_offsets[bj]);
            let (oi, oj) = (p.col_offsets[bi], p.col_offsets[bj]);
            for aa in 0..vi.ncols() {
                let w = vi[(li, aa)] * v;
                if w == 0.0 {
                    continue;
                }
                for bb in 0..vj.ncols() {
                    serial[(oi + aa, oj + bb)] += w * vj[(lj, bb)];
                }
            }
        }
        assert_eq!(parallel.as_slice(), serial.as_slice());
        let dense_ref = p.project_square(&a).unwrap();
        assert!(parallel.sub(&dense_ref).unwrap().norm_max() < 1e-13);
    }

    #[test]
    fn rank_tolerance_truncates() {
        // Two nearly identical columns → rank 1 slice at loose tolerance.
        let vg = Matrix::from_fn(4, 2, |i, j| (i + 1) as f64 + 1e-13 * j as f64);
        let p = BlockDiagProjector::from_global_basis(&vg, &[4], 1e-8, None).unwrap();
        assert_eq!(p.ncols(), 1);
    }

    #[test]
    fn bad_sizes_rejected() {
        let vg = demo_basis();
        assert!(BlockDiagProjector::from_global_basis(&vg, &[2, 2], 1e-12, None).is_err());
        assert!(BlockDiagProjector::from_global_basis(&vg, &[6, 0], 1e-12, None).is_err());
        let p = BlockDiagProjector::from_global_basis(&vg, &[3, 3], 1e-12, None).unwrap();
        assert!(p.project_square(&Matrix::zeros(5, 5)).is_err());
        assert!(p.project_input(&Matrix::zeros(5, 1)).is_err());
        assert!(p.project_output(&Matrix::zeros(1, 5)).is_err());
    }
}
