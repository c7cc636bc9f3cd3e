//! Dense vector kernels shared by the dense and sparse layers.
//!
//! These free functions operate on `&[f64]` slices so they compose with both
//! [`crate::dense::Matrix`] columns and ad-hoc work buffers without forcing a
//! particular container type.

use crate::Complex64;

/// Dot product `xᵀ y`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `‖x‖₂`, guarded against overflow by scaling.
pub fn norm2(x: &[f64]) -> f64 {
    let amax = x.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    if amax == 0.0 || !amax.is_finite() {
        return amax;
    }
    let mut sum = 0.0;
    for &v in x {
        let t = v / amax;
        sum += t * t;
    }
    amax * sum.sqrt()
}

/// Infinity norm `max |xᵢ|`.
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// 1-norm `Σ|xᵢ|`.
pub fn norm1(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// `y ← y + alpha * x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x ← alpha * x`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

/// Normalizes `x` in place and returns its original 2-norm.
///
/// If the norm is below `tiny` the vector is left untouched and the norm is
/// still returned, letting callers implement deflation policies.
pub fn normalize(x: &mut [f64], tiny: f64) -> f64 {
    let n = norm2(x);
    if n > tiny {
        let inv = 1.0 / n;
        scale(inv, x);
    }
    n
}

/// Elementwise copy, `y ← x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn copy(x: &[f64], y: &mut [f64]) {
    y.copy_from_slice(x);
}

/// Fills `x` with zeros.
#[inline]
pub fn zero(x: &mut [f64]) {
    for v in x.iter_mut() {
        *v = 0.0;
    }
}

/// Sets every subnormal entry of `x` to `+0.0`; normals, `±0`, `±∞` and
/// NaN keep their bits.
///
/// Subnormal operands take a microcode-assist slow path through every
/// multiply–add on common hardware, so a Krylov vector whose far tail has
/// decayed below [`f64::MIN_POSITIVE`] is scrubbed before it feeds the
/// next kernel.
pub fn flush_subnormals(x: &mut [f64]) {
    for v in x.iter_mut() {
        if v.is_subnormal() {
            *v = 0.0;
        }
    }
}

/// [`flush_subnormals`] on the real and imaginary part of every entry.
pub fn flush_subnormals_complex(x: &mut [Complex64]) {
    for z in x.iter_mut() {
        if z.re.is_subnormal() {
            z.re = 0.0;
        }
        if z.im.is_subnormal() {
            z.im = 0.0;
        }
    }
}

/// Relative difference `‖x − y‖₂ / max(‖y‖₂, floor)`.
///
/// Used pervasively by tests and by the accuracy experiments (Fig. 5b of the
/// paper reports exactly this quantity per frequency point).
pub fn rel_err(x: &[f64], y: &[f64], floor: f64) -> f64 {
    assert_eq!(x.len(), y.len(), "rel_err: length mismatch");
    let mut diff = 0.0_f64;
    for (a, b) in x.iter().zip(y) {
        let d = a - b;
        diff += d * d;
    }
    diff.sqrt() / norm2(y).max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norm2_is_scaled_against_overflow() {
        let big = 1e200;
        let x = [big, big];
        let n = norm2(&x);
        assert!((n - big * std::f64::consts::SQRT_2).abs() / n < 1e-14);
    }

    #[test]
    fn norm2_zero_vector() {
        assert_eq!(norm2(&[0.0, 0.0]), 0.0);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn norms_agree_on_simple_vector() {
        let x = [3.0, -4.0];
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm_inf(&x), 4.0);
        assert_eq!(norm1(&x), 7.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn normalize_returns_norm_and_unit_result() {
        let mut x = vec![3.0, 4.0];
        let n = normalize(&mut x, 1e-300);
        assert_eq!(n, 5.0);
        assert!((norm2(&x) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_leaves_tiny_vectors() {
        let mut x = vec![1e-320, 0.0];
        let n = normalize(&mut x, 1e-200);
        assert!(n < 1e-200);
        assert_eq!(x[0], 1e-320);
    }

    /// Every class of `f64` the flush must tell apart: subnormals of both
    /// signs and at both ends of the range, then values that keep their
    /// bits.
    const SUBNORMALS: [f64; 4] = [5e-324, -5e-324, 1e-310, -2.2e-308];
    const KEPT: [f64; 9] = [
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        1.0,
        -3.5e-200,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];

    #[test]
    fn flush_subnormals_zeroes_only_subnormals() {
        let mut x: Vec<f64> = SUBNORMALS.iter().chain(&KEPT).copied().collect();
        assert!(SUBNORMALS.iter().all(|v| v.is_subnormal()));
        flush_subnormals(&mut x);
        for v in &x[..SUBNORMALS.len()] {
            assert_eq!(v.to_bits(), 0.0f64.to_bits(), "subnormal not flushed to +0");
        }
        for (got, want) in x[SUBNORMALS.len()..].iter().zip(&KEPT) {
            assert_eq!(got.to_bits(), want.to_bits(), "{want} changed bits");
        }
    }

    #[test]
    fn flush_subnormals_complex_treats_parts_independently() {
        let mut x: Vec<Complex64> = SUBNORMALS
            .iter()
            .zip(KEPT.iter().cycle())
            .map(|(&s, &k)| Complex64::new(s, k))
            .chain(KEPT.iter().map(|&k| Complex64::new(k, k)))
            .collect();
        flush_subnormals_complex(&mut x);
        for (z, k) in x[..SUBNORMALS.len()].iter().zip(&KEPT) {
            assert_eq!(z.re.to_bits(), 0.0f64.to_bits());
            assert_eq!(z.im.to_bits(), k.to_bits());
        }
        for (z, k) in x[SUBNORMALS.len()..].iter().zip(&KEPT) {
            assert_eq!((z.re.to_bits(), z.im.to_bits()), (k.to_bits(), k.to_bits()));
        }
        let mut y = vec![Complex64::new(1.0, -1e-310)];
        flush_subnormals_complex(&mut y);
        assert_eq!((y[0].re, y[0].im.to_bits()), (1.0, 0.0f64.to_bits()));
    }

    #[test]
    fn rel_err_zero_for_identical() {
        let x = [1.0, 2.0];
        assert_eq!(rel_err(&x, &x, 1e-30), 0.0);
    }

    #[test]
    fn rel_err_uses_floor_for_zero_reference() {
        let e = rel_err(&[1.0], &[0.0], 1e-3);
        assert!((e - 1000.0).abs() < 1e-9);
    }
}
