//! Total-variation machinery.
//!
//! The TV term of the reconstruction objective needs three pieces: the
//! forward-difference gradient `∇u` (a 3-component vector field), its
//! adjoint (the negative divergence, used when differentiating the augmented
//! Lagrangian), and the isotropic shrinkage operator that solves the RSP in
//! closed form. The solver runs them fused over one [`DualField`]
//! ([`DualField::add_coupling_gradient`], [`DualField::rsp_update`]),
//! bit-identical to the
//! composed [`gradient`], [`divergence`], [`shrink`] and [`tv_norm`]: each
//! element keeps its expression, each sum its order and start value.

use mlr_math::{Array3, Shape3};

/// A 3-component vector field over a volume (the gradient of `u` and the
/// ADMM dual field [`DualField::arg`] have this shape).
#[derive(Debug, Clone, PartialEq)]
pub struct VectorField {
    /// Component along volume axis 0 (`n1`).
    pub x: Array3<f64>,
    /// Component along volume axis 1 (`n0`, vertical).
    pub y: Array3<f64>,
    /// Component along volume axis 2 (`n2`).
    pub z: Array3<f64>,
}

impl VectorField {
    /// A zero field over `shape`.
    pub fn zeros(shape: Shape3) -> Self {
        Self {
            x: Array3::zeros(shape),
            y: Array3::zeros(shape),
            z: Array3::zeros(shape),
        }
    }

    /// The underlying volume shape.
    pub fn shape(&self) -> Shape3 {
        self.x.shape()
    }

    fn slices(&self) -> [&[f64]; 3] {
        [&self.x, &self.y, &self.z].map(|c| c.as_slice())
    }

    fn slices_mut(&mut self) -> [&mut [f64]; 3] {
        [&mut self.x, &mut self.y, &mut self.z].map(|c| c.as_mut_slice())
    }

    /// Writes the vector `v` at voxel `idx`.
    fn set(&mut self, idx: usize, v: [f64; 3]) {
        for (component, x) in self.slices_mut().into_iter().zip(v) {
            component[idx] = x;
        }
    }
}

/// Calls `f(idx, [jk, k], ahead, behind)` for every voxel `(i, j, k)` of
/// `shape` in storage order (`jk` indexes it in its plane): `ahead[c]` says
/// it has a forward neighbour along axis `c`, `behind[c]` a backward one.
fn for_each_voxel(shape: Shape3, mut f: impl FnMut(usize, [usize; 2], [bool; 3], [bool; 3])) {
    let (n1, n0, n2) = shape.dims();
    let mut idx = 0;
    for i in 0..n1 {
        for j in 0..n0 {
            for k in 0..n2 {
                let ahead = [i + 1 < n1, j + 1 < n0, k + 1 < n2];
                f(idx, [j * n2 + k, k], ahead, [i > 0, j > 0, k > 0]);
                idx += 1;
            }
        }
    }
}

/// Index steps of the three axes of `shape`.
fn strides(shape: Shape3) -> [usize; 3] {
    let (_, n0, n2) = shape.dims();
    [n0 * n2, n2, 1]
}

/// `u`'s forward differences at voxel `idx`, zero along an axis ending there.
fn forward_diffs(u: &[f64], at: usize, ahead: [bool; 3], step: [usize; 3]) -> [f64; 3] {
    let x = u[at];
    std::array::from_fn(|c| if ahead[c] { u[at + step[c]] - x } else { 0.0 })
}

/// The isotropic magnitude `√(x² + y² + z²)` of one vector.
fn magnitude(v: [f64; 3]) -> f64 {
    (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()
}

/// One vector's magnitude shrunk by `threshold`, direction kept.
fn shrunk(v: [f64; 3], threshold: f64) -> [f64; 3] {
    let mag = magnitude(v);
    if mag > threshold {
        let scale = (mag - threshold) / mag;
        v.map(|x| x * scale)
    } else {
        [0.0; 3]
    }
}

/// Forward-difference gradient with Neumann (replicate) boundary: the
/// difference at the last index along an axis is zero.
pub fn gradient(u: &Array3<f64>) -> VectorField {
    let (shape, u, steps) = (u.shape(), u.as_slice(), strides(u.shape()));
    let mut g = VectorField::zeros(shape);
    for_each_voxel(shape, |idx, _, ahead, _| {
        g.set(idx, forward_diffs(u, idx, ahead, steps))
    });
    g
}

/// Divergence of a vector field with the boundary conditions adjoint to
/// [`gradient`], sign flipped so that `⟨∇u, p⟩ = ⟨u, divergence(p)⟩`
/// holds exactly: this is `∇ᵀp`, the negated backward differences.
pub fn divergence(p: &VectorField) -> Array3<f64> {
    let (shape, p) = (p.shape(), p.slices());
    let (steps, mut out) = (strides(shape), Array3::zeros(shape));
    let div = out.as_mut_slice();
    for_each_voxel(shape, |idx, _, ahead, behind| {
        let mut acc = 0.0;
        for c in 0..3 {
            if ahead[c] {
                acc += p[c][idx];
            }
            if behind[c] {
                acc -= p[c][idx - steps[c]];
            }
        }
        div[idx] = -acc;
    });
    out
}

/// Isotropic TV norm `Σ √(gx² + gy² + gz²)`.
pub fn tv_norm(u: &Array3<f64>) -> f64 {
    let g = gradient(u);
    let [x, y, z] = g.slices();
    (0..u.len()).fold(0.0, |total, i| total + magnitude([x[i], y[i], z[i]]))
}

/// Isotropic soft-thresholding (the RSP proximal step): shrinks the magnitude
/// of each gradient vector by `threshold`, preserving direction.
pub fn shrink(field: &VectorField, threshold: f64) -> VectorField {
    let mut out = VectorField::zeros(field.shape());
    let [x, y, z] = field.slices();
    for i in 0..x.len() {
        out.set(i, shrunk([x[i], y[i], z[i]], threshold));
    }
    out
}

/// The ADMM dual pair `(ψ, λ)` as one field, `arg`: the last RSP's shrink
/// argument `a = ∇u + λ/ρ_used`. By Moreau's decomposition,
/// `ψ = shrink(a, α/ρ_used)` and `λ/ρ_now = (ρ_used/ρ_now)·(a − ψ)`.
pub struct DualField {
    /// `a` (zero before the first RSP: `ψ = λ = 0`).
    pub arg: VectorField,
    /// `α/ρ_used`, the threshold `a` was shrunk at.
    pub threshold: f64,
    /// `ρ_used`, the penalty `a` was formed at.
    pub rho: f64,
    /// The coupling stencil's `∇u − g` of the last `i` plane and `j` row.
    rolling: [Vec<f64>; 2],
}

/// `ψ` and `λ/ρ_now` at one voxel of `a`, `ratio = ρ_used/ρ_now`.
fn split(a: [f64; 3], threshold: f64, ratio: f64) -> ([f64; 3], [f64; 3]) {
    let psi = shrunk(a, threshold);
    (psi, std::array::from_fn(|c| ratio * (a[c] - psi[c])))
}

/// The sums [`DualField::rsp_update`] takes on its way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RspSums {
    /// `‖∇u − ψ‖²` with the new `ψ` (the primal residual, squared).
    pub primal_sqr: f64,
    /// `‖ψ‖²` of the new `ψ`.
    pub psi_sqr: f64,
    /// `TV(u)`, as [`tv_norm`].
    pub tv: f64,
}

impl DualField {
    /// `ψ = λ = 0` over `shape`.
    pub fn zeros(shape: Shape3) -> Self {
        let (_, n0, n2) = shape.dims();
        Self {
            arg: VectorField::zeros(shape),
            threshold: 0.0,
            rho: 1.0,
            rolling: [vec![0.0; n0 * n2], vec![0.0; n2]],
        }
    }

    /// Adds the augmented-Lagrangian coupling `ρ ∇ᵀ(∇u − g)`, `g = ψ − λ/ρ`,
    /// into `grad` in one stencil pass that forms `g` once per voxel and each
    /// difference of `∇u − g` once (the backward neighbours' from rolling
    /// plane, row and voxel buffers); no field is materialised. Bit-identical
    /// to `grad.axpby(1.0, &divergence(&diff), rho)`, with `ψ` =
    /// [`shrink`]`(a)`, `l = a − ψ`, `g = ψ.axpby(1.0, l, −ρ_used/ρ)` and
    /// `diff = ∇u.axpby(1.0, g, −1.0)` formed component by component.
    pub fn add_coupling_gradient(&mut self, grad: &mut Array3<f64>, u: &Array3<f64>, rho: f64) {
        let (shape, u, grad) = (u.shape(), u.as_slice(), grad.as_mut_slice());
        let (steps, a, ratio) = (strides(shape), self.arg.slices(), self.rho / rho);
        let (threshold, [plane, row]) = (self.threshold, &mut self.rolling);
        let mut voxel = 0.0;
        for_each_voxel(shape, |idx, [jk, k], ahead, behind| {
            let (psi, scaled) = split(std::array::from_fn(|c| a[c][idx]), threshold, ratio);
            let (mut acc, rolling) = (0.0, [&mut plane[jk], &mut row[k], &mut voxel]);
            for (c, prev) in rolling.into_iter().enumerate() {
                let behind_diff = *prev;
                if ahead[c] {
                    *prev = (u[idx + steps[c]] - u[idx]) - (psi[c] - scaled[c]);
                    acc += *prev;
                }
                if behind[c] {
                    acc -= behind_diff;
                }
            }
            grad[idx] += -acc * rho;
        });
    }

    /// The RSP and the dual update in one pass over `(u, a)`: `a ← ∇u + λ/ρ`
    /// in place (the dual update), `ψ = shrink(a, α/ρ)` (the RSP), summing
    /// the squared primal residual `∇u − ψ`, `‖ψ‖²` and `TV(u)` in voxel
    /// order. Bit-identical to the composed [`gradient`] / [`shrink`] /
    /// `axpby` / `dot` / [`tv_norm`] sequence; no vector field is allocated.
    pub fn rsp_update(&mut self, u: &Array3<f64>, alpha: f64, rho: f64) -> RspSums {
        let (shape, u) = (u.shape(), u.as_slice());
        let (steps, old_threshold, ratio) = (strides(shape), self.threshold, self.rho / rho);
        let (a, threshold) = (self.arg.slices_mut(), alpha / rho);
        // Per component, as `Array3::dot`: from `f64: Sum`'s start value, −0.
        let (mut primal_sqr, mut psi_sqr, mut tv) = ([-0.0; 3], [-0.0; 3], 0.0);
        for_each_voxel(shape, |idx, _, ahead, _| {
            let g = forward_diffs(u, idx, ahead, steps);
            tv += magnitude(g);
            let (_, scaled) = split(std::array::from_fn(|c| a[c][idx]), old_threshold, ratio);
            let arg: [f64; 3] = std::array::from_fn(|c| g[c] + scaled[c]);
            let p = shrunk(arg, threshold);
            for c in 0..3 {
                let r = g[c] - p[c];
                a[c][idx] = arg[c];
                primal_sqr[c] += r * r;
                psi_sqr[c] += p[c] * p[c];
            }
        });
        (self.threshold, self.rho) = (threshold, rho);
        let total = |s: [f64; 3]| s[0] + s[1] + s[2];
        RspSums {
            primal_sqr: total(primal_sqr),
            psi_sqr: total(psi_sqr),
            tv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_math::norms::max_abs_diff;
    use mlr_math::rng::seeded;
    use rand::Rng;

    fn random_volume(n: usize, seed: u64) -> Array3<f64> {
        let (mut rng, shape) = (seeded(seed), Shape3::cube(n));
        Array3::from_vec(
            shape,
            (0..shape.len()).map(|_| rng.gen::<f64>() - 0.5).collect(),
        )
    }

    fn random_field(n: usize, seed: u64) -> VectorField {
        let [x, y, z] = [0, 1, 2].map(|c| random_volume(n, seed + c));
        VectorField { x, y, z }
    }

    #[test]
    fn gradient_of_constant_is_zero() {
        let u = Array3::filled(Shape3::cube(6), 3.7);
        assert_eq!(gradient(&u), VectorField::zeros(u.shape()));
        assert_eq!(tv_norm(&u), 0.0);
    }

    #[test]
    fn gradient_of_linear_ramp() {
        let n = 5;
        let ramp = (0..n).flat_map(|i| vec![2.0 * i as f64; n * n]).collect();
        let g = gradient(&Array3::from_vec(Shape3::cube(n), ramp));
        // Interior x-differences are 2, boundary plane is 0, other axes are 0.
        assert_eq!(g.x[(0, 0, 0)], 2.0);
        assert_eq!(g.x[(n - 2, 1, 1)], 2.0);
        assert_eq!(g.x[(n - 1, 1, 1)], 0.0);
        assert_eq!(g.y[(1, 1, 1)], 0.0);
        assert_eq!(g.z[(1, 1, 1)], 0.0);
    }

    #[test]
    fn gradient_divergence_adjointness() {
        // divergence() is ∇ᵀ = −div, so <grad u, p> == <u, divergence(p)>.
        let u = random_volume(6, 1);
        let p = random_field(6, 10);
        let gu = gradient(&u);
        let lhs = gu.x.dot(&p.x) + gu.y.dot(&p.y) + gu.z.dot(&p.z);
        let rhs = u.dot(&divergence(&p));
        assert!(
            (lhs - rhs).abs() < 1e-10 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn shrink_thresholds_small_vectors_to_zero() {
        let shape = Shape3::cube(3);
        let mut f = VectorField::zeros(shape);
        f.x[(0, 0, 0)] = 0.1;
        f.y[(1, 1, 1)] = 3.0;
        f.z[(1, 1, 1)] = 4.0; // magnitude 5 at (1,1,1)
        let s = shrink(&f, 1.0);
        assert_eq!(s.x[(0, 0, 0)], 0.0);
        // Magnitude shrinks from 5 to 4, direction preserved (3,4)/5.
        assert!((s.y[(1, 1, 1)] - 3.0 * 0.8).abs() < 1e-12);
        assert!((s.z[(1, 1, 1)] - 4.0 * 0.8).abs() < 1e-12);
    }

    #[test]
    fn shrink_is_identity_at_zero_threshold() {
        let f = random_field(4, 20);
        let s = shrink(&f, 0.0);
        for (a, b) in [(&s.x, &f.x), (&s.y, &f.y), (&s.z, &f.z)] {
            assert!(max_abs_diff(a.as_slice(), b.as_slice()) < 1e-12);
        }
    }

    #[test]
    fn tv_norm_positive_for_nonconstant() {
        let u = random_volume(5, 30);
        assert!(tv_norm(&u) > 0.0);
    }
}
