//! Dataset simulation: phantom → projections.
//!
//! The paper's inputs are measured projection stacks (`d ∈ R^(nθ, h, w)`).
//! Here a dataset is produced by applying the forward operator to a phantom
//! and optionally adding detector noise, which exercises exactly the same
//! reconstruction code path while being generatable at any scale.

use crate::geometry::LaminoGeometry;
use crate::operators::LaminoOperator;
use crate::phantom::PhantomKind;
use mlr_math::rng::{seeded, standard_normal};
use mlr_math::Array3;
use serde::{Deserialize, Serialize};

/// Noise model applied to simulated projections.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ProjectionNoise {
    /// Noise-free projections.
    None,
    /// Additive white Gaussian noise with the given standard deviation,
    /// expressed as a fraction of the projections' RMS value.
    Gaussian {
        /// Relative noise level (e.g. 0.01 = 1 % of signal RMS).
        relative_sigma: f64,
    },
}

/// A synthetic laminography dataset: geometry, ground-truth phantom and the
/// (possibly noisy) projections produced by the forward operator.
#[derive(Debug, Clone)]
pub struct LaminoDataset {
    /// Acquisition geometry.
    pub geometry: LaminoGeometry,
    /// Ground-truth volume the projections were generated from.
    pub ground_truth: Array3<f64>,
    /// Simulated projection data `d`.
    pub projections: Array3<f64>,
    /// The phantom family used.
    pub phantom: PhantomKind,
    /// Noise model applied.
    pub noise: ProjectionNoise,
}

impl LaminoDataset {
    /// Simulates a dataset: generates the phantom, applies the forward
    /// operator and adds noise.
    pub fn simulate(
        geometry: LaminoGeometry,
        phantom: PhantomKind,
        noise: ProjectionNoise,
        seed: u64,
    ) -> Self {
        let chunk_size = geometry.n1.clamp(1, 16);
        Self::simulate_with(
            &LaminoOperator::new(geometry, chunk_size),
            phantom,
            noise,
            seed,
        )
    }

    /// [`Self::simulate`] through an operator the caller already built, for
    /// its geometry. The operator's chunk size does not enter the arithmetic
    /// (planes are transformed independently), so the projections equal
    /// `simulate`'s bit for bit.
    pub fn simulate_with(
        operator: &LaminoOperator,
        phantom: PhantomKind,
        noise: ProjectionNoise,
        seed: u64,
    ) -> Self {
        let geometry = operator.geometry().clone();
        let n = geometry.n0.max(geometry.n1).max(geometry.n2);
        let ground_truth = phantom.generate(n, seed);
        assert_eq!(
            ground_truth.shape(),
            geometry.volume_shape(),
            "dataset simulation currently requires a cubic geometry"
        );
        let mut projections = operator.forward(&ground_truth);
        if let ProjectionNoise::Gaussian { relative_sigma } = noise {
            let rms = (projections.as_slice().iter().map(|x| x * x).sum::<f64>()
                / projections.len() as f64)
                .sqrt();
            let sigma = relative_sigma * rms;
            let mut rng = seeded(seed ^ 0x0A15E);
            for v in projections.as_mut_slice() {
                *v += sigma * standard_normal(&mut rng);
            }
        }
        Self {
            geometry,
            ground_truth,
            projections,
            phantom,
            noise,
        }
    }

    /// Convenience constructor for a cubic brain-phantom dataset.
    pub fn brain_cube(n: usize, n_angles: usize, tilt_degrees: f64, seed: u64) -> Self {
        Self::simulate(
            LaminoGeometry::cube(n, n_angles, tilt_degrees),
            PhantomKind::Brain,
            ProjectionNoise::None,
            seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulate_produces_consistent_shapes() {
        let ds = LaminoDataset::brain_cube(16, 8, 30.0, 3);
        assert_eq!(ds.ground_truth.shape(), ds.geometry.volume_shape());
        assert_eq!(ds.projections.shape(), ds.geometry.data_shape());
        assert!(ds.projections.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn noise_changes_projections() {
        let g = LaminoGeometry::cube(16, 6, 30.0);
        let clean =
            LaminoDataset::simulate(g.clone(), PhantomKind::Brain, ProjectionNoise::None, 4);
        let noisy = LaminoDataset::simulate(
            g,
            PhantomKind::Brain,
            ProjectionNoise::Gaussian {
                relative_sigma: 0.05,
            },
            4,
        );
        assert_eq!(clean.ground_truth, noisy.ground_truth);
        let diff: f64 = clean
            .projections
            .as_slice()
            .iter()
            .zip(noisy.projections.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 0.0);
    }

    #[test]
    fn simulate_with_any_chunk_size_equals_simulate() {
        let g = LaminoGeometry::cube(12, 6, 30.0);
        let noise = ProjectionNoise::Gaussian {
            relative_sigma: 0.02,
        };
        let reference = LaminoDataset::simulate(g.clone(), PhantomKind::Brain, noise, 5);
        for chunk_size in [1, 5] {
            let operator = LaminoOperator::new(g.clone(), chunk_size);
            let ds = LaminoDataset::simulate_with(&operator, PhantomKind::Brain, noise, 5);
            assert_eq!(ds.projections, reference.projections, "chunk {chunk_size}");
            assert_eq!(ds.ground_truth, reference.ground_truth);
            assert_eq!(ds.geometry, reference.geometry);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = LaminoDataset::brain_cube(16, 6, 30.0, 11);
        let b = LaminoDataset::brain_cube(16, 6, 30.0, 11);
        assert_eq!(a.projections, b.projections);
    }
}
