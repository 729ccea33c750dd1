//! Training for the tree-speculation **acceptance calibrator**: a logistic
//! head `σ(w·f + b)` over per-candidate features (draft probability,
//! distribution peak, depth, visual-attention mass) predicting whether the
//! target will accept a drafted token. Examples come straight from
//! [`SpecSession`](aasd_specdec::SpecSession) runs with example collection
//! enabled ([`SpecSession::enable_example_collection`]), so the head is
//! fitted on exactly the distribution it will gate at serve time.
//!
//! [`SpecSession::enable_example_collection`]: aasd_specdec::SpecSession::enable_example_collection
//!
//! The model is tiny (5 parameters) and convex, so the gradient is written
//! out by hand — `∂ℓ/∂w = (σ(z) − y)·f`, `∂ℓ/∂b = σ(z) − y` for the
//! log-loss — and pushed through the existing [`Optimizer`] stack as a
//! single parameter slot.

use crate::Optimizer;
use aasd_specdec::{AcceptanceCalibrator, AcceptanceExample, CALIBRATOR_FEATURES};

/// Fit a calibrator on labelled acceptance examples by full-batch logistic
/// regression: `steps` optimizer steps at learning rate `lr`, starting from
/// the neutral prior. Returns the fitted head and the per-step mean
/// log-loss (before each update).
///
/// Panics if `examples` is empty — an unobserved head should stay at
/// [`AcceptanceCalibrator::neutral`] instead of being "fitted" to nothing.
pub fn fit_acceptance_calibrator(
    examples: &[AcceptanceExample],
    steps: usize,
    lr: f32,
    opt: &mut dyn Optimizer,
) -> (AcceptanceCalibrator, Vec<f32>) {
    assert!(!examples.is_empty(), "no acceptance examples to fit");
    // One flat slot: [w0, w1, w2, w3, b].
    let mut theta = [0.0f32; CALIBRATOR_FEATURES + 1];
    let prior = AcceptanceCalibrator::neutral();
    theta[..CALIBRATOR_FEATURES].copy_from_slice(&prior.w);
    theta[CALIBRATOR_FEATURES] = prior.b;

    let inv_n = 1.0 / examples.len() as f32;
    let mut losses = Vec::with_capacity(steps);
    let mut grad = [0.0f32; CALIBRATOR_FEATURES + 1];
    for _ in 0..steps {
        grad.fill(0.0);
        let mut loss = 0.0f32;
        for ex in examples {
            let z: f32 = theta[..CALIBRATOR_FEATURES]
                .iter()
                .zip(&ex.features)
                .map(|(w, x)| w * x)
                .sum::<f32>()
                + theta[CALIBRATOR_FEATURES];
            let p = 1.0 / (1.0 + (-z).exp());
            // Clamped log-loss keeps a saturated head finite.
            let pc = p.clamp(1e-7, 1.0 - 1e-7);
            loss -= ex.label * pc.ln() + (1.0 - ex.label) * (1.0 - pc).ln();
            let err = (p - ex.label) * inv_n;
            for (g, x) in grad[..CALIBRATOR_FEATURES].iter_mut().zip(&ex.features) {
                *g += err * x;
            }
            grad[CALIBRATOR_FEATURES] += err;
        }
        losses.push(loss * inv_n);
        opt.begin_step(lr);
        opt.update(0, &mut theta, &grad);
    }

    let mut w = [0.0f32; CALIBRATOR_FEATURES];
    w.copy_from_slice(&theta[..CALIBRATOR_FEATURES]);
    (
        AcceptanceCalibrator {
            w,
            b: theta[CALIBRATOR_FEATURES],
        },
        losses,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Adam;

    fn example(f: [f32; CALIBRATOR_FEATURES], label: f32) -> AcceptanceExample {
        AcceptanceExample { features: f, label }
    }

    /// Separable data (accept iff draft prob > 0.5) is fitted to near-zero
    /// loss, and predictions land on the right side of 0.5.
    #[test]
    fn fits_separable_acceptance_data() {
        let mut data = Vec::new();
        for i in 0..20 {
            let p = (i as f32 + 0.5) / 20.0;
            let label = if p > 0.5 { 1.0 } else { 0.0 };
            data.push(example([p, 0.8, 0.5, 0.2], label));
        }
        let mut opt = Adam::new();
        let (cal, losses) = fit_acceptance_calibrator(&data, 400, 0.05, &mut opt);
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "loss did not shrink: {} -> {}",
            losses[0],
            losses.last().unwrap()
        );
        assert!(cal.accept(&[0.9, 0.8, 0.5, 0.2]));
        assert!(!cal.accept(&[0.1, 0.8, 0.5, 0.2]));
    }

    /// The modality feature is live: when acceptance depends on the
    /// visual-attention mass, the fitted head separates on it while the
    /// neutral prior (vis weight 0) cannot.
    #[test]
    fn learns_the_visual_mass_interaction() {
        let mut data = Vec::new();
        for i in 0..16 {
            let vis = (i as f32 + 0.5) / 16.0;
            let label = if vis > 0.5 { 1.0 } else { 0.0 };
            data.push(example([0.5, 0.6, 0.5, vis], label));
        }
        let prior = AcceptanceCalibrator::neutral();
        let p_lo = prior.predict(&[0.5, 0.6, 0.5, 0.1]);
        let p_hi = prior.predict(&[0.5, 0.6, 0.5, 0.9]);
        assert_eq!(p_lo, p_hi, "neutral prior is vis-blind by construction");
        let mut opt = Adam::new();
        let (cal, _) = fit_acceptance_calibrator(&data, 600, 0.05, &mut opt);
        assert!(
            cal.predict(&[0.5, 0.6, 0.5, 0.9]) > cal.predict(&[0.5, 0.6, 0.5, 0.1]) + 0.2,
            "fitted head must separate on visual mass: {cal:?}"
        );
    }

    #[test]
    #[should_panic(expected = "no acceptance examples")]
    fn empty_example_set_is_rejected() {
        let mut opt = Adam::new();
        fit_acceptance_calibrator(&[], 10, 0.1, &mut opt);
    }
}
