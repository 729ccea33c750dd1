//! Losslessness check: every finished stream must equal greedy
//! autoregressive decoding of the same request on the target alone.
//!
//! References are computed after the load phase, outside the timed window,
//! and cached by (prompt, image). Greedy decoding is a pure function of the
//! prefix, so the reference for a budget `b` is the first `b` tokens of the
//! reference for any larger budget; each key is decoded once, at the largest
//! budget any request asked of it.

use std::collections::HashMap;
use std::time::Instant;

use aasd_mm::{mm_autoregressive_ws, Image};
use aasd_specdec::autoregressive_greedy_with_budget_ws;
use aasd_tensor::{hardware_threads, Rng, Workspace};

use crate::load::{Outcome, Record};
use crate::setup::Models;

type Key = (Vec<u32>, Option<u64>);

#[derive(Default)]
pub struct References {
    streams: HashMap<Key, Vec<u32>>,
    /// Wall time spent decoding references.
    pub seconds: f64,
}

/// The synthetic image the engine renders for `seed`.
pub fn image_for(model: &aasd_mm::LlavaSim, seed: u64) -> Image {
    let v = &model.cfg.vision;
    Image::synthetic(&mut Rng::new(seed), v.n_patches, v.patch_dim)
}

fn decode(models: &Models, key: &Key, budget: usize, ws: &mut Workspace) -> Vec<u32> {
    match models {
        Models::Text { target, .. } => {
            autoregressive_greedy_with_budget_ws(target, &key.0, budget, ws)
        }
        Models::Mm { model, .. } => {
            let seed = key.1.expect("multimodal requests carry an image seed");
            mm_autoregressive_ws(model, &image_for(model, seed), &key.0, budget, ws)
        }
    }
}

impl References {
    /// Decode the references the finished records need and are not cached,
    /// spread over the host's cores.
    pub fn extend(&mut self, models: &Models, records: &[Record]) {
        let start = Instant::now();
        let mut need: HashMap<Key, usize> = HashMap::new();
        for r in records.iter().filter(|r| r.outcome == Outcome::Done) {
            let key = (r.req.prompt.clone(), r.req.image_seed);
            let b = need.entry(key).or_default();
            *b = (*b).max(r.req.budget);
        }
        let mut work: Vec<(Key, usize)> = need
            .into_iter()
            .filter(|(k, b)| self.streams.get(k).is_none_or(|s| s.len() < *b))
            .collect();
        work.sort();
        let threads = hardware_threads().clamp(1, work.len().max(1));
        let done: Vec<(Key, Vec<u32>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let work = &work;
                    scope.spawn(move || {
                        let mut ws = Workspace::new();
                        work.iter()
                            .skip(t)
                            .step_by(threads)
                            .map(|(k, b)| (k.clone(), decode(models, k, *b, &mut ws)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference decoder panicked"))
                .collect()
        });
        self.streams.extend(done);
        self.seconds += start.elapsed().as_secs_f64();
    }

    /// Finished records whose stream differs from its reference.
    pub fn mismatches(&self, records: &[Record]) -> usize {
        records
            .iter()
            .filter(|r| r.outcome == Outcome::Done)
            .filter(|r| {
                let reference = &self.streams[&(r.req.prompt.clone(), r.req.image_seed)];
                r.tokens.len() != r.req.budget || r.tokens[..] != reference[..r.req.budget]
            })
            .count()
    }

    /// The reference stream for a request, if decoded.
    pub fn get(&self, prompt: &[u32], image_seed: Option<u64>, budget: usize) -> Option<&[u32]> {
        self.streams
            .get(&(prompt.to_vec(), image_seed))
            .filter(|s| s.len() >= budget)
            .map(|s| &s[..budget])
    }
}
