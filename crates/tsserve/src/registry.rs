//! Fitted-model registry with kill-safe persistence.
//!
//! Every fitted model is serialized to JSON (floats via shortest
//! round-trip formatting) and written through
//! [`tsexperiments::CheckpointStore::store_named`] — an atomic
//! write-then-rename — under `model__<name>.json`. On startup
//! [`ModelRegistry::warm_start`] reloads every artifact, quarantining
//! corrupt files, so a `kill -9`'d server restarts and serves
//! bit-identical assignments without refitting.
//!
//! In memory each model carries a [`CentroidBank`] of its centroids, so
//! assignment runs the fit's own nearest-centroid rule: one forward FFT
//! per query channel, one conjugate multiply + half-size inverse per
//! centroid, with the centroid as SBD's `x` and the query as its `y`.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use kshape::bank::CentroidBank;
use kshape::sbd::SbdScratch;
use tsexperiments::checkpoint::LoadOutcome;
use tsexperiments::CheckpointStore;
use tsobs::JsonValue;

use crate::wire::{json_escape, push_series_json};

/// Checkpoint-name prefix for persisted models.
const MODEL_PREFIX: &str = "model__";

/// Is `name` a legal model name? Restricted to `[A-Za-z0-9_]{1,64}` so
/// names survive the checkpoint store's filename sanitization without
/// collisions.
pub fn valid_model_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

/// A fitted clustering model: the shape centroids plus fit provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Registry name.
    pub name: String,
    /// Number of clusters.
    pub k: usize,
    /// Per-channel series length the model was fitted on.
    pub m: usize,
    /// Channels per series (default 1). Centroids and queries are
    /// `channels * m` samples in channel-major order.
    pub channels: usize,
    /// Ladder rung that produced the centroids (its
    /// [`tscluster::LadderRung::name`]).
    pub rung: String,
    /// Whether the producing rung converged before its iteration cap.
    pub converged: bool,
    /// Refinement iterations executed.
    pub iterations: usize,
    /// One centroid per cluster, each of length `m`.
    pub centroids: Vec<Vec<f64>>,
}

impl Model {
    /// Serializes the model as its persistence payload.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.k * self.channels * self.m * 20);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"k\":{},\"m\":{}",
            json_escape(&self.name),
            self.k,
            self.m,
        ));
        // Only multichannel models mention channels, so univariate
        // artifacts keep the pre-redesign byte format (and old artifacts
        // parse: a missing key defaults to 1).
        if self.channels != 1 {
            out.push_str(&format!(",\"channels\":{}", self.channels));
        }
        out.push_str(&format!(
            ",\"rung\":\"{}\",\"converged\":{},\"iterations\":{},\"centroids\":",
            json_escape(&self.rung),
            self.converged,
            self.iterations,
        ));
        push_series_json(&mut out, &self.centroids);
        out.push('}');
        out
    }

    /// Parses and validates a persistence payload. `None` on any
    /// structural or numerical defect — the caller quarantines the file.
    pub fn from_json(text: &str) -> Option<Model> {
        let obj = tsobs::parse_json(text).ok()?;
        let name = obj.get("name")?.as_str()?.to_string();
        if !valid_model_name(&name) {
            return None;
        }
        let k = obj.get("k")?.as_uint()? as usize;
        let m = obj.get("m")?.as_uint()? as usize;
        let channels = match obj.get("channels") {
            Some(v) => v.as_uint()? as usize,
            None => 1,
        };
        if channels == 0 {
            return None;
        }
        let rung = obj.get("rung")?.as_str()?.to_string();
        tscluster::LadderRung::from_name(&rung)?;
        let converged = match obj.get("converged")? {
            JsonValue::Bool(b) => *b,
            _ => return None,
        };
        let iterations = obj.get("iterations")?.as_uint()? as usize;
        let JsonValue::Arr(rows) = obj.get("centroids")? else {
            return None;
        };
        if k == 0 || m == 0 || rows.len() != k {
            return None;
        }
        let mut centroids = Vec::with_capacity(k);
        for row in rows {
            let JsonValue::Arr(vals) = row else {
                return None;
            };
            if vals.len() != channels * m {
                return None;
            }
            let mut c = Vec::with_capacity(channels * m);
            for v in vals {
                let x = v.as_num()?;
                if !x.is_finite() {
                    return None;
                }
                c.push(x);
            }
            centroids.push(c);
        }
        Some(Model {
            name,
            k,
            m,
            channels,
            rung,
            converged,
            iterations,
            centroids,
        })
    }
}

/// A model plus the prepared spectra of its centroids.
#[derive(Debug)]
pub struct PreparedModel {
    /// The underlying model.
    pub model: Model,
    bank: CentroidBank,
}

impl PreparedModel {
    /// Prepares `model` for assignment (one forward FFT per centroid
    /// channel, done once here).
    ///
    /// # Errors
    ///
    /// [`tserror::TsError::EmptyInput`] for `m = 0`, and a typed error
    /// for zero channels or a centroid that is not `channels * m` long.
    pub fn new(model: Model) -> tserror::TsResult<PreparedModel> {
        let mut bank = CentroidBank::fixed(model.m, model.channels)?;
        bank.load(&model.centroids)?;
        Ok(PreparedModel { model, bank })
    }

    /// Nearest centroid for an already z-normalized channel-major query
    /// of length `channels * m`: `(label, sbd_distance)`, the same bits
    /// a fit's assignment sweep computes for that row.
    pub fn assign_one(&self, query: &[f64], scratch: &mut SbdScratch) -> (usize, f64) {
        let (label, dist, _shift) = self.bank.nearest(query, scratch);
        (label, dist)
    }
}

/// Outcome of [`ModelRegistry::warm_start`].
#[derive(Debug, Default)]
pub struct WarmStart {
    /// Names of the models loaded, sorted.
    pub loaded: Vec<String>,
    /// Artifacts quarantined (corrupt bytes) or rejected (bad payload).
    pub rejected: usize,
}

/// Thread-safe registry of prepared models backed by a
/// [`CheckpointStore`].
pub struct ModelRegistry {
    store: CheckpointStore,
    models: RwLock<HashMap<String, Arc<PreparedModel>>>,
}

impl ModelRegistry {
    /// A registry persisting through `store` (which may be disabled —
    /// then models live only in memory).
    pub fn new(store: CheckpointStore) -> ModelRegistry {
        ModelRegistry {
            store,
            models: RwLock::new(HashMap::new()),
        }
    }

    /// Reloads every persisted model. Corrupt files are quarantined by
    /// the store (`*.json.corrupt`) and counted, never served.
    pub fn warm_start(&self) -> WarmStart {
        let mut out = WarmStart::default();
        for artifact in self.store.list_named(MODEL_PREFIX) {
            let (model, outcome) = self.store.load_named(&artifact, Model::from_json);
            match (model, outcome) {
                (Some(model), LoadOutcome::Hit) => match PreparedModel::new(model) {
                    Ok(prepared) => {
                        out.loaded.push(prepared.model.name.clone());
                        self.put(prepared);
                    }
                    Err(_) => out.rejected += 1,
                },
                (_, LoadOutcome::Quarantined) => out.rejected += 1,
                _ => out.rejected += 1,
            }
        }
        out.loaded.sort();
        out
    }

    /// Validates, prepares, persists, and publishes a fitted model.
    /// The write is atomic (`store_named`), so a kill mid-store leaves
    /// either the old artifact or the new one — never a torn file.
    pub fn insert(&self, model: Model) -> Result<Arc<PreparedModel>, String> {
        let payload = model.to_json();
        let name = model.name.clone();
        let prepared = PreparedModel::new(model).map_err(|e| format!("model rejected: {e}"))?;
        self.store
            .store_named(&format!("{MODEL_PREFIX}{name}"), &payload)
            .map_err(|e| format!("persist failed: {e}"))?;
        let arc = Arc::new(prepared);
        self.models
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(name, Arc::clone(&arc));
        Ok(arc)
    }

    fn put(&self, prepared: PreparedModel) {
        self.models
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(prepared.model.name.clone(), Arc::new(prepared));
    }

    /// Looks up a model by name.
    pub fn get(&self, name: &str) -> Option<Arc<PreparedModel>> {
        self.models
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// Sorted model names.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .models
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Whether no models are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_model() -> Model {
        Model {
            name: "demo".into(),
            k: 2,
            m: 4,
            channels: 1,
            rung: "k-Shape".into(),
            converged: true,
            iterations: 3,
            centroids: vec![vec![0.1, 0.2, -0.3, 0.0], vec![1.0, -1.0, 0.5, -0.5]],
        }
    }

    fn sample_mc_model() -> Model {
        Model {
            name: "demo_mc".into(),
            k: 2,
            m: 4,
            channels: 2,
            rung: "k-Shape".into(),
            converged: true,
            iterations: 3,
            centroids: vec![
                vec![0.1, 0.2, -0.3, 0.0, 0.4, -0.4, 0.2, -0.2],
                vec![1.0, -1.0, 0.5, -0.5, -1.0, 1.0, -0.5, 0.5],
            ],
        }
    }

    #[test]
    fn univariate_model_json_never_mentions_channels() {
        // Old artifacts must keep loading and new univariate artifacts
        // must keep the old byte format.
        let json = sample_model().to_json();
        assert!(!json.contains("\"channels\""));
        assert_eq!(Model::from_json(&json).unwrap().channels, 1);
    }

    #[test]
    fn multichannel_model_round_trips_and_assigns() {
        let model = sample_mc_model();
        let json = model.to_json();
        assert!(json.contains("\"channels\":2"));
        let back = Model::from_json(&json).unwrap();
        assert_eq!(back, model);
        assert_eq!(back.to_json(), json);
        // Wrong per-row width is a structural defect.
        assert!(Model::from_json(&json.replace("\"channels\":2", "\"channels\":3")).is_none());

        let prepared = PreparedModel::new(model.clone()).unwrap();
        let mut scratch = SbdScratch::default();
        // Each centroid is its own nearest neighbour.
        for (j, cent) in model.centroids.iter().enumerate() {
            let (label, dist) = prepared.assign_one(cent, &mut scratch);
            assert_eq!(label, j);
            assert!(dist < 1e-9, "self-distance {dist} for centroid {j}");
        }
    }

    #[test]
    fn model_json_round_trips_exactly() {
        let model = sample_model();
        let json = model.to_json();
        let back = Model::from_json(&json).unwrap();
        assert_eq!(back, model);
        // Bit-identical floats and a byte-identical re-serialization:
        // the warm-start contract.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn from_json_rejects_defects() {
        let model = sample_model();
        let good = model.to_json();
        assert!(Model::from_json(&good.replace("\"k\":2", "\"k\":3")).is_none());
        assert!(Model::from_json(&good.replace("0.2", "\"x\"")).is_none());
        assert!(Model::from_json("{\"name\":\"demo\"}").is_none());
        assert!(Model::from_json("not json").is_none());
        assert!(Model::from_json(&good.replace("k-Shape", "mystery")).is_none());
    }

    #[test]
    fn model_names_are_restricted() {
        assert!(valid_model_name("prices_2024"));
        assert!(!valid_model_name(""));
        assert!(!valid_model_name("a/b"));
        assert!(!valid_model_name("dash-ed"));
        assert!(!valid_model_name(&"x".repeat(65)));
    }

    #[test]
    fn registry_round_trip_and_warm_start() {
        let dir = std::env::temp_dir().join(format!(
            "tsserve-registry-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = ModelRegistry::new(CheckpointStore::new(&dir));
        registry.insert(sample_model()).unwrap();
        assert_eq!(registry.names(), vec!["demo".to_string()]);

        // Fresh registry over the same dir: warm start finds the model.
        let reborn = ModelRegistry::new(CheckpointStore::new(&dir));
        let warm = reborn.warm_start();
        assert_eq!(warm.loaded, vec!["demo".to_string()]);
        assert_eq!(warm.rejected, 0);
        let m = reborn.get("demo").unwrap();
        assert_eq!(m.model, sample_model());

        // Assignment agrees between original and warm-started copies.
        let query = vec![0.9, -0.9, 0.4, -0.4];
        let mut scratch = SbdScratch::default();
        let a = registry
            .get("demo")
            .unwrap()
            .assign_one(&query, &mut scratch);
        let b = m.assign_one(&query, &mut scratch);
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_start_quarantines_corrupt_artifacts() {
        let dir = std::env::temp_dir().join(format!("tsserve-quarantine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir);
        store
            .store_named("model__good", &sample_model().to_json())
            .unwrap();
        store
            .store_named("model__bad", "{\"name\":\"bad\",")
            .unwrap();
        let registry = ModelRegistry::new(CheckpointStore::new(&dir));
        let warm = registry.warm_start();
        assert_eq!(warm.loaded, vec!["demo".to_string()]);
        assert_eq!(warm.rejected, 1);
        assert!(dir.join("model__bad.json.corrupt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
