//! Parameter storage shared by every model in the reproduction.
//!
//! A [`ParamStore`] owns the trainable matrices of a model. Each training
//! step binds the parameters into a fresh autodiff [`Graph`] via
//! [`ParamStore::bind`], runs the forward/backward pass, accumulates the
//! returned gradients with [`ParamStore::accumulate`], and finally lets an
//! optimiser update the values.

use prim_tensor::{Gradients, Graph, Matrix, Var};

/// Stable handle to one parameter matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParamId(usize);

struct Param {
    name: String,
    value: Matrix,
    grad: Matrix,
    decay: bool,
}

/// Owns the trainable parameters of a model.
#[derive(Default)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter; names are diagnostic and need not be unique.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let grad = Matrix::zeros(value.rows(), value.cols());
        self.params.push(Param {
            name: name.into(),
            value,
            grad,
            decay: true,
        });
        ParamId(self.params.len() - 1)
    }

    /// Registers an embedding-style parameter excluded from weight decay.
    ///
    /// Multiplicative scorers (DistMult and friends) have a saddle point at
    /// zero; decaying the embedding tables drives them into it and training
    /// flat-lines at ln 2. Dense projection weights keep their decay.
    pub fn add_no_decay(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let grad = Matrix::zeros(value.rows(), value.cols());
        self.params.push(Param {
            name: name.into(),
            value,
            grad,
            decay: false,
        });
        ParamId(self.params.len() - 1)
    }

    /// Number of parameters (matrices, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True if the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of trainable scalars.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Parameter name (for diagnostics).
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].value
    }

    /// Mutable value access (e.g. for manual re-initialisation).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.params[id.0].value
    }

    /// Appends `extra` zero-initialised rows to a parameter (and resets its
    /// gradient buffer to the new shape). The online-ingest path uses this
    /// to grow per-POI embedding tables when new POIs are onboarded: zero
    /// rows are deterministic, and like unseen POIs in the paper's
    /// inductive setting, the feature pathway carries the load until the
    /// next retrain.
    pub fn extend_rows(&mut self, id: ParamId, extra: usize) {
        let p = &mut self.params[id.0];
        let cols = p.value.cols();
        let zeros = Matrix::zeros(extra, cols);
        p.value = Matrix::vstack(&[&p.value, &zeros]);
        p.grad = Matrix::zeros(p.value.rows(), cols);
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].grad
    }

    /// Binds every parameter into `graph` as a trainable leaf.
    ///
    /// Values are copied into graph-pooled buffers (`Graph::leaf_ref`), so
    /// re-binding after `Graph::reset` allocates nothing in steady state.
    pub fn bind(&self, graph: &mut Graph) -> Binding {
        let vars = self
            .params
            .iter()
            .map(|p| graph.leaf_ref(&p.value))
            .collect();
        Binding { vars }
    }

    /// Adds the gradients from a backward pass into the store.
    pub fn accumulate(&mut self, binding: &Binding, grads: &Gradients) {
        for (param, &var) in self.params.iter_mut().zip(binding.vars.iter()) {
            if let Some(g) = grads.get(var) {
                param.grad.add_assign(g);
            }
        }
    }

    /// Clears all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for p in self.params.iter_mut() {
            p.grad.fill_zero();
        }
    }

    /// Iterates over `(name, grad)` pairs, e.g. for finite-guard sweeps.
    pub fn iter_grads(&self) -> impl Iterator<Item = (&str, &Matrix)> {
        self.params.iter().map(|p| (p.name.as_str(), &p.grad))
    }

    /// Per-parameter-group gradient L2 norms, in registration order.
    pub fn param_grad_norms(&self) -> Vec<(String, f32)> {
        self.params
            .iter()
            .map(|p| (p.name.clone(), p.grad.frobenius_norm()))
            .collect()
    }

    /// Global L2 norm of all accumulated gradients.
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| {
                let n = p.grad.frobenius_norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Scales all gradients so their global norm is at most `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let k = max_norm / norm;
            for p in self.params.iter_mut() {
                for g in p.grad.data_mut() {
                    *g *= k;
                }
            }
        }
    }

    /// Iterates over `(value, grad, decay)` for optimiser updates.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (&mut Matrix, &Matrix, bool)> {
        self.params
            .iter_mut()
            .map(|p| (&mut p.value, &p.grad, p.decay))
    }

    /// All parameter ids in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Iterates over `(name, value, decays)` in registration order — the
    /// full persistable state of the store (checkpoint serialisation).
    pub fn entries(&self) -> impl Iterator<Item = (&str, &Matrix, bool)> {
        self.params
            .iter()
            .map(|p| (p.name.as_str(), &p.value, p.decay))
    }

    /// Replaces every parameter value from `(name, value)` pairs in
    /// registration order — the read half of the checkpoint round-trip.
    ///
    /// The pairs must match the store's parameters exactly (same count,
    /// same names in the same order, same shapes); any mismatch is reported
    /// as a structured message naming the offending entry, and the store is
    /// left untouched on error.
    pub fn import_named(&mut self, entries: &[(String, Matrix)]) -> Result<(), String> {
        Self::check_named(
            self.params
                .iter()
                .map(|p| (p.name.as_str(), p.value.shape())),
            entries,
        )?;
        for (p, (_, value)) in self.params.iter_mut().zip(entries.iter()) {
            p.value = value.clone();
        }
        Ok(())
    }

    /// The checks [`ParamStore::import_named`] makes, against a parameter
    /// list given as `(name, shape)` pairs in registration order: the same
    /// count, then entry by entry the same name and the same shape. The
    /// message names the first mismatch. A model restored from named
    /// values, with no store to import into yet, checks through this too.
    pub fn check_named<'a>(
        expected: impl ExactSizeIterator<Item = (&'a str, (usize, usize))>,
        entries: &[(String, Matrix)],
    ) -> Result<(), String> {
        if entries.len() != expected.len() {
            return Err(format!(
                "parameter count mismatch: checkpoint has {}, model expects {}",
                entries.len(),
                expected.len()
            ));
        }
        for ((want, shape), (name, value)) in expected.zip(entries.iter()) {
            if want != name {
                return Err(format!(
                    "parameter name mismatch: checkpoint has {name:?}, model expects {want:?}"
                ));
            }
            if shape != value.shape() {
                return Err(format!(
                    "parameter {name:?} shape mismatch: checkpoint has {:?}, model expects {shape:?}",
                    value.shape()
                ));
            }
        }
        Ok(())
    }

    /// Copies all current parameter values (for best-checkpoint selection).
    pub fn snapshot(&self) -> Vec<Matrix> {
        self.params.iter().map(|p| p.value.clone()).collect()
    }

    /// Restores values captured by [`ParamStore::snapshot`].
    ///
    /// # Panics
    /// Panics if the snapshot does not match the store's parameters.
    pub fn restore(&mut self, snapshot: &[Matrix]) {
        assert_eq!(
            snapshot.len(),
            self.params.len(),
            "snapshot length mismatch"
        );
        for (p, m) in self.params.iter_mut().zip(snapshot.iter()) {
            assert_eq!(p.value.shape(), m.shape(), "snapshot shape mismatch");
            p.value = m.clone();
        }
    }
}

/// The graph leaves produced by one [`ParamStore::bind`] call.
pub struct Binding {
    vars: Vec<Var>,
}

impl Binding {
    /// Graph variable for a parameter.
    pub fn var(&self, id: ParamId) -> Var {
        self.vars[id.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_accumulate_roundtrip() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 2, vec![2.0, 3.0]));

        let mut g = Graph::new();
        let bind = store.bind(&mut g);
        let sq = g.mul(bind.var(w), bind.var(w));
        let loss = g.sum_all(sq);
        let grads = g.backward(loss);
        store.accumulate(&bind, &grads);
        // d(w²)/dw = 2w
        assert_eq!(store.grad(w).data(), &[4.0, 6.0]);

        store.zero_grads();
        assert_eq!(store.grad(w).data(), &[0.0, 0.0]);
    }

    #[test]
    fn grad_accumulates_across_steps() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::ones(1, 1));
        for _ in 0..3 {
            let mut g = Graph::new();
            let bind = store.bind(&mut g);
            let loss = g.sum_all(bind.var(w));
            let grads = g.backward(loss);
            store.accumulate(&bind, &grads);
        }
        assert_eq!(store.grad(w).scalar(), 3.0);
    }

    #[test]
    fn clip_grad_norm_scales_down_only() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::zeros(1, 2));
        {
            let mut g = Graph::new();
            let bind = store.bind(&mut g);
            let c = g.constant(Matrix::from_vec(1, 2, vec![3.0, 4.0]));
            let prod = g.mul(bind.var(w), c);
            let loss = g.sum_all(prod);
            let grads = g.backward(loss);
            store.accumulate(&bind, &grads);
        }
        assert!((store.grad_norm() - 5.0).abs() < 1e-5);
        store.clip_grad_norm(1.0);
        assert!((store.grad_norm() - 1.0).abs() < 1e-5);
        let before = store.grad(w).clone();
        store.clip_grad_norm(10.0); // already below: no-op
        assert_eq!(store.grad(w), &before);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::ones(2, 2));
        let snap = store.snapshot();
        store.value_mut(w).data_mut()[0] = 99.0;
        assert_eq!(store.value(w).data()[0], 99.0);
        store.restore(&snap);
        assert_eq!(store.value(w).data()[0], 1.0);
    }

    #[test]
    fn entries_import_roundtrip_and_mismatches() {
        let mut store = ParamStore::new();
        store.add("w", Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        store.add_no_decay("emb", Matrix::from_vec(2, 1, vec![3.0, 4.0]));

        let exported: Vec<(String, Matrix)> = store
            .entries()
            .map(|(n, v, _)| (n.to_string(), v.clone()))
            .collect();
        let decays: Vec<bool> = store.entries().map(|(_, _, d)| d).collect();
        assert_eq!(decays, vec![true, false]);

        let mut fresh = ParamStore::new();
        let w = fresh.add("w", Matrix::zeros(1, 2));
        fresh.add_no_decay("emb", Matrix::zeros(2, 1));
        fresh.import_named(&exported).unwrap();
        assert_eq!(fresh.value(w).data(), &[1.0, 2.0]);

        // Wrong order → named error, store untouched.
        let mut swapped = exported.clone();
        swapped.swap(0, 1);
        let err = fresh.import_named(&swapped).unwrap_err();
        assert!(err.contains("name mismatch"), "{err}");
        assert_eq!(fresh.value(w).data(), &[1.0, 2.0]);

        // Wrong shape → named error.
        let bad = vec![
            ("w".to_string(), Matrix::zeros(2, 2)),
            ("emb".to_string(), Matrix::zeros(2, 1)),
        ];
        let err = fresh.import_named(&bad).unwrap_err();
        assert!(err.contains("shape mismatch"), "{err}");

        // Wrong count → named error.
        let err = fresh.import_named(&exported[..1]).unwrap_err();
        assert!(err.contains("count mismatch"), "{err}");
    }

    #[test]
    fn num_scalars_counts_all() {
        let mut store = ParamStore::new();
        store.add("a", Matrix::zeros(2, 3));
        store.add("b", Matrix::zeros(4, 1));
        assert_eq!(store.num_scalars(), 10);
        assert_eq!(store.len(), 2);
    }
}
