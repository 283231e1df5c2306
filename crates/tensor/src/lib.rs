//! # prim-tensor
//!
//! Dense `f32` matrices plus a tape-based reverse-mode autodiff engine,
//! built from scratch for the PRIM (VLDB 2021) reproduction. Rust has no
//! mature GNN/autodiff stack we could depend on, so this crate is the
//! numerical substrate for the whole workspace:
//!
//! * [`Matrix`] — row-major dense matrix with eager helper ops;
//! * [`Graph`] / [`Var`] — the autodiff tape, with GNN-specific primitives
//!   (`gather_rows`, `segment_sum`, `segment_softmax`, `rows_dot`,
//!   `scale_rows`, `normalize_rows`), and an inference mode whose scopes
//!   free intermediates as soon as a gradient-free forward is done with
//!   them;
//! * [`attention`] — fused relational and spatial attention passes with
//!   hand-written backward passes, bitwise equal (values and gradients) to
//!   the composed tape ops they replace;
//! * [`SegmentPlan`] — CSR-style inverted segment maps that let the scatter
//!   reductions (`segment_sum`, `segment_softmax`, gather backward) run in
//!   parallel by output segment, bitwise identical to their serial
//!   references, and be shared across epochs behind an `Arc`;
//! * [`check`] — finite-difference gradient checking used by every model's
//!   test suite;
//! * [`kernel`] — the execution-policy layer: cache-blocked, row-parallel
//!   kernels whose results are bitwise identical for any thread count
//!   (see that module's docs for the determinism contract). Thread count
//!   comes from `PRIM_NUM_THREADS` or the machine.
//!
//! ## Example
//!
//! ```
//! use prim_tensor::{Graph, Matrix};
//!
//! let mut g = Graph::new();
//! let w = g.leaf(Matrix::from_vec(2, 1, vec![0.5, -0.25]));
//! let x = g.constant(Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
//! let logits = g.matmul(x, w);
//! let loss = g.bce_with_logits(logits, &[1.0, 0.0, 1.0]);
//! let grads = g.backward(loss);
//! assert_eq!(grads.get(w).unwrap().shape(), (2, 1));
//! ```

pub mod attention;
pub mod check;
pub mod graph;
pub mod kernel;
pub mod matrix;
pub mod pool;
pub mod segment;

pub use graph::{stable_sigmoid, AttentionHead, Gradients, Graph, Scope, Var};
pub use matrix::Matrix;
pub use segment::SegmentPlan;
