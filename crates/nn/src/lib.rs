//! Minimal neural-network substrate for GEM.
//!
//! The offline crate set has no ML dependency, so this crate implements the
//! numeric stack the paper's algorithms need, from scratch:
//!
//! * [`tensor::Tensor`] — dense row-major `f32` matrices with the usual
//!   BLAS-ish kernels;
//! * [`tape`] — a small reverse-mode automatic-differentiation engine
//!   (build a computation [`tape::Graph`] per step, call
//!   [`tape::Graph::backward`], read gradients out of the
//!   [`tape::ParamStore`]); its op set is exactly what BiSAGE, GraphSAGE
//!   and the autoencoder baseline require, including segment-weighted
//!   neighborhood aggregation and embedding-table gather/scatter;
//! * [`optim`] — SGD / momentum / Adam optimizers over a `ParamStore`;
//! * [`init`] — Xavier and scaled-uniform initializers;
//! * [`layers`] — Dense and Conv1d modules built on the tape;
//! * [`linalg`] — a cyclic Jacobi symmetric eigensolver (used by the
//!   classical-MDS baseline).
//!
//! Every differentiable op is verified against central finite differences
//! in the test suite.

pub mod arena;
pub mod init;
pub mod kernels;
pub mod layers;
pub mod linalg;
pub mod optim;
pub mod tape;
pub mod tensor;

pub use arena::{ArenaStats, TensorArena};
pub use kernels::Backend;
pub use optim::{Adam, Optimizer, Sgd};
pub use tape::{Activation, GradStore, Graph, ParamId, ParamStore, SparseGrad, Touched, Var};
pub use tensor::Tensor;
