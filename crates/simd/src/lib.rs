//! # local-simd — retired
//!
//! This crate used to hold hand-written SSE2/AVX2 scan kernels behind a runtime dispatch
//! layer. They did not move the end-to-end sweep wall clock, so the portable loops were
//! folded back into their callers (`local-runtime` and `local-algos`) and the crate no
//! longer has a dependent inside the workspace.
//!
//! It is kept only because the `sweepbench` benchmark still prints [`level_name`] on its
//! `context` line; the crate goes away with the next change to the benchmark.

/// The kernel level every scan runs at — always `"scalar"`.
pub fn level_name() -> &'static str {
    "scalar"
}
