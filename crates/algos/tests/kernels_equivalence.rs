//! The colouring's exact-arithmetic kernels against an independent model: [`ModQ`]
//! division must agree with the `/` and `%` operators, and [`ModQ::eval_poly`] — the Horner
//! evaluation behind every Linial digest of a small field — with a naive `u128` Horner
//! loop, which shares none of the `f64` reciprocal code it checks.
//!
//! Shapes covered: the smallest and largest moduli, both sides of the paired-Horner bound,
//! all-zero and leading-zero digit strings, the top of the field including the out-of-field
//! points up to `q + 7`, and proptest-generated arbitrary inputs.

use local_algos::coloring::{ModQ, EVAL_POLY_MAX_Q};
use proptest::prelude::*;

/// Naive Horner over `u128`, immune to any bug of the reciprocal implementation.
fn naive_eval(coeffs: &[u64], x: u64, q: u64) -> u64 {
    let mut acc: u128 = 0;
    for &c in coeffs.iter().rev() {
        acc = (acc * x as u128 + c as u128) % q as u128;
    }
    acc as u64
}

/// Checks [`ModQ::eval_poly`] against the `u128` model at the eight points `a..a + 8`
/// (`a + 7 < q + 8`, digits `< q`).
fn check_poly_block(coeffs: &[u64], a: u64, q: u64) {
    let m = ModQ::new(q);
    for x in a..a + 8 {
        assert_eq!(m.eval_poly(coeffs, x), naive_eval(coeffs, x, q), "q={q} x={x}");
    }
}

#[test]
fn empty_inputs() {
    // No digits: the zero polynomial, identically 0 at every point.
    check_poly_block(&[], 0, 2);
    check_poly_block(&[], 5, 11);
}

#[test]
fn single_elements() {
    // One digit: a constant polynomial, zero or not.
    check_poly_block(&[1], 0, 2);
    check_poly_block(&[0], 0, 2);
    check_poly_block(&[10], 3, 11);
}

#[test]
fn poly_block_edges() {
    let q_max = EVAL_POLY_MAX_Q - 1;
    // All-zero digits trim to the zero polynomial.
    check_poly_block(&[0, 0, 0], 5, 11);
    // Leading (high-power) zeros with a nonzero low digit.
    check_poly_block(&[3, 0, 0], 5, 11);
    // Smallest modulus, largest modulus, and a scan block at the top of the field.
    check_poly_block(&[1, 1], 0, 2);
    check_poly_block(&[123_456, 7, q_max - 1], 0, q_max);
    check_poly_block(&[123_456, 7, q_max - 1], q_max - 8, q_max);
    check_poly_block(&[123_456, 7, q_max - 1], q_max, q_max);
    // Odd and even digit counts, on both sides of the paired-Horner bound.
    for q in [65_521, ModQ::PAIR_MAX_Q + 1] {
        check_poly_block(&[1, 2, 3, 4, 5], 9, q);
        check_poly_block(&[1, 2, 3, 4, 5, 6], 9, q);
    }
}

#[test]
fn modq_div_rem_boundaries() {
    for q in [2u64, 3, 65_535, 65_537, EVAL_POLY_MAX_Q - 1] {
        let m = ModQ::new(q);
        for c in [0u64, 1, q - 1, q, q + 1, ModQ::MAX_OPERAND - 1] {
            assert_eq!(m.div_rem(c), (c / q, c % q), "q={q} c={c}");
        }
    }
}

proptest! {
    #[test]
    fn modq_div_rem_is_exact(q in 2u64..EVAL_POLY_MAX_Q, c in 0..ModQ::MAX_OPERAND) {
        let m = ModQ::new(q);
        prop_assert_eq!(m.div_rem(c), (c / q, c % q));
    }

    #[test]
    fn modq_eval_poly_matches_u128_reference(
        (q, coeffs, a) in (2u64..EVAL_POLY_MAX_Q).prop_flat_map(|q| (
            Just(q),
            prop::collection::vec(0..q, 0..12),
            0..q + 8, // out-of-field scan points up to q+7 are part of the contract
        )),
    ) {
        let m = ModQ::new(q);
        prop_assert_eq!(m.eval_poly(&coeffs, a), naive_eval(&coeffs, a, q));
    }
}
