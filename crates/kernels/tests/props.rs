//! Property tests for the packed-weight subsystem: pack/unpack identity
//! across odd shapes and group sizes, and bit-exactness of the fused
//! dequant-GEMM against the scalar dequantize-then-`matmul_t` reference.

use llmpq_kernels::{qgemm_t, quantize_packed, PackBits, PackedMatrix};
use proptest::prelude::*;

fn any_pack_bits() -> impl Strategy<Value = PackBits> {
    prop_oneof![Just(PackBits::Int3), Just(PackBits::Int4), Just(PackBits::Int8)]
}

fn pseudo(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

fn pseudo_grid(n: usize, qmax: i32, seed: u64) -> Vec<i8> {
    let mut s = seed.wrapping_add(0xD1B54A32D192ED03);
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (((s >> 33) as i64 % (2 * qmax as i64 + 1)) - qmax as i64) as i8
        })
        .collect()
}

/// The repo's `Matrix::matmul_t` accumulation, applied to a dequantized
/// copy of the packed weight: per output, ascending-k `acc += a * b`.
fn dequant_then_matmul_t(x: &[f32], m: usize, w: &PackedMatrix) -> Vec<f32> {
    let dq = w.unpack();
    let (k, n) = (w.cols, w.rows);
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += x[i * k + kk] * dq[j * k + kk];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pack → unpack reproduces the row-wise quantizer's dequantization
    /// bit-for-bit, for every grid, odd shape, and group size.
    #[test]
    fn rowwise_round_trip_identity(
        bits in any_pack_bits(),
        rows in 1usize..12,
        cols in 1usize..70,
        group in 1usize..40,
        seed in 0u64..1000,
    ) {
        let q = pseudo_grid(rows * cols, bits.qmax(), seed);
        let scales = pseudo(rows, seed ^ 0xABCD).iter().map(|v| v.abs() + 1e-3).collect::<Vec<_>>();
        let p = PackedMatrix::from_rowwise(rows, cols, bits, group, &q, &scales);
        let dq = p.unpack();
        for r in 0..rows {
            for c in 0..cols {
                prop_assert_eq!(p.get_q(r, c), q[r * cols + c], "grid value at ({}, {})", r, c);
                let want = q[r * cols + c] as f32 * scales[r];
                prop_assert_eq!(dq[r * cols + c].to_bits(), want.to_bits(),
                    "dequant at ({}, {})", r, c);
            }
        }
    }

    /// Fused qgemm_t is bit-identical to scalar dequantize-then-matmul_t
    /// on random matrices, across grids, shapes (including lane-tile
    /// tails), and group sizes.
    #[test]
    fn qgemm_bit_identical_to_scalar_reference(
        bits in any_pack_bits(),
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..50,
        group in 1usize..24,
        seed in 0u64..1000,
    ) {
        let w = quantize_packed(&pseudo(n * k, seed), n, k, bits, group);
        let x = pseudo(m * k, seed ^ 0x5151);
        let fused = qgemm_t(&x, m, &w);
        let reference = dequant_then_matmul_t(&x, m, &w);
        for (i, (f, r)) in fused.iter().zip(&reference).enumerate() {
            prop_assert_eq!(f.to_bits(), r.to_bits(), "output {}: {} vs {}", i, f, r);
        }
    }

    /// Odd `in_features` leave a dangling high nibble; it must encode an
    /// exact zero and never leak into values, dequantization, or GEMM.
    #[test]
    fn nibble_odd_tail_is_inert(
        bits in prop_oneof![Just(PackBits::Int3), Just(PackBits::Int4)],
        n in 1usize..16,
        half_k in 0usize..20,
        group in 1usize..16,
        seed in 0u64..500,
    ) {
        let k = 2 * half_k + 1; // always odd
        let q = pseudo_grid(n * k, bits.qmax(), seed);
        let scales = vec![0.017f32; n];
        let p = PackedMatrix::from_rowwise(n, k, bits, group, &q, &scales);
        prop_assert_eq!(p.row_stride(), k / 2 + 1);
        // The padding nibble decodes to grid value 0.
        for r in 0..n {
            let last = p.payload[r * p.row_stride() + p.row_stride() - 1];
            prop_assert_eq!(last >> 4, 8u8, "row {} tail nibble must encode 0", r);
        }
        // And the fused GEMM over the odd-k weight still matches.
        let x = pseudo(k, seed ^ 0x77);
        let fused = qgemm_t(&x, 1, &p);
        let reference = dequant_then_matmul_t(&x, 1, &p);
        for (f, r) in fused.iter().zip(&reference) {
            prop_assert_eq!(f.to_bits(), r.to_bits());
        }
    }

    /// Native group-wise quantization keeps every element within half a
    /// step of its group's scale.
    #[test]
    fn native_quantization_error_bounded(
        bits in any_pack_bits(),
        n in 1usize..10,
        k in 1usize..50,
        group in 1usize..32,
        seed in 0u64..500,
    ) {
        let data = pseudo(n * k, seed);
        let p = quantize_packed(&data, n, k, bits, group);
        let dq = p.unpack();
        for r in 0..n {
            for c in 0..k {
                let s = p.scale(r, c / group);
                let err = (data[r * k + c] - dq[r * k + c]).abs();
                prop_assert!(err <= 0.5 * s + 1e-6,
                    "({}, {}): err {} exceeds half-step {}", r, c, err, 0.5 * s);
            }
        }
    }
}
