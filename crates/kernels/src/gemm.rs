//! Fused dequant-GEMM over [`PackedMatrix`] weights.
//!
//! [`qgemm_t`] computes `out = x · wᵀ` for an activation block `x`
//! (`m × k`, row-major) against a packed weight (`n × k`, i.e. the
//! `(out_features, in_features)` orientation of the repo's `matmul_t`),
//! dequantizing weight tiles in registers on the way into the multiply —
//! the weight is never materialized as `f32` in memory.
//!
//! ## Loop structure
//!
//! ```text
//! par over j-tiles of J_TILE output features           ← disjoint outputs
//!   for each lane-tile of LANES = 8 output features    ← f32x8-style unroll
//!     for each quant group g along k:                  ← scale/zero hoisted here
//!       dequantize the group's LANES × glen tile once  ← stack, L1-resident
//!       for each activation row i:                     ← tile reused m times
//!         acc[LANES] = out[i][tile]
//!         for kk in group:                             ← sequential k
//!           for lane: acc[lane] += x[i][kk] * wt[kk][lane]
//!         out[i][tile] = acc
//! ```
//!
//! One loop serves every `m`: decode (`m = 1`) and stacked micro-batch
//! or prefill rows (`m > 1`) differ only in how many rows reuse each
//! dequantized tile — the Opt4GPTQ-style tile reuse that makes the
//! dequantization cost per weight element `1/m` of a per-row kernel.
//! The eight accumulator chains are *independent outputs*, which is
//! what lets the CPU overlap f32 add latency — parallelism is never
//! introduced within a single output's reduction.
//!
//! ## Bit-exactness
//!
//! For every output `(i, j)` the accumulation is `acc += x[i][k] * w[j][k]`
//! for `k = 0, 1, …` where `w[j][k] = ((q − z) as f32) * s` — exactly the
//! roundings of dequantizing the whole matrix first and running the scalar
//! `matmul_t` reference. Group boundaries, lane tiling, and the LUT change
//! only *where* the dequantized value comes from, not its bit pattern or
//! the order it enters the sum, so the fused result is bit-identical.
//! Reusing a tile across rows changes nothing either: the tile holds the
//! same dequantized values every row would have produced, and each
//! row's partial sums are parked in `out` between groups — a store and
//! reload of an `f32` is exact — so row `i`'s sum still sees `k` in
//! ascending order, independent of `m` and of the other rows.
//!
//! Nibble precisions unpack two elements per payload byte with branch-free
//! shifts/masks (`wt = ((u − 8 − z) as f32) * s`), keeping the dequant loop
//! vectorizable — so int4/int3 cost no more per element than int8's
//! convert-and-multiply while moving half the payload bytes, and the fused
//! kernel's effective weight throughput ordering (int4 ≥ int8 ≥ dense-f32)
//! holds even when the CPU, not DRAM, is the bottleneck.

use crate::pack::{PackBits, PackedMatrix};
use rayon::prelude::*;

/// Output features processed per register tile: eight independent f32
/// accumulator chains, the stable-Rust stand-in for one `f32x8` vector.
const LANES: usize = 8;

/// Output features per parallel work unit (a multiple of [`LANES`], so
/// every unit starts lane-aligned).
const J_TILE: usize = 32 * LANES;

/// Longest dequantized tile kept on the stack: one quant group across
/// [`LANES`] outputs. Groups longer than this are processed in
/// `MAX_GROUP_TILE / LANES`-sized k-chunks (still ascending k).
const MAX_GROUP_TILE: usize = 128 * LANES;

const NIBBLE_BIAS: i32 = 8;

/// `out = x · wᵀ`, freshly allocated (`m × w.rows`, row-major).
///
/// `x` is `m × k` row-major with `k == w.cols`.
pub fn qgemm_t(x: &[f32], m: usize, w: &PackedMatrix) -> Vec<f32> {
    let mut out = vec![0.0f32; m * w.rows];
    qgemm_t_into(x, m, w, &mut out);
    out
}

/// [`qgemm_t`] into a caller-provided buffer of length `m * w.rows`.
pub fn qgemm_t_into(x: &[f32], m: usize, w: &PackedMatrix, out: &mut [f32]) {
    let k = w.cols;
    let n = w.rows;
    assert_eq!(x.len(), m * k, "activation shape mismatch");
    assert_eq!(out.len(), m * n, "output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    // Work units are j-tiles, each an `m × len` row-major block. With a
    // single row or a single tile that block layout *is* `out`'s;
    // otherwise the tiles go to a scratch buffer and are scattered back.
    let direct = m == 1 || n <= J_TILE;
    let mut scratch = if direct { Vec::new() } else { vec![0.0f32; m * n] };
    let blocks: &mut [f32] = if direct { out } else { &mut scratch };
    blocks.par_chunks_mut(J_TILE * m).enumerate().for_each(|(t, block)| {
        col_block(x, m, w, t * J_TILE, block);
    });
    if !direct {
        for (t, block) in scratch.chunks(J_TILE * m).enumerate() {
            let len = block.len() / m;
            for (i, brow) in block.chunks(len).enumerate() {
                out[i * n + t * J_TILE..][..len].copy_from_slice(brow);
            }
        }
    }
}

/// Compute outputs `[j0, j0 + len)` of every row into `block`
/// (`m × len`, row-major, `len = block.len() / m`).
fn col_block(x: &[f32], m: usize, w: &PackedMatrix, j0: usize, block: &mut [f32]) {
    block.fill(0.0);
    let len = block.len() / m;
    let mut j = 0;
    while j + LANES <= len {
        lane_tile::<LANES>(x, m, w, j0, j, len, block);
        j += LANES;
    }
    // Tail outputs (n % LANES): single-lane tiles — same ascending-k
    // accumulation per output, so still bit-identical.
    while j < len {
        lane_tile::<1>(x, m, w, j0, j, len, block);
        j += 1;
    }
}

/// How a dequantized tile is laid out on the stack.
#[derive(Clone, Copy)]
enum Tile {
    /// `wt[kk * NL + lane]` for `kk` in `0..klen`.
    KMajor,
    /// Nibble fast path: byte `p`'s low nibble (even `k`) at
    /// `wt[p * NL + lane]`, its high nibble (odd `k`) at
    /// `wt[(pairs + p) * NL + lane]`.
    Paired,
}

/// Accumulate `NL` consecutive output features (weight rows
/// `j0 + jb ..`) for all `m` activation rows into columns `jb..` of
/// `block`, walking k in ascending order one quant group at a time and
/// dequantizing each (lane tile, k-chunk) exactly once.
#[allow(clippy::too_many_arguments)] // the kernel's whole state; one call site per width
fn lane_tile<const NL: usize>(
    x: &[f32],
    m: usize,
    w: &PackedMatrix,
    j0: usize,
    jb: usize,
    len: usize,
    block: &mut [f32],
) {
    let j = j0 + jb;
    let k = w.cols;
    let group = w.group;
    let gpr = w.groups_per_row();
    let stride = w.row_stride();
    let mut wt = [0.0f32; MAX_GROUP_TILE];
    let chunk_k = MAX_GROUP_TILE / NL;
    for g in 0..gpr {
        let g_lo = g * group;
        let g_hi = (g_lo + group).min(k);
        // Hoisted per-(lane, group) dequant state.
        let mut scale = [0.0f32; NL];
        let mut zero = [0i32; NL];
        for lane in 0..NL {
            scale[lane] = w.scales[(j + lane) * gpr + g];
            zero[lane] = w.zeros[(j + lane) * gpr + g] as i32;
        }
        let mut k_lo = g_lo;
        while k_lo < g_hi {
            let k_hi = (k_lo + chunk_k).min(g_hi);
            let klen = k_hi - k_lo;
            let layout = dequant_tile::<NL>(w, j, stride, &scale, &zero, k_lo, klen, &mut wt);
            for i in 0..m {
                let xrow = &x[i * k..(i + 1) * k];
                let o = &mut block[i * len + jb..i * len + jb + NL];
                let mut acc = [0.0f32; NL];
                acc.copy_from_slice(o);
                match layout {
                    Tile::KMajor => mac_tile::<NL>(xrow, &wt, k_lo, klen, &mut acc),
                    Tile::Paired => mac_pairs::<NL>(xrow, &wt, k_lo, klen / 2, &mut acc),
                }
                o.copy_from_slice(&acc);
            }
            k_lo = k_hi;
        }
    }
}

/// Dequantize the `NL × klen` tile of weight rows `j..j + NL`, columns
/// `k_lo..k_lo + klen`, into `wt`; returns the layout it used.
#[allow(clippy::too_many_arguments)] // hoisted dequant state, passed flat
fn dequant_tile<const NL: usize>(
    w: &PackedMatrix,
    j: usize,
    stride: usize,
    scale: &[f32; NL],
    zero: &[i32; NL],
    k_lo: usize,
    klen: usize,
    wt: &mut [f32; MAX_GROUP_TILE],
) -> Tile {
    match w.bits {
        PackBits::Int8 => {
            for lane in 0..NL {
                let row = &w.payload[(j + lane) * stride..];
                for kk in 0..klen {
                    let q = row[k_lo + kk] as i8 as i32;
                    wt[kk * NL + lane] = ((q - zero[lane]) as f32) * scale[lane];
                }
            }
            Tile::KMajor
        }
        // `wt = ((u − bias − z) as f32) * s` — the identical rounding
        // chain to int8's convert-and-multiply.
        PackBits::Int3 | PackBits::Int4 => {
            if k_lo.is_multiple_of(2) && klen.is_multiple_of(2) {
                // Byte-aligned fast path: de-interleave each payload
                // byte's two nibbles into a lo half (even k) and a hi
                // half (odd k) of the tile. Each pass has int8's exact
                // load/store shape (contiguous byte loads, stride-NL
                // stores), so it vectorizes the same way; stride-16
                // stores from an interleaved unpack would not.
                let pairs = klen / 2;
                for lane in 0..NL {
                    let row = &w.payload[(j + lane) * stride..];
                    let s = scale[lane];
                    let zb = NIBBLE_BIAS + zero[lane];
                    let bytes = &row[k_lo / 2..k_lo / 2 + pairs];
                    for (p, &byte) in bytes.iter().enumerate() {
                        let lo = (byte & 0x0F) as i32;
                        wt[p * NL + lane] = ((lo - zb) as f32) * s;
                    }
                    for (p, &byte) in bytes.iter().enumerate() {
                        let hi = (byte >> 4) as i32;
                        wt[(pairs + p) * NL + lane] = ((hi - zb) as f32) * s;
                    }
                }
                Tile::Paired
            } else {
                // Unaligned head/odd tail: scalar unpack.
                for lane in 0..NL {
                    let row = &w.payload[(j + lane) * stride..];
                    let s = scale[lane];
                    let zb = NIBBLE_BIAS + zero[lane];
                    for kk in 0..klen {
                        let c = k_lo + kk;
                        let byte = row[c / 2];
                        let u = if c.is_multiple_of(2) { byte & 0x0F } else { byte >> 4 } as i32;
                        wt[kk * NL + lane] = ((u - zb) as f32) * s;
                    }
                }
                Tile::KMajor
            }
        }
    }
}

/// MAC over a k-major tile: ascending k, one independent chain per lane.
#[inline]
fn mac_tile<const NL: usize>(xrow: &[f32], wt: &[f32], k_lo: usize, klen: usize, acc: &mut [f32; NL]) {
    for kk in 0..klen {
        let xv = xrow[k_lo + kk];
        for lane in 0..NL {
            acc[lane] += xv * wt[kk * NL + lane];
        }
    }
}

/// MAC over a [`Tile::Paired`] tile: pair `p` contributes `k = k_lo + 2p`
/// then `k_lo + 2p + 1` — per-lane accumulation order is still strictly
/// ascending in k.
#[inline]
fn mac_pairs<const NL: usize>(xrow: &[f32], wt: &[f32], k_lo: usize, pairs: usize, acc: &mut [f32; NL]) {
    for p in 0..pairs {
        let xv0 = xrow[k_lo + 2 * p];
        for lane in 0..NL {
            acc[lane] += xv0 * wt[p * NL + lane];
        }
        let xv1 = xrow[k_lo + 2 * p + 1];
        for lane in 0..NL {
            acc[lane] += xv1 * wt[(pairs + p) * NL + lane];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::quantize_packed;

    fn pseudo(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    /// Scalar dequantize-then-matmul_t reference: the exact accumulation
    /// order the repo's `Matrix::matmul_t` uses on a dequantized weight.
    fn reference(x: &[f32], m: usize, w: &PackedMatrix) -> Vec<f32> {
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

    fn assert_bit_identical(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (l, r)) in a.iter().zip(b).enumerate() {
            assert_eq!(l.to_bits(), r.to_bits(), "index {i}: {l} vs {r}");
        }
    }

    #[test]
    fn matches_reference_across_shapes_and_bits() {
        for &(m, n, k, group) in &[
            (1, 8, 16, 16),
            (1, 19, 33, 8),
            (3, 24, 40, 16),
            (2, 7, 5, 3),
            (4, 300, 65, 64),
            (2, 13, 40, 16),
            (5, 21, 33, 8),
            (33, 299, 70, 64),
        ] {
            for bits in [PackBits::Int3, PackBits::Int4, PackBits::Int8] {
                let data = pseudo(n * k, 7 + m as u64);
                let w = quantize_packed(&data, n, k, bits, group);
                let x = pseudo(m * k, 11 + n as u64);
                assert_bit_identical(&qgemm_t(&x, m, &w), &reference(&x, m, &w));
            }
        }
    }

    #[test]
    fn decode_path_crosses_parallel_tile_boundary() {
        // n > J_TILE (256) so one row spans multiple parallel j-tiles.
        let (n, k) = (600, 96);
        let w = quantize_packed(&pseudo(n * k, 21), n, k, PackBits::Int4, 32);
        let x = pseudo(k, 22);
        assert_bit_identical(&qgemm_t(&x, 1, &w), &reference(&x, 1, &w));
    }

    #[test]
    fn into_variant_matches_alloc_variant() {
        let (m, n, k) = (2, 30, 48);
        let w = quantize_packed(&pseudo(n * k, 31), n, k, PackBits::Int8, 16);
        let x = pseudo(m * k, 32);
        let mut out = vec![f32::NAN; m * n];
        qgemm_t_into(&x, m, &w, &mut out);
        assert_bit_identical(&out, &qgemm_t(&x, m, &w));
    }

    #[test]
    fn long_groups_are_chunked_in_order() {
        // group (512) > MAX_GROUP_TILE / LANES (128): exercises the
        // in-group k-chunking path.
        let (n, k) = (16, 512);
        let w = quantize_packed(&pseudo(n * k, 41), n, k, PackBits::Int8, 512);
        let x = pseudo(k, 42);
        assert_bit_identical(&qgemm_t(&x, 1, &w), &reference(&x, 1, &w));
    }

    #[test]
    fn empty_inputs_are_fine() {
        let w = quantize_packed(&pseudo(8 * 4, 51), 8, 4, PackBits::Int4, 4);
        assert!(qgemm_t(&[], 0, &w).is_empty());
    }
}
