//! Shared batched-iteration machinery for the GPU NTT engines.
//!
//! Both GPU engines execute the Cooley–Tukey iterations in *batches* of `B`
//! consecutive iterations (§2.2): a batch starting at iteration `s`
//! decomposes into `N/2^B` independent groups, each owning the `2^B`
//! elements `{h·2^{s+B} + j·2^s + l : j = 0..2^B}` (stride `2^s`). The
//! engines differ only in how groups are mapped to blocks and how the data
//! reaches shared memory; the butterfly math here is common — which is also
//! what guarantees both engines are bit-identical to the CPU reference.
//! On the host every batch runs as tiles of adjacent groups (§5.3), handed
//! out across all cores.
//!
//! The host butterflies are Harvey's lazy ones ("Faster arithmetic for
//! number-theoretic transforms", 2014) wherever the field allows: when
//! `4p < 2^(64·limbs)` ([`PrimeField::LAZY_BUTTERFLY`], derived from the
//! modulus; Fr254 and Fr753), values stay in `[0, 4p)` between levels and a
//! butterfly makes one conditional subtraction instead of two full
//! reductions. Fr381 (255 bits in four limbs) has no spare bits and keeps
//! the strict butterfly. Values are made canonical again in the last
//! batch's tile pass: the forward transform reduces each one, and the
//! inverse's multiplication by `1/N` — a full Montgomery product, canonical
//! for any input below `4p` — does it for free. No value outside `[0, p)`
//! leaves [`batched_transform`]. Every butterfly by `ω⁰ = 1` (all of global
//! iteration 0 and the first pair of each span after it) adds and
//! subtracts without multiplying.

use crate::cpu::Direction;
use crate::domain::{bit_reverse_permute, par_share, reverse_for_inverse, Radix2Domain};
use gzkp_ff::PrimeField;

/// Adjacent groups per tile (the paper's `G`): a tile's `2^B` row pieces
/// are `TILE` contiguous elements each, so a gather moves whole cache
/// lines, and its `TILE · 2^B` staged elements stay cache-resident.
const TILE: usize = 16;

/// One batch of iterations: `[start, start + iters)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batch {
    /// First iteration index (also `log2` of the element stride).
    pub start: u32,
    /// Number of iterations fused in this batch.
    pub iters: u32,
}

impl Batch {
    /// Elements per independent group.
    pub(crate) fn group_size(&self) -> usize {
        1 << self.iters
    }

    /// Number of independent groups at scale `n`.
    pub(crate) fn num_groups(&self, n: usize) -> usize {
        n >> self.iters
    }

    /// Element stride inside a group.
    pub fn stride(&self) -> usize {
        1 << self.start
    }
}

/// Splits `log_n` iterations into batches of at most `max_iters`.
///
/// This mirrors the fixed grouping of the baseline (bellperson groups every
/// 8 iterations; the remainder forms a short final batch — the source of
/// its tiny-block pathology at awkward scales, §5.3).
pub fn fixed_batches(log_n: u32, max_iters: u32) -> Vec<Batch> {
    let mut out = Vec::new();
    let mut s = 0;
    while s < log_n {
        let iters = max_iters.min(log_n - s);
        out.push(Batch { start: s, iters });
        s += iters;
    }
    out
}

/// What a batch's tiles do after their butterflies.
#[derive(Clone, Copy)]
enum Finish<F> {
    /// Nothing: values stay in the butterflies' range for the next batch.
    Keep,
    /// Make every value canonical (the forward transform's last batch).
    Canonical,
    /// Multiply by `1/N` (the inverse's last batch); a full Montgomery
    /// product of a value below `4p` is already canonical.
    Scale(F),
}

/// Runs one batch over the whole vector, then applies `finish` to each
/// tile. `tw` is the half-size twiddle table.
///
/// The unit of work is the paper's block (§3): a *tile* of [`TILE`]
/// adjacent groups, whose union is `2^iters` contiguous row pieces. Tiles
/// of all blocks are handed out together, so the last batch — a single
/// block — fans out like every other. No butterfly crosses a tile and
/// field arithmetic is exact, so results are bit-identical at any thread
/// count.
fn process_batch<F: PrimeField>(data: &mut [F], tw: &[F], batch: Batch, finish: Finish<F>) {
    let n = data.len();
    let stride = batch.stride();
    let outer = stride << batch.iters; // elements per block
    let tile_pass = |tile: &mut [F], width: usize, first: usize| {
        tile_butterflies(tile, width, first, tw, n, batch);
        match finish {
            Finish::Keep => {}
            Finish::Canonical => tile.iter_mut().for_each(F::reduce_lazy),
            Finish::Scale(s) => tile.iter_mut().for_each(|v| *v *= s),
        }
    };
    if stride <= TILE {
        // A block is one tile, already laid out `[j][l]`: run it in place.
        let share = par_share(n / outer, n) * outer;
        rayon::for_each(data.chunks_mut(share), |blocks| {
            blocks
                .chunks_mut(outer)
                .for_each(|b| tile_pass(b, stride, 0));
        });
        return;
    }
    // Tile `t` of a block: columns `[t·TILE, (t+1)·TILE)` of each stride-long row.
    let mut tiles: Vec<(usize, Vec<&mut [F]>)> = Vec::with_capacity(n / (TILE << batch.iters));
    for block in data.chunks_mut(outer) {
        let mut rows: Vec<_> = block
            .chunks_mut(stride)
            .map(|r| r.chunks_mut(TILE))
            .collect();
        for first in (0..stride).step_by(TILE) {
            let pieces = rows
                .iter_mut()
                .map(|r| r.next().expect("stride / TILE pieces"));
            tiles.push((first, pieces.collect()));
        }
    }
    let share = par_share(tiles.len(), n);
    rayon::for_each(tiles.chunks_mut(share), |mine| {
        let mut staged = vec![F::zero(); TILE << batch.iters];
        for (first, pieces) in mine {
            for (row, piece) in staged.chunks_mut(TILE).zip(pieces.iter()) {
                row.copy_from_slice(piece);
            }
            tile_pass(&mut staged, TILE, *first);
            for (row, piece) in staged.chunks(TILE).zip(pieces.iter_mut()) {
                piece.copy_from_slice(row);
            }
        }
    });
}

/// Applies the batch's butterfly iterations to one tile: `width` adjacent
/// groups, the first at offset `first` in its block, laid out `[j][g]` so
/// the inner loop and its twiddle reads walk consecutive groups.
///
/// For global iteration `i = start + ii`, the butterfly pairing local
/// indices `j` and `j + 2^ii` of group `l` uses twiddle
/// `ω^{((jj·2^start) + l)·N/2^{i+1}}` where `jj = j mod 2^ii`; the one
/// with exponent 0 (`jj = 0` of the block's first group) multiplies by
/// nothing.
fn tile_butterflies<F: PrimeField>(
    tile: &mut [F],
    width: usize,
    first: usize,
    tw: &[F],
    n: usize,
    batch: Batch,
) {
    for ii in 0..batch.iters {
        let half = width << ii;
        let tw_stride = n >> (batch.start + ii + 1);
        // In a whole-block tile row `jj + 1` continues row `jj`'s twiddle walk.
        let run = if width == batch.stride() { half } else { width };
        for span in tile.chunks_mut(2 * half) {
            let (lo, hi) = span.split_at_mut(half);
            for (jj, (lo, hi)) in lo.chunks_mut(run).zip(hi.chunks_mut(run)).enumerate() {
                let w0 = ((jj << batch.start) + first) * tw_stride;
                let mut ws = tw[w0..].iter().step_by(tw_stride);
                let mut pairs = lo.iter_mut().zip(hi);
                if w0 == 0 {
                    if let (Some((a, b)), Some(_)) = (pairs.next(), ws.next()) {
                        F::butterfly_by_one(a, b);
                    }
                }
                for ((a, b), w) in pairs.zip(ws) {
                    F::butterfly(a, b, w);
                }
            }
        }
    }
}

/// Full functional transform through the batch pipeline; used by both GPU
/// engines (their cost models differ, the math does not).
pub fn batched_transform<F: PrimeField>(
    domain: &Radix2Domain<F>,
    data: &mut [F],
    dir: Direction,
    batches: &[Batch],
) {
    assert_eq!(data.len(), domain.size);
    if data.len() == 1 {
        return;
    }
    if dir == Direction::Inverse {
        reverse_for_inverse(data);
    }
    bit_reverse_permute(data);
    let tw = domain.twiddles();
    for (bi, b) in batches.iter().enumerate() {
        // Values leave canonical from the last batch's tiles, where the
        // inverse's 1/N scaling rides too.
        let finish = match (bi + 1 == batches.len(), dir) {
            (false, _) => Finish::Keep,
            (true, Direction::Forward) => Finish::Canonical,
            (true, Direction::Inverse) => Finish::Scale(domain.size_inv),
        };
        process_batch(data, &tw, *b, finish);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuNtt;
    use gzkp_ff::fields::Fr254;
    use gzkp_ff::Field;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_batch_structure() {
        let b = fixed_batches(20, 8);
        assert_eq!(b.len(), 3);
        assert_eq!(b[0], Batch { start: 0, iters: 8 });
        assert_eq!(b[1], Batch { start: 8, iters: 8 });
        assert_eq!(
            b[2],
            Batch {
                start: 16,
                iters: 4
            }
        );
        let b18 = fixed_batches(18, 8);
        assert_eq!(
            b18[2],
            Batch {
                start: 16,
                iters: 2
            }
        ); // the 2-thread case
    }

    #[test]
    fn batched_matches_cpu_various_batchings() {
        let mut rng = StdRng::seed_from_u64(7);
        let d = Radix2Domain::<Fr254>::new(1 << 10).unwrap();
        let coeffs: Vec<Fr254> = (0..d.size).map(|_| Fr254::random(&mut rng)).collect();
        let mut expect = coeffs.clone();
        CpuNtt::reference().transform(&d, &mut expect, Direction::Forward);
        for max_iters in [1u32, 2, 3, 5, 8, 10] {
            let mut got = coeffs.clone();
            let batches = fixed_batches(d.log_n, max_iters);
            batched_transform(&d, &mut got, Direction::Forward, &batches);
            assert_eq!(got, expect, "batching with max_iters={max_iters}");
        }
    }

    #[test]
    fn batched_inverse_roundtrip() {
        let mut rng = StdRng::seed_from_u64(8);
        let d = Radix2Domain::<Fr254>::new(256).unwrap();
        let coeffs: Vec<Fr254> = (0..256).map(|_| Fr254::random(&mut rng)).collect();
        let mut v = coeffs.clone();
        let batches = fixed_batches(8, 3);
        batched_transform(&d, &mut v, Direction::Forward, &batches);
        batched_transform(&d, &mut v, Direction::Inverse, &batches);
        assert_eq!(v, coeffs);
    }
}
