//! The Z-order (Morton) space-filling curve over quantized coordinates.
//!
//! A coordinate is quantized to 16 bits per dimension on a fixed grid and
//! the per-dimension bits are interleaved into one `u128` key. Nearby
//! points in coordinate space tend to share key prefixes, so a sorted list
//! of keys serves spatial queries as 1-D range scans. The scan is kept
//! tight with the BIGMIN jump of Tropf & Herzog: when the scan reaches a
//! key inside the 1-D range but outside the query box, [`bigmin`] computes
//! the smallest key above it that re-enters the box, and the scan skips the
//! gap instead of filtering it entry by entry.
//!
//! Everything here is pure integer arithmetic on explicit inputs — no
//! floats, no clocks, no maps — so a key is a deterministic function of the
//! quantized cell alone.

/// Bits per dimension of the quantized grid (the grid is `2^16` cells
/// wide in every dimension).
pub const BITS_PER_DIM: u32 = 16;

/// Maximum number of coordinate dimensions a key can carry
/// (`8 × 16 = 128` bits fills the `u128`).
pub const MAX_DIMENSIONS: usize = 8;

/// `SPREAD[dims - 1][byte]`: the eight bits of `byte` spread `dims` apart,
/// bit `b` landing at position `b * dims`. Bit 7 of an 8-dimensional byte
/// lands at 56, so every entry fits a `u64`; one row is 2 KiB.
const SPREAD: [[u64; 256]; MAX_DIMENSIONS] = {
    let mut table = [[0u64; 256]; MAX_DIMENSIONS];
    let mut row = 0;
    while row < MAX_DIMENSIONS {
        let dims = row + 1;
        let mut byte = 0;
        while byte < 256 {
            let mut spread = 0u64;
            let mut b = 0;
            while b < 8 {
                if byte & (1 << b) != 0 {
                    spread |= 1 << (b * dims);
                }
                b += 1;
            }
            table[row][byte] = spread;
            byte += 1;
        }
        row += 1;
    }
    table
};

/// `DIMENSION_OF[dims - 1][p]`: the dimension whose cell bit a
/// `dims`-dimensional key carries at position `p`, `dims - 1 - p % dims`.
const DIMENSION_OF: [[u8; 128]; MAX_DIMENSIONS] = {
    let mut table = [[0u8; 128]; MAX_DIMENSIONS];
    let mut row = 0;
    while row < MAX_DIMENSIONS {
        let mut p = 0;
        while p < 128 {
            table[row][p] = (row - p % (row + 1)) as u8;
            p += 1;
        }
        row += 1;
    }
    table
};

/// `MASKS[dims - 1]` is [`dimension_masks`]`(dims)`.
const MASKS: [[u128; MAX_DIMENSIONS]; MAX_DIMENSIONS] = {
    let mut table = [[0u128; MAX_DIMENSIONS]; MAX_DIMENSIONS];
    let mut row = 0;
    while row < MAX_DIMENSIONS {
        let mut p = 0;
        while p < BITS_PER_DIM as usize * (row + 1) {
            table[row][DIMENSION_OF[row][p] as usize] |= 1u128 << p;
            p += 1;
        }
        row += 1;
    }
    table
};

/// Interleaves `cells` (one 16-bit cell index per dimension) into a Morton
/// key. Bit `b` of dimension `d` lands at position `b * dims + (dims-1-d)`,
/// so at equal bit level an earlier dimension is more significant.
///
/// `cells.len()` must be in `1..=MAX_DIMENSIONS` (any other length yields
/// 0). The caller (the index) guarantees the length by construction. Each
/// cell is spread a byte at a time through a table built at compile time,
/// so a key costs two lookups per dimension and no bit loop.
pub fn interleave(cells: &[u16]) -> u128 {
    let dims = cells.len();
    let Some(spread) = SPREAD.get(dims.wrapping_sub(1)) else {
        return 0;
    };
    // The high byte's bits start at bit level 8.
    let high = 8 * dims as u32;
    let mut key = 0u128;
    for (lane, &cell) in cells.iter().rev().enumerate() {
        let [low_byte, high_byte] = cell.to_le_bytes();
        let bits = u128::from(spread[usize::from(low_byte)])
            | u128::from(spread[usize::from(high_byte)]) << high;
        key |= bits << lane;
    }
    key
}

/// Recovers the per-dimension cell indices from a Morton key produced by
/// [`interleave`] with the same `dims`. `out` must hold exactly `dims`
/// slots; it is fully overwritten.
pub fn deinterleave(key: u128, dims: u32, out: &mut [u16]) {
    for slot in out.iter_mut() {
        *slot = 0;
    }
    let total = BITS_PER_DIM * dims;
    for p in 0..total {
        if key & (1u128 << p) != 0 {
            let b = p / dims;
            let lane = p % dims;
            let d = (dims - 1 - lane) as usize;
            if let Some(slot) = out.get_mut(d) {
                *slot |= 1 << b;
            }
        }
    }
}

/// Per-dimension bit masks of a `dims`-dimensional key: `masks[d]` selects
/// exactly the key bits carrying dimension `d`'s cell index (all zero when
/// `dims` is outside `1..=MAX_DIMENSIONS`). Because the interleaving
/// preserves bit significance within a dimension, masked keys compare like
/// the cell values themselves: `cellₔ(a) < cellₔ(b)` iff
/// `a & masks[d] < b & masks[d]`. The scan loop uses this for in-box tests
/// without deinterleaving every entry.
pub fn dimension_masks(dims: u32) -> [u128; MAX_DIMENSIONS] {
    (dims as usize)
        .checked_sub(1)
        .and_then(|row| MASKS.get(row))
        .copied()
        .unwrap_or_default()
}

/// The mask of bits belonging to the same dimension as bit `p`, strictly
/// below `p`. `dim_mask` must be the [`dimension_masks`] entry for `p`'s
/// dimension.
fn lower_same_dim(p: u32, dim_mask: u128) -> u128 {
    dim_mask & ((1u128 << p) - 1)
}

/// `z` with bit `p` forced to 1 and the lower bits of `p`'s dimension
/// forced to 0 — the smallest value of that dimension whose bit `p` is set,
/// other dimensions untouched.
fn load_min(z: u128, p: u32, dim_mask: u128) -> u128 {
    (z & !lower_same_dim(p, dim_mask)) | (1u128 << p)
}

/// `z` with bit `p` forced to 0 and the lower bits of `p`'s dimension
/// forced to 1 — the largest value of that dimension whose bit `p` is
/// clear, other dimensions untouched.
fn load_max(z: u128, p: u32, dim_mask: u128) -> u128 {
    (z & !(1u128 << p)) | lower_same_dim(p, dim_mask)
}

/// BIGMIN (Tropf & Herzog 1981): the smallest Morton key strictly greater
/// than `zcode` whose cell lies inside the axis-aligned box spanned by the
/// corner keys `zmin` and `zmax`. Returns `None` when no in-box key above
/// `zcode` exists. `masks` must be [`dimension_masks`]`(dims)`, precomputed
/// by the caller so a scan's many jumps share one mask table.
///
/// The scan loop uses this to jump over key-range gaps that the box does
/// not intersect: sorted keys in `(zcode, bigmin)` are all outside the box.
pub fn bigmin(
    zcode: u128,
    mut zmin: u128,
    mut zmax: u128,
    dims: u32,
    masks: &[u128; MAX_DIMENSIONS],
) -> Option<u128> {
    let mut result: Option<u128> = None;
    let dimension_of = (dims as usize)
        .checked_sub(1)
        .and_then(|row| DIMENSION_OF.get(row))?;
    let total = BITS_PER_DIM * dims;
    let total_mask = if total >= 128 {
        u128::MAX
    } else {
        (1u128 << total) - 1
    };
    // Positions where all three keys agree are no-ops in the case analysis,
    // so walk only the differing bits (typically a handful of the 128),
    // highest first, re-deriving the set after each corner adjustment.
    let mut diff = ((zcode ^ zmin) | (zcode ^ zmax)) & total_mask;
    while diff != 0 {
        let p = 127 - diff.leading_zeros();
        let bit = 1u128 << p;
        // p < 128: it is a set bit's position in a u128.
        let dim_mask = masks
            .get(usize::from(dimension_of[p as usize]))
            .copied()
            .unwrap_or(0);
        match (zcode & bit != 0, zmin & bit != 0, zmax & bit != 0) {
            (false, false, true) => {
                result = Some(load_min(zmin, p, dim_mask));
                zmax = load_max(zmax, p, dim_mask);
            }
            (false, true, true) => return Some(zmin),
            (true, false, false) => return result,
            (true, false, true) => {
                zmin = load_min(zmin, p, dim_mask);
            }
            // min bit set while max bit clear would mean an inverted box in
            // this dimension's prefix; unreachable for well-formed corners.
            (_, true, false) => return result,
            // All-equal triples cannot carry a set `diff` bit.
            (false, false, false) | (true, true, true) => {}
        }
        diff = ((zcode ^ zmin) | (zcode ^ zmax)) & (bit - 1);
    }
    // zcode itself lies inside the box: the next in-box key is whatever the
    // case analysis recorded (or none, when zcode >= every in-box key).
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit loop the spread table replaced, kept as the oracle: bit `b`
    /// of dimension `d` goes to `b * dims + (dims - 1 - d)`, one bit at a
    /// time.
    fn interleave_bit_by_bit(cells: &[u16]) -> u128 {
        let dims = cells.len() as u32;
        let mut key = 0u128;
        for (d, &cell) in cells.iter().enumerate() {
            let lane = dims - 1 - d as u32;
            for b in 0..BITS_PER_DIM {
                if cell & (1 << b) != 0 {
                    key |= 1u128 << (b * dims + lane);
                }
            }
        }
        key
    }

    #[test]
    fn interleave_matches_the_bit_loop() {
        // A splitmix64 stream of cells, with the grid's edges mixed in.
        let mut state = 7u64;
        let mut next_cell = |round: usize, d: usize| match (round + d) % 16 {
            0 => 0u16,
            1 => u16::MAX,
            _ => {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u16
            }
        };
        for dims in 1..=MAX_DIMENSIONS {
            assert_eq!(interleave(&vec![0; dims]), 0, "dims={dims}");
            assert_eq!(
                interleave(&vec![u16::MAX; dims]),
                interleave_bit_by_bit(&vec![u16::MAX; dims]),
                "dims={dims}"
            );
            for round in 0..2_000 {
                let cells: Vec<u16> = (0..dims).map(|d| next_cell(round, d)).collect();
                assert_eq!(
                    interleave(&cells),
                    interleave_bit_by_bit(&cells),
                    "cells={cells:?}"
                );
            }
        }
    }

    #[test]
    fn dimension_masks_select_each_dimension_s_bits() {
        for dims in 1..=MAX_DIMENSIONS {
            let masks = dimension_masks(dims as u32);
            for d in 0..dims {
                let mut cells = vec![0u16; dims];
                cells[d] = u16::MAX;
                assert_eq!(masks[d], interleave_bit_by_bit(&cells), "dims={dims} d={d}");
            }
            assert!(masks[dims..].iter().all(|mask| *mask == 0), "dims={dims}");
        }
    }

    #[test]
    fn interleave_round_trips() {
        for dims in 1..=MAX_DIMENSIONS {
            let cells: Vec<u16> = (0..dims).map(|d| (d as u16 + 1) * 1000 + 7).collect();
            let key = interleave(&cells);
            let mut back = vec![0u16; dims];
            deinterleave(key, dims as u32, &mut back);
            assert_eq!(back, cells, "dims={dims}");
        }
    }

    #[test]
    fn interleave_is_monotone_per_dimension() {
        // Growing one dimension while the others stay fixed grows the key.
        let mut cells = [5u16, 9, 200];
        let low = interleave(&cells);
        cells[1] += 1;
        assert!(interleave(&cells) > low);
    }

    #[test]
    fn one_dimensional_keys_are_the_identity() {
        for v in [0u16, 1, 255, 65535] {
            assert_eq!(interleave(&[v]), v as u128);
        }
    }

    /// Exhaustive differential test of [`bigmin`] on a grid of `side`
    /// cells per dimension: for every box and every *out-of-box* probe key
    /// — the only keys the scan ever hands to BIGMIN — the result must
    /// equal the smallest in-box key above the probe.
    fn bigmin_matches_a_brute_force_scan(side: u16, boxes: &[(Vec<u16>, Vec<u16>)]) {
        let dims = boxes[0].0.len();
        let top = interleave(&vec![side - 1; dims]);
        let masks = dimension_masks(dims as u32);
        for (lo, hi) in boxes {
            let zmin = interleave(lo);
            let zmax = interleave(hi);
            let in_box = |z: u128| {
                let mut cells = vec![0u16; dims];
                deinterleave(z, dims as u32, &mut cells);
                (0..dims).all(|d| (lo[d]..=hi[d]).contains(&cells[d]))
            };
            let members: Vec<u128> = (0..=top).filter(|&z| in_box(z)).collect();
            for probe in 0..=top {
                if in_box(probe) {
                    continue;
                }
                let expected = members.iter().copied().find(|&z| z > probe);
                let got = bigmin(probe, zmin, zmax, dims as u32, &masks);
                assert_eq!(got, expected, "probe={probe} box={lo:?}..{hi:?}");
            }
        }
    }

    #[test]
    fn bigmin_matches_a_brute_force_scan_on_small_grids() {
        // 2-D on a 16×16 grid (4 bits used of the 16 available).
        bigmin_matches_a_brute_force_scan(
            16,
            &[
                (vec![2, 3], vec![6, 12]),
                (vec![0, 0], vec![15, 15]),
                (vec![5, 5], vec![5, 5]),
                (vec![0, 7], vec![3, 9]),
            ],
        );
        // The paper's 3-D on an 8×8×8 grid.
        bigmin_matches_a_brute_force_scan(
            8,
            &[
                (vec![1, 2, 3], vec![5, 6, 4]),
                (vec![0, 0, 0], vec![7, 7, 7]),
                (vec![3, 3, 3], vec![3, 3, 3]),
                (vec![0, 5, 2], vec![2, 7, 6]),
                (vec![6, 0, 0], vec![7, 1, 7]),
            ],
        );
    }
}
