//! Structure check of adjacency rows: each row sorted strictly ascending,
//! every id in `0..n`, no self-loops. Resident opens run it over the whole
//! adjacency section, streamed stores over every chunk they load.
//!
//! The check makes one branch-free pass over the flat entries and one step
//! per row, with no per-row search:
//!
//! * **Sorted.** The pass counts the non-ascending adjacent pairs. A row is
//!   strictly ascending exactly when none of them lies inside it, so the
//!   count must equal the number of such pairs at row starts (a descent
//!   from one row into the next is legal).
//! * **In range.** In a strictly ascending row the last id is the largest,
//!   so it alone is compared with `n`.
//! * **No self-loop.** Each row writes its own id over its entries' slots
//!   in a window of per-entry owners on the stack; a self-loop is an entry
//!   equal to its owner, found by comparing the window with the entries.

use std::path::Path;

use neursc_graph::types::VertexId;

use crate::error::StoreError;

/// Entries per window of per-entry owners (16 KiB of stack).
const WINDOW: usize = 4096;
/// Rows up to this long write their owner with one fixed-width store; its
/// tail runs past the row and is overwritten by the rows after it.
const SHORT: usize = 16;

/// Structure-checks the rows `first_row..first_row + offsets.len() - 1`.
/// `offsets` are those rows' global adjacency offsets (`offsets[0]` is the
/// index of `neighbors[0]` in the whole adjacency), so a chunk passes a
/// slice of the store's offset array as it is.
pub(crate) fn validate_rows(
    neighbors: &[VertexId],
    offsets: &[u64],
    first_row: usize,
    n: usize,
    path: Option<&Path>,
) -> Result<(), StoreError> {
    check_rows(neighbors, offsets, first_row, n, WINDOW)
        .map_err(|detail| StoreError::corrupt(path.map(Path::to_path_buf), detail))
}

/// [`validate_rows`] with owner windows of `window ≤ WINDOW` entries (tests
/// shrink it to cross window boundaries); the error is the detail message.
fn check_rows(
    neighbors: &[VertexId],
    offsets: &[u64],
    first_row: usize,
    n: usize,
    window: usize,
) -> Result<(), String> {
    debug_assert!((1..=WINDOW).contains(&window));
    let base = offsets.first().copied().unwrap_or(0);
    let span = offsets.last().copied().unwrap_or(0) - base;
    if span != neighbors.len() as u64 {
        return Err(format!(
            "adjacency section has {} entries but offsets imply {span}",
            neighbors.len()
        ));
    }
    let rows = || {
        offsets.windows(2).enumerate().map(move |(i, w)| {
            (
                (first_row + i) as VertexId,
                (w[0] - base) as usize,
                (w[1] - base) as usize,
            )
        })
    };
    let descents = count_descents(neighbors);
    let mut at_row_starts = 0usize;
    // `owner[p - start]` is the row of entry `p`, for `p` from `start` on.
    let mut owner = [0 as VertexId; WINDOW + SHORT];
    let mut start = 0usize;
    let mut self_loop = false;
    for (v, lo, hi) in rows() {
        // Skipping empty rows counts each row-start pair once.
        if lo == hi {
            continue;
        }
        if lo > 0 {
            at_row_starts += usize::from(neighbors[lo - 1] >= neighbors[lo]);
        }
        // An unsorted row may hide a larger id before its end; the descent
        // count below rejects it either way.
        let last = neighbors[hi - 1];
        if last as usize >= n {
            return Err(format!("vertex {v} lists neighbor {last}, outside 0..{n}"));
        }
        if hi - start > window {
            self_loop |= owns_any(&neighbors[start..lo], &owner);
            start = lo;
        }
        let len = hi - lo;
        if len <= SHORT {
            owner[lo - start..lo - start + SHORT].copy_from_slice(&[v; SHORT]);
        } else if len <= window {
            owner[lo - start..hi - start].fill(v);
        } else {
            // A row longer than the window is searched on its own.
            self_loop |= neighbors[lo..hi].binary_search(&v).is_ok();
            start = hi;
        }
    }
    self_loop |= owns_any(&neighbors[start..], &owner);
    if self_loop {
        // Error path only: name the first row with a self-loop.
        let v = rows()
            .find(|&(v, lo, hi)| neighbors[lo..hi].contains(&v))
            .map_or(first_row as VertexId, |(v, _, _)| v);
        return Err(format!("vertex {v} lists a self-loop"));
    }
    if descents != at_row_starts {
        // Error path only: name the first row with a descent inside it.
        let v = rows()
            .find(|&(_, lo, hi)| neighbors[lo..hi].windows(2).any(|p| p[0] >= p[1]))
            .map_or(first_row as VertexId, |(v, _, _)| v);
        return Err(format!(
            "adjacency list of vertex {v} is unsorted or has duplicates"
        ));
    }
    Ok(())
}

/// Whether any entry equals its owner — branch-free, so it vectorizes.
fn owns_any(entries: &[VertexId], owner: &[VertexId]) -> bool {
    entries
        .iter()
        .zip(owner)
        .fold(false, |found, (x, o)| found | (x == o))
}

/// The number of adjacent pairs `(a, b)` with `a >= b`. Branch-free with
/// `u32` lanes, so the compiler vectorizes it; blocks of `2^16` pairs keep
/// each lane sum from overflowing.
fn count_descents(xs: &[VertexId]) -> usize {
    const BLOCK: usize = 1 << 16;
    let Some((_, tail)) = xs.split_first() else {
        return 0;
    };
    xs.chunks(BLOCK)
        .zip(tail.chunks(BLOCK))
        .map(|(a, b)| {
            let block: u32 = a.iter().zip(b).map(|(x, y)| u32::from(x >= y)).sum();
            block as usize
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The row-by-row validator the one-pass check replaced, kept as the
    /// differential reference. `row_offsets` are relative to `neighbors[0]`.
    fn reference(
        neighbors: &[VertexId],
        row_offsets: &[u64],
        first_row: usize,
        n: usize,
    ) -> Result<(), String> {
        if row_offsets.last().copied().unwrap_or(0) as usize != neighbors.len() {
            return Err("length".to_string());
        }
        for (i, w) in row_offsets.windows(2).enumerate() {
            let v = (first_row + i) as VertexId;
            let row = &neighbors[w[0] as usize..w[1] as usize];
            if row.windows(2).any(|p| p[0] >= p[1]) {
                return Err(format!("row {v} unsorted"));
            }
            for &u in row {
                if (u as usize) >= n {
                    return Err(format!("row {v} out of range"));
                }
                if u == v {
                    return Err(format!("row {v} self-loop"));
                }
            }
        }
        Ok(())
    }

    /// A chunk: rows `first_row..first_row + rows.len()` of an `n`-vertex
    /// graph whose first entry sits at adjacency index `base`.
    #[derive(Debug, Clone)]
    struct Chunk {
        n: usize,
        first_row: usize,
        base: u64,
        rows: Vec<Vec<VertexId>>,
    }

    impl Chunk {
        fn flat(&self) -> (Vec<VertexId>, Vec<u64>) {
            let mut neighbors = Vec::new();
            let mut offsets = vec![self.base];
            for row in &self.rows {
                neighbors.extend_from_slice(row);
                offsets.push(self.base + neighbors.len() as u64);
            }
            (neighbors, offsets)
        }
    }

    /// Valid chunks: each row a random subset of `0..n` (n < 64, one bit
    /// per id, about a quarter or a half set), sorted, without the row's
    /// own id.
    fn arb_chunk() -> impl Strategy<Value = Chunk> {
        (4usize..48, 1usize..12, 0u64..1 << 40).prop_flat_map(|(n, len, base)| {
            let len = len.min(n);
            (
                0..=n - len,
                vec((any::<u64>(), any::<u64>(), any::<bool>()), len),
            )
                .prop_map(move |(first_row, masks)| {
                    let rows = masks
                        .iter()
                        .enumerate()
                        .map(|(i, &(a, b, dense))| {
                            let v = (first_row + i) as VertexId;
                            let mask = if dense { a } else { a & b };
                            (0..n as VertexId)
                                .filter(|&w| w != v && (mask >> w) & 1 == 1)
                                .collect()
                        })
                        .collect();
                    Chunk {
                        n,
                        first_row,
                        base,
                        rows,
                    }
                })
        })
    }

    /// Grows a sorted row to at least `k` ids, never adding `v`.
    fn ensure_len(row: &mut Vec<VertexId>, v: VertexId, n: usize, k: usize) {
        for w in 0..n as VertexId {
            if row.len() >= k {
                break;
            }
            if w != v {
                if let Err(j) = row.binary_search(&w) {
                    row.insert(j, w);
                }
            }
        }
    }

    /// Injects defect `kind` (0: none) into row `at % len`; with
    /// `empties`, the rows beside it become empty.
    fn inject(mut c: Chunk, kind: u8, at: usize, value: usize, empties: bool) -> Chunk {
        let len = c.rows.len();
        let i = at % len;
        let (n, first_row) = (c.n, c.first_row);
        let id = |r: usize| (first_row + r) as VertexId;
        let v = id(i);
        // The row a boundary descent crosses into: the next one, or the
        // one after an empty row.
        let next = if empties { i + 2 } else { i + 1 };
        if empties {
            for r in [i.wrapping_sub(1), i + 1] {
                if r < len {
                    c.rows[r].clear();
                }
            }
        }
        let row = &mut c.rows[i];
        match kind {
            // A duplicate inside a row.
            1 => {
                ensure_len(row, v, n, 1);
                let j = value % row.len();
                row.insert(j, row[j]);
            }
            // A descent inside a row.
            2 => {
                ensure_len(row, v, n, 2);
                let j = value % (row.len() - 1);
                row.swap(j, j + 1);
            }
            // An id ≥ n, at any position.
            3 => {
                let j = value % (row.len() + 1);
                row.insert(j, (n + value % 7) as VertexId);
            }
            // A self-loop, in sorted position.
            4 => {
                let j = row.partition_point(|&w| w < v);
                row.insert(j, v);
            }
            // A descent across a row boundary, which is legal: row `i`
            // ends with `n - 1` and row `next` starts with 0.
            5 if next < len => {
                let top = (n - 1) as VertexId;
                if v != top && row.last() != Some(&top) {
                    row.push(top);
                }
                let low = &mut c.rows[next];
                if id(next) != 0 && low.first() != Some(&0) {
                    low.insert(0, 0);
                }
            }
            _ => {}
        }
        c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// The one-pass validator accepts exactly the chunks the row-by-row
        /// reference accepts.
        #[test]
        fn one_pass_validator_agrees_with_the_reference(
            c in arb_chunk(),
            kind in 0u8..6,
            at in 0usize..64,
            value in 0usize..1000,
            empties in any::<bool>(),
        ) {
            let c = inject(c, kind, at, value, empties);
            let (neighbors, offsets) = c.flat();
            let relative: Vec<u64> = offsets.iter().map(|o| o - c.base).collect();
            let want = reference(&neighbors, &relative, c.first_row, c.n);
            let got = validate_rows(&neighbors, &offsets, c.first_row, c.n, None);
            prop_assert_eq!(
                got.is_ok(),
                want.is_ok(),
                "kind {} at {}: {:?}: reference {:?}, one pass {:?}",
                kind,
                at,
                c,
                want,
                got.as_ref().err().map(|e| e.to_string())
            );
            if let Err(e) = got {
                prop_assert!(e.is_corruption());
            }
            // Small windows: rows straddle window ends, and rows longer
            // than the window take the searched path.
            for window in [1, 3, 20] {
                let small = check_rows(&neighbors, &offsets, c.first_row, c.n, window);
                prop_assert_eq!(small.is_ok(), want.is_ok(), "window {}: {:?}: {:?}", window, c, small);
            }
        }
    }

    #[test]
    fn every_defect_kind_is_rejected_and_boundary_descent_is_not() {
        let n = 10;
        let ok = |rows: &[&[VertexId]]| {
            let c = Chunk {
                n,
                first_row: 3,
                base: 100,
                rows: rows.iter().map(|r| r.to_vec()).collect(),
            };
            let (nb, off) = c.flat();
            validate_rows(&nb, &off, c.first_row, n, None).is_ok()
        };
        assert!(
            ok(&[&[0, 9], &[], &[0, 1], &[]]),
            "descent across rows is legal"
        );
        assert!(!ok(&[&[0, 1, 1], &[2]]), "duplicate");
        assert!(!ok(&[&[0, 2, 1], &[2]]), "descent inside a row");
        assert!(!ok(&[&[0, 10], &[2]]), "id ≥ n");
        assert!(!ok(&[&[0, 3], &[2]]), "self-loop");
        assert!(!ok(&[&[0, 1], &[4]]), "self-loop in a later row");
        assert!(!ok(&[&[], &[1, 0], &[]]), "descent between empty rows");
        assert!(ok(&[]), "no rows");
    }
}
