//! CSR-style sparse similarity matrices.
//!
//! A [`SparseSim`] stores only the retained entries of a similarity matrix
//! in compressed-sparse-row form. Two exactness regimes share the type:
//!
//! * **δ = 0 (exact):** only entries whose bit pattern is exactly `+0.0`
//!   are dropped, so [`SparseSim::to_dense`] reconstructs the source
//!   matrix bit-for-bit, and the kernel's CSR evaluation path treats
//!   absent entries exactly like the stored zeros the `s_prev ≤ best`
//!   skip-guard already ignores — results stay bit-identical to the dense
//!   substrates at every thread count.
//! * **δ > 0 (thresholded):** entries below `δ` are additionally dropped.
//!   Reading a dropped entry as `0.0` under-reports it by less than `δ`;
//!   one fixpoint step propagates at most `α·c` of a neighbor's error
//!   (formula (1) averages `C·S_prev` terms with `C < c` and weights the
//!   structural part by `α`), so the steady-state error of any score is
//!   bounded by the geometric series `δ / (1 − α·c)` — the same decay
//!   argument behind the Section 3.5 estimation.
//!
//! The engine uses the transposed build ([`SparseSim::from_dense_transposed`])
//! as its post-warm-up evaluation substrate: the swapped scan orientation
//! reads CSR rows instead of a dense `n1 × n2` transpose, shrinking the
//! per-iteration working set to `O(nnz)`. The session uses the plain build
//! at `δ = 0` to hold warm-start priors losslessly at sparse cost.

use crate::sim::SimMatrix;
use std::fmt;

/// Why [`SparseSim::from_parts`] rejected a raw CSR triple. Each variant
/// names one violated invariant and carries enough position detail to
/// locate the corruption in a persisted payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrError {
    /// `row_off` must hold exactly `rows + 1` offsets and start at `0`.
    OffsetShape { rows: usize, len: usize },
    /// Row offsets must be non-decreasing; row `row`'s start exceeds its end.
    NonMonotoneOffsets { row: usize },
    /// The final offset and both entry arrays must agree on `nnz`.
    LengthMismatch {
        last_off: usize,
        cols: usize,
        vals: usize,
    },
    /// A column id in `row` is at or past the declared column count.
    ColumnOutOfRange { row: usize, col: u32, cols: usize },
    /// Column ids must be strictly ascending within `row`.
    UnsortedColumns { row: usize },
    /// A NaN at entry `index` of `row`: similarity scores are total-ordered
    /// in `[0, 1]`, so NaN in a payload means corruption, not data.
    NanScore { row: usize, index: usize },
}

impl fmt::Display for CsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrError::OffsetShape { rows, len } => write!(
                f,
                "row offsets must hold rows + 1 = {} entries starting at 0, got {len}",
                rows + 1
            ),
            CsrError::NonMonotoneOffsets { row } => {
                write!(f, "row {row} has non-monotone offsets")
            }
            CsrError::LengthMismatch {
                last_off,
                cols,
                vals,
            } => write!(
                f,
                "final offset {last_off} disagrees with {cols} column ids / {vals} values"
            ),
            CsrError::ColumnOutOfRange { row, col, cols } => {
                write!(
                    f,
                    "row {row} holds column {col}, but the matrix has {cols} columns"
                )
            }
            CsrError::UnsortedColumns { row } => {
                write!(f, "row {row}'s column ids are not strictly ascending")
            }
            CsrError::NanScore { row, index } => {
                write!(f, "NaN score at entry {index} of row {row}")
            }
        }
    }
}

impl std::error::Error for CsrError {}

/// A row-major CSR similarity matrix; see the module docs for the two
/// exactness regimes.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseSim {
    rows: usize,
    cols: usize,
    /// `row_off[r]..row_off[r + 1]` indexes row `r`'s entries.
    row_off: Vec<usize>,
    /// Column ids, strictly ascending within each row.
    col_idx: Vec<u32>,
    /// Retained values, parallel to `col_idx`.
    vals: Vec<f64>,
}

/// Whether a value survives thresholding: exact `+0.0` bits are always
/// dropped (they read back identically as the absent-entry default), and
/// `δ > 0` additionally drops everything below the threshold. `NaN`
/// compares false against `δ` and is retained, so a pathological matrix
/// still round-trips.
#[inline]
fn keep(v: f64, delta: f64) -> bool {
    v.to_bits() != 0 && (v >= delta || v.is_nan())
}

impl SparseSim {
    /// Compresses `dense` row-major, dropping `+0.0` entries and (when
    /// `delta > 0`) entries below `delta`.
    pub fn from_dense(dense: &SimMatrix, delta: f64) -> SparseSim {
        let (rows, cols) = (dense.rows(), dense.cols());
        let data = dense.data();
        let mut row_off = Vec::with_capacity(rows + 1);
        row_off.push(0usize);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        for r in 0..rows {
            for (c, &v) in data[r * cols..][..cols].iter().enumerate() {
                if keep(v, delta) {
                    col_idx.push(c as u32);
                    vals.push(v);
                }
            }
            row_off.push(col_idx.len());
        }
        SparseSim {
            rows,
            cols,
            row_off,
            col_idx,
            vals,
        }
    }

    /// Compresses the *transpose* of `dense`: the result has `dense.cols()`
    /// rows and holds `dense[(c, r)]` at `(r, c)`. Built in two passes
    /// (count, then fill) so each output row's column ids come out
    /// strictly ascending without a sort.
    pub fn from_dense_transposed(dense: &SimMatrix, delta: f64) -> SparseSim {
        let (n1, n2) = (dense.rows(), dense.cols());
        let data = dense.data();
        let mut row_off = vec![0usize; n2 + 1];
        for row in data.chunks_exact(n2.max(1)).take(n1) {
            for (v2, &v) in row.iter().enumerate() {
                if keep(v, delta) {
                    row_off[v2 + 1] += 1;
                }
            }
        }
        for v2 in 0..n2 {
            row_off[v2 + 1] += row_off[v2];
        }
        let nnz = row_off[n2];
        let mut cursor = row_off.clone();
        let mut col_idx = vec![0u32; nnz];
        let mut vals = vec![0.0f64; nnz];
        for (v1, row) in data.chunks_exact(n2.max(1)).take(n1).enumerate() {
            for (v2, &v) in row.iter().enumerate() {
                if keep(v, delta) {
                    let slot = &mut cursor[v2];
                    col_idx[*slot] = v1 as u32;
                    vals[*slot] = v;
                    *slot += 1;
                }
            }
        }
        SparseSim {
            rows: n2,
            cols: n1,
            row_off,
            col_idx,
            vals,
        }
    }

    /// Rebuilds from raw CSR parts — the untrusted edge the persist codec
    /// decodes through. Every invariant the indexing paths rely on is
    /// re-validated here (this is the dominating bound check the
    /// `index-bounds` lint rule keys on), and each rejection names its
    /// violated invariant; this function never panics on any input.
    ///
    /// Unlike the in-memory builds, NaN scores are rejected: `keep` retains
    /// NaN so a live pathological matrix round-trips through
    /// [`to_dense`](Self::to_dense), but a NaN arriving from a *payload*
    /// can only be corruption.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_off: Vec<usize>,
        col_idx: Vec<u32>,
        vals: Vec<f64>,
    ) -> Result<SparseSim, CsrError> {
        if row_off.len() != rows + 1 || row_off.first() != Some(&0) {
            return Err(CsrError::OffsetShape {
                rows,
                len: row_off.len(),
            });
        }
        if let Some(r) = row_off.windows(2).position(|w| w[0] > w[1]) {
            return Err(CsrError::NonMonotoneOffsets { row: r });
        }
        let last_off = *row_off.last().unwrap_or(&0);
        if last_off != col_idx.len() || col_idx.len() != vals.len() {
            return Err(CsrError::LengthMismatch {
                last_off,
                cols: col_idx.len(),
                vals: vals.len(),
            });
        }
        for r in 0..rows {
            let span = row_off[r]..row_off[r + 1];
            let row = &col_idx[span.clone()];
            if let Some(&c) = row.iter().find(|&&c| c as usize >= cols) {
                return Err(CsrError::ColumnOutOfRange {
                    row: r,
                    col: c,
                    cols,
                });
            }
            if row.windows(2).any(|w| w[0] >= w[1]) {
                return Err(CsrError::UnsortedColumns { row: r });
            }
            if let Some(i) = vals[span].iter().position(|v| v.is_nan()) {
                return Err(CsrError::NanScore { row: r, index: i });
            }
        }
        Ok(SparseSim {
            rows,
            cols,
            row_off,
            col_idx,
            vals,
        })
    }

    /// Expands back to a dense matrix; absent entries become `+0.0`.
    pub fn to_dense(&self) -> SimMatrix {
        let mut data = vec![0.0f64; self.rows * self.cols];
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            let row = &mut data[r * self.cols..][..self.cols];
            for (&c, &v) in cols.iter().zip(vals) {
                row[c as usize] = v;
            }
        }
        SimMatrix::from_raw(self.rows, self.cols, data)
    }

    /// One row's ascending column ids and parallel values.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let range = self.row_off[r]..self.row_off[r + 1];
        (&self.col_idx[range.clone()], &self.vals[range])
    }

    /// The value at `(r, c)`; `0.0` when absent (binary search within the
    /// row — column ids are strictly ascending by construction).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&(c as u32)) {
            Ok(i) => vals[i],
            Err(_) => 0.0,
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Retained-entry count.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Fraction of the full grid retained (`0.0` for an empty grid).
    pub fn occupancy(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            0.0
        } else {
            self.nnz() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimMatrix {
        SimMatrix::from_raw(
            3,
            4,
            vec![
                0.9, 0.0, 0.004, 0.5, //
                0.0, 0.02, 0.0, 0.0, //
                0.1, 0.0, 0.0, 0.7,
            ],
        )
    }

    #[test]
    fn delta_zero_round_trips_bit_exactly() {
        let dense = sample();
        let sparse = SparseSim::from_dense(&dense, 0.0);
        assert_eq!(sparse.nnz(), 6);
        let back = sparse.to_dense();
        for (a, b) in dense.data().iter().zip(back.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn thresholding_drops_only_sub_delta_entries() {
        let dense = sample();
        let sparse = SparseSim::from_dense(&dense, 0.05);
        assert_eq!(sparse.nnz(), 4);
        for r in 0..3 {
            for c in 0..4 {
                let v = dense.get(r, c);
                let s = sparse.get(r, c);
                if v >= 0.05 {
                    assert_eq!(v.to_bits(), s.to_bits());
                } else {
                    assert_eq!(s, 0.0);
                    assert!(v < 0.05, "error stays below delta");
                }
            }
        }
        assert!((sparse.occupancy() - 4.0 / 12.0).abs() < 1e-15);
    }

    #[test]
    fn transposed_build_matches_transposed_lookup() {
        let dense = sample();
        for delta in [0.0, 0.05] {
            let t = SparseSim::from_dense_transposed(&dense, delta);
            assert_eq!((t.rows(), t.cols()), (4, 3));
            let plain = SparseSim::from_dense(&dense, delta);
            assert_eq!(t.nnz(), plain.nnz());
            for r in 0..3 {
                for c in 0..4 {
                    assert_eq!(plain.get(r, c).to_bits(), t.get(c, r).to_bits());
                }
            }
            // Column ids strictly ascending per row.
            for r in 0..t.rows() {
                let (cols, _) = t.row(r);
                assert!(cols.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let empty = SparseSim::from_dense(&SimMatrix::zeros(0, 5), 0.0);
        assert_eq!(empty.nnz(), 0);
        assert_eq!(empty.occupancy(), 0.0);
        assert_eq!(empty.to_dense().rows(), 0);
        let zeros = SparseSim::from_dense(&SimMatrix::zeros(4, 4), 0.0);
        assert_eq!(zeros.nnz(), 0);
        let t = SparseSim::from_dense_transposed(&SimMatrix::zeros(2, 0), 0.0);
        assert_eq!((t.rows(), t.cols()), (0, 2));
    }

    #[test]
    fn from_parts_names_each_rejected_invariant() {
        let ok = SparseSim::from_parts(2, 3, vec![0, 1, 2], vec![1, 0], vec![0.5, 0.25]);
        assert!(ok.is_ok());
        assert_eq!(
            SparseSim::from_parts(2, 3, vec![0, 2], vec![1, 0], vec![0.5, 0.25]),
            Err(CsrError::OffsetShape { rows: 2, len: 2 })
        );
        assert_eq!(
            SparseSim::from_parts(2, 3, vec![0, 2, 1], vec![1, 0], vec![0.5, 0.25]),
            Err(CsrError::NonMonotoneOffsets { row: 1 })
        );
        assert_eq!(
            SparseSim::from_parts(2, 3, vec![0, 1, 2], vec![1, 3], vec![0.5, 0.25]),
            Err(CsrError::ColumnOutOfRange {
                row: 1,
                col: 3,
                cols: 3
            })
        );
        assert_eq!(
            SparseSim::from_parts(1, 3, vec![0, 2], vec![2, 1], vec![0.5, 0.25]),
            Err(CsrError::UnsortedColumns { row: 0 })
        );
        assert_eq!(
            SparseSim::from_parts(2, 3, vec![0, 1, 2], vec![1, 0], vec![0.5]),
            Err(CsrError::LengthMismatch {
                last_off: 2,
                cols: 2,
                vals: 1
            })
        );
        assert_eq!(
            SparseSim::from_parts(2, 3, vec![0, 1, 2], vec![1, 0], vec![0.5, f64::NAN]),
            Err(CsrError::NanScore { row: 1, index: 0 })
        );
    }

    /// Every rejection path returns, never panics — including offsets that
    /// point far past the entry arrays, the classic OOB-on-load shape.
    #[test]
    fn from_parts_never_panics_on_hostile_offsets() {
        for bad in [
            SparseSim::from_parts(2, 3, vec![0, 10, 20], vec![1, 0], vec![0.5, 0.25]),
            SparseSim::from_parts(1, 3, vec![0, usize::MAX], vec![1], vec![0.5]),
            SparseSim::from_parts(0, 0, vec![], vec![], vec![]),
            SparseSim::from_parts(3, 0, vec![0, 0, 0, 0], vec![0], vec![0.5]),
        ] {
            assert!(bad.is_err());
        }
        // Degenerate-but-valid: zero rows, zero entries.
        assert!(SparseSim::from_parts(0, 5, vec![0], vec![], vec![]).is_ok());
    }
}
