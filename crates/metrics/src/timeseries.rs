//! Per-interval series: fixed-width rows of scalars, one row per beacon
//! interval, reserved up front so a simulation hot loop can fill them
//! without touching the allocator.

/// A fixed-width series indexed by interval number instead of
/// timestamps: row `k` describes interval `k`. The columns are
/// arbitrary scalars and the backing storage can be reserved up front
/// with [`with_capacity`](Self::with_capacity), so ingestion from a
/// simulation hot loop never touches the allocator.
///
/// # Example
///
/// ```
/// use rcast_metrics::IntervalSeries;
///
/// let mut s = IntervalSeries::with_capacity(2, 8);
/// s.push_row(&[1.0, 10.0]);
/// s.push_row(&[2.0, 20.0]);
/// assert_eq!(s.rows(), 2);
/// assert_eq!(s.row(1), &[2.0, 20.0]);
/// assert_eq!(s.column(1), vec![10.0, 20.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSeries {
    width: usize,
    /// Row-major: `values[row * width + column]`.
    values: Vec<f64>,
}

impl IntervalSeries {
    /// An empty series of `width` columns with storage reserved for
    /// `rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn with_capacity(width: usize, rows: usize) -> Self {
        assert!(width > 0, "need at least one column");
        IntervalSeries {
            width,
            values: Vec::with_capacity(width * rows),
        }
    }

    /// Number of columns per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows stored.
    pub fn rows(&self) -> usize {
        self.values.len() / self.width
    }

    /// `true` when no row has been pushed.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the column count.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.width, "row width mismatch");
        self.values.extend_from_slice(row);
    }

    /// Row `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn row(&self, k: usize) -> &[f64] {
        &self.values[k * self.width..(k + 1) * self.width]
    }

    /// Column `i` across all rows.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn column(&self, i: usize) -> Vec<f64> {
        assert!(i < self.width, "column {i} out of range");
        (0..self.rows()).map(|k| self.values[k * self.width + i]).collect()
    }

    /// Renders the series as CSV, one row per interval, with the given
    /// column headers prefixed by an `interval` index column.
    ///
    /// # Panics
    ///
    /// Panics if `headers.len()` differs from the column count.
    pub fn csv(&self, headers: &[&str]) -> String {
        assert_eq!(headers.len(), self.width, "header width mismatch");
        let mut out = String::from("interval");
        for h in headers {
            out.push(',');
            out.push_str(h);
        }
        out.push('\n');
        for k in 0..self.rows() {
            out.push_str(&k.to_string());
            for v in self.row(k) {
                out.push(',');
                out.push_str(&format!("{v}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_series_never_reallocates_within_capacity() {
        let mut s = IntervalSeries::with_capacity(3, 4);
        let ptr = s.values.as_ptr();
        for k in 0..4 {
            s.push_row(&[k as f64, 0.0, 1.0]);
        }
        assert_eq!(s.rows(), 4);
        assert_eq!(s.values.as_ptr(), ptr, "reserved storage must be reused");
        assert_eq!(s.column(0), vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn interval_series_csv_shape() {
        let mut s = IntervalSeries::with_capacity(2, 2);
        s.push_row(&[1.5, 2.0]);
        let csv = s.csv(&["a", "b"]);
        assert_eq!(csv, "interval,a,b\n0,1.5,2\n");
    }

    #[test]
    #[should_panic]
    fn interval_series_row_width_mismatch_panics() {
        let mut s = IntervalSeries::with_capacity(2, 1);
        s.push_row(&[1.0]);
    }
}
