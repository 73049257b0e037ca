//! Slotted-page layout for the simulated disk backend.
//!
//! The disk backend charges I/O per *page*, so it needs a mapping from
//! tables and row ranges to page identifiers. [`Pager`] computes that
//! mapping from each table's estimated row width. Pages are identities
//! only: query answers come from the columnar tables, and the buffer
//! pool tracks which [`PageId`]s are resident, not page images.

/// Fixed page size, 8 KiB — the PostgreSQL default.
pub const PAGE_SIZE: usize = 8_192;

/// Identifies one page of one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId {
    /// Registered table this page belongs to.
    pub table: u32,
    /// Zero-based page number within the table.
    pub page_no: u32,
}

/// Maps row ranges of a table to page numbers.
#[derive(Debug, Clone, Copy)]
pub struct Pager {
    rows_per_page: usize,
    total_rows: usize,
}

impl Pager {
    /// Creates a pager for a table with `total_rows` rows of
    /// `row_width` bytes each.
    pub fn new(total_rows: usize, row_width: usize) -> Pager {
        let rows_per_page = (PAGE_SIZE / row_width.max(1)).max(1);
        Pager {
            rows_per_page,
            total_rows,
        }
    }

    /// Rows stored per page.
    pub fn rows_per_page(&self) -> usize {
        self.rows_per_page
    }

    /// Total number of pages for the table.
    pub fn page_count(&self) -> usize {
        self.total_rows.div_ceil(self.rows_per_page).max(1)
    }

    /// The page number holding `row`.
    pub fn page_of_row(&self, row: usize) -> usize {
        row / self.rows_per_page
    }

    /// Page numbers touched by scanning rows `start..end` (end exclusive).
    /// An empty range touches no pages.
    pub fn pages_for_range(&self, start: usize, end: usize) -> std::ops::Range<usize> {
        if end <= start {
            return 0..0;
        }
        let first = self.page_of_row(start);
        let last = self.page_of_row(end - 1);
        first..last + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_per_page_respects_width() {
        let p = Pager::new(1000, 64);
        assert_eq!(p.rows_per_page(), 128);
        assert_eq!(p.page_count(), 8); // 1000 / 128 = 7.8 → 8
    }

    #[test]
    fn page_of_row_boundaries() {
        let p = Pager::new(1000, 64);
        assert_eq!(p.page_of_row(0), 0);
        assert_eq!(p.page_of_row(127), 0);
        assert_eq!(p.page_of_row(128), 1);
    }

    #[test]
    fn pages_for_range() {
        let p = Pager::new(1000, 64);
        assert_eq!(p.pages_for_range(0, 128), 0..1);
        assert_eq!(p.pages_for_range(0, 129), 0..2);
        assert_eq!(p.pages_for_range(120, 140), 0..2);
        assert_eq!(p.pages_for_range(5, 5), 0..0);
        assert_eq!(p.pages_for_range(10, 5), 0..0);
    }

    #[test]
    fn degenerate_widths_are_clamped() {
        let p = Pager::new(10, 0);
        assert_eq!(p.rows_per_page(), PAGE_SIZE);
        let huge = Pager::new(10, PAGE_SIZE * 3);
        assert_eq!(huge.rows_per_page(), 1);
        assert_eq!(huge.page_count(), 10);
    }

    #[test]
    fn empty_table_has_one_page() {
        let p = Pager::new(0, 64);
        assert_eq!(p.page_count(), 1);
    }
}
