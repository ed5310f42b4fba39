//! Page residency tracking for managed (unified) memory.
//!
//! `hipMallocManaged` memory has one virtual address range whose pages can
//! live in any physical space. With XNACK enabled, a GPU touching a
//! non-resident page faults and the driver migrates the whole page —
//! "independent of the size of the data being accessed" (paper §II-C).
//!
//! Residency is kept as run-length intervals: sorted runs of pages that
//! share one space. Every query keeps per-page semantics (counts are in
//! whole pages, the tail page holds only the allocation's remaining
//! bytes), but costs O(runs touched) instead of O(pages), so a 1 GiB
//! migration is one splice, not 262,144 page updates.

use crate::space::MemSpace;
use std::ops::Range;

/// Residency of each page of a managed allocation.
#[derive(Clone, Debug)]
pub struct PageTable {
    page_size: u64,
    bytes: u64,
    /// `(first_page, space)` runs, sorted by first page. The first run
    /// starts at page 0, each run ends where the next begins (the last at
    /// the page count), and adjacent runs never share a space.
    runs: Vec<(usize, MemSpace)>,
}

impl PageTable {
    /// A table for `bytes` of memory in pages of `page_size`, initially all
    /// resident in `home`.
    pub fn new(bytes: u64, page_size: u64, home: MemSpace) -> Self {
        assert!(page_size > 0, "zero page size");
        assert!(bytes > 0, "zero-length page table");
        PageTable {
            page_size,
            bytes,
            runs: vec![(0, home)],
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Number of pages.
    pub fn n_pages(&self) -> usize {
        self.bytes.div_ceil(self.page_size) as usize
    }

    /// The page index covering byte `offset`.
    pub fn page_of(&self, offset: u64) -> usize {
        assert!(offset < self.bytes, "offset {offset} beyond {}", self.bytes);
        (offset / self.page_size) as usize
    }

    /// Page indices covering `[offset, offset + len)`.
    pub fn pages_in(&self, offset: u64, len: u64) -> Range<usize> {
        assert!(len > 0, "empty range");
        assert!(
            offset + len <= self.bytes,
            "range {offset}+{len} beyond {}",
            self.bytes
        );
        let first = (offset / self.page_size) as usize;
        let last = ((offset + len - 1) / self.page_size) as usize;
        first..last + 1
    }

    /// Where a page currently lives.
    pub fn residency(&self, page: usize) -> MemSpace {
        assert!(
            page < self.n_pages(),
            "page {page} beyond {}",
            self.n_pages()
        );
        self.runs[self.run_index(page)].1
    }

    /// The residency runs in page order: each page range and its space.
    pub fn runs(&self) -> impl Iterator<Item = (Range<usize>, MemSpace)> + '_ {
        self.runs_in(0..self.n_pages())
    }

    /// Pages in the range *not* resident in `space` (the ones XNACK would
    /// fault on and migrate).
    pub fn non_resident_pages(&self, offset: u64, len: u64, space: MemSpace) -> usize {
        self.runs_in(self.pages_in(offset, len))
            .filter(|(_, s)| *s != space)
            .map(|(pages, _)| pages.len())
            .sum()
    }

    /// Migrate every page of the range to `space`; returns how many pages
    /// actually moved.
    pub fn migrate_range(&mut self, offset: u64, len: u64, space: MemSpace) -> usize {
        let pages = self.pages_in(offset, len);
        let moved = self.non_resident_pages(offset, len, space);
        if moved == 0 {
            return 0;
        }
        // Replace the runs covering the range with one run of `space`,
        // keeping the uncovered heads/tails of the first and last run.
        let i = self.run_index(pages.start);
        let j = self.run_index(pages.end - 1);
        let head = (self.runs[i].0 < pages.start).then_some(self.runs[i]);
        let tail = (pages.end < self.run_end(j)).then_some((pages.end, self.runs[j].1));
        let k = i + usize::from(head.is_some());
        let replacement = head
            .into_iter()
            .chain(Some((pages.start, space)))
            .chain(tail);
        self.runs.splice(i..=j, replacement);
        // The new run `k` may abut neighbours in the same space: merge them
        // so adjacent runs always differ.
        if self.runs.get(k + 1).is_some_and(|r| r.1 == space) {
            self.runs.remove(k + 1);
        }
        if k > 0 && self.runs[k - 1].1 == space {
            self.runs.remove(k);
        }
        moved
    }

    /// Bytes resident in `space` across the whole allocation.
    pub fn resident_bytes(&self, space: MemSpace) -> u64 {
        self.runs()
            .filter(|(_, s)| *s == space)
            .map(|(pages, _)| self.span_bytes(pages))
            .sum()
    }

    /// Bytes resident in each space, one entry per space that holds any,
    /// in ascending space order — one pass over the runs.
    pub fn resident_bytes_by_space(&self) -> Vec<(MemSpace, u64)> {
        let mut totals: Vec<(MemSpace, u64)> = Vec::new();
        for (pages, space) in self.runs() {
            let bytes = self.span_bytes(pages);
            match totals.iter_mut().find(|(s, _)| *s == space) {
                Some(t) => t.1 += bytes,
                None => totals.push((space, bytes)),
            }
        }
        totals.sort();
        totals
    }

    /// Bytes covered by a page range (the tail page is partial).
    fn span_bytes(&self, pages: Range<usize>) -> u64 {
        let start = pages.start as u64 * self.page_size;
        let end = (pages.end as u64 * self.page_size).min(self.bytes);
        end - start
    }

    /// Index of the run holding `page`.
    fn run_index(&self, page: usize) -> usize {
        self.runs.partition_point(|&(first, _)| first <= page) - 1
    }

    /// One past the last page of run `i`.
    fn run_end(&self, i: usize) -> usize {
        self.runs.get(i + 1).map_or_else(|| self.n_pages(), |r| r.0)
    }

    /// The runs overlapping `pages`, clipped to it.
    fn runs_in(&self, pages: Range<usize>) -> impl Iterator<Item = (Range<usize>, MemSpace)> + '_ {
        (self.run_index(pages.start)..self.runs.len())
            .map(move |i| {
                let clipped = self.runs[i].0.max(pages.start)..self.run_end(i).min(pages.end);
                (clipped, self.runs[i].1)
            })
            .take_while(|(clipped, _)| !clipped.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifsim_topology::{GcdId, NumaId};

    fn ddr() -> MemSpace {
        MemSpace::Ddr(NumaId(0))
    }
    fn hbm() -> MemSpace {
        MemSpace::Hbm(GcdId(0))
    }

    #[test]
    fn page_count_rounds_up() {
        let t = PageTable::new(10_000, 4096, ddr());
        assert_eq!(t.n_pages(), 3);
        assert_eq!(t.page_size(), 4096);
    }

    #[test]
    fn all_pages_start_at_home() {
        let t = PageTable::new(16 * 4096, 4096, ddr());
        for p in 0..t.n_pages() {
            assert_eq!(t.residency(p), ddr());
        }
        assert_eq!(t.resident_bytes(ddr()), 16 * 4096);
        assert_eq!(t.resident_bytes(hbm()), 0);
    }

    #[test]
    fn range_queries_cover_partial_pages() {
        let t = PageTable::new(4 * 4096, 4096, ddr());
        assert_eq!(t.pages_in(0, 1), 0..1);
        assert_eq!(t.pages_in(4095, 2), 0..2);
        assert_eq!(t.pages_in(4096, 4096), 1..2);
        assert_eq!(t.pages_in(0, 4 * 4096), 0..4);
        assert_eq!(t.page_of(8192), 2);
    }

    #[test]
    fn migration_moves_whole_pages_once() {
        let mut t = PageTable::new(4 * 4096, 4096, ddr());
        // Touch 100 bytes straddling pages 0-1: both pages migrate.
        assert_eq!(t.non_resident_pages(4090, 100, hbm()), 2);
        assert_eq!(t.migrate_range(4090, 100, hbm()), 2);
        assert_eq!(t.residency(0), hbm());
        assert_eq!(t.residency(1), hbm());
        assert_eq!(t.residency(2), ddr());
        // Second touch is free.
        assert_eq!(t.migrate_range(4090, 100, hbm()), 0);
        assert_eq!(t.non_resident_pages(4090, 100, hbm()), 0);
    }

    #[test]
    fn resident_bytes_accounts_for_tail_page() {
        let mut t = PageTable::new(4096 + 100, 4096, ddr());
        assert_eq!(t.migrate_range(4096, 50, hbm()), 1);
        assert_eq!(t.resident_bytes(hbm()), 100); // the 100-byte tail page
        assert_eq!(t.resident_bytes(ddr()), 4096);
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn out_of_range_rejected() {
        let t = PageTable::new(4096, 4096, ddr());
        let _ = t.pages_in(4000, 200);
    }
}
