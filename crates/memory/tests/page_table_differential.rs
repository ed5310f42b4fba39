//! Differential test of the run-length `PageTable` against the obvious
//! model: one `MemSpace` per page. Random interleavings of migrations and
//! queries, over allocations with partial tail pages and over the 2 MiB
//! page size, must agree page for page and byte for byte.

use ifsim_memory::{MemSpace, PageTable};
use ifsim_topology::{GcdId, NumaId};
use proptest::prelude::*;

const SPACES: [MemSpace; 3] = [
    MemSpace::Ddr(NumaId(0)),
    MemSpace::Hbm(GcdId(0)),
    MemSpace::Hbm(GcdId(1)),
];

/// Per-page reference model.
struct Model {
    page_size: u64,
    bytes: u64,
    pages: Vec<MemSpace>,
}

impl Model {
    fn pages_in(&self, offset: u64, len: u64) -> std::ops::Range<usize> {
        (offset / self.page_size) as usize..((offset + len - 1) / self.page_size) as usize + 1
    }

    fn non_resident_pages(&self, offset: u64, len: u64, space: MemSpace) -> usize {
        self.pages[self.pages_in(offset, len)]
            .iter()
            .filter(|&&s| s != space)
            .count()
    }

    fn migrate_range(&mut self, offset: u64, len: u64, space: MemSpace) -> usize {
        let moved = self.non_resident_pages(offset, len, space);
        let range = self.pages_in(offset, len);
        self.pages[range].fill(space);
        moved
    }

    fn resident_bytes(&self, space: MemSpace) -> u64 {
        (0..self.pages.len())
            .filter(|&p| self.pages[p] == space)
            .map(|p| {
                let start = p as u64 * self.page_size;
                (start + self.page_size).min(self.bytes) - start
            })
            .sum()
    }
}

/// One operation: (kind, space index, offset seed, length seed). Kinds 0
/// and 1 migrate, 2-4 query.
type Op = (u8, usize, u64, u64);

fn run_ops(page_size: u64, full_pages: u64, tail: u64, ops: Vec<Op>) {
    let bytes = full_pages * page_size + tail;
    if bytes == 0 {
        return;
    }
    let home = SPACES[0];
    let mut table = PageTable::new(bytes, page_size, home);
    let mut model = Model {
        page_size,
        bytes,
        pages: vec![home; bytes.div_ceil(page_size) as usize],
    };
    prop_assert_eq!(table.n_pages(), model.pages.len());
    for (kind, s, a, b) in ops {
        let space = SPACES[s];
        let offset = a % bytes;
        // Kind 0 touches at most three pages, so runs fragment; the other
        // kinds span anything up to the end of the allocation.
        let reach = match kind {
            0 => (bytes - offset).min(3 * page_size),
            _ => bytes - offset,
        };
        let len = b % reach + 1;
        match kind {
            0 | 1 => prop_assert_eq!(
                table.migrate_range(offset, len, space),
                model.migrate_range(offset, len, space),
                "migrate_range({}, {}, {:?})",
                offset,
                len,
                space
            ),
            2 => prop_assert_eq!(
                table.non_resident_pages(offset, len, space),
                model.non_resident_pages(offset, len, space),
                "non_resident_pages({}, {}, {:?})",
                offset,
                len,
                space
            ),
            3 => prop_assert_eq!(table.resident_bytes(space), model.resident_bytes(space)),
            _ => {
                let page = table.page_of(offset);
                prop_assert_eq!(table.residency(page), model.pages[page]);
            }
        }
        check_runs(&table, &model);
    }
}

/// The runs tile the page range, match the model page for page, and no
/// two adjacent runs share a space; per-space byte totals agree too.
fn check_runs(table: &PageTable, model: &Model) {
    let mut next = 0;
    let mut prev: Option<MemSpace> = None;
    for (pages, space) in table.runs() {
        prop_assert_eq!(pages.start, next, "runs must tile the pages");
        prop_assert!(!pages.is_empty(), "empty run");
        prop_assert!(prev != Some(space), "adjacent runs share {:?}", space);
        prop_assert!(model.pages[pages.clone()].iter().all(|&s| s == space));
        next = pages.end;
        prev = Some(space);
    }
    prop_assert_eq!(next, model.pages.len());
    let expected: Vec<(MemSpace, u64)> = {
        let mut v: Vec<(MemSpace, u64)> = SPACES
            .iter()
            .map(|&s| (s, model.resident_bytes(s)))
            .filter(|&(_, b)| b > 0)
            .collect();
        v.sort();
        v
    };
    prop_assert_eq!(table.resident_bytes_by_space(), expected);
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..5, 0usize..3, any::<u64>(), any::<u64>()), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Small odd page sizes make every range straddle page boundaries and
    /// leave a partial tail page.
    #[test]
    fn matches_per_page_model_small_pages(
        page_size in 1u64..70,
        full_pages in 0u64..60,
        tail in 0u64..70,
        ops in arb_ops(),
    ) {
        run_ops(page_size, full_pages, tail % page_size, ops);
    }

    /// The default 4 KiB managed page with a partial tail page.
    #[test]
    fn matches_per_page_model_4k_pages(
        full_pages in 0u64..200,
        tail in 0u64..4096,
        ops in arb_ops(),
    ) {
        run_ops(4096, full_pages, tail, ops);
    }

    /// The 2 MiB-page ablation.
    #[test]
    fn matches_per_page_model_2m_pages(
        full_pages in 0u64..40,
        tail in 0u64..(2 << 20),
        ops in arb_ops(),
    ) {
        run_ops(2 << 20, full_pages, tail, ops);
    }
}
