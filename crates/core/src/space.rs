//! The shared address space: lines, blocks, pages, and the variable-
//! granularity allocator.
//!
//! Shasta divides the shared heap into fixed-size **lines** (64 or 128
//! bytes; the state table has one entry per line) and groups lines into
//! **blocks**, the unit of coherence. Uniquely among software DSM systems,
//! the block size can differ across allocations (§2.1): by default objects
//! smaller than 1024 bytes become a single block and larger objects use
//! line-sized blocks, and applications can pass an explicit coherence-
//! granularity hint to `malloc` (Table 2 of the paper exercises this).
//! **Pages** (4 KB) determine the home processor of the data they contain.
//!
//! Addresses below [`HEAP_BASE`] are "private" (stack/static in the paper's
//! model) and are never checked or kept coherent.

use serde::{Deserialize, Serialize};

/// Byte address within the simulated shared virtual address space.
pub type Addr = u64;

/// Start of the shared heap. Address 0 is reserved so that a zero `Addr`
/// behaves like a null pointer bug rather than valid data.
pub const HEAP_BASE: Addr = 0x1000;

/// Page size used for home-processor assignment (§2.1: "a home processor is
/// associated with each virtual page of shared data").
pub const PAGE_BYTES: u64 = 4_096;

/// Default Shasta line size used throughout the paper's evaluation.
pub const DEFAULT_LINE_BYTES: u64 = 64;

/// Objects below this size become a single block by default (§4.3: "the
/// block size of objects less than 1024 bytes is automatically set to the
/// size of the object, while larger objects use a 64 byte block size").
pub const SMALL_OBJECT_BYTES: u64 = 1_024;

/// Coherence-granularity hint accepted by [`SharedSpace::malloc`], the
/// analogue of the paper's modified `malloc` parameter.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum BlockHint {
    /// The paper's default policy: whole-object blocks below
    /// [`SMALL_OBJECT_BYTES`], line-sized blocks otherwise.
    #[default]
    Auto,
    /// One line per block regardless of object size.
    Line,
    /// Explicit block size in bytes (rounded up to a line multiple).
    Bytes(u64),
}

/// Home-processor placement policy for an allocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum HomeHint {
    /// Pages round-robin over all processors (the base policy).
    #[default]
    RoundRobin,
    /// All pages of the allocation homed at one processor (the "home
    /// placement optimization" used for FMM, LU-Contiguous and Ocean).
    Explicit(u32),
}

/// Error from [`SharedSpace::malloc`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocError {
    /// The heap has no room for the requested object.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes remaining in the heap.
        available: u64,
    },
    /// A zero-sized allocation was requested.
    ZeroSize,
    /// The explicit home processor does not exist.
    BadHome {
        /// Requested home processor.
        home: u32,
        /// Number of processors in the topology.
        procs: u32,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            AllocError::OutOfMemory { requested, available } => {
                write!(
                    f,
                    "shared heap exhausted: requested {requested} bytes, {available} available"
                )
            }
            AllocError::ZeroSize => write!(f, "zero-sized shared allocation"),
            AllocError::BadHome { home, procs } => {
                write!(f, "home processor {home} out of range (have {procs})")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// One allocation's extent and coherence parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Allocation {
    /// First byte (block-aligned).
    pub start: Addr,
    /// Extent in bytes (a multiple of the block size).
    pub len: u64,
    /// Coherence granularity in bytes (a multiple of the line size).
    pub block_bytes: u64,
    /// Home placement for the allocation's pages.
    pub home: HomeHint,
}

impl Allocation {
    /// Whether `addr` falls inside this allocation.
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.start && addr < self.start + self.len
    }
}

/// A block of the shared space: the unit of coherence.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Block {
    /// First byte of the block.
    pub start: Addr,
    /// Block length in bytes.
    pub len: u64,
}

impl Block {
    /// The block's first line index.
    pub fn first_line(&self, line_bytes: u64) -> u64 {
        self.start / line_bytes
    }

    /// Number of lines in the block.
    pub fn lines(&self, line_bytes: u64) -> u64 {
        self.len / line_bytes
    }

    /// Iterator over the block's line indices.
    pub fn line_range(&self, line_bytes: u64) -> std::ops::Range<u64> {
        let first = self.first_line(line_bytes);
        first..first + self.lines(line_bytes)
    }
}

/// The shared address space: allocator plus address→line/block/home math.
///
/// # Example
///
/// ```
/// use shasta_core::space::{BlockHint, HomeHint, SharedSpace};
///
/// let mut space = SharedSpace::new(1 << 20, 64, 16);
/// // A 4 KB matrix with 2 KB coherence blocks homed at processor 3.
/// let a = space
///     .malloc(4_096, BlockHint::Bytes(2_048), HomeHint::Explicit(3))
///     .unwrap();
/// let block = space.block_of(a).unwrap();
/// assert_eq!(block.len, 2_048);
/// assert_eq!(space.home_of(a), 3);
/// ```
#[derive(Clone, Debug)]
pub struct SharedSpace {
    heap_bytes: u64,
    line_bytes: u64,
    procs: u32,
    next: Addr,
    /// Allocations sorted by start address.
    allocs: Vec<Allocation>,
    /// Caller-supplied site labels, parallel to `allocs`. Kept out of
    /// [`Allocation`] so that struct stays plain serializable data.
    labels: Vec<&'static str>,
    /// Profile-guided label → block-size overrides (see
    /// [`set_hint_overrides`](Self::set_hint_overrides)).
    hint_overrides: std::collections::BTreeMap<String, u64>,
}

impl SharedSpace {
    /// Creates a space with `heap_bytes` of shared heap, a given line size,
    /// and `procs` processors for round-robin home assignment.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two or `procs` is zero.
    pub fn new(heap_bytes: u64, line_bytes: u64, procs: u32) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(procs > 0, "need at least one processor");
        SharedSpace {
            heap_bytes,
            line_bytes,
            procs,
            next: HEAP_BASE,
            allocs: Vec::new(),
            labels: Vec::new(),
            hint_overrides: std::collections::BTreeMap::new(),
        }
    }

    /// Installs profile-guided granularity overrides: any later
    /// [`malloc_labeled`](Self::malloc_labeled) whose label appears in the
    /// map allocates with `BlockHint::Bytes(map[label])` regardless of the
    /// hint the caller passed (the advisor's verdict replaces guesswork).
    /// Unlabeled (`"anon"`) allocations are never overridden. Call before
    /// application setup so every allocation is covered.
    pub fn set_hint_overrides(&mut self, overrides: std::collections::BTreeMap<String, u64>) {
        self.hint_overrides = overrides;
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Total heap extent in bytes (including the reserved prefix).
    pub fn heap_bytes(&self) -> u64 {
        self.heap_bytes
    }

    /// Number of lines covering the heap.
    pub fn heap_lines(&self) -> u64 {
        self.heap_bytes.div_ceil(self.line_bytes)
    }

    /// Bytes currently allocated (high-water mark).
    pub fn used_bytes(&self) -> u64 {
        self.next - HEAP_BASE
    }

    /// Whether `addr` lies in the shared heap range (the inline check's
    /// first test: "is the target address in the shared memory range?").
    pub fn is_shared(&self, addr: Addr) -> bool {
        addr >= HEAP_BASE && addr < self.heap_bytes
    }

    /// Line index containing `addr`.
    pub fn line_of(&self, addr: Addr) -> u64 {
        addr / self.line_bytes
    }

    /// Allocates `size` bytes with the given coherence-granularity and home
    /// hints, returning the (block-aligned) base address.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the heap is exhausted, `size` is zero, or
    /// the explicit home is out of range.
    pub fn malloc(
        &mut self,
        size: u64,
        block: BlockHint,
        home: HomeHint,
    ) -> Result<Addr, AllocError> {
        self.malloc_labeled(size, block, home, "anon")
    }

    /// [`malloc`](Self::malloc) with a caller-supplied **site label** naming
    /// the allocation (e.g. `"bodies"`, `"lu-matrix"`). The sharing profiler
    /// rolls per-block statistics up to these labels so granularity advice
    /// can point at the `malloc` call that needs a different hint.
    pub fn malloc_labeled(
        &mut self,
        size: u64,
        block: BlockHint,
        home: HomeHint,
        label: &'static str,
    ) -> Result<Addr, AllocError> {
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        if let HomeHint::Explicit(h) = home {
            if h >= self.procs {
                return Err(AllocError::BadHome { home: h, procs: self.procs });
            }
        }
        let block = match self.hint_overrides.get(label) {
            Some(&bytes) if label != "anon" => BlockHint::Bytes(bytes),
            _ => block,
        };
        // Sizes and block hints may come from a hint file, so every rounding
        // step is checked: a result past `u64::MAX` is certainly past the heap.
        let oom = || AllocError::OutOfMemory {
            requested: size,
            available: self.heap_bytes.saturating_sub(self.next),
        };
        let round_up = |x: u64, m: u64| x.div_ceil(m).checked_mul(m);
        let block_bytes = match block {
            BlockHint::Auto => {
                if size < SMALL_OBJECT_BYTES {
                    // Whole-object block, rounded up to a line multiple.
                    round_up(size, self.line_bytes)
                } else {
                    Some(self.line_bytes)
                }
            }
            BlockHint::Line => Some(self.line_bytes),
            BlockHint::Bytes(n) => round_up(n.max(1), self.line_bytes),
        }
        .ok_or_else(oom)?;
        let start = round_up(self.next, block_bytes).ok_or_else(oom)?;
        let len = round_up(size, block_bytes).ok_or_else(oom)?;
        let end = start.checked_add(len).filter(|&end| end <= self.heap_bytes).ok_or_else(oom)?;
        self.next = end;
        self.allocs.push(Allocation { start, len, block_bytes, home });
        self.labels.push(label);
        Ok(start)
    }

    /// The site label of the allocation containing `addr`, if allocated.
    pub fn site_label_of(&self, addr: Addr) -> Option<&'static str> {
        let i = self.allocs.partition_point(|a| a.start <= addr);
        let a = self.allocs.get(i.checked_sub(1)?)?;
        a.contains(addr).then(|| self.labels[i - 1])
    }

    /// All allocations with their site labels, in address order.
    pub fn labeled_allocations(&self) -> impl Iterator<Item = (&Allocation, &'static str)> {
        self.allocs.iter().zip(self.labels.iter().copied())
    }

    /// The allocation containing `addr`, if any.
    pub fn allocation_of(&self, addr: Addr) -> Option<&Allocation> {
        // Allocations are sorted by construction (bump allocator).
        let i = self.allocs.partition_point(|a| a.start <= addr);
        let a = self.allocs.get(i.checked_sub(1)?)?;
        a.contains(addr).then_some(a)
    }

    /// The coherence block containing `addr`, if `addr` is allocated.
    pub fn block_of(&self, addr: Addr) -> Option<Block> {
        let a = self.allocation_of(addr)?;
        let idx = (addr - a.start) / a.block_bytes;
        Some(Block { start: a.start + idx * a.block_bytes, len: a.block_bytes })
    }

    /// All blocks overlapping `[addr, addr + len)`.
    ///
    /// # Panics
    ///
    /// Panics if any byte of the range is unallocated.
    pub fn blocks_in(&self, addr: Addr, len: u64) -> Vec<Block> {
        assert!(len > 0, "empty range");
        let mut out = Vec::new();
        let mut cur = addr;
        let end = addr + len;
        while cur < end {
            let b =
                self.block_of(cur).unwrap_or_else(|| panic!("unallocated shared address {cur:#x}"));
            let next = b.start + b.len;
            out.push(b);
            cur = next;
        }
        out
    }

    /// Home processor of the page containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is unallocated.
    pub fn home_of(&self, addr: Addr) -> u32 {
        let a = self
            .allocation_of(addr)
            .unwrap_or_else(|| panic!("unallocated shared address {addr:#x}"));
        match a.home {
            HomeHint::Explicit(h) => h,
            HomeHint::RoundRobin => ((addr / PAGE_BYTES) % self.procs as u64) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> SharedSpace {
        SharedSpace::new(1 << 20, 64, 4)
    }

    #[test]
    fn small_objects_get_whole_object_blocks() {
        let mut s = space();
        let a = s.malloc(200, BlockHint::Auto, HomeHint::RoundRobin).unwrap();
        let b = s.block_of(a).unwrap();
        assert_eq!(b.len, 256); // 200 rounded up to line multiple
        assert_eq!(b.start, a);
    }

    #[test]
    fn large_objects_get_line_blocks() {
        let mut s = space();
        let a = s.malloc(8_192, BlockHint::Auto, HomeHint::RoundRobin).unwrap();
        let b = s.block_of(a + 100).unwrap();
        assert_eq!(b.len, 64);
        assert_eq!(b.start, a + 64);
    }

    #[test]
    fn explicit_granularity_rounds_to_lines() {
        let mut s = space();
        let a = s.malloc(10_000, BlockHint::Bytes(2_000), HomeHint::RoundRobin).unwrap();
        let b = s.block_of(a).unwrap();
        assert_eq!(b.len, 2_048);
        // Allocation length is a multiple of the block size.
        let alloc = s.allocation_of(a).unwrap();
        assert_eq!(alloc.len % 2_048, 0);
        assert!(alloc.len >= 10_000);
    }

    #[test]
    fn blocks_do_not_straddle_allocations() {
        let mut s = space();
        let a = s.malloc(100, BlockHint::Auto, HomeHint::RoundRobin).unwrap();
        let b = s.malloc(100, BlockHint::Auto, HomeHint::RoundRobin).unwrap();
        let ba = s.block_of(a).unwrap();
        let bb = s.block_of(b).unwrap();
        assert!(ba.start + ba.len <= bb.start);
    }

    #[test]
    fn blocks_in_covers_range() {
        let mut s = space();
        let a = s.malloc(1_024, BlockHint::Line, HomeHint::RoundRobin).unwrap();
        let blocks = s.blocks_in(a + 32, 128);
        assert_eq!(blocks.len(), 3); // touches lines 0,1,2 of the allocation
        assert_eq!(blocks[0].start, a);
        assert_eq!(blocks[2].start, a + 128);
    }

    #[test]
    fn round_robin_home_walks_pages() {
        let mut s = space();
        let a = s.malloc(4 * PAGE_BYTES, BlockHint::Line, HomeHint::RoundRobin).unwrap();
        let h0 = s.home_of(a);
        let h1 = s.home_of(a + PAGE_BYTES);
        assert_eq!((h0 + 1) % 4, h1);
    }

    #[test]
    fn explicit_home_applies_everywhere() {
        let mut s = space();
        let a = s.malloc(4 * PAGE_BYTES, BlockHint::Line, HomeHint::Explicit(2)).unwrap();
        assert_eq!(s.home_of(a), 2);
        assert_eq!(s.home_of(a + 3 * PAGE_BYTES), 2);
    }

    #[test]
    fn alloc_errors() {
        let mut s = space();
        assert_eq!(s.malloc(0, BlockHint::Auto, HomeHint::RoundRobin), Err(AllocError::ZeroSize));
        assert_eq!(
            s.malloc(8, BlockHint::Auto, HomeHint::Explicit(9)),
            Err(AllocError::BadHome { home: 9, procs: 4 })
        );
        assert!(matches!(
            s.malloc(1 << 21, BlockHint::Line, HomeHint::RoundRobin),
            Err(AllocError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn site_labels_round_trip() {
        let mut s = space();
        let a = s.malloc_labeled(128, BlockHint::Line, HomeHint::RoundRobin, "bodies").unwrap();
        let b = s.malloc(64, BlockHint::Line, HomeHint::RoundRobin).unwrap();
        assert_eq!(s.site_label_of(a), Some("bodies"));
        assert_eq!(s.site_label_of(a + 127), Some("bodies"));
        assert_eq!(s.site_label_of(b), Some("anon"));
        assert_eq!(s.site_label_of(HEAP_BASE - 1), None);
        let labels: Vec<&str> = s.labeled_allocations().map(|(_, l)| l).collect();
        assert_eq!(labels, vec!["bodies", "anon"]);
    }

    #[test]
    fn hint_overrides_replace_caller_hints_for_matching_labels_only() {
        let mut s = space();
        s.set_hint_overrides(
            [("bodies".to_string(), 512u64), ("anon".to_string(), 512)].into_iter().collect(),
        );
        let a = s.malloc_labeled(1_024, BlockHint::Line, HomeHint::RoundRobin, "bodies").unwrap();
        assert_eq!(s.block_of(a).unwrap().len, 512, "override replaces the caller's hint");
        let b =
            s.malloc_labeled(1_024, BlockHint::Bytes(256), HomeHint::RoundRobin, "other").unwrap();
        assert_eq!(s.block_of(b).unwrap().len, 256, "unlisted labels keep their hint");
        let c = s.malloc(1_024, BlockHint::Line, HomeHint::RoundRobin).unwrap();
        assert_eq!(s.block_of(c).unwrap().len, 64, "anonymous allocations are never overridden");
    }

    #[test]
    fn oversized_hints_and_sizes_are_errors_not_overflows() {
        let mut s = space();
        s.set_hint_overrides([("huge".to_string(), u64::MAX)].into_iter().collect());
        assert!(matches!(
            s.malloc_labeled(64, BlockHint::Line, HomeHint::RoundRobin, "huge"),
            Err(AllocError::OutOfMemory { requested: 64, .. })
        ));
        assert!(matches!(
            s.malloc(u64::MAX, BlockHint::Line, HomeHint::RoundRobin),
            Err(AllocError::OutOfMemory { .. })
        ));
        // A failed allocation leaves the heap usable.
        let a = s.malloc(64, BlockHint::Line, HomeHint::RoundRobin).unwrap();
        assert_eq!(s.block_of(a).unwrap().len, 64);
    }

    #[test]
    fn is_shared_range() {
        let s = space();
        assert!(!s.is_shared(0));
        assert!(!s.is_shared(HEAP_BASE - 1));
        assert!(s.is_shared(HEAP_BASE));
        assert!(!s.is_shared(1 << 20));
    }

    #[test]
    fn allocation_lookup_boundaries() {
        let mut s = space();
        let a = s.malloc(64, BlockHint::Line, HomeHint::RoundRobin).unwrap();
        assert!(s.allocation_of(a).is_some());
        assert!(s.allocation_of(a + 63).is_some());
        assert!(s.allocation_of(a + 64).is_none());
        assert!(s.allocation_of(HEAP_BASE - 1).is_none());
    }

    #[test]
    fn line_math() {
        let s = space();
        assert_eq!(s.line_of(0), 0);
        assert_eq!(s.line_of(63), 0);
        assert_eq!(s.line_of(64), 1);
        assert_eq!(s.heap_lines(), (1 << 20) / 64);
    }
}
