//! Simulated host and device address spaces.
//!
//! Unlike a pure timing model, allocations here carry **real byte
//! contents**: the feed-forward model's stage 3 hashes transferred payloads
//! to find duplicate transfers, so the data flowing through the simulated
//! machine must be genuine. Host accesses optionally notify a registered
//! observer, which is how the instrumentation layer implements load/store
//! tracing of GPU-writable address ranges.
//!
//! Contents stay byte-accurate, but backing is lazy: an allocation holds
//! no bytes until its first write (or non-zero fill) materializes all of
//! it at once, zeroed. Until then it reads as zeros, so an application
//! that allocates scratch buffers it never touches (cumf_als' 8 MiB
//! malloc/free loop) pays nothing for them.

use std::collections::BTreeMap;

use crate::stack::SourceLoc;

/// A simulated host virtual address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostPtr(pub u64);

/// A simulated device virtual address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DevPtr(pub u64);

impl HostPtr {
    /// Pointer `bytes` past this one.
    pub fn offset(self, bytes: u64) -> HostPtr {
        HostPtr(self.0 + bytes)
    }
}

impl DevPtr {
    /// Pointer `bytes` past this one.
    pub fn offset(self, bytes: u64) -> DevPtr {
        DevPtr(self.0 + bytes)
    }
}

/// How a host allocation was obtained; drives conditional-synchronization
/// behaviour in the driver (async D2H copies into pageable memory secretly
/// synchronize, unified memory makes `cuMemsetD8` synchronize, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostAllocKind {
    /// Ordinary `malloc`-style pageable memory.
    Pageable,
    /// Page-locked memory from `cuMemAllocHost`.
    Pinned,
    /// Unified (managed) memory from `cuMemAllocManaged`, addressable from
    /// both processors.
    Unified,
}

/// Error type for the simulated address spaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Address does not fall inside any live allocation.
    Unmapped { addr: u64 },
    /// Access runs past the end of its allocation.
    OutOfBounds { addr: u64, len: u64, alloc_size: u64 },
    /// Freeing a pointer that is not an allocation base.
    BadFree { addr: u64 },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::Unmapped { addr } => write!(f, "unmapped address {addr:#x}"),
            MemError::OutOfBounds { addr, len, alloc_size } => write!(
                f,
                "access of {len} bytes at {addr:#x} overruns allocation of {alloc_size} bytes"
            ),
            MemError::BadFree { addr } => write!(f, "free of non-base address {addr:#x}"),
        }
    }
}

impl std::error::Error for MemError {}

/// One live allocation in an address space.
#[derive(Debug, Clone)]
struct Alloc {
    base: u64,
    /// Logical size in bytes; what bounds checks and accounting use.
    size: u64,
    /// Backing bytes: empty while untouched (reads as zeros), otherwise
    /// exactly `size` bytes.
    data: Vec<u8>,
    kind: HostAllocKind,
}

impl Alloc {
    /// Offsets `[off, end)` of an access of `len` bytes at `addr`, which
    /// lies inside this allocation, or `OutOfBounds` if it runs past the
    /// end (overflowing lengths included).
    fn span(&self, addr: u64, len: u64) -> Result<std::ops::Range<usize>, MemError> {
        let off = addr - self.base;
        match off.checked_add(len) {
            Some(end) if end <= self.size => Ok(off as usize..end as usize),
            _ => Err(MemError::OutOfBounds { addr, len, alloc_size: self.size }),
        }
    }

    /// Back the whole allocation if it is still untouched; returns the
    /// number of bytes newly backed.
    fn materialize(&mut self) -> u64 {
        if !self.data.is_empty() {
            return 0;
        }
        self.data = vec![0u8; self.size as usize];
        self.size
    }
}

/// Whether an observed host access was a read or a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    Read,
    Write,
}

/// A host memory access, as reported to the access observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    pub addr: u64,
    pub len: u64,
    pub kind: AccessKind,
    /// The "instruction" performing the access: a source location standing
    /// in for an instruction address in the instrumented binary.
    pub site: SourceLoc,
}

/// A half-open address range `[start, end)` in the host space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Range {
    pub start: u64,
    pub end: u64,
}

impl Range {
    /// `[start, start + len)`, clamped to end at `u64::MAX` if it would
    /// run past the end of the address space.
    pub fn new(start: u64, len: u64) -> Self {
        Self { start, end: start.saturating_add(len) }
    }

    /// Whether an access of `len` bytes at `addr` touches this range. An
    /// access running past the end of the address space covers every
    /// address from `addr` up.
    pub fn overlaps(&self, addr: u64, len: u64) -> bool {
        addr < self.end && addr.checked_add(len).is_none_or(|end| end > self.start)
    }
}

/// An address space with byte-accurate contents.
///
/// Both the host and device spaces use this structure; the host space
/// additionally reports accesses to an observer (installed by the
/// instrumentation layer) and tracks allocation kinds.
#[derive(Debug, Default)]
pub struct AddressSpace {
    /// Live allocations keyed by base address.
    allocs: BTreeMap<u64, Alloc>,
    /// Bump allocator cursor. Address 0 is never handed out so it can act
    /// as a null pointer.
    next: u64,
    /// Total bytes currently allocated.
    live_bytes: u64,
    /// Monotonically increasing count of allocations ever made.
    total_allocs: u64,
    /// Monotonically increasing count of bytes ever backed.
    materialized_bytes: u64,
}

impl AddressSpace {
    /// An empty address space whose first allocation lands at `base`.
    pub fn new(base: u64) -> Self {
        Self {
            allocs: BTreeMap::new(),
            next: base.max(0x1000),
            live_bytes: 0,
            total_allocs: 0,
            materialized_bytes: 0,
        }
    }

    /// Allocate `size` zeroed bytes of the given kind, returning the base
    /// address. Allocations are padded to 256-byte alignment so distinct
    /// allocations never share a "page". No bytes are backed until the
    /// first write.
    pub fn alloc(&mut self, size: u64, kind: HostAllocKind) -> u64 {
        let base = self.next;
        let size = size.max(1);
        let padded = size.div_ceil(256) * 256;
        self.next += padded + 256;
        self.allocs.insert(base, Alloc { base, size, data: Vec::new(), kind });
        self.live_bytes += size;
        self.total_allocs += 1;
        base
    }

    /// Release the allocation based at `addr`.
    pub fn free(&mut self, addr: u64) -> Result<(), MemError> {
        match self.allocs.remove(&addr) {
            Some(a) => {
                self.live_bytes -= a.size;
                Ok(())
            }
            None => Err(MemError::BadFree { addr }),
        }
    }

    /// The allocation containing `addr`, if any.
    fn containing(&self, addr: u64) -> Option<&Alloc> {
        self.allocs.range(..=addr).next_back().map(|(_, a)| a).filter(|a| addr < a.base + a.size)
    }

    fn containing_mut(&mut self, addr: u64) -> Option<&mut Alloc> {
        self.allocs
            .range_mut(..=addr)
            .next_back()
            .map(|(_, a)| a)
            .filter(|a| addr < a.base + a.size)
    }

    /// Kind of the allocation containing `addr`.
    pub fn kind_of(&self, addr: u64) -> Option<HostAllocKind> {
        self.containing(addr).map(|a| a.kind)
    }

    /// Change the kind of the allocation containing `addr` (page-locking
    /// existing memory, as `cudaHostRegister` does).
    pub fn set_kind(&mut self, addr: u64, kind: HostAllocKind) -> Result<(), MemError> {
        match self.containing_mut(addr) {
            Some(a) => {
                a.kind = kind;
                Ok(())
            }
            None => Err(MemError::Unmapped { addr }),
        }
    }

    /// Size of the allocation based exactly at `addr`.
    pub fn size_of(&self, addr: u64) -> Option<u64> {
        self.allocs.get(&addr).map(|a| a.size)
    }

    /// Whether `addr` is inside a live allocation.
    pub fn is_mapped(&self, addr: u64) -> bool {
        self.containing(addr).is_some()
    }

    /// Copy `len` bytes starting at `addr` out of the space. Reading an
    /// untouched allocation returns zeros without backing it.
    pub fn read(&self, addr: u64, len: u64) -> Result<Vec<u8>, MemError> {
        let a = self.containing(addr).ok_or(MemError::Unmapped { addr })?;
        let span = a.span(addr, len)?;
        if a.data.is_empty() {
            return Ok(vec![0u8; span.len()]);
        }
        Ok(a.data[span].to_vec())
    }

    /// Write `bytes` into the space at `addr`, backing the allocation if
    /// this is its first write.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemError> {
        let a = self.containing_mut(addr).ok_or(MemError::Unmapped { addr })?;
        let span = a.span(addr, bytes.len() as u64)?;
        let backed = a.materialize();
        a.data[span].copy_from_slice(bytes);
        self.materialized_bytes += backed;
        Ok(())
    }

    /// Fill `len` bytes at `addr` with `value`. Zero-filling an untouched
    /// allocation leaves it untouched; any other fill backs it.
    pub fn fill(&mut self, addr: u64, len: u64, value: u8) -> Result<(), MemError> {
        let a = self.containing_mut(addr).ok_or(MemError::Unmapped { addr })?;
        let span = a.span(addr, len)?;
        if value == 0 && a.data.is_empty() {
            return Ok(());
        }
        let backed = a.materialize();
        a.data[span].fill(value);
        self.materialized_bytes += backed;
        Ok(())
    }

    /// Bytes currently allocated.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Number of live allocations.
    pub fn live_allocs(&self) -> usize {
        self.allocs.len()
    }

    /// Number of allocations ever made.
    pub fn total_allocs(&self) -> u64 {
        self.total_allocs
    }

    /// Bytes ever backed by real memory: the sum of the sizes of every
    /// allocation that has been written (or filled with a non-zero value).
    /// Monotone; freeing does not lower it.
    pub fn materialized_bytes(&self) -> u64 {
        self.materialized_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut m = AddressSpace::new(0x10_000);
        let p = m.alloc(64, HostAllocKind::Pageable);
        m.write(p, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.read(p, 4).unwrap(), vec![1, 2, 3, 4]);
        // interior write
        m.write(p + 60, &[9, 9, 9, 9]).unwrap();
        assert_eq!(m.read(p + 60, 4).unwrap(), vec![9, 9, 9, 9]);
    }

    #[test]
    fn fresh_allocations_are_zeroed() {
        let mut m = AddressSpace::new(0x10_000);
        let p = m.alloc(16, HostAllocKind::Pinned);
        assert_eq!(m.read(p, 16).unwrap(), vec![0u8; 16]);
    }

    #[test]
    fn out_of_bounds_and_unmapped_are_errors() {
        let mut m = AddressSpace::new(0x10_000);
        let p = m.alloc(8, HostAllocKind::Pageable);
        assert!(matches!(m.read(p, 9), Err(MemError::OutOfBounds { .. })));
        assert!(matches!(m.read(0xdead_beef, 1), Err(MemError::Unmapped { .. })));
        assert!(matches!(m.write(p + 7, &[0, 0]), Err(MemError::OutOfBounds { .. })));
    }

    #[test]
    fn free_releases_and_rejects_non_base() {
        let mut m = AddressSpace::new(0x10_000);
        let p = m.alloc(32, HostAllocKind::Pageable);
        assert!(matches!(m.free(p + 1), Err(MemError::BadFree { .. })));
        m.free(p).unwrap();
        assert!(!m.is_mapped(p));
        assert_eq!(m.live_bytes(), 0);
        assert_eq!(m.total_allocs(), 1);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut m = AddressSpace::new(0x10_000);
        let a = m.alloc(100, HostAllocKind::Pageable);
        let b = m.alloc(100, HostAllocKind::Pageable);
        assert!(b >= a + 100);
        m.write(a, &[7u8; 100]).unwrap();
        assert_eq!(m.read(b, 100).unwrap(), vec![0u8; 100]);
    }

    #[test]
    fn kind_is_tracked_per_allocation() {
        let mut m = AddressSpace::new(0x10_000);
        let a = m.alloc(8, HostAllocKind::Pinned);
        let b = m.alloc(8, HostAllocKind::Unified);
        assert_eq!(m.kind_of(a), Some(HostAllocKind::Pinned));
        assert_eq!(m.kind_of(b + 4), Some(HostAllocKind::Unified));
        assert_eq!(m.kind_of(1), None);
    }

    #[test]
    fn fill_sets_contents() {
        let mut m = AddressSpace::new(0x10_000);
        let p = m.alloc(10, HostAllocKind::Pageable);
        m.fill(p + 2, 4, 0xAB).unwrap();
        assert_eq!(m.read(p, 10).unwrap(), vec![0, 0, 0xAB, 0xAB, 0xAB, 0xAB, 0, 0, 0, 0]);
    }

    #[test]
    fn set_kind_repins_an_allocation() {
        let mut m = AddressSpace::new(0x10_000);
        let p = m.alloc(64, HostAllocKind::Pageable);
        m.set_kind(p, HostAllocKind::Pinned).unwrap();
        assert_eq!(m.kind_of(p + 10), Some(HostAllocKind::Pinned));
        assert!(m.set_kind(0xdead, HostAllocKind::Pinned).is_err());
    }

    #[test]
    fn range_overlap_logic() {
        let r = Range::new(100, 50);
        assert!(r.overlaps(100, 1));
        assert!(r.overlaps(149, 1));
        assert!(!r.overlaps(150, 1));
        assert!(r.overlaps(90, 20));
        assert!(!r.overlaps(90, 10));
    }

    #[test]
    fn oversized_read_fails_closed() {
        let mut m = AddressSpace::new(0x10_000);
        let p = m.alloc(64, HostAllocKind::Pageable);
        for len in [u64::MAX, u64::MAX - 1, u64::MAX - 63] {
            assert_eq!(
                m.read(p + 1, len),
                Err(MemError::OutOfBounds { addr: p + 1, len, alloc_size: 64 })
            );
        }
        assert_eq!(m.materialized_bytes(), 0);
    }

    #[test]
    fn oversized_write_fails_closed() {
        let mut m = AddressSpace::new(0x10_000);
        let p = m.alloc(64, HostAllocKind::Pageable);
        assert_eq!(
            m.write(p + 63, &[1, 2]),
            Err(MemError::OutOfBounds { addr: p + 63, len: 2, alloc_size: 64 })
        );
        assert_eq!(m.materialized_bytes(), 0, "a rejected write must not back the allocation");
        assert_eq!(m.read(p, 64).unwrap(), vec![0u8; 64]);
    }

    #[test]
    fn oversized_fill_fails_closed() {
        let mut m = AddressSpace::new(0x10_000);
        let p = m.alloc(64, HostAllocKind::Pageable);
        for value in [0, 0xAB] {
            assert_eq!(
                m.fill(p + 1, u64::MAX, value),
                Err(MemError::OutOfBounds { addr: p + 1, len: u64::MAX, alloc_size: 64 })
            );
        }
        assert_eq!(m.materialized_bytes(), 0);
    }

    #[test]
    fn oversized_ranges_clamp_to_the_address_space_end() {
        let r = Range::new(u64::MAX - 10, 100);
        assert_eq!(r.end, u64::MAX);
        assert!(r.overlaps(u64::MAX - 5, 1));
        // An access that would run past the end covers everything from
        // its start up, so it overlaps a range above it...
        assert!(Range::new(100, 50).overlaps(120, u64::MAX));
        assert!(Range::new(100, 50).overlaps(0, u64::MAX));
        // ...but never one that ends before it starts.
        assert!(!Range::new(100, 50).overlaps(150, u64::MAX));
    }

    #[test]
    fn untouched_allocation_is_never_materialized() {
        let mut m = AddressSpace::new(0x10_000);
        let p = m.alloc(8 << 20, HostAllocKind::Pageable);
        assert_eq!(m.live_bytes(), 8 << 20);
        m.free(p).unwrap();
        assert_eq!(m.materialized_bytes(), 0);
    }

    #[test]
    fn zero_fill_of_untouched_allocation_does_not_materialize() {
        let mut m = AddressSpace::new(0x10_000);
        let p = m.alloc(4096, HostAllocKind::Pageable);
        m.fill(p, 4096, 0).unwrap();
        m.fill(p + 10, 20, 0).unwrap();
        assert_eq!(m.materialized_bytes(), 0);
        assert_eq!(m.read(p, 4096).unwrap(), vec![0u8; 4096]);
    }

    #[test]
    fn first_write_materializes_the_whole_allocation() {
        let mut m = AddressSpace::new(0x10_000);
        let p = m.alloc(4096, HostAllocKind::Pageable);
        m.write(p + 100, &[7]).unwrap();
        assert_eq!(m.materialized_bytes(), 4096);
        // Later writes and fills reuse the backing; the total is monotone.
        m.write(p, &[1, 2, 3]).unwrap();
        m.fill(p + 200, 8, 0xFF).unwrap();
        m.free(p).unwrap();
        assert_eq!(m.materialized_bytes(), 4096);
        // A non-zero fill backs an untouched allocation too.
        let q = m.alloc(100, HostAllocKind::Pageable);
        m.fill(q, 1, 1).unwrap();
        assert_eq!(m.materialized_bytes(), 4196);
    }

    #[test]
    fn reading_untouched_allocation_returns_zeros_without_materializing() {
        let mut m = AddressSpace::new(0x10_000);
        let p = m.alloc(1000, HostAllocKind::Pageable);
        assert_eq!(m.read(p + 10, 990).unwrap(), vec![0u8; 990]);
        assert_eq!(m.read(p + 999, 0).unwrap(), Vec::<u8>::new());
        assert_eq!(m.materialized_bytes(), 0);
    }

    #[test]
    fn zero_fill_after_materialization_clears_bytes() {
        let mut m = AddressSpace::new(0x10_000);
        let p = m.alloc(8, HostAllocKind::Pageable);
        m.write(p, &[9u8; 8]).unwrap();
        m.fill(p + 2, 4, 0).unwrap();
        assert_eq!(m.read(p, 8).unwrap(), vec![9, 9, 0, 0, 0, 0, 9, 9]);
    }
}
