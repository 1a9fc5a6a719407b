//! The simulated memory of the execution engine.
//!
//! A flat, byte-addressed 32-bit address space (matching the ILP32 layout
//! the type system assumes): address 0 is null, a low window holds
//! synthetic *function addresses* (so function pointers are ordinary
//! pointers), globals follow, and the rest is a heap served by a bump
//! allocator with a first-fit free list. `alloca` storage comes from the
//! same allocator and is released when its frame returns.
//!
//! Every access is tested against one window first (`Memory::in_window`):
//! at or past the end of the function window and inside the bytes memory
//! already has. An access in it is plainly data, and nothing more is
//! checked; every other access takes the out-of-line checks, which trap
//! or grow memory.

use crate::error::{ExecError, TrapKind};
use crate::value::VmValue;
use lpat_core::IntKind;

/// Base address of the synthetic function-address window.
pub const FUNC_BASE: u32 = 0x10;
/// Each function occupies this many synthetic bytes.
pub const FUNC_STRIDE: u32 = 4;

/// Allocator traffic counters. Maintained unconditionally (plain integer
/// adds, far cheaper than any conditional would save) and folded into the
/// trace/metrics layer at run end by `Vm::flush_trace`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Successful [`Memory::alloc`] calls (including free-list reuse).
    pub allocs: u64,
    /// Successful [`Memory::release`] calls.
    pub frees: u64,
    /// Free-list merges performed by [`Memory::release`] (predecessor and
    /// successor merges count separately).
    pub coalesces: u64,
    /// Highest break observed, in bytes.
    pub peak_bytes: u64,
}

/// Simulated memory.
pub struct Memory {
    bytes: Vec<u8>,
    limit: u32,
    brk: u32,
    /// First-fit free list of `(addr, size)`, kept sorted by address and
    /// maximally coalesced: no two entries are adjacent.
    free: Vec<(u32, u32)>,
    /// Live heap allocations (`addr -> size`) for `free` validation.
    live: std::collections::HashMap<u32, u32>,
    /// Number of functions (for function-pointer decoding).
    n_funcs: u32,
    /// End of the function window: the lowest address of the data window.
    data_lo: u32,
    /// Allocator traffic counters.
    stats: HeapStats,
}

impl Memory {
    /// Create a memory with the given byte limit, with the allocation
    /// cursor placed after the function window for `n_funcs` functions.
    pub fn new(limit: u32, n_funcs: u32) -> Memory {
        let data_lo = FUNC_BASE + n_funcs * FUNC_STRIDE;
        let brk = align8(data_lo);
        Memory {
            bytes: vec![0; 4096.min(limit) as usize],
            limit,
            brk,
            free: Vec::new(),
            live: std::collections::HashMap::new(),
            n_funcs,
            data_lo,
            stats: HeapStats {
                peak_bytes: brk as u64,
                ..HeapStats::default()
            },
        }
    }

    /// The synthetic address of function `idx`.
    pub fn func_addr(idx: usize) -> u32 {
        FUNC_BASE + idx as u32 * FUNC_STRIDE
    }

    /// Decode a pointer into a function index if it falls in the function
    /// window.
    pub fn addr_to_func(&self, addr: u32) -> Option<usize> {
        if addr >= FUNC_BASE && addr < FUNC_BASE + self.n_funcs * FUNC_STRIDE {
            let off = addr - FUNC_BASE;
            if off.is_multiple_of(FUNC_STRIDE) {
                return Some((off / FUNC_STRIDE) as usize);
            }
        }
        None
    }

    fn ensure(&mut self, end: u32) -> Result<(), ExecError> {
        if end > self.limit {
            return Err(ExecError::trap(
                TrapKind::OutOfMemory,
                "address space exhausted",
            ));
        }
        if end as usize > self.bytes.len() {
            let new_len = (end as usize).next_power_of_two().min(self.limit as usize);
            self.bytes.resize(new_len, 0);
        }
        Ok(())
    }

    /// Allocate `size` bytes (8-byte aligned). `size == 0` allocates 8.
    pub fn alloc(&mut self, size: u32) -> Result<u32, ExecError> {
        let size = align8(size.max(1));
        // First fit. Splitting in place (or removing in place) keeps the
        // list address-sorted, which coalescing in `release` relies on.
        if let Some(pos) = self.free.iter().position(|&(_, s)| s >= size) {
            let (addr, s) = self.free[pos];
            if s > size {
                self.free[pos] = (addr + size, s - size);
            } else {
                self.free.remove(pos);
            }
            self.live.insert(addr, size);
            self.stats.allocs += 1;
            return Ok(addr);
        }
        let addr = self.brk;
        let end = addr
            .checked_add(size)
            .ok_or_else(|| ExecError::trap(TrapKind::OutOfMemory, "address wraparound"))?;
        self.ensure(end)?;
        self.brk = end;
        self.live.insert(addr, size);
        self.stats.allocs += 1;
        self.stats.peak_bytes = self.stats.peak_bytes.max(end as u64);
        Ok(addr)
    }

    /// Release an allocation made by [`Memory::alloc`], coalescing the
    /// freed block with adjacent free neighbors so interleaved
    /// alloc/free churn cannot shatter the heap into unusable slivers.
    ///
    /// # Errors
    ///
    /// Traps on double free or a pointer that is not an allocation start.
    pub fn release(&mut self, addr: u32) -> Result<(), ExecError> {
        let size = self.live.remove(&addr).ok_or_else(|| {
            ExecError::trap(
                TrapKind::BadFree,
                format!("free of non-allocated address {addr:#x}"),
            )
        })?;
        let pos = self.free.partition_point(|&(a, _)| a < addr);
        let mut start = addr;
        let mut end = addr + size;
        // Merge with the predecessor if it ends exactly at `start`...
        let mut remove_pred = false;
        if pos > 0 {
            let (pa, ps) = self.free[pos - 1];
            if pa + ps == start {
                start = pa;
                remove_pred = true;
            }
        }
        // ...and with the successor if it begins exactly at `end`.
        let mut remove_succ = false;
        if pos < self.free.len() {
            let (na, ns) = self.free[pos];
            if na == end {
                end = na + ns;
                remove_succ = true;
            }
        }
        if remove_succ {
            self.free.remove(pos);
            self.stats.coalesces += 1;
        }
        if remove_pred {
            self.free[pos - 1] = (start, end - start);
            self.stats.coalesces += 1;
        } else {
            self.free.insert(pos, (start, end - start));
        }
        self.stats.frees += 1;
        // A block ending at the break returns to the break entirely, so
        // a fully drained heap costs nothing.
        if let Some(&(a, s)) = self.free.last() {
            if a + s == self.brk {
                self.free.pop();
                self.brk = a;
            }
        }
        Ok(())
    }

    /// Number of distinct blocks on the free list — a fragmentation
    /// metric for tests; coalescing keeps it small.
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Whether `size` bytes at `addr` are plainly data: no byte below the
    /// end of the function window, none past the bytes memory has. At or
    /// above that end, these are exactly the accesses the checked path
    /// passes without growing memory: the window excludes null and every
    /// function address, its end cannot wrap (it is computed in `usize`),
    /// and memory never holds more than `limit` bytes.
    #[inline(always)]
    pub(crate) fn in_window(&self, addr: u32, size: u32) -> bool {
        addr >= self.data_lo && addr as usize + size as usize <= self.bytes.len()
    }

    /// The `N` bytes at `addr` when they are in the window, else `None`:
    /// the caller takes the checked path ([`Memory::read_bytes`] and the
    /// loads built on it).
    #[inline(always)]
    pub(crate) fn window<const N: usize>(&self, addr: u32) -> Option<&[u8; N]> {
        if !self.in_window(addr, N as u32) {
            return None;
        }
        self.bytes[addr as usize..].first_chunk()
    }

    /// [`Memory::window`] for a write.
    #[inline(always)]
    pub(crate) fn window_mut<const N: usize>(&mut self, addr: u32) -> Option<&mut [u8; N]> {
        if !self.in_window(addr, N as u32) {
            return None;
        }
        self.bytes[addr as usize..].first_chunk_mut()
    }

    #[inline(always)]
    fn check_range(&mut self, addr: u32, size: u32) -> Result<(), ExecError> {
        if self.in_window(addr, size) {
            return Ok(());
        }
        self.check_range_slow(addr, size)
    }

    /// Every access outside the window: null, a function address and
    /// wraparound trap; an end past the bytes memory has grows it, up to
    /// the limit (`OutOfMemory` beyond). Addresses 1–15 and unaligned
    /// addresses inside the function window are data.
    #[cold]
    #[inline(never)]
    fn check_range_slow(&mut self, addr: u32, size: u32) -> Result<(), ExecError> {
        if addr == 0 {
            return Err(ExecError::trap(TrapKind::NullAccess, "null dereference"));
        }
        if self.addr_to_func(addr).is_some() {
            return Err(ExecError::trap(
                TrapKind::BadAccess,
                "data access to a function address",
            ));
        }
        let end = addr
            .checked_add(size)
            .ok_or_else(|| ExecError::trap(TrapKind::BadAccess, "address wraparound"))?;
        self.ensure(end)
    }

    /// Read `size` bytes.
    pub fn read_bytes(&mut self, addr: u32, size: u32) -> Result<&[u8], ExecError> {
        self.check_range(addr, size)?;
        Ok(&self.bytes[addr as usize..(addr + size) as usize])
    }

    /// Write raw bytes.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) -> Result<(), ExecError> {
        self.check_range(addr, data.len() as u32)?;
        self.bytes[addr as usize..addr as usize + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Store a first-class value at `addr` (little-endian).
    pub fn store(&mut self, addr: u32, v: VmValue) -> Result<(), ExecError> {
        match v {
            VmValue::Bool(b) => self.write_bytes(addr, &[b as u8]),
            VmValue::Int { kind, v } => {
                let bytes = v.to_le_bytes();
                self.write_bytes(addr, &bytes[..kind.bytes() as usize])
            }
            VmValue::F32(f) => self.write_bytes(addr, &f.to_le_bytes()),
            VmValue::F64(f) => self.write_bytes(addr, &f.to_le_bytes()),
            VmValue::Ptr(p) => self.write_bytes(addr, &p.to_le_bytes()),
        }
    }

    /// Load a value of integer kind `kind`.
    pub fn load_int(&mut self, addr: u32, kind: IntKind) -> Result<VmValue, ExecError> {
        let n = kind.bytes() as usize;
        let b = self.read_bytes(addr, n as u32)?;
        let mut raw = [0u8; 8];
        raw[..n].copy_from_slice(b);
        Ok(VmValue::int(kind, i64::from_le_bytes(raw)))
    }

    /// Load a bool.
    pub fn load_bool(&mut self, addr: u32) -> Result<VmValue, ExecError> {
        let b = self.read_bytes(addr, 1)?;
        Ok(VmValue::Bool(b[0] != 0))
    }

    /// Load an `f32`.
    pub fn load_f32(&mut self, addr: u32) -> Result<VmValue, ExecError> {
        let b = self.read_bytes(addr, 4)?;
        Ok(VmValue::F32(f32::from_le_bytes([b[0], b[1], b[2], b[3]])))
    }

    /// Load an `f64`.
    pub fn load_f64(&mut self, addr: u32) -> Result<VmValue, ExecError> {
        let b = self.read_bytes(addr, 8)?;
        Ok(VmValue::F64(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ])))
    }

    /// Load a pointer.
    pub fn load_ptr(&mut self, addr: u32) -> Result<VmValue, ExecError> {
        let b = self.read_bytes(addr, 4)?;
        Ok(VmValue::Ptr(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
    }

    /// Read a NUL-terminated string (for I/O intrinsics).
    pub fn read_cstr(&mut self, addr: u32, max: u32) -> Result<Vec<u8>, ExecError> {
        let mut out = Vec::new();
        let mut a = addr;
        loop {
            let b = self.read_bytes(a, 1)?[0];
            if b == 0 {
                return Ok(out);
            }
            out.push(b);
            // A string butting against the top of the address space must
            // trap, not wrap around to scan from address 0.
            a = a.checked_add(1).ok_or_else(|| {
                ExecError::trap(TrapKind::BadAccess, "string runs off address space")
            })?;
            if out.len() as u32 >= max {
                return Ok(out);
            }
        }
    }

    /// Current break (for statistics).
    pub fn high_water(&self) -> u32 {
        self.brk
    }

    /// Allocator traffic counters accumulated so far.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }
}

fn align8(x: u32) -> u32 {
    (x + 7) & !7
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_reuse() {
        let mut m = Memory::new(1 << 20, 0);
        let a = m.alloc(16).unwrap();
        let b = m.alloc(16).unwrap();
        assert_ne!(a, b);
        m.release(a).unwrap();
        let c = m.alloc(8).unwrap();
        assert_eq!(c, a, "first-fit reuses the freed block");
        m.release(c).unwrap();
        assert!(m.release(c).is_err(), "double free traps");
    }

    #[test]
    fn store_load_roundtrip() {
        let mut m = Memory::new(1 << 20, 0);
        let a = m.alloc(64).unwrap();
        m.store(a, VmValue::int(IntKind::S32, -7)).unwrap();
        assert_eq!(m.load_int(a, IntKind::S32).unwrap().as_i64(), Some(-7));
        m.store(a + 8, VmValue::F64(2.5)).unwrap();
        assert_eq!(m.load_f64(a + 8).unwrap(), VmValue::F64(2.5));
        m.store(a + 16, VmValue::Ptr(a)).unwrap();
        assert_eq!(m.load_ptr(a + 16).unwrap(), VmValue::Ptr(a));
        m.store(a + 20, VmValue::Bool(true)).unwrap();
        assert_eq!(m.load_bool(a + 20).unwrap(), VmValue::Bool(true));
    }

    #[test]
    fn null_and_function_window_trap() {
        let mut m = Memory::new(1 << 20, 2);
        assert!(m.store(0, VmValue::Bool(true)).is_err());
        let fa = Memory::func_addr(1);
        assert_eq!(m.addr_to_func(fa), Some(1));
        assert!(m.load_int(fa, IntKind::S32).is_err());
    }

    #[test]
    fn out_of_memory_traps() {
        let mut m = Memory::new(4096, 0);
        assert!(m.alloc(1 << 20).is_err());
    }

    #[test]
    fn coalescing_defeats_fragmentation() {
        // Regression: before coalescing, freeing N small blocks left N
        // slivers none of which could serve one large request, forcing
        // break growth on a heap that is entirely free.
        let mut m = Memory::new(1 << 20, 0);
        let blocks: Vec<u32> = (0..64).map(|_| m.alloc(16).unwrap()).collect();
        let high = m.high_water();
        // Free every other block first, then the rest — maximally
        // interleaved order, worst case for a non-coalescing list.
        for &b in blocks.iter().step_by(2) {
            m.release(b).unwrap();
        }
        for &b in blocks.iter().skip(1).step_by(2) {
            m.release(b).unwrap();
        }
        assert_eq!(
            m.free_blocks(),
            0,
            "fully drained heap coalesces into the break"
        );
        let big = m.alloc(64 * 16).unwrap();
        assert_eq!(big, blocks[0], "large request reuses the freed span");
        assert_eq!(m.high_water(), high, "no break growth on a free heap");
    }

    #[test]
    fn coalescing_merges_neighbors_in_both_orders() {
        let mut m = Memory::new(1 << 20, 0);
        let a = m.alloc(16).unwrap();
        let b = m.alloc(16).unwrap();
        let c = m.alloc(16).unwrap();
        let _hold = m.alloc(16).unwrap(); // keeps the span off the break
        m.release(a).unwrap();
        m.release(c).unwrap();
        assert_eq!(m.free_blocks(), 2, "a and c are not adjacent");
        m.release(b).unwrap();
        assert_eq!(m.free_blocks(), 1, "freeing b merges a+b+c");
        assert_eq!(m.alloc(48).unwrap(), a, "merged span serves 3x request");
    }

    #[test]
    fn heap_stats_count_traffic() {
        let mut m = Memory::new(1 << 20, 0);
        let a = m.alloc(16).unwrap();
        let b = m.alloc(16).unwrap();
        let c = m.alloc(16).unwrap();
        let _hold = m.alloc(16).unwrap();
        m.release(a).unwrap();
        m.release(c).unwrap();
        m.release(b).unwrap(); // merges with both neighbors
        let s = m.stats();
        assert_eq!(s.allocs, 4);
        assert_eq!(s.frees, 3);
        assert_eq!(s.coalesces, 2, "b merged into predecessor and successor");
        assert_eq!(s.peak_bytes, m.high_water() as u64);
        assert!(m.release(a).is_err());
        assert_eq!(m.stats().frees, 3, "failed free not counted");
    }

    #[test]
    fn cstr_at_address_space_top_traps_instead_of_wrapping() {
        let mut m = Memory::new(4096, 0);
        let a = m.alloc(16).unwrap();
        m.write_bytes(a, b"hi\0").unwrap();
        assert_eq!(m.read_cstr(a, 64).unwrap(), b"hi");
        // A scan that would run past the top of the 32-bit space must
        // come back as a trap, never wrap to address 0 or panic.
        assert!(m.read_cstr(u32::MAX - 2, 64).is_err());
        assert!(m.read_cstr(u32::MAX, 64).is_err());
    }

    /// The window admits an access only when the checks behind it pass
    /// it without growing memory, and admits every such access at or
    /// above `data_lo`: swept around 0, `data_lo`, the current length,
    /// the limit and `u32::MAX`, at every access width, on a fresh memory
    /// and on one grown to its limit.
    #[test]
    fn the_window_admits_exactly_the_data_the_checks_pass_in_place() {
        let fresh = || Memory::new(1 << 16, 3);
        let grown = || {
            let mut m = Memory::new(1 << 16, 3);
            m.read_bytes((1 << 16) - 1, 1).unwrap();
            m
        };
        let data_lo = fresh().data_lo;
        assert_eq!(data_lo, Memory::func_addr(3));
        for make in [&fresh as &dyn Fn() -> Memory, &grown] {
            let len = make().bytes.len() as u32;
            let mut probes = Vec::new();
            for centre in [0, data_lo, len, 1 << 16, u32::MAX] {
                for d in -9i64..=9 {
                    if let Ok(a) = u32::try_from(centre as i64 + d) {
                        probes.push(a);
                    }
                }
            }
            for addr in probes {
                for size in [1, 2, 4, 8] {
                    let mut m = make();
                    let admitted = m.in_window(addr, size);
                    let windowed = match size {
                        1 => m.window::<1>(addr).is_some(),
                        2 => m.window::<2>(addr).is_some(),
                        4 => m.window::<4>(addr).is_some(),
                        _ => m.window::<8>(addr).is_some(),
                    };
                    assert_eq!(windowed, admitted, "{addr:#x}+{size}: one predicate");
                    let passed = m.check_range_slow(addr, size).is_ok();
                    let in_place = passed && m.bytes.len() as u32 == len;
                    assert_eq!(
                        admitted,
                        in_place && addr >= data_lo,
                        "{addr:#x}+{size} (length {len:#x})"
                    );
                }
            }
        }
    }
}
