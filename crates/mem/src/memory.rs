//! Byte-addressed main memory, backed by pages allocated on first write.

use std::fmt;

/// A rejected memory access.
///
/// The simulator's run path uses the fallible `try_*` accessors so that a
/// program computing a wild address (or fault-injected into one) terminates
/// with a typed error instead of panicking the process; the infallible
/// accessors remain for workload setup, where a bad address is a harness
/// bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The address is not naturally aligned for the access width.
    Misaligned {
        /// Offending address.
        addr: u32,
        /// Access width in bytes.
        len: u32,
    },
    /// The access extends beyond the configured memory size.
    OutOfBounds {
        /// Offending address.
        addr: u32,
        /// Access width in bytes.
        len: u32,
        /// Configured memory size in bytes.
        size: usize,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Misaligned { addr, len } => {
                write!(f, "misaligned {len}-byte access at {addr:#010x}")
            }
            MemError::OutOfBounds { addr, len, size } => {
                write!(
                    f,
                    "{len}-byte access at {addr:#010x} beyond memory size {size:#x}"
                )
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Bytes per page of [`Memory`]'s backing: a power of two of at least 8,
/// so no naturally aligned access straddles two pages.
const PAGE_BYTES: usize = 4096;
const _: () = assert!(PAGE_BYTES.is_power_of_two() && PAGE_BYTES >= 8);

/// What a page never written reads as.
static ZERO_PAGE: [u8; PAGE_BYTES] = [0; PAGE_BYTES];

/// Main memory: a little-endian byte array over a 32-bit address space.
///
/// Addresses are 32-bit as on the MultiTitan (Fig. 1 shows a 32-bit address
/// bus). The `try_*` accessors (the simulator's run path) reject a
/// misaligned or out-of-bounds access with a [`MemError`]; the infallible
/// set-up accessors panic with the offending address instead.
///
/// ```
/// use mt_mem::Memory;
/// let mut m = Memory::new(4096);
/// m.write_f64(16, 2.5);
/// assert_eq!(m.read_f64(16), 2.5);
/// ```
#[derive(Clone)]
pub struct Memory {
    /// Fixed-size pages, each allocated zeroed on its first write; `None`,
    /// or an index past the end of the table, reads as zeros. Simulations
    /// create many short-lived machines (one per kernel per sweep point)
    /// that write a few kilobytes each, so a machine pays only for the
    /// pages its run writes, and a clone copies only those.
    pages: Vec<Option<Box<[u8; PAGE_BYTES]>>>,
    /// One past the highest byte written (0 if nothing was).
    high_water: usize,
    /// Logical size in bytes — the address-space bound accesses are
    /// checked against, independent of how much backing exists.
    size: usize,
    /// Watched range `[start, end)` and the count of writes that touched
    /// it — lets the simulator prove its program text unmodified (any
    /// write path, including direct workload pokes, lands here).
    watch: (u32, u32),
    watch_writes: u64,
}

impl Memory {
    /// Creates `size` bytes of zeroed memory (backing allocated a page at
    /// a time, on first write).
    pub fn new(size: usize) -> Memory {
        Memory {
            pages: Vec::new(),
            high_water: 0,
            size,
            watch: (0, 0),
            watch_writes: 0,
        }
    }

    /// Starts counting writes that overlap `[start, end)` (replacing any
    /// previous watch). The simulator watches its text segment so fetches
    /// can trust the program's translation outright until a write lands
    /// there.
    pub fn watch_range(&mut self, start: u32, end: u32) {
        self.watch = (start, end);
        self.watch_writes = 0;
    }

    /// Number of writes that have touched the watched range: nonzero
    /// exactly when some write since [`Memory::watch_range`] overlapped it.
    pub fn watch_writes(&self) -> u64 {
        self.watch_writes
    }

    /// Returns the memory to its freshly-created all-zeros state — and
    /// clears any watch — dropping every page, so a long-lived worker (one
    /// `mt-serve` worker thread per core, each recycling its machine
    /// across arbitrary jobs) neither leaks one job's data into the next
    /// nor keeps a large job's backing.
    pub fn clear(&mut self) {
        *self = Memory::new(self.size);
    }

    /// Memory size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// One past the highest byte written since creation or the last
    /// [`Memory::clear`] (0 if nothing was written): how much memory the
    /// writes so far needed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Validates alignment and bounds without touching the data.
    #[inline]
    pub fn try_check(&self, addr: u32, len: u32) -> Result<(), MemError> {
        if !addr.is_multiple_of(len) {
            return Err(MemError::Misaligned { addr, len });
        }
        if (addr as usize + len as usize) > self.size {
            return Err(MemError::OutOfBounds {
                addr,
                len,
                size: self.size,
            });
        }
        Ok(())
    }

    #[track_caller]
    fn check(&self, addr: u32, len: u32) {
        if let Err(e) = self.try_check(addr, len) {
            panic!("{e}");
        }
    }

    /// Checks that `len` bytes from `addr` lie in memory, returning the
    /// range `[start, end)`. An empty range needs no room.
    #[track_caller]
    fn check_span(&self, addr: u32, len: usize) -> (usize, usize) {
        let start = addr as usize;
        let end = start.saturating_add(len);
        if len > 0 && end > self.size {
            panic!(
                "{}",
                MemError::OutOfBounds {
                    addr,
                    len: u32::try_from(len).unwrap_or(u32::MAX),
                    size: self.size,
                }
            );
        }
        (start, end)
    }

    /// [`Memory::check_span`] for `count` aligned doubles.
    #[track_caller]
    fn check_f64s(&self, addr: u32, count: usize) -> (usize, usize) {
        if count > 0 {
            self.check(addr, 8);
        }
        self.check_span(addr, count.saturating_mul(8))
    }

    /// The page holding byte `a`, or the zero page if it was never
    /// written.
    #[inline]
    fn page(&self, a: usize) -> &[u8; PAGE_BYTES] {
        match self.pages.get(a / PAGE_BYTES) {
            Some(Some(page)) => page,
            _ => &ZERO_PAGE,
        }
    }

    /// The page holding byte `a`, allocated zeroed if this is its first
    /// write (the table grows only as high as the highest page written).
    #[inline]
    fn page_mut(&mut self, a: usize) -> &mut [u8; PAGE_BYTES] {
        let i = a / PAGE_BYTES;
        if i >= self.pages.len() {
            self.pages.resize_with(i + 1, || None);
        }
        self.pages[i].get_or_insert_with(|| Box::new([0; PAGE_BYTES]))
    }

    /// Records a write of the non-empty range `[start, end)` for
    /// [`Memory::high_water`] and the watch.
    #[inline]
    fn note_write(&mut self, start: usize, end: usize) {
        if start < self.watch.1 as usize && end > self.watch.0 as usize {
            self.watch_writes += 1;
        }
        self.high_water = self.high_water.max(end);
    }

    /// Calls `f(done, piece)` for each page-bounded piece of the checked
    /// range `[start, end)` in address order, where `done` is the number
    /// of bytes before the piece.
    fn for_each_piece(&self, start: usize, end: usize, mut f: impl FnMut(usize, &[u8])) {
        let mut a = start;
        while a < end {
            let off = a % PAGE_BYTES;
            let n = (PAGE_BYTES - off).min(end - a);
            f(a - start, &self.page(a)[off..off + n]);
            a += n;
        }
    }

    /// [`Memory::for_each_piece`] for writing: allocates the pages the
    /// range covers and records the write. An empty range writes nothing.
    fn for_each_piece_mut(
        &mut self,
        start: usize,
        end: usize,
        mut f: impl FnMut(usize, &mut [u8]),
    ) {
        if start == end {
            return;
        }
        self.note_write(start, end);
        let mut a = start;
        while a < end {
            let off = a % PAGE_BYTES;
            let n = (PAGE_BYTES - off).min(end - a);
            f(a - start, &mut self.page_mut(a)[off..off + n]);
            a += n;
        }
    }

    /// Reads `N` bytes at `addr`; bytes never written are the zeros they
    /// have always been.
    #[track_caller]
    #[inline]
    fn read_n<const N: usize>(&self, addr: u32) -> [u8; N] {
        self.check(addr, N as u32);
        self.read_n_unchecked(addr)
    }

    /// [`Memory::read_n`] after a successful [`Memory::try_check`]: an
    /// aligned access lies in one page.
    #[inline]
    pub(crate) fn read_n_unchecked<const N: usize>(&self, addr: u32) -> [u8; N] {
        let a = addr as usize;
        let off = a % PAGE_BYTES;
        self.page(a)[off..off + N].try_into().unwrap()
    }

    /// Writes `N` bytes at `addr`, allocating its page on first write.
    #[track_caller]
    #[inline]
    fn write_n<const N: usize>(&mut self, addr: u32, data: [u8; N]) {
        self.check(addr, N as u32);
        self.write_n_unchecked(addr, data);
    }

    /// [`Memory::write_n`] after a successful [`Memory::try_check`].
    #[inline]
    pub(crate) fn write_n_unchecked<const N: usize>(&mut self, addr: u32, data: [u8; N]) {
        let a = addr as usize;
        self.note_write(a, a + N);
        self.put_back(addr, data);
    }

    /// Writes bytes at a checked address without counting the write: how
    /// a journal puts back what a journaled write replaced (the counters
    /// are restored with [`Memory::set_write_marks`]).
    #[inline]
    pub(crate) fn put_back<const N: usize>(&mut self, addr: u32, data: [u8; N]) {
        let a = addr as usize;
        let off = a % PAGE_BYTES;
        self.page_mut(a)[off..off + N].copy_from_slice(&data);
    }

    /// The write counters: [`Memory::high_water`] and
    /// [`Memory::watch_writes`].
    pub(crate) fn write_marks(&self) -> (usize, u64) {
        (self.high_water, self.watch_writes)
    }

    /// Restores counters taken by [`Memory::write_marks`].
    pub(crate) fn set_write_marks(&mut self, (high_water, watch_writes): (usize, u64)) {
        self.high_water = high_water;
        self.watch_writes = watch_writes;
    }

    /// Reads a 32-bit word.
    ///
    /// # Panics
    ///
    /// Panics on misaligned or out-of-bounds access.
    #[track_caller]
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        u32::from_le_bytes(self.read_n(addr))
    }

    /// Writes a 32-bit word.
    ///
    /// # Panics
    ///
    /// Panics on misaligned or out-of-bounds access.
    #[track_caller]
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        self.write_n(addr, value.to_le_bytes());
    }

    /// Reads a 64-bit word.
    ///
    /// # Panics
    ///
    /// Panics on misaligned or out-of-bounds access.
    #[track_caller]
    #[inline]
    pub fn read_u64(&self, addr: u32) -> u64 {
        u64::from_le_bytes(self.read_n(addr))
    }

    /// Writes a 64-bit word.
    ///
    /// # Panics
    ///
    /// Panics on misaligned or out-of-bounds access.
    #[track_caller]
    #[inline]
    pub fn write_u64(&mut self, addr: u32, value: u64) {
        self.write_n(addr, value.to_le_bytes());
    }

    /// Reads a 32-bit word, rejecting misaligned or out-of-bounds
    /// addresses with a typed error (the simulator's run path).
    #[inline]
    pub fn try_read_u32(&self, addr: u32) -> Result<u32, MemError> {
        self.try_check(addr, 4)?;
        Ok(u32::from_le_bytes(self.read_n_unchecked(addr)))
    }

    /// Writes a 32-bit word, rejecting bad addresses with a typed error.
    #[inline]
    pub fn try_write_u32(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        self.try_check(addr, 4)?;
        self.write_n_unchecked(addr, value.to_le_bytes());
        Ok(())
    }

    /// Reads a 64-bit word, rejecting bad addresses with a typed error.
    #[inline]
    pub fn try_read_u64(&self, addr: u32) -> Result<u64, MemError> {
        self.try_check(addr, 8)?;
        Ok(u64::from_le_bytes(self.read_n_unchecked(addr)))
    }

    /// Writes a 64-bit word, rejecting bad addresses with a typed error.
    #[inline]
    pub fn try_write_u64(&mut self, addr: u32, value: u64) -> Result<(), MemError> {
        self.try_check(addr, 8)?;
        self.write_n_unchecked(addr, value.to_le_bytes());
        Ok(())
    }

    /// Reads a double (bit pattern of [`Memory::read_u64`]).
    #[track_caller]
    pub fn read_f64(&self, addr: u32) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes a double.
    #[track_caller]
    pub fn write_f64(&mut self, addr: u32, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Copies `bytes` into memory from `addr`, with no alignment
    /// requirement (set-up: a program's data segments).
    ///
    /// # Panics
    ///
    /// Panics if the range extends beyond the memory size.
    #[track_caller]
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        let (start, end) = self.check_span(addr, bytes.len());
        self.for_each_piece_mut(start, end, |done, dst| {
            dst.copy_from_slice(&bytes[done..done + dst.len()]);
        });
    }

    /// Writes a slice of doubles starting at `addr` (a convenience for
    /// loading workload arrays).
    ///
    /// # Panics
    ///
    /// Panics, before writing anything, if `addr` is misaligned or the
    /// slice extends beyond the memory size.
    #[track_caller]
    pub fn write_f64_slice(&mut self, addr: u32, values: &[f64]) {
        let (start, end) = self.check_f64s(addr, values.len());
        self.for_each_piece_mut(start, end, |done, dst| {
            for (d, v) in dst.chunks_exact_mut(8).zip(&values[done / 8..]) {
                d.copy_from_slice(&v.to_bits().to_le_bytes());
            }
        });
    }

    /// Reads `count` doubles starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is misaligned or the range extends beyond the
    /// memory size.
    #[track_caller]
    pub fn read_f64_slice(&self, addr: u32, count: usize) -> Vec<f64> {
        let (start, end) = self.check_f64s(addr, count);
        let mut out = Vec::with_capacity(count);
        self.for_each_piece(start, end, |_, src| {
            out.extend(
                src.chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().unwrap())),
            );
        });
        out
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Memory({} bytes)", self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_zeroed() {
        let m = Memory::new(64);
        assert_eq!(m.read_u64(0), 0);
        assert_eq!(m.read_u32(60), 0);
    }

    #[test]
    fn u32_roundtrip_little_endian() {
        let mut m = Memory::new(64);
        m.write_u32(4, 0xDEAD_BEEF);
        assert_eq!(m.read_u32(4), 0xDEAD_BEEF);
        // Little-endian byte order within the containing u64.
        m.write_u32(0, 0x0403_0201);
        m.write_u32(4, 0x0807_0605);
        assert_eq!(m.read_u64(0), 0x0807_0605_0403_0201);
    }

    #[test]
    fn f64_roundtrip() {
        let mut m = Memory::new(64);
        for (i, v) in [-1.5, 0.0, f64::MAX, 1e-300].iter().enumerate() {
            m.write_f64(8 * i as u32, *v);
        }
        assert_eq!(m.read_f64(0), -1.5);
        assert_eq!(m.read_f64(16), f64::MAX);
    }

    #[test]
    fn slice_helpers() {
        let mut m = Memory::new(256);
        let data: Vec<f64> = (0..10).map(|i| i as f64 * 1.5).collect();
        m.write_f64_slice(64, &data);
        assert_eq!(m.read_f64_slice(64, 10), data);
    }

    #[test]
    fn high_water_tracks_the_highest_write() {
        let mut m = Memory::new(1 << 20);
        assert_eq!(m.high_water(), 0);
        m.write_u64(4096, 1);
        assert_eq!(m.read_u64(1 << 16), 0, "reads do not raise it");
        m.write_u32(8, 1);
        assert_eq!(m.high_water(), 4096 + 8);
        m.clear();
        assert_eq!(m.high_water(), 0);
    }

    #[test]
    fn writing_the_last_word_of_a_gigabyte_allocates_one_page() {
        let mut m = Memory::new(1 << 30);
        m.write_u64((1 << 30) - 8, u64::MAX);
        assert_eq!(m.pages.iter().flatten().count(), 1);
        assert_eq!(m.pages.len(), (1 << 30) / PAGE_BYTES);
        assert_eq!(m.high_water(), 1 << 30);
        assert_eq!(m.read_u64((1 << 30) - 8), u64::MAX);
        assert_eq!(m.read_u64((1 << 30) - 16), 0);
        m.clear();
        assert!(m.pages.is_empty(), "clear drops the pages and the table");
        assert_eq!(m.read_u64((1 << 30) - 8), 0);
    }

    #[test]
    fn bulk_copies_cross_pages() {
        let mut m = Memory::new(4 * PAGE_BYTES);
        let bytes: Vec<u8> = (0..PAGE_BYTES + 8).map(|i| i as u8).collect();
        m.write_bytes(PAGE_BYTES as u32 - 3, &bytes);
        assert_eq!(m.high_water(), 2 * PAGE_BYTES + 5);
        assert_eq!(m.read_u32(PAGE_BYTES as u32 - 4), 0x0201_0000);
        assert_eq!(m.read_u32(2 * PAGE_BYTES as u32), 0x0605_0403);
        let data: Vec<f64> = (0..PAGE_BYTES / 4).map(|i| i as f64).collect();
        m.write_f64_slice(PAGE_BYTES as u32 / 2, &data);
        assert_eq!(m.read_f64_slice(PAGE_BYTES as u32 / 2, data.len()), data);
        assert_eq!(m.read_f64_slice(3 * PAGE_BYTES as u32, 4), [0.0; 4]);
        // Empty copies need no room, aligned or not, and write nothing.
        let high = m.high_water();
        m.write_bytes(4 * PAGE_BYTES as u32 + 1, &[]);
        m.write_f64_slice(4 * PAGE_BYTES as u32 + 4, &[]);
        assert!(m.read_f64_slice(u32::MAX, 0).is_empty());
        assert_eq!(m.high_water(), high);
    }

    #[test]
    #[should_panic(expected = "beyond memory size")]
    fn write_bytes_past_the_end_panics() {
        Memory::new(64).write_bytes(60, &[1; 5]);
    }

    #[test]
    #[should_panic(expected = "beyond memory size")]
    fn slices_past_the_end_panic() {
        Memory::new(64).read_f64_slice(56, 2);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_u64_panics() {
        Memory::new(64).read_u64(4);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_u32_panics() {
        Memory::new(64).read_u32(2);
    }

    #[test]
    #[should_panic(expected = "beyond memory size")]
    fn out_of_bounds_panics() {
        Memory::new(64).read_u32(64);
    }

    #[test]
    fn try_accessors_return_typed_errors() {
        let mut m = Memory::new(64);
        assert_eq!(
            m.try_read_u32(2),
            Err(MemError::Misaligned { addr: 2, len: 4 })
        );
        assert_eq!(
            m.try_read_u64(64),
            Err(MemError::OutOfBounds {
                addr: 64,
                len: 8,
                size: 64
            })
        );
        assert_eq!(
            m.try_write_u32(0xFFFF_FFFC, 1),
            Err(MemError::OutOfBounds {
                addr: 0xFFFF_FFFC,
                len: 4,
                size: 64
            })
        );
        assert!(m.try_write_u64(8, 0xAB).is_ok());
        assert_eq!(m.try_read_u64(8), Ok(0xAB));
        let e = MemError::Misaligned { addr: 2, len: 4 };
        assert!(e.to_string().contains("misaligned"));
        let _: &dyn std::error::Error = &e;
    }

    #[test]
    fn try_write_respects_the_watch() {
        let mut m = Memory::new(64);
        m.watch_range(0, 16);
        m.try_write_u32(4, 7).unwrap();
        assert_eq!(m.watch_writes(), 1, "fallible writes count too");
        m.try_write_u32(32, 7).unwrap();
        assert_eq!(m.watch_writes(), 1);
        m.write_bytes(15, &[1, 2]);
        assert_eq!(m.watch_writes(), 2, "a bulk copy counts when it overlaps");
        m.write_bytes(16, &[1, 2]);
        assert_eq!(m.watch_writes(), 2);
    }
}
