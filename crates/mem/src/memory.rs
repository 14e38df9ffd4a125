//! Flat byte-addressed main memory.

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

/// Main memory: a flat little-endian byte array.
///
/// Addresses are 32-bit as on the MultiTitan (Fig. 1 shows a 32-bit address
/// bus). Accesses must be naturally aligned — the simulator treats
/// misalignment as a program bug and panics with the offending address.
///
/// ```
/// use mt_mem::Memory;
/// let mut m = Memory::new(4096);
/// m.write_f64(16, 2.5);
/// assert_eq!(m.read_f64(16), 2.5);
/// ```
#[derive(Clone)]
pub struct Memory {
    /// Physical backing, grown lazily on first write: a fresh `Memory` is
    /// all zeros, so pages never written need no storage. Simulations
    /// create many short-lived machines (one per kernel per sweep point),
    /// and eagerly zeroing megabytes per machine dominated their setup.
    bytes: Vec<u8>,
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
    /// Creates `size` bytes of zeroed memory (backing allocated on first
    /// write).
    pub fn new(size: usize) -> Memory {
        Memory {
            bytes: Vec::new(),
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

    /// Number of writes that have touched the watched range.
    pub fn watch_writes(&self) -> u64 {
        self.watch_writes
    }

    /// Returns the memory to its freshly-created all-zeros state — and
    /// clears any watch — while keeping the backing allocation, so a
    /// long-lived worker (one `mt-serve` worker thread per core, each
    /// recycling its machine across arbitrary jobs) never leaks one job's
    /// data into the next and never re-allocates per job.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.watch = (0, 0);
        self.watch_writes = 0;
    }

    /// Memory size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// One past the highest byte written since creation or the last
    /// [`Memory::clear`] (0 if nothing was written): how much memory the
    /// writes so far needed.
    pub fn high_water(&self) -> usize {
        self.bytes.len()
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

    /// Reads `N` bytes at `addr`; bytes beyond the written extent are the
    /// zeros they have always been.
    #[track_caller]
    #[inline]
    fn read_n<const N: usize>(&self, addr: u32) -> [u8; N] {
        self.check(addr, N as u32);
        self.read_n_unchecked(addr)
    }

    /// [`Memory::read_n`] after a successful [`Memory::try_check`].
    #[inline]
    fn read_n_unchecked<const N: usize>(&self, addr: u32) -> [u8; N] {
        let a = addr as usize;
        if a + N <= self.bytes.len() {
            self.bytes[a..a + N].try_into().unwrap()
        } else {
            let mut out = [0u8; N];
            if a < self.bytes.len() {
                let have = self.bytes.len() - a;
                out[..have].copy_from_slice(&self.bytes[a..]);
            }
            out
        }
    }

    /// Writes `N` bytes at `addr`, zero-extending the backing to cover it.
    #[track_caller]
    #[inline]
    fn write_n<const N: usize>(&mut self, addr: u32, data: [u8; N]) {
        self.check(addr, N as u32);
        self.write_n_unchecked(addr, data);
    }

    /// [`Memory::write_n`] after a successful [`Memory::try_check`].
    #[inline]
    fn write_n_unchecked<const N: usize>(&mut self, addr: u32, data: [u8; N]) {
        if addr < self.watch.1 && addr + N as u32 > self.watch.0 {
            self.watch_writes += 1;
        }
        let a = addr as usize;
        if a + N > self.bytes.len() {
            self.bytes.resize(a + N, 0);
        }
        self.bytes[a..a + N].copy_from_slice(&data);
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

    /// Writes a slice of doubles starting at `addr` (a convenience for
    /// loading workload arrays).
    #[track_caller]
    pub fn write_f64_slice(&mut self, addr: u32, values: &[f64]) {
        for (i, &v) in values.iter().enumerate() {
            self.write_f64(addr + 8 * i as u32, v);
        }
    }

    /// Reads `count` doubles starting at `addr`.
    #[track_caller]
    pub fn read_f64_slice(&self, addr: u32, count: usize) -> Vec<f64> {
        (0..count)
            .map(|i| self.read_f64(addr + 8 * i as u32))
            .collect()
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
    }
}
