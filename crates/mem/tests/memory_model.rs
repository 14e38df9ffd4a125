//! Property test: the paged `Memory` against a flat, zero-initialized
//! byte array. Every read must return what the array holds, every
//! rejected access the same `MemError`, and `high_water` and the watch
//! must follow the writes exactly — through word and doubleword
//! accesses, bulk copies that cross pages, `watch_range`, `clear` and
//! `clone`.

use mt_mem::{MemError, Memory};
use proptest::prelude::*;

/// The reference: the whole address space as one array.
struct Flat {
    bytes: Vec<u8>,
    high_water: usize,
    watch: (u32, u32),
    watched_write: bool,
}

impl Flat {
    fn new(size: usize) -> Flat {
        Flat {
            bytes: vec![0; size],
            high_water: 0,
            watch: (0, 0),
            watched_write: false,
        }
    }

    fn check(&self, addr: u32, len: u32) -> Result<(), MemError> {
        if !addr.is_multiple_of(len) {
            Err(MemError::Misaligned { addr, len })
        } else if addr as usize + len as usize > self.bytes.len() {
            Err(MemError::OutOfBounds {
                addr,
                len,
                size: self.bytes.len(),
            })
        } else {
            Ok(())
        }
    }

    fn read(&self, addr: u32, len: usize) -> u64 {
        let mut word = [0; 8];
        word[..len].copy_from_slice(&self.bytes[addr as usize..addr as usize + len]);
        u64::from_le_bytes(word)
    }

    fn write(&mut self, addr: u32, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let (start, end) = (addr as usize, addr as usize + data.len());
        self.bytes[start..end].copy_from_slice(data);
        self.high_water = self.high_water.max(end);
        self.watched_write |= start < self.watch.1 as usize && end > self.watch.0 as usize;
    }
}

/// One step of a run. Addresses are raw draws; [`apply`] places them.
#[derive(Debug, Clone)]
enum Op {
    ReadU32(u64),
    ReadU64(u64),
    WriteU32(u64, u32),
    WriteU64(u64, u64),
    TryReadU32(u64),
    TryReadU64(u64),
    TryWriteU32(u64, u32),
    TryWriteU64(u64, u64),
    WriteBytes(u64, usize, u8),
    WriteF64s(u64, usize, u64),
    ReadF64s(u64, usize),
    Watch(u64, u64),
    Clear,
    Clone,
}

/// An address in `[0, size]` from `raw`: mostly within 16 bytes of a
/// multiple of a power of two from 8 to 8 KiB (wherever the pages
/// break), else near the end or anywhere.
fn place(size: usize, raw: u64) -> usize {
    let near = |base: usize| (base + (raw >> 40) as usize % 33).saturating_sub(16);
    let at = match raw % 8 {
        0..=4 => {
            let step = 8usize << (raw / 8 % 11);
            near(step * ((raw >> 12) as usize % (size / step + 1)))
        }
        5 => near(size),
        _ => (raw >> 8) as usize,
    };
    at % (size + 1)
}

/// An address for a fallible access: usually placed, sometimes at the
/// top of the 32-bit space.
fn wild(size: usize, raw: u64) -> u32 {
    if raw.is_multiple_of(16) {
        u32::MAX - (raw >> 32) as u32 % 24
    } else {
        place(size, raw) as u32
    }
}

/// An in-bounds, `align`-aligned address for a `len`-byte access.
fn valid(size: usize, raw: u64, align: usize, len: usize) -> u32 {
    (place(size, raw).min(size - len) & !(align - 1)) as u32
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => any::<u64>().prop_map(Op::ReadU32),
        3 => any::<u64>().prop_map(Op::ReadU64),
        3 => (any::<u64>(), any::<u32>()).prop_map(|(a, v)| Op::WriteU32(a, v)),
        3 => (any::<u64>(), any::<u64>()).prop_map(|(a, v)| Op::WriteU64(a, v)),
        2 => any::<u64>().prop_map(Op::TryReadU32),
        2 => any::<u64>().prop_map(Op::TryReadU64),
        2 => (any::<u64>(), any::<u32>()).prop_map(|(a, v)| Op::TryWriteU32(a, v)),
        2 => (any::<u64>(), any::<u64>()).prop_map(|(a, v)| Op::TryWriteU64(a, v)),
        2 => (any::<u64>(), 0usize..9000, any::<u8>()).prop_map(|(a, n, s)| Op::WriteBytes(a, n, s)),
        2 => (any::<u64>(), 0usize..1200, any::<u64>()).prop_map(|(a, n, s)| Op::WriteF64s(a, n, s)),
        2 => (any::<u64>(), 0usize..1200).prop_map(|(a, n)| Op::ReadF64s(a, n)),
        1 => (any::<u64>(), any::<u64>()).prop_map(|(a, b)| Op::Watch(a, b)),
        1 => Just(Op::Clear),
        1 => Just(Op::Clone),
    ]
}

/// Applies `op` to both memories and compares what it returns.
fn apply(m: &mut Memory, flat: &mut Flat, op: &Op) -> Result<(), TestCaseError> {
    let size = flat.bytes.len();
    match *op {
        Op::ReadU32(raw) => {
            let a = valid(size, raw, 4, 4);
            prop_assert_eq!(m.read_u32(a) as u64, flat.read(a, 4), "read_u32({:#x})", a);
        }
        Op::ReadU64(raw) => {
            let a = valid(size, raw, 8, 8);
            prop_assert_eq!(m.read_u64(a), flat.read(a, 8), "read_u64({:#x})", a);
        }
        Op::WriteU32(raw, v) => {
            let a = valid(size, raw, 4, 4);
            m.write_u32(a, v);
            flat.write(a, &v.to_le_bytes());
        }
        Op::WriteU64(raw, v) => {
            let a = valid(size, raw, 8, 8);
            m.write_u64(a, v);
            flat.write(a, &v.to_le_bytes());
        }
        Op::TryReadU32(raw) => {
            let a = wild(size, raw);
            let want = flat.check(a, 4).map(|()| flat.read(a, 4) as u32);
            prop_assert_eq!(m.try_read_u32(a), want, "try_read_u32({:#x})", a);
        }
        Op::TryReadU64(raw) => {
            let a = wild(size, raw);
            let want = flat.check(a, 8).map(|()| flat.read(a, 8));
            prop_assert_eq!(m.try_read_u64(a), want, "try_read_u64({:#x})", a);
        }
        Op::TryWriteU32(raw, v) => {
            let a = wild(size, raw);
            let want = flat.check(a, 4);
            prop_assert_eq!(m.try_write_u32(a, v), want, "try_write_u32({:#x})", a);
            if want.is_ok() {
                flat.write(a, &v.to_le_bytes());
            }
        }
        Op::TryWriteU64(raw, v) => {
            let a = wild(size, raw);
            let want = flat.check(a, 8);
            prop_assert_eq!(m.try_write_u64(a, v), want, "try_write_u64({:#x})", a);
            if want.is_ok() {
                flat.write(a, &v.to_le_bytes());
            }
        }
        Op::WriteBytes(raw, len, seed) => {
            let len = len.min(size);
            let a = place(size, raw).min(size - len) as u32;
            let bytes: Vec<u8> = (0..len)
                .map(|i| seed ^ (i as u8).wrapping_mul(31))
                .collect();
            m.write_bytes(a, &bytes);
            flat.write(a, &bytes);
        }
        Op::WriteF64s(raw, count, seed) => {
            let count = count.min(size / 8);
            let a = valid(size, raw, 8, 8 * count);
            let values: Vec<f64> = (0..count as u64)
                .map(|i| f64::from_bits(seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))))
                .collect();
            m.write_f64_slice(a, &values);
            let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
            flat.write(a, &bytes);
        }
        Op::ReadF64s(raw, count) => {
            let count = count.min(size / 8);
            let a = valid(size, raw, 8, 8 * count);
            let got: Vec<u64> = m
                .read_f64_slice(a, count)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let want: Vec<u64> = (0..count as u32).map(|i| flat.read(a + 8 * i, 8)).collect();
            prop_assert!(got == want, "read_f64_slice({:#x}, {})", a, count);
        }
        Op::Watch(start, end) => {
            let (start, end) = (place(size, start) as u32, place(size, end) as u32);
            m.watch_range(start, end);
            flat.watch = (start, end);
            flat.watched_write = false;
        }
        Op::Clear => {
            m.clear();
            *flat = Flat::new(size);
        }
        Op::Clone => *m = m.clone(),
    }
    prop_assert_eq!(m.high_water(), flat.high_water, "high_water after {:?}", op);
    prop_assert_eq!(
        m.watch_writes() != 0,
        flat.watched_write,
        "watch after {:?}",
        op
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn paged_memory_matches_a_flat_array(
        size_raw in any::<u64>(),
        ops in prop::collection::vec(op(), 1..48),
    ) {
        // 64 bytes to ~24 KiB, a multiple of 4 but not always of 8 or of
        // a page.
        let size = 64 + 4 * (size_raw % 6000) as usize;
        let mut m = Memory::new(size);
        let mut flat = Flat::new(size);
        for op in &ops {
            apply(&mut m, &mut flat, op)?;
        }
        prop_assert_eq!(m.size(), size);
        prop_assert_eq!(format!("{m:?}"), format!("Memory({size} bytes)"));
        for a in (0..size as u32 - 3).step_by(4) {
            prop_assert_eq!(m.read_u32(a) as u64, flat.read(a, 4), "final word {:#x}", a);
        }
    }
}
