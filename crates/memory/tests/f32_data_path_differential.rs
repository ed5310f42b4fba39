//! Differential tests for the in-place functional data path: random tapes
//! of `reduce_add_f32s`, `map_f32s` (the STREAM kernel bodies), `fill` and
//! `write_f32s`/`read_f32s` over a few small buffers, checked byte for byte
//! against a model that reads every input range into a fresh vector before
//! writing the output. Operands pick their buffers from a set of three, so
//! same-buffer and overlapping ranges come up often, at any byte offset.

use ifsim_memory::{AllocError, BufferId, MemKind, MemSpace, MemorySystem};
use ifsim_topology::GcdId;
use proptest::prelude::*;

/// Buffers every tape works on.
const BUFS: usize = 3;

/// The read-modify-write model: one byte vector per buffer.
struct Model(Vec<Vec<u8>>);

impl Model {
    fn read(&self, buf: usize, off: usize, elems: usize) -> Vec<f32> {
        self.0[buf][off..off + 4 * elems]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    fn write(&mut self, buf: usize, off: usize, vals: &[f32]) {
        for (i, v) in vals.iter().enumerate() {
            self.0[buf][off + 4 * i..off + 4 * i + 4].copy_from_slice(&v.to_le_bytes());
        }
    }
}

fn hbm(g: u8) -> MemSpace {
    MemSpace::Hbm(GcdId(g))
}

/// Real device buffers of the given sizes, filled with `seed`-derived
/// values, and the model holding the same bytes. Read at 4-byte-aligned
/// offsets the bytes are small multiples of 1/8, so a sum that reads a
/// stale or an already-updated element shows in the result; unaligned
/// offsets read arbitrary bit patterns.
fn setup(sizes: &[u64], seed: u64) -> (MemorySystem, Vec<BufferId>, Model) {
    let mut m = MemorySystem::new();
    let mut model = Model(Vec::new());
    let mut ids = Vec::new();
    let mut x = seed | 1;
    for (g, &size) in sizes.iter().enumerate() {
        let id = m.allocate(MemKind::Device, hbm(g as u8), size).unwrap();
        let bytes: Vec<u8> = (0..size.div_ceil(4))
            .flat_map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x % 2001) as f32 / 8.0 - 125.0).to_le_bytes()
            })
            .take(size as usize)
            .collect();
        assert!(m.write_bytes(id, 0, &bytes).unwrap());
        ids.push(id);
        model.0.push(bytes);
    }
    (m, ids, model)
}

/// One tape step: `(kind, (buffers), (offsets), elems, scalar bits)`. The
/// raw numbers are folded into in-bounds ranges by [`run_step`].
type Step = (u8, (u8, u8, u8), (u16, u16, u16), u16, u32);

fn arb_step() -> impl Strategy<Value = Step> {
    (
        0u8..8,
        (0u8..BUFS as u8, 0u8..BUFS as u8, 0u8..BUFS as u8),
        (any::<u16>(), any::<u16>(), any::<u16>()),
        any::<u16>(),
        any::<u32>(),
    )
}

/// Apply one step to both the memory system and the model.
fn run_step(m: &mut MemorySystem, ids: &[BufferId], model: &mut Model, step: Step) {
    let (kind, (b0, b1, b2), (o0, o1, o2), n, bits) = step;
    let (b0, b1, b2) = (b0 as usize, b1 as usize, b2 as usize);
    let size = |b: usize| model.0[b].len();
    // Elements every operand can hold, then an offset per operand that
    // keeps its range in bounds.
    let fit = size(b0).min(size(b1)).min(size(b2)) / 4;
    let elems = n as usize % (fit + 1);
    let off = |b: usize, o: u16| o as usize % (size(b) - 4 * elems + 1);
    let (s0, s1, d) = (off(b0, o0), off(b1, o1), off(b2, o2));
    let scalar = f32::from_bits(bits);
    let (src, src2, dst) = (
        (ids[b0], s0 as u64),
        (ids[b1], s1 as u64),
        (ids[b2], d as u64),
    );
    let moved = match kind {
        0 => {
            let (a, l) = (model.read(b0, s0, elems), model.read(b2, d, elems));
            let out: Vec<f32> = l.iter().zip(&a).map(|(l, a)| l + a).collect();
            model.write(b2, d, &out);
            m.reduce_add_f32s(src.0, src.1, dst.0, dst.1, elems)
        }
        1 => {
            let v = model.read(b0, s0, elems);
            model.write(b2, d, &v);
            m.map_f32s(dst, [src], elems, |[x]| x)
        }
        2 => {
            let v: Vec<f32> = model
                .read(b0, s0, elems)
                .iter()
                .map(|x| x * scalar)
                .collect();
            model.write(b2, d, &v);
            m.map_f32s(dst, [src], elems, |[x]| x * scalar)
        }
        3 => {
            let (a, b) = (model.read(b0, s0, elems), model.read(b1, s1, elems));
            let v: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
            model.write(b2, d, &v);
            m.map_f32s(dst, [src, src2], elems, |[x, y]| x + y)
        }
        4 => {
            let (a, b) = (model.read(b0, s0, elems), model.read(b1, s1, elems));
            let v: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + scalar * y).collect();
            model.write(b2, d, &v);
            m.map_f32s(dst, [src, src2], elems, |[x, y]| x + scalar * y)
        }
        5 => {
            model.write(b2, d, &vec![scalar; elems]);
            m.map_f32s(dst, [], elems, |[]| scalar)
        }
        6 => {
            // Byte granularity: any length up to the buffer's end.
            let len = o1 as usize % (size(b2) - d + 1);
            model.0[b2][d..d + len].fill(bits as u8);
            m.fill(dst.0, dst.1, len as u64, bits as u8)
        }
        _ => {
            let vals: Vec<f32> = (0..elems)
                .map(|i| f32::from_bits(bits.rotate_left(i as u32) ^ i as u32))
                .collect();
            model.write(b2, d, &vals);
            let wrote = m.write_f32s(dst.0, dst.1, &vals);
            let back = m.read_f32s(dst.0, dst.1, elems).unwrap().unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&vals));
            wrote
        }
    };
    assert!(moved.unwrap(), "real operands move data");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random tapes leave every buffer byte-identical to the model.
    #[test]
    fn in_place_ops_match_the_read_modify_write_model(
        sizes in (4u64..96, 4u64..96, 4u64..96),
        seed in any::<u64>(),
        tape in proptest::collection::vec(arb_step(), 1..40),
    ) {
        let sizes = [sizes.0, sizes.1, sizes.2];
        let (mut m, ids, mut model) = setup(&sizes, seed);
        for step in tape {
            run_step(&mut m, &ids, &mut model, step);
            for (b, &id) in ids.iter().enumerate() {
                let got = m.read_bytes(id, 0, sizes[b]).unwrap().unwrap();
                prop_assert_eq!(&got, &model.0[b], "buffer {} after {:?}", b, step);
            }
        }
    }
}

#[test]
fn overlapping_same_buffer_reduce_reads_before_it_writes() {
    // Elements of one buffer: dst = [0, 4), src = [1, 5).
    let (mut m, ids, mut model) = setup(&[24], 7);
    let (a, b) = (model.read(0, 4, 4), model.read(0, 0, 4));
    let sums: Vec<f32> = b.iter().zip(&a).map(|(l, a)| l + a).collect();
    model.write(0, 0, &sums);
    assert!(m.reduce_add_f32s(ids[0], 4, ids[0], 0, 4).unwrap());
    assert_eq!(m.read_bytes(ids[0], 0, 24).unwrap().unwrap(), model.0[0]);
    // dst = [2, 6), src = [0, 4): an element-by-element update would read
    // src[2], which is dst[0], after writing it.
    let (a, l) = (model.read(0, 0, 4), model.read(0, 8, 4));
    let sums: Vec<f32> = l.iter().zip(&a).map(|(l, a)| l + a).collect();
    model.write(0, 8, &sums);
    assert!(m.reduce_add_f32s(ids[0], 0, ids[0], 8, 4).unwrap());
    assert_eq!(m.read_bytes(ids[0], 0, 24).unwrap().unwrap(), model.0[0]);
}

#[test]
fn phantom_operands_make_every_op_a_checked_noop() {
    let mut m = MemorySystem::new();
    m.set_phantom_threshold(64);
    let real = m.allocate(MemKind::Device, hbm(0), 64).unwrap();
    let phantom = m.allocate(MemKind::Device, hbm(1), 128).unwrap();
    m.write_bytes(real, 0, &[3u8; 64]).unwrap();
    assert!(!m.reduce_add_f32s(phantom, 0, real, 0, 16).unwrap());
    assert!(!m.reduce_add_f32s(real, 0, phantom, 64, 16).unwrap());
    assert!(!m.map_f32s((real, 0), [(phantom, 0)], 16, |[x]| x).unwrap());
    assert!(!m
        .map_f32s((real, 0), [(real, 0), (phantom, 4)], 16, |[x, y]| x + y)
        .unwrap());
    assert!(!m.map_f32s((phantom, 0), [], 32, |[]| 1.0).unwrap());
    assert!(!m.fill(phantom, 0, 128, 9).unwrap());
    assert!(!m.write_f32s(phantom, 0, &[1.0; 32]).unwrap());
    assert_eq!(m.read_f32s(phantom, 0, 32).unwrap(), None);
    assert_eq!(m.read_bytes(real, 0, 64).unwrap().unwrap(), vec![3u8; 64]);
}

#[test]
fn stale_handles_are_errors() {
    let (mut m, ids, _) = setup(&[16], 1);
    let stale = BufferId(99);
    assert_eq!(
        m.reduce_add_f32s(stale, 0, ids[0], 0, 1),
        Err(AllocError::InvalidBuffer(stale))
    );
    assert_eq!(
        m.map_f32s((stale, 0), [], 1, |[]| 0.0),
        Err(AllocError::InvalidBuffer(stale))
    );
    assert_eq!(
        m.fill(stale, 0, 1, 0),
        Err(AllocError::InvalidBuffer(stale))
    );
}

#[test]
#[should_panic(expected = "f32 range beyond buffer end")]
fn reduce_past_the_destination_end_panics() {
    let (mut m, ids, _) = setup(&[16, 16], 1);
    let _ = m.reduce_add_f32s(ids[0], 0, ids[1], 4, 4);
}

#[test]
#[should_panic(expected = "f32 range beyond buffer end")]
fn map_input_past_its_end_panics() {
    let (mut m, ids, _) = setup(&[16, 32], 1);
    let _ = m.map_f32s((ids[1], 0), [(ids[0], 0)], 5, |[x]| x);
}

#[test]
#[should_panic(expected = "f32 range beyond buffer end")]
fn phantom_ranges_are_bounds_checked_too() {
    let mut m = MemorySystem::new();
    m.set_phantom_threshold(0);
    let a = m.allocate(MemKind::Device, hbm(0), 16).unwrap();
    let b = m.allocate(MemKind::Device, hbm(1), 16).unwrap();
    let _ = m.reduce_add_f32s(a, 8, b, 0, 4);
}

#[test]
#[should_panic(expected = "fill beyond buffer end")]
fn fill_past_the_end_panics() {
    let (mut m, ids, _) = setup(&[16], 1);
    let _ = m.fill(ids[0], 8, 9, 0);
}

#[test]
#[should_panic(expected = "write beyond buffer end")]
fn f32_write_past_the_end_panics() {
    let (mut m, ids, _) = setup(&[16], 1);
    let _ = m.write_f32s(ids[0], 4, &[0.0; 4]);
}
