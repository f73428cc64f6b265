//! Property-based model check of NVM crash semantics: an arena under
//! random write/copy/CAS/flush/crash sequences must agree with a
//! two-image shadow model.
//!
//! The arena keeps one image plus the pre-images of dirty bytes in 4 KiB
//! pages, so the domain spans three pages and an odd tail, and addresses
//! cluster around the page edges: writes straddle them, and zero data
//! exercises the elided zero pre-images.

use hl_nvm::NvmArena;
use proptest::prelude::*;

const PAGE: usize = 4096;
const N: usize = 3 * PAGE + 123;

#[derive(Debug, Clone)]
enum Op {
    /// `len` bytes `seed, seed + step, seed + 2·step, …` (all zero when
    /// both are zero).
    Write {
        at: usize,
        seed: u8,
        step: u8,
        len: usize,
    },
    CopyWithin {
        src: usize,
        dst: usize,
        len: usize,
    },
    WriteU64 {
        at: usize,
        v: u64,
    },
    /// Compare against the current word (`hit`) or against something else.
    Cas {
        at: usize,
        hit: bool,
        swap: u64,
    },
    Flush {
        at: usize,
        len: usize,
    },
    FlushAll,
    Crash,
}

/// An address anywhere, or within 96 bytes of a page edge.
fn addr() -> impl Strategy<Value = usize> {
    prop_oneof![
        1 => 0..N,
        2 => (1..4usize, 0..192usize).prop_map(|(edge, off)| edge * PAGE + off - 96),
    ]
}

/// A byte that is zero half the time.
fn maybe_zero() -> impl Strategy<Value = u8> {
    prop_oneof![Just(0u8), any::<u8>()]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (addr(), maybe_zero(), maybe_zero(), 1..300usize)
            .prop_map(|(at, seed, step, len)| Op::Write { at, seed, step, len }),
        2 => (addr(), addr(), 1..300usize).prop_map(|(src, dst, len)| Op::CopyWithin { src, dst, len }),
        1 => (addr(), prop_oneof![Just(0u64), any::<u64>()]).prop_map(|(at, v)| Op::WriteU64 { at, v }),
        1 => (addr(), any::<bool>(), any::<u64>()).prop_map(|(at, hit, swap)| Op::Cas { at, hit, swap }),
        3 => (addr(), 1..2 * PAGE).prop_map(|(at, len)| Op::Flush { at, len }),
        1 => Just(Op::FlushAll),
        1 => Just(Op::Crash),
    ]
}

/// The shadow model: both images and the dirty bytes.
struct Model {
    cur: Vec<u8>,
    dur: Vec<u8>,
    dirty: Vec<bool>,
}

impl Model {
    fn write(&mut self, at: usize, data: &[u8]) {
        self.cur[at..at + data.len()].copy_from_slice(data);
        self.dirty[at..at + data.len()].fill(true);
    }

    fn flush(&mut self, at: usize, len: usize) {
        for i in at..at + len {
            if self.dirty[i] {
                self.dur[i] = self.cur[i];
                self.dirty[i] = false;
            }
        }
    }

    fn dirty_pages(&self) -> usize {
        self.dirty
            .chunks(PAGE)
            .filter(|c| c.contains(&true))
            .count()
    }
}

/// First index where two images differ, for a readable failure.
fn first_diff(a: &[u8], b: &[u8]) -> Option<(usize, u8, u8)> {
    a.iter()
        .zip(b)
        .enumerate()
        .find(|(_, (x, y))| x != y)
        .map(|(i, (&x, &y))| (i, x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn arena_matches_two_image_model(ops in proptest::collection::vec(op_strategy(), 0..80)) {
        let mut arena = NvmArena::new(N);
        let mut m = Model {
            cur: vec![0; N],
            dur: vec![0; N],
            dirty: vec![false; N],
        };

        for op in ops {
            match op {
                Op::Write { at, seed, step, len } => {
                    let len = len.min(N - at);
                    let data: Vec<u8> = (0..len)
                        .map(|i| seed.wrapping_add(step.wrapping_mul(i as u8)))
                        .collect();
                    arena.write(at as u64, &data).unwrap();
                    m.write(at, &data);
                }
                Op::CopyWithin { src, dst, len } => {
                    let len = len.min(N - src).min(N - dst);
                    arena.copy_within(src as u64, dst as u64, len).unwrap();
                    let data = m.cur[src..src + len].to_vec();
                    m.write(dst, &data);
                }
                Op::WriteU64 { at, v } => {
                    let at = at.min(N - 8);
                    arena.write_u64(at as u64, v).unwrap();
                    m.write(at, &v.to_le_bytes());
                }
                Op::Cas { at, hit, swap } => {
                    let at = at.min(N - 8);
                    let word = u64::from_le_bytes(m.cur[at..at + 8].try_into().unwrap());
                    let compare = if hit { word } else { word ^ 1 };
                    let orig = arena.compare_and_swap_u64(at as u64, compare, swap).unwrap();
                    prop_assert_eq!(orig, word, "CAS original");
                    if hit {
                        m.write(at, &swap.to_le_bytes());
                    }
                }
                Op::Flush { at, len } => {
                    let len = len.min(N - at);
                    arena.flush(at as u64, len).unwrap();
                    m.flush(at, len);
                }
                Op::FlushAll => {
                    arena.flush_all();
                    m.flush(0, N);
                }
                Op::Crash => {
                    arena.crash();
                    m.cur = m.dur.clone();
                    m.dirty.fill(false);
                }
            }
            // Invariants after every step.
            let cur = arena.read(0, N).unwrap();
            prop_assert!(cur == &m.cur[..], "current image: {:?}", first_diff(cur, &m.cur));
            let dur = arena.read_durable(0, N).unwrap();
            prop_assert!(dur == m.dur, "durable image: {:?}", first_diff(&dur, &m.dur));
            let model_dirty = m.dirty.iter().filter(|&&d| d).count() as u64;
            prop_assert_eq!(arena.dirty_bytes(), model_dirty, "dirty accounting");
            prop_assert!(
                arena.stored_pre_image_pages() <= m.dirty_pages(),
                "{} pages store pre-images, {} hold dirty bytes",
                arena.stored_pre_image_pages(),
                m.dirty_pages()
            );
        }
    }
}
