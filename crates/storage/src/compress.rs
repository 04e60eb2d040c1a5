//! Lightweight column compression: dictionary encoding and run-length encoding.
//!
//! §5 of the paper ("Compressed Tables") observes that data warehouses compress
//! tables to reduce the I/O and memory bandwidth spent moving tuples, and that CJOIN
//! is agnostic to the physical representation as long as predicates can be evaluated
//! and fields extracted. This module provides the two encodings the columnar store
//! ([`crate::columnar`]) uses:
//!
//! * [`Dictionary`] — dictionary encoding for string columns. Star
//!   schema dimension attributes (regions, nations, brands, …) and even many fact
//!   columns have tiny domains, so storing a `u32` code per row plus one copy of each
//!   distinct string is a large win.
//! * [`RleVec`] — run-length encoding for integer columns. Fact tables loaded in date
//!   order have long runs of identical values in the date/partition columns. A scan
//!   kernel iterates the runs directly through [`RunCursor`], paying one predicate
//!   probe per run instead of one per row.
//! * [`BitPackedVec`] — frame-of-reference bit packing for integer columns with a
//!   narrow value range (e.g. `lo_quantity`, `lo_discount`): values are stored as
//!   fixed-width offsets from the column minimum.
//! * [`DeltaVec`] — block-wise delta encoding for smoothly growing columns (e.g. a
//!   sequential order key): each block stores its minimum as a base plus bit-packed
//!   per-row offsets, so sequential keys cost ~`log2(block)` bits per row.
//!
//! All encodings support random access by row position (`get`), which is what the
//! scan needs to materialise only the columns a query mix touches, and all report
//! their heap footprint so the experiment harness can quantify the saved scan volume.

use std::sync::Arc;

use cjoin_common::FxHashMap;

/// A run-length encoded vector of `i64` values.
///
/// Values are stored as `(value, run_length)` pairs plus a prefix-sum index of run
/// end positions, so `get` is a binary search over the runs (`O(log runs)`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RleVec {
    /// `(value, end_position_exclusive)` for each run, end positions strictly increasing.
    runs: Vec<(i64, u64)>,
    len: u64,
}

impl RleVec {
    /// Creates an empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an [`RleVec`] from a slice of plain values.
    pub fn from_slice(values: &[i64]) -> Self {
        let mut rle = Self::new();
        for &v in values {
            rle.push(v);
        }
        rle
    }

    /// Appends a value, extending the last run when it matches.
    pub fn push(&mut self, value: i64) {
        self.len += 1;
        match self.runs.last_mut() {
            Some((last, end)) if *last == value => *end = self.len,
            _ => self.runs.push((value, self.len)),
        }
    }

    /// Number of logical values.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the vector holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of runs (the compressed length).
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Returns the value at logical position `index`, or `None` when out of range.
    pub fn get(&self, index: usize) -> Option<i64> {
        let index = index as u64;
        if index >= self.len {
            return None;
        }
        // First run whose exclusive end is greater than `index`.
        let run = self.runs.partition_point(|&(_, end)| end <= index);
        Some(self.runs[run].0)
    }

    /// Iterates the logical values in order.
    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        self.runs
            .iter()
            .scan(0u64, |prev_end, &(value, end)| {
                let count = end - *prev_end;
                *prev_end = end;
                Some(std::iter::repeat_n(value, count as usize))
            })
            .flatten()
    }

    /// Decodes the whole vector back into plain values.
    pub fn decode(&self) -> Vec<i64> {
        self.iter().collect()
    }

    /// Appends the values at positions `start..start + len` to `out`, walking
    /// the runs with one [`RunCursor`] (a single binary search to find the
    /// first run) instead of one [`RleVec::get`] per row.
    ///
    /// # Panics
    /// Panics if the range runs past the end of the vector.
    pub fn decode_range(&self, start: usize, len: usize, out: &mut Vec<i64>) {
        let (start, end) = (start as u64, (start + len) as u64);
        assert!(end <= self.len, "range {start}..{end} past {}", self.len);
        let mut cursor = self.runs();
        cursor.seek(start);
        while let Some((value, run_start, run_end)) = cursor.next_run() {
            if run_start >= end {
                break;
            }
            let rows = run_end.min(end) - run_start.max(start);
            out.extend(std::iter::repeat_n(value, rows as usize));
        }
    }

    /// Appends the values at positions `start + o` for each `o` of `offsets`
    /// (non-decreasing) to `out`: one binary search for the first position,
    /// then the run cursor only ever moves forward.
    ///
    /// # Panics
    /// Panics if a position is past the end of the vector.
    pub fn gather(&self, start: usize, offsets: &[u32], out: &mut Vec<i64>) {
        let Some(&first) = offsets.first() else {
            return;
        };
        let mut cursor = self.runs();
        cursor.seek((start + first as usize) as u64);
        let mut run = cursor.next_run().expect("position past the end");
        out.extend(offsets.iter().map(|&o| {
            let pos = (start + o as usize) as u64;
            while run.2 <= pos {
                run = cursor.next_run().expect("position past the end");
            }
            run.0
        }));
    }

    /// Approximate heap footprint in bytes of the encoded form.
    pub fn encoded_bytes(&self) -> u64 {
        (self.runs.len() * std::mem::size_of::<(i64, u64)>()) as u64
    }

    /// Heap footprint the same data would occupy as a plain `Vec<i64>`.
    pub fn plain_bytes(&self) -> u64 {
        self.len * std::mem::size_of::<i64>() as u64
    }

    /// Compression ratio (`plain / encoded`); 1.0 for an empty vector.
    pub fn compression_ratio(&self) -> f64 {
        if self.encoded_bytes() == 0 {
            return 1.0;
        }
        self.plain_bytes() as f64 / self.encoded_bytes() as f64
    }

    /// Returns run `r` as `(value, start, end)` with `start..end` the logical
    /// positions the run covers.
    pub fn run(&self, r: usize) -> Option<(i64, u64, u64)> {
        let &(value, end) = self.runs.get(r)?;
        let start = if r == 0 { 0 } else { self.runs[r - 1].1 };
        Some((value, start, end))
    }

    /// A sequential cursor over the runs, for scan kernels that evaluate a
    /// predicate once per run instead of once per row.
    pub fn runs(&self) -> RunCursor<'_> {
        RunCursor { rle: self, run: 0 }
    }
}

/// Sequential iterator over the runs of an [`RleVec`].
///
/// `next_run` yields `(value, start, end)` triples in position order; `seek`
/// repositions the cursor (binary search) so the next run yielded is the one
/// containing a given logical position — the shape a segmented scan needs to
/// resume mid-column.
#[derive(Debug, Clone)]
pub struct RunCursor<'a> {
    rle: &'a RleVec,
    run: usize,
}

impl<'a> RunCursor<'a> {
    /// Positions the cursor so the next `next_run` call returns the run
    /// containing logical `position` (or `None` if past the end).
    pub fn seek(&mut self, position: u64) {
        self.run = self.rle.runs.partition_point(|&(_, end)| end <= position);
    }

    /// Returns the next run as `(value, start, end)`, advancing the cursor.
    pub fn next_run(&mut self) -> Option<(i64, u64, u64)> {
        let run = self.rle.run(self.run)?;
        self.run += 1;
        Some(run)
    }
}

impl FromIterator<i64> for RleVec {
    fn from_iter<T: IntoIterator<Item = i64>>(iter: T) -> Self {
        let mut rle = RleVec::new();
        for v in iter {
            rle.push(v);
        }
        rle
    }
}

/// Writes `width` low bits of `value` at bit position `index * width` in `words`.
fn write_bits(words: &mut [u64], index: u64, width: u32, value: u64) {
    if width == 0 {
        return;
    }
    let bit = index * u64::from(width);
    let word = (bit / 64) as usize;
    let off = (bit % 64) as u32;
    words[word] |= value << off;
    if off + width > 64 {
        words[word + 1] |= value >> (64 - off);
    }
}

/// Reads `width` bits at bit position `index * width` from `words`.
fn read_bits(words: &[u64], index: u64, width: u32) -> u64 {
    if width == 0 {
        return 0;
    }
    let bit = index * u64::from(width);
    let word = (bit / 64) as usize;
    let off = (bit % 64) as u32;
    let mut v = words[word] >> off;
    if off + width > 64 {
        v |= words[word + 1] << (64 - off);
    }
    if width == 64 {
        v
    } else {
        v & ((1u64 << width) - 1)
    }
}

/// Bits needed to represent any offset in `0..=range`.
fn bits_for_range(range: u128) -> u32 {
    (128 - range.leading_zeros()).min(64)
}

/// Unsigned offset of `value` from `base` (`base <= value` is a precondition).
fn offset_from(base: i64, value: i64) -> u64 {
    (i128::from(value) - i128::from(base)) as u64
}

/// `base + raw`, the inverse of [`offset_from`] (the sum always fits an `i64`
/// because `raw` was produced from an `i64` no smaller than `base`).
#[inline]
fn apply_offset(base: i64, raw: u64) -> i64 {
    base.wrapping_add(raw as i64)
}

/// A frame-of-reference bit-packed vector of `i64` values.
///
/// Every value is stored as a fixed-width unsigned offset from the column
/// minimum, packed contiguously into `u64` words. Random access is `O(1)`:
/// one (occasionally two) word reads plus a shift/mask. This is the encoding
/// of choice for columns with a narrow value range regardless of ordering
/// (quantities, discounts, flags).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitPackedVec {
    base: i64,
    width: u32,
    len: u64,
    words: Vec<u64>,
}

impl BitPackedVec {
    /// Builds a [`BitPackedVec`] from a slice of plain values.
    pub fn from_slice(values: &[i64]) -> Self {
        let Some(&first) = values.first() else {
            return Self::default();
        };
        let (mut min, mut max) = (first, first);
        for &v in values {
            min = min.min(v);
            max = max.max(v);
        }
        let width = bits_for_range(offset_from(min, max) as u128);
        let total_bits = values.len() as u64 * u64::from(width);
        let mut words = vec![0u64; total_bits.div_ceil(64) as usize];
        for (i, &v) in values.iter().enumerate() {
            write_bits(&mut words, i as u64, width, offset_from(min, v));
        }
        Self {
            base: min,
            width,
            len: values.len() as u64,
            words,
        }
    }

    /// Number of logical values.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the vector holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per stored value.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Returns the value at position `index`, or `None` when out of range.
    pub fn get(&self, index: usize) -> Option<i64> {
        if (index as u64) >= self.len {
            return None;
        }
        let raw = read_bits(&self.words, index as u64, self.width);
        Some(apply_offset(self.base, raw))
    }

    /// Appends the values at positions `start..start + len` to `out`, with one
    /// bounds check for the range.
    ///
    /// # Panics
    /// Panics if the range runs past the end of the vector.
    pub fn decode_range(&self, start: usize, len: usize, out: &mut Vec<i64>) {
        let (start, end) = (start as u64, (start + len) as u64);
        assert!(end <= self.len, "range {start}..{end} past {}", self.len);
        out.extend(
            (start..end).map(|i| apply_offset(self.base, read_bits(&self.words, i, self.width))),
        );
    }

    /// Appends the values at positions `start + o` for each `o` of `offsets`
    /// to `out`.
    ///
    /// # Panics
    /// Panics if a position is past the end of the vector.
    pub fn gather(&self, start: usize, offsets: &[u32], out: &mut Vec<i64>) {
        out.extend(offsets.iter().map(|&o| {
            let index = (start + o as usize) as u64;
            assert!(index < self.len, "row {index} past {}", self.len);
            apply_offset(self.base, read_bits(&self.words, index, self.width))
        }));
    }

    /// Decodes the whole vector back into plain values.
    pub fn decode(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.len());
        self.decode_range(0, self.len(), &mut out);
        out
    }

    /// Approximate heap footprint in bytes of the encoded form.
    pub fn encoded_bytes(&self) -> u64 {
        (self.words.len() * std::mem::size_of::<u64>()) as u64 + std::mem::size_of::<Self>() as u64
    }

    /// Heap footprint the same data would occupy as a plain `Vec<i64>`.
    pub fn plain_bytes(&self) -> u64 {
        self.len * std::mem::size_of::<i64>() as u64
    }
}

/// Rows per [`DeltaVec`] block: each block stores one `i64` base (the block
/// minimum) plus bit-packed offsets at a vector-wide width.
pub const DELTA_BLOCK_ROWS: usize = 128;

/// A block-wise frame-of-reference ("delta") encoded vector of `i64` values.
///
/// The vector is split into blocks of [`DELTA_BLOCK_ROWS`] rows; each block
/// stores its minimum as a base, and every row stores a bit-packed offset from
/// its block's base at one vector-wide width (the largest any block needs).
/// Smoothly growing columns — sequential keys, timestamps — have tiny
/// per-block ranges even when the global range is huge, which is exactly the
/// case plain frame-of-reference ([`BitPackedVec`]) handles poorly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaVec {
    bases: Vec<i64>,
    width: u32,
    len: u64,
    words: Vec<u64>,
}

impl DeltaVec {
    /// Builds a [`DeltaVec`] from a slice of plain values.
    pub fn from_slice(values: &[i64]) -> Self {
        if values.is_empty() {
            return Self::default();
        }
        let mut bases = Vec::with_capacity(values.len().div_ceil(DELTA_BLOCK_ROWS));
        let mut max_range = 0u128;
        for block in values.chunks(DELTA_BLOCK_ROWS) {
            let (mut min, mut max) = (block[0], block[0]);
            for &v in block {
                min = min.min(v);
                max = max.max(v);
            }
            bases.push(min);
            max_range = max_range.max(offset_from(min, max) as u128);
        }
        let width = bits_for_range(max_range);
        let total_bits = values.len() as u64 * u64::from(width);
        let mut words = vec![0u64; total_bits.div_ceil(64) as usize];
        for (i, &v) in values.iter().enumerate() {
            let base = bases[i / DELTA_BLOCK_ROWS];
            write_bits(&mut words, i as u64, width, offset_from(base, v));
        }
        Self {
            bases,
            width,
            len: values.len() as u64,
            words,
        }
    }

    /// Number of logical values.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the vector holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per stored offset.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Returns the value at position `index`, or `None` when out of range.
    pub fn get(&self, index: usize) -> Option<i64> {
        if (index as u64) >= self.len {
            return None;
        }
        let base = self.bases[index / DELTA_BLOCK_ROWS];
        let raw = read_bits(&self.words, index as u64, self.width);
        Some(apply_offset(base, raw))
    }

    /// Appends the values at positions `start..start + len` to `out`, with one
    /// bounds check for the range.
    ///
    /// # Panics
    /// Panics if the range runs past the end of the vector.
    pub fn decode_range(&self, start: usize, len: usize, out: &mut Vec<i64>) {
        let end = start + len;
        assert!(
            end as u64 <= self.len,
            "range {start}..{end} past {}",
            self.len
        );
        out.extend((start..end).map(|i| {
            let raw = read_bits(&self.words, i as u64, self.width);
            apply_offset(self.bases[i / DELTA_BLOCK_ROWS], raw)
        }));
    }

    /// Appends the values at positions `start + o` for each `o` of `offsets`
    /// to `out`.
    ///
    /// # Panics
    /// Panics if a position is past the end of the vector.
    pub fn gather(&self, start: usize, offsets: &[u32], out: &mut Vec<i64>) {
        out.extend(offsets.iter().map(|&o| {
            let index = start + o as usize;
            assert!((index as u64) < self.len, "row {index} past {}", self.len);
            let raw = read_bits(&self.words, index as u64, self.width);
            apply_offset(self.bases[index / DELTA_BLOCK_ROWS], raw)
        }));
    }

    /// Decodes the whole vector back into plain values.
    pub fn decode(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.len());
        self.decode_range(0, self.len(), &mut out);
        out
    }

    /// Approximate heap footprint in bytes of the encoded form.
    pub fn encoded_bytes(&self) -> u64 {
        ((self.words.len() + self.bases.len()) * std::mem::size_of::<u64>()) as u64
            + std::mem::size_of::<Self>() as u64
    }

    /// Heap footprint the same data would occupy as a plain `Vec<i64>`.
    pub fn plain_bytes(&self) -> u64 {
        self.len * std::mem::size_of::<i64>() as u64
    }
}

/// An append-only string dictionary mapping distinct strings to dense `u32` codes.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    by_code: Vec<Arc<str>>,
    by_value: FxHashMap<Arc<str>, u32>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the code for `value`, interning it if it is new.
    pub fn intern(&mut self, value: &str) -> u32 {
        if let Some(&code) = self.by_value.get(value) {
            return code;
        }
        let code = u32::try_from(self.by_code.len()).expect("dictionary exceeds u32 codes");
        let owned: Arc<str> = Arc::from(value);
        self.by_code.push(Arc::clone(&owned));
        self.by_value.insert(owned, code);
        code
    }

    /// Looks up an existing code without interning.
    pub fn code_of(&self, value: &str) -> Option<u32> {
        self.by_value.get(value).copied()
    }

    /// Returns the string for `code`, or `None` if the code was never issued.
    pub fn value_of(&self, code: u32) -> Option<&Arc<str>> {
        self.by_code.get(code as usize)
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.by_code.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.by_code.is_empty()
    }

    /// Approximate heap footprint in bytes (string payloads plus the code table).
    pub fn encoded_bytes(&self) -> u64 {
        let strings: usize = self.by_code.iter().map(|s| s.len()).sum();
        (strings + self.by_code.len() * std::mem::size_of::<Arc<str>>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rle_roundtrip_simple() {
        let values = vec![1, 1, 1, 2, 2, 3, 3, 3, 3, 1];
        let rle = RleVec::from_slice(&values);
        assert_eq!(rle.len(), values.len());
        assert_eq!(rle.num_runs(), 4);
        assert_eq!(rle.decode(), values);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(rle.get(i), Some(v));
        }
        assert_eq!(rle.get(values.len()), None);
    }

    #[test]
    fn rle_empty() {
        let rle = RleVec::new();
        assert!(rle.is_empty());
        assert_eq!(rle.len(), 0);
        assert_eq!(rle.num_runs(), 0);
        assert_eq!(rle.get(0), None);
        assert_eq!(rle.decode(), Vec::<i64>::new());
        assert_eq!(rle.compression_ratio(), 1.0);
    }

    #[test]
    fn rle_single_run_compresses_well() {
        let rle: RleVec = std::iter::repeat_n(42, 10_000).collect();
        assert_eq!(rle.num_runs(), 1);
        assert_eq!(rle.len(), 10_000);
        assert_eq!(rle.get(9_999), Some(42));
        assert!(rle.compression_ratio() > 1_000.0);
    }

    #[test]
    fn rle_incompressible_data_costs_double() {
        // Strictly alternating values: one run per value, each run is 16 bytes vs 8.
        let values: Vec<i64> = (0..100).map(|i| i % 2).collect();
        let rle = RleVec::from_slice(&values);
        assert_eq!(rle.num_runs(), 100);
        assert!(rle.compression_ratio() < 1.0);
        assert_eq!(rle.decode(), values);
    }

    #[test]
    fn rle_iter_matches_decode() {
        let values = vec![5, 5, -1, -1, -1, 0];
        let rle = RleVec::from_slice(&values);
        let collected: Vec<i64> = rle.iter().collect();
        assert_eq!(collected, values);
    }

    #[test]
    fn run_cursor_walks_runs_and_seeks_mid_run() {
        let values = vec![7, 7, 7, 2, 2, 9, 9, 9, 9, 4];
        let rle = RleVec::from_slice(&values);
        let mut cursor = rle.runs();
        assert_eq!(cursor.next_run(), Some((7, 0, 3)));
        assert_eq!(cursor.next_run(), Some((2, 3, 5)));
        assert_eq!(cursor.next_run(), Some((9, 5, 9)));
        assert_eq!(cursor.next_run(), Some((4, 9, 10)));
        assert_eq!(cursor.next_run(), None);
        // Seeking into the middle of a run yields that run in full.
        cursor.seek(6);
        assert_eq!(cursor.next_run(), Some((9, 5, 9)));
        cursor.seek(0);
        assert_eq!(cursor.next_run(), Some((7, 0, 3)));
        cursor.seek(10);
        assert_eq!(cursor.next_run(), None);
    }

    #[test]
    fn run_cursor_reconstructs_decode() {
        let mut rng = StdRng::seed_from_u64(0x2C57);
        for case in 0..64 {
            let values: Vec<i64> = (0..rng.gen_range(0..300usize))
                .map(|_| rng.gen_range(-4i64..4))
                .collect();
            let rle = RleVec::from_slice(&values);
            let mut rebuilt = Vec::new();
            let mut cursor = rle.runs();
            while let Some((value, start, end)) = cursor.next_run() {
                assert_eq!(start, rebuilt.len() as u64, "case {case}");
                rebuilt.extend(std::iter::repeat_n(value, (end - start) as usize));
            }
            assert_eq!(rebuilt, rle.decode(), "case {case}");
            assert_eq!(rebuilt, values, "case {case}");
        }
    }

    #[test]
    fn bit_packed_roundtrip_and_width() {
        let values: Vec<i64> = (0..1000).map(|i| 100 + i % 7).collect();
        let packed = BitPackedVec::from_slice(&values);
        assert_eq!(packed.len(), values.len());
        assert_eq!(packed.width(), 3); // range 0..=6 needs 3 bits
        assert_eq!(packed.decode(), values);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(packed.get(i), Some(v), "index {i}");
        }
        assert_eq!(packed.get(values.len()), None);
        assert!(packed.encoded_bytes() < packed.plain_bytes() / 4);
    }

    #[test]
    fn bit_packed_handles_extremes_and_empty() {
        assert!(BitPackedVec::from_slice(&[]).is_empty());
        assert_eq!(BitPackedVec::from_slice(&[]).get(0), None);
        let constant = BitPackedVec::from_slice(&[5; 64]);
        assert_eq!(constant.width(), 0);
        assert_eq!(constant.decode(), vec![5; 64]);
        // Full i64 range forces width 64 and must still round-trip.
        let wide = BitPackedVec::from_slice(&[i64::MIN, 0, i64::MAX, -1, 1]);
        assert_eq!(wide.width(), 64);
        assert_eq!(wide.decode(), vec![i64::MIN, 0, i64::MAX, -1, 1]);
    }

    #[test]
    fn delta_roundtrip_on_sequential_keys() {
        let values: Vec<i64> = (0..5000).collect();
        let delta = DeltaVec::from_slice(&values);
        assert_eq!(delta.len(), values.len());
        // Each 128-row block spans 127, so offsets fit in 7 bits.
        assert_eq!(delta.width(), 7);
        assert_eq!(delta.decode(), values);
        for &i in &[0usize, 127, 128, 129, 4999] {
            assert_eq!(delta.get(i), Some(values[i]), "index {i}");
        }
        assert_eq!(delta.get(values.len()), None);
        assert!(delta.encoded_bytes() < delta.plain_bytes() / 4);
    }

    #[test]
    fn delta_handles_extremes_and_empty() {
        assert!(DeltaVec::from_slice(&[]).is_empty());
        let wide = DeltaVec::from_slice(&[i64::MIN, i64::MAX, 0, -7]);
        assert_eq!(wide.decode(), vec![i64::MIN, i64::MAX, 0, -7]);
    }

    #[test]
    fn prop_packed_and_delta_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0xB17);
        for case in 0..128 {
            let len = rng.gen_range(0..600usize);
            let base = rng.gen_range(-1_000_000i64..1_000_000);
            let spread = rng.gen_range(0i64..10_000);
            let values: Vec<i64> = (0..len)
                .map(|_| base + rng.gen_range(0..spread + 1))
                .collect();
            let packed = BitPackedVec::from_slice(&values);
            assert_eq!(packed.decode(), values, "packed case {case}");
            let delta = DeltaVec::from_slice(&values);
            assert_eq!(delta.decode(), values, "delta case {case}");
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(packed.get(i), Some(v), "packed case {case} index {i}");
                assert_eq!(delta.get(i), Some(v), "delta case {case} index {i}");
            }
        }
    }

    #[test]
    fn dictionary_interns_and_reuses_codes() {
        let mut dict = Dictionary::new();
        assert!(dict.is_empty());
        let a = dict.intern("ASIA");
        let b = dict.intern("EUROPE");
        let a2 = dict.intern("ASIA");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(dict.len(), 2);
        assert!(!dict.is_empty());
        assert_eq!(dict.value_of(a).unwrap().as_ref(), "ASIA");
        assert_eq!(dict.code_of("EUROPE"), Some(b));
        assert_eq!(dict.code_of("AFRICA"), None);
        assert_eq!(dict.value_of(99), None);
    }

    // Randomized round-trip properties over a fixed-seed RNG (deterministic runs;
    // the case index in the assertion message identifies a failing input).
    #[test]
    fn prop_rle_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0x51E1);
        for case in 0..256 {
            let values: Vec<i64> = (0..rng.gen_range(0..400usize))
                .map(|_| rng.gen_range(-50i64..50))
                .collect();
            let rle = RleVec::from_slice(&values);
            assert_eq!(rle.decode(), values, "case {case}");
            assert_eq!(rle.len(), values.len(), "case {case}");
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(rle.get(i), Some(v), "case {case} index {i}");
            }
            assert!(rle.num_runs() <= values.len(), "case {case}");
        }
    }

    #[test]
    fn prop_dict_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0xD1C1);
        for case in 0..256 {
            // Short strings over the letters A–E, the low-cardinality shape
            // dictionary encoding is built for.
            let values: Vec<String> = (0..rng.gen_range(0..200usize))
                .map(|_| {
                    (0..rng.gen_range(1..=3usize))
                        .map(|_| (b'A' + rng.gen_range(0..5u8)) as char)
                        .collect()
                })
                .collect();
            let mut dict = Dictionary::new();
            let codes: Vec<u32> = values.iter().map(|v| dict.intern(v)).collect();
            for (i, (v, &code)) in values.iter().zip(&codes).enumerate() {
                let got = dict.value_of(code).unwrap();
                assert_eq!(got.as_ref(), v.as_str(), "case {case} index {i}");
                assert_eq!(dict.code_of(v), Some(code), "case {case} index {i}");
            }
            let distinct: std::collections::BTreeSet<&str> =
                values.iter().map(String::as_str).collect();
            assert_eq!(dict.len(), distinct.len(), "case {case}");
        }
    }
}
