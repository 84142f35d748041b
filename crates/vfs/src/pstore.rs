//! Persistent (versioned) storage primitives for the filesystem.
//!
//! Two structures give `Fs::snapshot()` its O(1) cost:
//!
//! * [`PVec`] — an Arc-based path-copying radix trie keyed by `u64`. Inode
//!   numbers are dense, sequential and never reused, which makes a radix
//!   trie the ideal persistent map: cloning is one `Arc` bump, and a
//!   mutation after a clone copies only the O(log₃₂ n) branch nodes on the
//!   path to the touched leaf, sharing everything else with the snapshot.
//! * [`FileContent`] — regular-file bytes held as a vector of `Arc`'d
//!   chunks, so a write into a snapshotted file copies one chunk (at most
//!   [`CHUNK_SIZE`] bytes), not the whole file.
//!
//! Both are plain value types: a "snapshot" is just a `clone()`.

use std::sync::Arc;

/// Radix-trie fanout is 2^BITS.
const BITS: u32 = 5;
/// Children per branch node.
const FANOUT: usize = 1 << BITS;
/// Index mask at one trie level.
const MASK: u64 = FANOUT as u64 - 1;

/// Nodes only ever live behind an `Arc`, so the enum's by-value size is
/// paid once per allocation; boxing the branch array to shrink leaves
/// would add a pointer chase to every level of every lookup.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Node<T> {
    Branch([Option<Arc<Node<T>>>; FANOUT]),
    Leaf(T),
}

fn empty_slots<T>() -> [Option<Arc<Node<T>>>; FANOUT] {
    std::array::from_fn(|_| None)
}

/// A persistent map from `u64` keys to `T`, tuned for dense keys.
///
/// `clone()` is O(1); after a clone, the two copies share structure and a
/// mutation in one copies only the branch path it touches.
#[derive(Debug, Clone)]
pub struct PVec<T> {
    /// Always a `Branch`; covers keys below `FANOUT^height`.
    root: Arc<Node<T>>,
    /// Branch levels between the root and the leaves (≥ 1).
    height: u32,
    /// Live entries.
    len: usize,
}

impl<T: Clone> Default for PVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> PVec<T> {
    /// An empty map.
    #[must_use]
    pub fn new() -> PVec<T> {
        PVec {
            root: Arc::new(Node::Branch(empty_slots())),
            height: 1,
            len: 0,
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn fits(&self, key: u64) -> bool {
        self.height * BITS >= 64 || key < 1u64 << (self.height * BITS)
    }

    fn top_shift(&self) -> u32 {
        (self.height - 1) * BITS
    }

    /// Adds a level on top, putting the current root at slot 0 (old keys
    /// keep their positions: their new top-level index is 0).
    fn grow(&mut self) {
        let mut slots = empty_slots();
        slots[0] = Some(self.root.clone());
        self.root = Arc::new(Node::Branch(slots));
        self.height += 1;
    }

    /// Borrows the value at `key`.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<&T> {
        if !self.fits(key) {
            return None;
        }
        let mut node: &Node<T> = &self.root;
        let mut shift = self.top_shift();
        loop {
            match node {
                Node::Leaf(v) => return Some(v),
                Node::Branch(slots) => {
                    let idx = ((key >> shift) & MASK) as usize;
                    node = slots[idx].as_deref()?;
                    shift = shift.saturating_sub(BITS);
                }
            }
        }
    }

    /// Mutably borrows the value at `key`, path-copying shared branch
    /// nodes on the way down.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        if !self.fits(key) {
            return None;
        }
        let mut shift = self.top_shift();
        let mut node: &mut Node<T> = Arc::make_mut(&mut self.root);
        loop {
            match node {
                Node::Leaf(v) => return Some(v),
                Node::Branch(slots) => {
                    let idx = ((key >> shift) & MASK) as usize;
                    node = Arc::make_mut(slots[idx].as_mut()?);
                    shift = shift.saturating_sub(BITS);
                }
            }
        }
    }

    /// True if `key` is present.
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `value` at `key`, returning any value it replaced.
    pub fn insert(&mut self, key: u64, value: T) -> Option<T> {
        while !self.fits(key) {
            self.grow();
        }
        let shift = self.top_shift();
        let replaced = Self::insert_rec(Arc::make_mut(&mut self.root), key, shift, value);
        if replaced.is_none() {
            self.len += 1;
        }
        replaced
    }

    fn insert_rec(node: &mut Node<T>, key: u64, shift: u32, value: T) -> Option<T> {
        let Node::Branch(slots) = node else {
            unreachable!("leaves live only below the last branch level")
        };
        let idx = ((key >> shift) & MASK) as usize;
        if shift == 0 {
            match &mut slots[idx] {
                Some(arc) => match Arc::make_mut(arc) {
                    Node::Leaf(v) => Some(std::mem::replace(v, value)),
                    Node::Branch(_) => unreachable!("branch at leaf level"),
                },
                slot @ None => {
                    *slot = Some(Arc::new(Node::Leaf(value)));
                    None
                }
            }
        } else {
            let child = slots[idx].get_or_insert_with(|| Arc::new(Node::Branch(empty_slots())));
            Self::insert_rec(Arc::make_mut(child), key, shift - BITS, value)
        }
    }

    /// Removes and returns the value at `key`. Emptied branch nodes are
    /// left in place: keys are never reused, so pruning buys nothing.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        if !self.contains(key) {
            return None; // avoid path-copying on a miss
        }
        let shift = self.top_shift();
        let removed = Self::remove_rec(Arc::make_mut(&mut self.root), key, shift);
        debug_assert!(removed.is_some());
        self.len -= 1;
        removed
    }

    fn remove_rec(node: &mut Node<T>, key: u64, shift: u32) -> Option<T> {
        let Node::Branch(slots) = node else {
            unreachable!("leaves live only below the last branch level")
        };
        let idx = ((key >> shift) & MASK) as usize;
        if shift == 0 {
            let arc = slots[idx].take()?;
            Some(match Arc::try_unwrap(arc) {
                Ok(Node::Leaf(v)) => v,
                Ok(Node::Branch(_)) => unreachable!("branch at leaf level"),
                Err(shared) => match &*shared {
                    Node::Leaf(v) => v.clone(),
                    Node::Branch(_) => unreachable!("branch at leaf level"),
                },
            })
        } else {
            let child = slots[idx].as_mut()?;
            Self::remove_rec(Arc::make_mut(child), key, shift - BITS)
        }
    }

    /// Visits every live value in ascending key order.
    pub fn for_each<F: FnMut(&T)>(&self, mut f: F) {
        Self::walk(&self.root, &mut f);
    }

    fn walk<F: FnMut(&T)>(node: &Node<T>, f: &mut F) {
        match node {
            Node::Leaf(v) => f(v),
            Node::Branch(slots) => {
                for child in slots.iter().flatten() {
                    Self::walk(child, f);
                }
            }
        }
    }
}

/// Chunk granularity for [`FileContent`]. A write into a shared file
/// copies at most this many bytes per touched chunk.
pub const CHUNK_SIZE: usize = 4096;

/// Regular-file bytes as a sequence of `Arc`'d chunks with structural
/// sharing across snapshots.
///
/// Invariant: every chunk is exactly [`CHUNK_SIZE`] bytes except possibly
/// the last, and `len` is the sum of chunk lengths. Chunk boundaries are
/// therefore a deterministic function of `len`, never observable through
/// reads, writes, digests or equality.
#[derive(Debug, Clone, Default)]
pub struct FileContent {
    chunks: Vec<Arc<Vec<u8>>>,
    len: usize,
}

impl FileContent {
    /// An empty file.
    #[must_use]
    pub fn new() -> FileContent {
        FileContent::default()
    }

    /// Chunks a flat byte vector.
    #[must_use]
    pub fn from_vec(data: Vec<u8>) -> FileContent {
        let len = data.len();
        let chunks = data
            .chunks(CHUNK_SIZE)
            .map(|c| Arc::new(c.to_vec()))
            .collect();
        FileContent { chunks, len }
    }

    /// Logical length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length file.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies the whole file out as one flat vector.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for c in &self.chunks {
            out.extend_from_slice(c);
        }
        out
    }

    /// Reads up to `want` bytes at `off`; short (or empty) past EOF.
    #[must_use]
    pub fn read_at(&self, off: usize, want: usize) -> Vec<u8> {
        if off >= self.len {
            return Vec::new();
        }
        let end = (off + want).min(self.len);
        let mut out = Vec::with_capacity(end - off);
        let mut pos = off;
        while pos < end {
            let chunk = &self.chunks[pos / CHUNK_SIZE];
            let co = pos % CHUNK_SIZE;
            let take = (end - pos).min(chunk.len() - co);
            out.extend_from_slice(&chunk[co..co + take]);
            pos += take;
        }
        out
    }

    /// Grows (zero-filling) or shrinks the file to `new_len` bytes.
    pub fn resize(&mut self, new_len: usize) {
        if new_len < self.len {
            let keep_chunks = new_len.div_ceil(CHUNK_SIZE);
            self.chunks.truncate(keep_chunks);
            if let Some(last) = self.chunks.last_mut() {
                let keep = new_len - (keep_chunks - 1) * CHUNK_SIZE;
                if last.len() > keep {
                    Arc::make_mut(last).truncate(keep);
                }
            }
        } else if new_len > self.len {
            // Top up the (possibly partial) last chunk first, then append
            // whole zero chunks.
            if !self.chunks.is_empty() {
                let base = (self.chunks.len() - 1) * CHUNK_SIZE;
                let target = (new_len - base).min(CHUNK_SIZE);
                let last = self.chunks.last_mut().expect("non-empty");
                if target > last.len() {
                    Arc::make_mut(last).resize(target, 0);
                }
            }
            let mut cur = match self.chunks.last() {
                Some(last) => (self.chunks.len() - 1) * CHUNK_SIZE + last.len(),
                None => 0,
            };
            while cur < new_len {
                let take = (new_len - cur).min(CHUNK_SIZE);
                self.chunks.push(Arc::new(vec![0u8; take]));
                cur += take;
            }
        }
        self.len = new_len;
    }

    /// Writes `data` at `off`, zero-filling any hole before it.
    pub fn write_at(&mut self, off: usize, data: &[u8]) {
        if off == self.len {
            self.append(data);
            return;
        }
        let end = off + data.len();
        if end > self.len {
            self.resize(end);
        }
        let mut pos = off;
        let mut src = 0;
        while src < data.len() {
            let chunk = Arc::make_mut(&mut self.chunks[pos / CHUNK_SIZE]);
            let co = pos % CHUNK_SIZE;
            let take = (data.len() - src).min(chunk.len() - co);
            chunk[co..co + take].copy_from_slice(&data[src..src + take]);
            pos += take;
            src += take;
        }
    }

    /// Appends `data`: tops up the last chunk (one copy-on-write of it at
    /// most), then pushes whole chunks, copying each byte once.
    fn append(&mut self, mut data: &[u8]) {
        self.len += data.len();
        if let Some(last) = self.chunks.last_mut() {
            let take = data.len().min(CHUNK_SIZE - last.len());
            if take > 0 {
                Arc::make_mut(last).extend_from_slice(&data[..take]);
                data = &data[take..];
            }
        }
        self.chunks
            .extend(data.chunks(CHUNK_SIZE).map(|c| Arc::new(c.to_vec())));
    }

    /// The chunks in file order, for streaming consumers (digests). The
    /// concatenation of the yielded slices is exactly the file's bytes.
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        self.chunks.iter().map(|c| c.as_slice())
    }
}

/// Equality is over the logical byte stream. Shared chunks compare by
/// pointer first, so snapshot-vs-branch comparisons skip unchanged spans.
impl PartialEq for FileContent {
    fn eq(&self, other: &Self) -> bool {
        // The length invariant pins chunk boundaries, so equal lengths
        // mean directly comparable chunk vectors.
        self.len == other.len
            && self
                .chunks
                .iter()
                .zip(&other.chunks)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

impl Eq for FileContent {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pvec_insert_get_remove() {
        let mut m: PVec<String> = PVec::new();
        assert!(m.is_empty());
        for i in 0..100u64 {
            assert_eq!(m.insert(i, format!("v{i}")), None);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(42).map(String::as_str), Some("v42"));
        assert_eq!(m.get(100), None);
        assert_eq!(m.insert(42, "new".into()).as_deref(), Some("v42"));
        assert_eq!(m.len(), 100);
        assert_eq!(m.remove(42).as_deref(), Some("new"));
        assert_eq!(m.remove(42), None);
        assert_eq!(m.len(), 99);
        assert_eq!(m.get(42), None);
    }

    #[test]
    fn pvec_grows_past_one_level() {
        let mut m: PVec<u64> = PVec::new();
        for i in 0..40_000u64 {
            m.insert(i, i * 3);
        }
        assert_eq!(m.len(), 40_000);
        assert_eq!(m.get(39_999), Some(&119_997));
        assert_eq!(m.get(40_000), None);
        let mut seen = Vec::new();
        m.for_each(|v| seen.push(*v));
        assert_eq!(seen.len(), 40_000);
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "ascending key order");
    }

    #[test]
    fn pvec_clone_shares_until_mutation() {
        let mut a: PVec<Vec<u8>> = PVec::new();
        for i in 0..1000u64 {
            a.insert(i, vec![i as u8]);
        }
        let b = a.clone();
        a.insert(5, b"mutated".to_vec());
        a.remove(7);
        assert_eq!(b.get(5), Some(&vec![5u8]), "snapshot unaffected");
        assert_eq!(b.get(7), Some(&vec![7u8]), "snapshot keeps removed key");
        assert_eq!(a.get(5).map(Vec::as_slice), Some(&b"mutated"[..]));
        assert_eq!(a.get(7), None);
    }

    #[test]
    fn pvec_get_mut_isolates_from_clone() {
        let mut a: PVec<u32> = PVec::new();
        a.insert(3, 30);
        let b = a.clone();
        *a.get_mut(3).unwrap() = 99;
        assert_eq!(*b.get(3).unwrap(), 30);
        assert_eq!(*a.get(3).unwrap(), 99);
    }

    #[test]
    fn content_read_write_roundtrip() {
        let mut f = FileContent::new();
        f.write_at(0, b"hello world");
        assert_eq!(f.len(), 11);
        assert_eq!(f.read_at(0, 64), b"hello world");
        assert_eq!(f.read_at(6, 5), b"world");
        assert_eq!(f.read_at(11, 5), b"");
        f.write_at(6, b"chunk");
        assert_eq!(f.to_vec(), b"hello chunk");
    }

    #[test]
    fn content_hole_zero_fills() {
        let mut f = FileContent::new();
        f.write_at(CHUNK_SIZE + 3, b"xy");
        assert_eq!(f.len(), CHUNK_SIZE + 5);
        let flat = f.to_vec();
        assert!(flat[..CHUNK_SIZE + 3].iter().all(|&b| b == 0));
        assert_eq!(&flat[CHUNK_SIZE + 3..], b"xy");
    }

    #[test]
    fn content_resize_across_chunks() {
        let mut f = FileContent::from_vec(vec![7u8; 3 * CHUNK_SIZE + 10]);
        f.resize(CHUNK_SIZE + 1);
        assert_eq!(f.len(), CHUNK_SIZE + 1);
        assert_eq!(f.to_vec(), vec![7u8; CHUNK_SIZE + 1]);
        f.resize(2 * CHUNK_SIZE + 5);
        let flat = f.to_vec();
        assert_eq!(flat.len(), 2 * CHUNK_SIZE + 5);
        assert!(flat[..CHUNK_SIZE + 1].iter().all(|&b| b == 7));
        assert!(flat[CHUNK_SIZE + 1..].iter().all(|&b| b == 0));
        // Invariant: all chunks full except the last.
        let sizes: Vec<usize> = f.chunks().map(<[u8]>::len).collect();
        assert!(sizes[..sizes.len() - 1].iter().all(|&s| s == CHUNK_SIZE));
    }

    #[test]
    fn content_clone_shares_untouched_chunks() {
        let mut a = FileContent::from_vec(vec![1u8; 10 * CHUNK_SIZE]);
        let b = a.clone();
        a.write_at(5 * CHUNK_SIZE + 1, b"z");
        assert_eq!(b.to_vec(), vec![1u8; 10 * CHUNK_SIZE], "snapshot intact");
        assert_ne!(a, b);
        let shared = a
            .chunks
            .iter()
            .zip(&b.chunks)
            .filter(|(x, y)| Arc::ptr_eq(x, y))
            .count();
        assert_eq!(shared, 9, "only the written chunk was copied");
    }

    #[test]
    fn content_append_keeps_chunk_invariant_and_snapshots() {
        let mut f = FileContent::new();
        let mut flat = Vec::new();
        let mut snaps = Vec::new();
        for (i, n) in [1, CHUNK_SIZE - 2, 3, 2 * CHUNK_SIZE + 7, 0, 36, CHUNK_SIZE]
            .into_iter()
            .enumerate()
        {
            let data = vec![i as u8 + 1; n];
            snaps.push((f.clone(), flat.clone()));
            f.write_at(f.len(), &data);
            flat.extend_from_slice(&data);
            assert_eq!(f.len(), flat.len());
            assert_eq!(f.to_vec(), flat);
            let sizes: Vec<usize> = f.chunks().map(<[u8]>::len).collect();
            assert!(sizes[..sizes.len() - 1].iter().all(|&s| s == CHUNK_SIZE));
        }
        for (snap, want) in snaps {
            assert_eq!(snap.to_vec(), want, "appends never touch a snapshot");
        }
    }

    #[test]
    fn content_eq_is_logical() {
        let a = FileContent::from_vec(b"abcdef".to_vec());
        let mut b = FileContent::new();
        b.write_at(0, b"abc");
        b.write_at(3, b"def");
        assert_eq!(a, b);
        b.write_at(5, b"X");
        assert_ne!(a, b);
    }
}
