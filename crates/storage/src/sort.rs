//! External merge sort: run generation under a memory budget, then k-way
//! merge over spilled runs.
//!
//! Milestone 3's approach (a) to the ordering problem — "if we sort the
//! tuples in the intermediary relation ... e.g. by implementing external
//! sorting, we suffer no further restrictions on how to evaluate the
//! relational algebra expression". The paper notes BDB's lack of
//! block-based writing made this hard for students to do "properly by the
//! book"; our heap files write blocks, so this is the textbook algorithm.

use crate::env::Env;
use crate::governor::{Governor, MemReservation};
use crate::heap::{HeapFile, HeapWriter, OwnedScan};
use crate::Result;
use std::cmp::Ordering;

/// Record comparator used by the sorter.
pub type RecordCmp = Box<dyn Fn(&[u8], &[u8]) -> Ordering + Send>;

/// Where one buffered record lies in the arena: `(start, end)`.
type Entry = (usize, usize);

/// External sorter over opaque byte records. See module docs.
pub struct ExternalSorter {
    env: Env,
    cmp: RecordCmp,
    /// The current run's records, back to back in push order.
    arena: Vec<u8>,
    /// One entry per buffered record; sorting permutes these, not bytes.
    index: Vec<Entry>,
    budget_bytes: usize,
    /// Spilled, individually sorted runs.
    runs: Vec<HeapFile>,
    pushed: u64,
    governor: Governor,
    /// Accounts the arena's and the index's bytes against the governor's
    /// memory budget; releases itself on drop (including on a cancellation
    /// unwind).
    reservation: MemReservation,
}

impl ExternalSorter {
    /// Creates a sorter that spills once the buffered records exceed
    /// `budget_bytes` (plus bookkeeping). Buffered bytes are accounted
    /// against the calling thread's installed [`Governor`], if any:
    /// governor budget pressure forces an early spill exactly like the
    /// sorter's own budget does.
    pub fn new(
        env: &Env,
        budget_bytes: usize,
        cmp: impl Fn(&[u8], &[u8]) -> Ordering + Send + 'static,
    ) -> ExternalSorter {
        Self::with_governor(env, budget_bytes, Governor::current(), cmp)
    }

    /// [`ExternalSorter::new`] with an explicit governor instead of the
    /// thread's installed one.
    pub fn with_governor(
        env: &Env,
        budget_bytes: usize,
        governor: Governor,
        cmp: impl Fn(&[u8], &[u8]) -> Ordering + Send + 'static,
    ) -> ExternalSorter {
        let reservation = MemReservation::empty(&governor);
        ExternalSorter {
            env: env.clone(),
            cmp: Box::new(cmp),
            arena: Vec::new(),
            index: Vec::new(),
            budget_bytes: budget_bytes.max(1),
            runs: Vec::new(),
            pushed: 0,
            governor,
            reservation,
        }
    }

    /// Convenience constructor for plain lexicographic byte order.
    pub fn lexicographic(env: &Env, budget_bytes: usize) -> ExternalSorter {
        Self::new(env, budget_bytes, |a, b| a.cmp(b))
    }

    /// Number of records pushed so far.
    pub fn len(&self) -> u64 {
        self.pushed
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// Number of runs spilled to disk so far.
    pub fn spilled_runs(&self) -> usize {
        self.runs.len()
    }

    /// Adds a copy of `record`. A record the governor's budget cannot
    /// cover forces a spill first (graceful degradation: disk instead of
    /// an error); only a record the governor cannot cover with this
    /// sorter's buffer empty fails with
    /// [`crate::StorageError::MemoryExceeded`].
    pub fn push(&mut self, record: &[u8]) -> Result<()> {
        let cost = record.len() + std::mem::size_of::<Entry>();
        if !self.reservation.grow(cost) {
            self.spill()?;
            if !self.reservation.grow(cost) {
                return Err(crate::StorageError::MemoryExceeded {
                    used: self.governor.mem_used() + cost,
                    budget: self.governor.mem_budget().unwrap_or(0),
                });
            }
        }
        let start = self.arena.len();
        self.arena.extend_from_slice(record);
        self.index.push((start, self.arena.len()));
        self.pushed += 1;
        if self.reservation.bytes() > self.budget_bytes {
            self.spill()?;
        }
        Ok(())
    }

    /// Sorts the index by the records it points to; equal records keep
    /// their push order.
    fn sort_index(&mut self) {
        let (arena, cmp) = (&self.arena, &self.cmp);
        self.index
            .sort_by(|a, b| cmp(&arena[a.0..a.1], &arena[b.0..b.1]));
    }

    /// Writes the buffered records to a new run, sorted, and empties the
    /// buffer (keeping its capacity for the next run).
    pub fn spill(&mut self) -> Result<()> {
        if self.index.is_empty() {
            return Ok(());
        }
        let bytes = self.reservation.bytes() as u64;
        let span = xmldb_obs::span("sort.spill");
        span.attr_u64("bytes", bytes);
        span.attr_u64("records", self.index.len() as u64);
        self.sort_index();
        let mut run = HeapWriter::temp(&self.env)?;
        for &(start, end) in &self.index {
            run.append(&self.arena[start..end])?;
        }
        let run = run.finish()?;
        self.governor.note_spill(bytes);
        let registry = self.env.registry();
        registry.counter("saardb_sort_spills_total", &[]).inc();
        registry
            .counter("saardb_sort_spill_bytes_total", &[])
            .add(bytes);
        self.arena.clear();
        self.index.clear();
        self.reservation.release_all();
        self.runs.push(run);
        Ok(())
    }

    /// Finishes and returns the records in sorted order.
    pub fn finish(mut self) -> Result<SortedRecords> {
        let merge = if self.runs.is_empty() {
            // Everything fit in memory: no merge needed. The arena and its
            // reservation move into the result — the records stay
            // accounted until the consumer is done with them.
            self.sort_index();
            None
        } else {
            self.spill()?;
            (self.arena, self.index) = (Vec::new(), Vec::new());
            Some(MergeState::new(self.runs, self.cmp)?)
        };
        Ok(SortedRecords {
            arena: self.arena,
            index: self.index.into_iter(),
            merge,
            _reservation: self.reservation,
        })
    }
}

/// The sorted records produced by [`ExternalSorter::finish`], lent one at
/// a time by [`SortedRecords::next_record`].
pub struct SortedRecords {
    arena: Vec<u8>,
    index: std::vec::IntoIter<Entry>,
    merge: Option<MergeState>,
    /// Keeps the in-memory records accounted against the governor until
    /// they drop.
    _reservation: MemReservation,
}

impl SortedRecords {
    /// The next record in sorted order, borrowed until the next call;
    /// `None` after the last.
    pub fn next_record(&mut self) -> Result<Option<&[u8]>> {
        match &mut self.merge {
            Some(merge) => merge.next_record(),
            None => Ok(self
                .index
                .next()
                .map(|(start, end)| &self.arena[start..end])),
        }
    }
}

/// K-way merge over spilled runs. Runs are few (dozens at most for the
/// Figure 7 workloads), so min-selection is a linear scan of run heads,
/// each a record in the page its scan holds.
struct MergeState {
    /// One scan per run, standing on its next unconsumed record.
    runs: Vec<OwnedScan>,
    cmp: RecordCmp,
    /// The run whose head the last call lent out: it steps past it first
    /// thing on the next call.
    lent: Option<usize>,
}

impl MergeState {
    fn new(runs: Vec<HeapFile>, cmp: RecordCmp) -> Result<MergeState> {
        let mut scans = Vec::with_capacity(runs.len());
        for heap in runs {
            let mut scan = heap.into_scan();
            scan.fill()?;
            scans.push(scan);
        }
        Ok(MergeState {
            runs: scans,
            cmp,
            lent: None,
        })
    }

    fn next_record(&mut self) -> Result<Option<&[u8]>> {
        if let Some(i) = self.lent.take() {
            let run = &mut self.runs[i];
            run.next_record()?;
            run.fill()?;
        }
        // The lowest run wins ties, so equal records keep push order.
        let mut best: Option<(usize, &[u8])> = None;
        for (i, run) in self.runs.iter().enumerate() {
            let Some(head) = run.peek() else { continue };
            if best.map_or(true, |(_, b)| (self.cmp)(head, b) == Ordering::Less) {
                best = Some((i, head));
            }
        }
        self.lent = best.map(|(i, _)| i);
        Ok(best.map(|(_, head)| head))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvConfig;

    /// Every record of a finished sorter, in the order it lends them.
    fn collect(sorter: ExternalSorter) -> Vec<Vec<u8>> {
        let mut sorted = sorter.finish().unwrap();
        let mut out = Vec::new();
        while let Some(record) = sorted.next_record().unwrap() {
            out.push(record.to_vec());
        }
        out
    }

    #[test]
    fn in_memory_sort() {
        let env = Env::memory();
        let mut sorter = ExternalSorter::lexicographic(&env, 1 << 20);
        for rec in [&b"cherry"[..], b"apple", b"banana"] {
            sorter.push(rec).unwrap();
        }
        assert_eq!(sorter.spilled_runs(), 0);
        let out = collect(sorter);
        assert_eq!(
            out,
            vec![b"apple".to_vec(), b"banana".to_vec(), b"cherry".to_vec()]
        );
    }

    #[test]
    fn spilling_sort_merges_runs() {
        let env = Env::memory_with(EnvConfig {
            page_size: 512,
            pool_bytes: 32 * 512,
        });
        // Tiny budget forces many runs.
        let mut sorter = ExternalSorter::lexicographic(&env, 512);
        let n = 1000u32;
        for i in 0..n {
            // Scrambled order, fixed-width keys so byte order = numeric order.
            let v = (i * 7919 + 13) % n;
            sorter.push(format!("{v:08}").as_bytes()).unwrap();
        }
        assert!(
            sorter.spilled_runs() > 2,
            "expected spills, got {}",
            sorter.spilled_runs()
        );
        let out = collect(sorter);
        assert_eq!(out.len(), n as usize);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        // All inputs present exactly once ((i*7919+13) mod 1000 is a bijection
        // because gcd(7919, 1000) = 1).
        let expected: Vec<Vec<u8>> = (0..n).map(|i| format!("{i:08}").into_bytes()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn custom_comparator_descending() {
        let env = Env::memory();
        let mut sorter = ExternalSorter::new(&env, 64, |a, b| b.cmp(a));
        for i in 0..100u32 {
            sorter
                .push(format!("{:04}", (i * 37) % 100).as_bytes())
                .unwrap();
        }
        let out = collect(sorter);
        assert!(out.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn duplicates_preserved() {
        let env = Env::memory();
        let mut sorter = ExternalSorter::lexicographic(&env, 32);
        for _ in 0..10 {
            sorter.push(b"same").unwrap();
        }
        let out = collect(sorter);
        assert_eq!(out.len(), 10);
    }

    /// Records compared by their first byte alone come out in push order
    /// among equals, from memory and from the merge of spilled runs.
    #[test]
    fn equal_keys_keep_push_order() {
        let env = Env::memory_with(EnvConfig {
            page_size: 512,
            pool_bytes: 32 * 512,
        });
        for budget in [1 << 20, 64] {
            let mut sorter = ExternalSorter::new(&env, budget, |a, b| a[0].cmp(&b[0]));
            for i in 0..300u32 {
                sorter
                    .push(&[b"ba"[(i % 2) as usize], (i / 2) as u8])
                    .unwrap();
            }
            assert_eq!(sorter.spilled_runs() > 0, budget == 64);
            let out = collect(sorter);
            let expected: Vec<Vec<u8>> = [b'a', b'b']
                .iter()
                .flat_map(|&k| (0..150u32).map(move |i| vec![k, i as u8]))
                .collect();
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn empty_sorter() {
        let env = Env::memory();
        let sorter = ExternalSorter::lexicographic(&env, 1024);
        assert!(sorter.is_empty());
        assert!(collect(sorter).is_empty());
    }

    #[test]
    fn governor_pressure_spills_instead_of_failing() {
        let env = Env::memory();
        // The sorter's own budget is generous; the governor's is not.
        let gov = Governor::with_limits(None, Some(400));
        let mut sorter = ExternalSorter::with_governor(&env, 1 << 20, gov.clone(), |a, b| a.cmp(b));
        for i in 0..200u32 {
            sorter
                .push(format!("{:08}", (i * 37) % 200).as_bytes())
                .unwrap();
        }
        assert!(sorter.spilled_runs() > 0, "governor pressure must spill");
        let out = collect(sorter);
        assert_eq!(out.len(), 200);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        let snap = gov.snapshot();
        assert!(snap.spill_count > 0);
        assert!(snap.spill_bytes > 0);
        assert!(
            snap.peak_bytes <= 400,
            "peak {} over budget",
            snap.peak_bytes
        );
        assert_eq!(gov.mem_used(), 0, "all reservations released");
    }

    #[test]
    fn oversized_record_fails_with_memory_exceeded() {
        let env = Env::memory();
        let gov = Governor::with_limits(None, Some(64));
        let mut sorter = ExternalSorter::with_governor(&env, 1 << 20, gov.clone(), |a, b| a.cmp(b));
        let err = sorter.push(&[0u8; 1000]).unwrap_err();
        assert!(
            matches!(err, crate::StorageError::MemoryExceeded { budget: 64, .. }),
            "{err}"
        );
        drop(sorter);
        assert_eq!(gov.mem_used(), 0, "reservation released after failure");
    }

    #[test]
    fn in_memory_records_stay_accounted_until_iterator_drops() {
        let env = Env::memory();
        let gov = Governor::with_limits(None, Some(1 << 20));
        let mut sorter = ExternalSorter::with_governor(&env, 1 << 20, gov.clone(), |a, b| a.cmp(b));
        for i in 0..10u32 {
            sorter.push(format!("{i:04}").as_bytes()).unwrap();
        }
        let sorted = sorter.finish().unwrap();
        assert!(gov.mem_used() > 0, "in-memory results remain accounted");
        drop(sorted);
        assert_eq!(gov.mem_used(), 0);
    }

    #[test]
    fn temp_runs_cleaned_up() {
        let env = Env::memory();
        {
            let mut sorter = ExternalSorter::lexicographic(&env, 16);
            for i in 0..100u32 {
                sorter.push(format!("{i:06}").as_bytes()).unwrap();
            }
            assert_eq!(collect(sorter).len(), 100);
        }
        // After the iterator drops, no run files remain registered: a fresh
        // temp file gets a fresh id and the env accepts it.
        let t = crate::TempFile::new(&env).unwrap();
        env.appender(t.id()).unwrap().append().unwrap();
    }
}
