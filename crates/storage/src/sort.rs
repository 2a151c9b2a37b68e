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
use crate::heap::{HeapFile, HeapWriter};
use crate::Result;
use std::cmp::Ordering;

/// Record comparator used by the sorter.
pub type RecordCmp = Box<dyn Fn(&[u8], &[u8]) -> Ordering + Send>;

/// External sorter over opaque byte records. See module docs.
pub struct ExternalSorter {
    env: Env,
    cmp: RecordCmp,
    /// In-memory buffer for the current run.
    buffer: Vec<Vec<u8>>,
    buffered_bytes: usize,
    budget_bytes: usize,
    /// Spilled, individually sorted runs.
    runs: Vec<HeapFile>,
    pushed: u64,
    governor: Governor,
    /// Accounts the buffered records against the governor's memory budget;
    /// releases itself on drop (including on a cancellation unwind).
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
            buffer: Vec::new(),
            buffered_bytes: 0,
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

    /// Adds a record. A record the governor's budget cannot cover forces a
    /// spill first (graceful degradation: disk instead of an error); only
    /// a record too large for the *whole* budget fails with
    /// [`crate::StorageError::MemoryExceeded`].
    pub fn push(&mut self, record: Vec<u8>) -> Result<()> {
        let cost = record.len() + std::mem::size_of::<Vec<u8>>();
        if !self.reservation.grow(cost) {
            self.spill()?;
            if !self.reservation.grow(cost) {
                return Err(crate::StorageError::MemoryExceeded {
                    used: self.governor.mem_used() + cost,
                    budget: self.governor.mem_budget().unwrap_or(0),
                });
            }
        }
        self.buffered_bytes += cost;
        self.buffer.push(record);
        self.pushed += 1;
        if self.buffered_bytes > self.budget_bytes {
            self.spill()?;
        }
        Ok(())
    }

    fn spill(&mut self) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let span = xmldb_obs::span("sort.spill");
        span.attr_u64("bytes", self.buffered_bytes as u64);
        span.attr_u64("records", self.buffer.len() as u64);
        let cmp = &self.cmp;
        self.buffer.sort_by(|a, b| cmp(a, b));
        let mut run = HeapWriter::temp(&self.env)?;
        for record in self.buffer.drain(..) {
            run.append(&record)?;
        }
        let run = run.finish()?;
        self.governor.note_spill(self.buffered_bytes as u64);
        let registry = self.env.registry();
        registry.counter("saardb_sort_spills_total", &[]).inc();
        registry
            .counter("saardb_sort_spill_bytes_total", &[])
            .add(self.buffered_bytes as u64);
        self.buffered_bytes = 0;
        self.reservation.release_all();
        self.runs.push(run);
        Ok(())
    }

    /// Finishes and returns the records in sorted order.
    pub fn finish(mut self) -> Result<SortedRecords> {
        if self.runs.is_empty() {
            // Everything fit in memory: no merge needed. The reservation
            // moves into the iterator — the records stay accounted until
            // the consumer is done with them.
            let cmp = &self.cmp;
            self.buffer.sort_by(|a, b| cmp(a, b));
            return Ok(SortedRecords {
                memory: self.buffer.into_iter(),
                merge: None,
                _reservation: self.reservation,
            });
        }
        self.spill()?;
        Ok(SortedRecords {
            memory: Vec::new().into_iter(),
            merge: Some(MergeState::new(self.runs, self.cmp)?),
            _reservation: self.reservation,
        })
    }
}

/// Iterator over sorted records produced by [`ExternalSorter::finish`].
pub struct SortedRecords {
    memory: std::vec::IntoIter<Vec<u8>>,
    merge: Option<MergeState>,
    /// Keeps the in-memory records accounted against the governor until
    /// the iterator drops.
    _reservation: MemReservation,
}

impl Iterator for SortedRecords {
    type Item = Result<Vec<u8>>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(merge) = &mut self.merge {
            return merge.next_record().transpose();
        }
        self.memory.next().map(Ok)
    }
}

/// K-way merge over spilled runs. Runs are few (dozens at most for the
/// Figure 7 workloads), so min-selection is a linear scan of run heads.
struct MergeState {
    /// `(run, head)` pairs; `head` is the next unconsumed record.
    runs: Vec<RunCursor>,
    cmp: RecordCmp,
}

struct RunCursor {
    /// Streams the run page-at-a-time and keeps its scratch file alive.
    records: crate::heap::OwnedScan,
    head: Option<Vec<u8>>,
}

impl RunCursor {
    fn step(&mut self) -> Result<()> {
        self.head = self.records.next().transpose()?;
        Ok(())
    }
}

impl MergeState {
    fn new(runs: Vec<HeapFile>, cmp: RecordCmp) -> Result<MergeState> {
        let mut cursors = Vec::with_capacity(runs.len());
        for heap in runs {
            let mut cursor = RunCursor {
                records: heap.into_scan(),
                head: None,
            };
            cursor.step()?;
            cursors.push(cursor);
        }
        Ok(MergeState { runs: cursors, cmp })
    }

    fn next_record(&mut self) -> Result<Option<Vec<u8>>> {
        let mut best: Option<usize> = None;
        for (i, run) in self.runs.iter().enumerate() {
            let Some(head) = &run.head else { continue };
            match best {
                None => best = Some(i),
                Some(b) => {
                    let best_head = self.runs[b].head.as_ref().expect("best has head");
                    if (self.cmp)(head, best_head) == Ordering::Less {
                        best = Some(i);
                    }
                }
            }
        }
        let Some(i) = best else { return Ok(None) };
        let run = &mut self.runs[i];
        let out = run.head.take();
        run.step()?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvConfig;

    #[test]
    fn in_memory_sort() {
        let env = Env::memory();
        let mut sorter = ExternalSorter::lexicographic(&env, 1 << 20);
        for rec in [b"cherry".to_vec(), b"apple".to_vec(), b"banana".to_vec()] {
            sorter.push(rec).unwrap();
        }
        assert_eq!(sorter.spilled_runs(), 0);
        let out: Vec<Vec<u8>> = sorter.finish().unwrap().map(|r| r.unwrap()).collect();
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
            sorter.push(format!("{v:08}").into_bytes()).unwrap();
        }
        assert!(
            sorter.spilled_runs() > 2,
            "expected spills, got {}",
            sorter.spilled_runs()
        );
        let out: Vec<Vec<u8>> = sorter.finish().unwrap().map(|r| r.unwrap()).collect();
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
                .push(format!("{:04}", (i * 37) % 100).into_bytes())
                .unwrap();
        }
        let out: Vec<Vec<u8>> = sorter.finish().unwrap().map(|r| r.unwrap()).collect();
        assert!(out.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn duplicates_preserved() {
        let env = Env::memory();
        let mut sorter = ExternalSorter::lexicographic(&env, 32);
        for _ in 0..10 {
            sorter.push(b"same".to_vec()).unwrap();
        }
        let out: Vec<Vec<u8>> = sorter.finish().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn empty_sorter() {
        let env = Env::memory();
        let sorter = ExternalSorter::lexicographic(&env, 1024);
        assert!(sorter.is_empty());
        assert_eq!(sorter.finish().unwrap().count(), 0);
    }

    #[test]
    fn governor_pressure_spills_instead_of_failing() {
        let env = Env::memory();
        // The sorter's own budget is generous; the governor's is not.
        let gov = Governor::with_limits(None, Some(400));
        let mut sorter = ExternalSorter::with_governor(&env, 1 << 20, gov.clone(), |a, b| a.cmp(b));
        for i in 0..200u32 {
            sorter
                .push(format!("{:08}", (i * 37) % 200).into_bytes())
                .unwrap();
        }
        assert!(sorter.spilled_runs() > 0, "governor pressure must spill");
        let out: Vec<Vec<u8>> = sorter.finish().unwrap().map(|r| r.unwrap()).collect();
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
        let err = sorter.push(vec![0u8; 1000]).unwrap_err();
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
            sorter.push(format!("{i:04}").into_bytes()).unwrap();
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
                sorter.push(format!("{i:06}").into_bytes()).unwrap();
            }
            let sorted = sorter.finish().unwrap();
            let out: Vec<std::result::Result<Vec<u8>, _>> = sorted.collect();
            assert_eq!(out.len(), 100);
        }
        // After the iterator drops, no run files remain registered: a fresh
        // temp file gets a fresh id and the env accepts it.
        let t = crate::TempFile::new(&env).unwrap();
        env.appender(t.id()).unwrap().append().unwrap();
    }
}
