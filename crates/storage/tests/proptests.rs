//! Model-based property tests: a bulk-built B+-tree must answer exactly
//! like the `BTreeMap<Vec<u8>, Vec<u8>>` it was built from under arbitrary
//! read sequences, and the external sorter must agree with `sort()`.

use proptest::prelude::*;
use std::ops::Bound;
use xmldb_storage::{BTree, Env, EnvConfig, ExternalSorter, Seeker};

#[derive(Debug, Clone)]
enum Op {
    Get(Vec<u8>),
    Contains(Vec<u8>),
    Range(Vec<u8>, Vec<u8>),
    /// Excluded lower / Included upper — exercises the cursor's
    /// step-past-the-key seek against the slotted leaves.
    RangeExcl(Vec<u8>, Vec<u8>),
    Prefix(Vec<u8>),
    FullScan,
    /// Included lower / Excluded upper through one seeker kept across the
    /// whole sequence: its remembered leaf may not cover the bound.
    SeekScan(Vec<u8>, Vec<u8>),
    /// A range cursor that reads a second tree between its rows, so the
    /// pool evicts the leaf the cursor holds.
    EvictingRange(Vec<u8>, Vec<u8>),
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Short keys from a narrow alphabet make probes hit present keys.
    prop::collection::vec(0u8..4, 1..6)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        key_strategy().prop_map(Op::Get),
        key_strategy().prop_map(Op::Contains),
        (key_strategy(), key_strategy()).prop_map(|(a, b)| Op::Range(a, b)),
        (key_strategy(), key_strategy()).prop_map(|(a, b)| Op::RangeExcl(a, b)),
        prop::collection::vec(0u8..4, 0..4).prop_map(Op::Prefix),
        Just(Op::FullScan),
        (key_strategy(), key_strategy()).prop_map(|(a, b)| Op::SeekScan(a, b)),
        (key_strategy(), key_strategy()).prop_map(|(a, b)| Op::EvictingRange(a, b)),
    ]
}

fn tiny_env() -> Env {
    // Small pages force many levels and overflow values; a small pool
    // forces eviction.
    Env::memory_with(EnvConfig {
        page_size: 256,
        pool_bytes: 8 * 256,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn btree_matches_btreemap(
        model in prop::collection::btree_map(
            key_strategy(),
            prop::collection::vec(any::<u8>(), 0..60),
            0..200,
        ),
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        let env = tiny_env();
        let entries = model.iter().map(|(k, v)| (k.clone(), v.clone()));
        let tree = BTree::build_in(&env, env.create_file("t").unwrap(), entries).unwrap();
        prop_assert_eq!(tree.len(), model.len() as u64);
        // More pages than the pool has frames: a full scan of it sweeps
        // the clock past every frame twice.
        let flood = (0..300u32).map(|i| (i.to_be_bytes().to_vec(), vec![0; 8]));
        let flood = BTree::build_in(&env, env.create_file("o").unwrap(), flood).unwrap();
        let mut seeker = Seeker::default();
        for op in ops {
            match op {
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(&k).unwrap(), model.get(&k).cloned());
                }
                Op::Contains(k) => {
                    prop_assert_eq!(tree.contains(&k).unwrap(), model.contains_key(&k));
                }
                Op::Range(a, b) => {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let got: Vec<(Vec<u8>, Vec<u8>)> = tree
                        .range(Bound::Included(&lo), Bound::Excluded(&hi))
                        .map(|r| r.unwrap())
                        .collect();
                    let want: Vec<(Vec<u8>, Vec<u8>)> = model
                        .range::<Vec<u8>, _>((Bound::Included(&lo), Bound::Excluded(&hi)))
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(got, want);
                }
                Op::RangeExcl(a, b) => {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let got: Vec<(Vec<u8>, Vec<u8>)> = tree
                        .range(Bound::Excluded(&lo), Bound::Included(&hi))
                        .map(|r| r.unwrap())
                        .collect();
                    let want: Vec<(Vec<u8>, Vec<u8>)> = if lo == hi {
                        Vec::new()
                    } else {
                        model
                            .range::<Vec<u8>, _>((Bound::Excluded(&lo), Bound::Included(&hi)))
                            .map(|(k, v)| (k.clone(), v.clone()))
                            .collect()
                    };
                    prop_assert_eq!(got, want);
                }
                Op::Prefix(p) => {
                    let got: Vec<(Vec<u8>, Vec<u8>)> =
                        tree.prefix(&p).map(|r| r.unwrap()).collect();
                    let want: Vec<(Vec<u8>, Vec<u8>)> = model
                        .range::<Vec<u8>, _>((Bound::Included(&p), Bound::Unbounded))
                        .take_while(|(k, _)| k.starts_with(&p))
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(got, want);
                }
                Op::SeekScan(a, b) => {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let mut got: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
                    seeker
                        .scan_range(&tree, Bound::Included(&lo), Bound::Excluded(&hi), |k, v| {
                            got.push((k.to_vec(), v.to_vec()));
                            true
                        })
                        .unwrap();
                    let want: Vec<(Vec<u8>, Vec<u8>)> = model
                        .range::<Vec<u8>, _>((Bound::Included(&lo), Bound::Excluded(&hi)))
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(got, want);
                }
                Op::EvictingRange(a, b) => {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let mut got: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
                    for row in tree.range(Bound::Included(&lo), Bound::Excluded(&hi)) {
                        got.push(row.unwrap());
                        flood.scan(|_, _| true).unwrap();
                        prop_assert_eq!(env.pinned_frames(), 0, "the held leaf left the pool");
                    }
                    let want: Vec<(Vec<u8>, Vec<u8>)> = model
                        .range::<Vec<u8>, _>((Bound::Included(&lo), Bound::Excluded(&hi)))
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(got, want);
                }
                Op::FullScan => {
                    let got: Vec<(Vec<u8>, Vec<u8>)> =
                        tree.iter().map(|r| r.unwrap()).collect();
                    let want: Vec<(Vec<u8>, Vec<u8>)> =
                        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                    prop_assert_eq!(got, want);
                }
            }
        }
        for (k, v) in &model {
            prop_assert_eq!(tree.get(k).unwrap(), Some(v.clone()));
        }
    }

    #[test]
    fn bulk_load_equals_trickle_inserts(
        entries in prop::collection::btree_map(
            prop::collection::vec(any::<u8>(), 1..10),
            prop::collection::vec(any::<u8>(), 0..60),
            0..200,
        )
    ) {
        let env = tiny_env();
        let pairs = entries.iter().map(|(k, v)| (k.clone(), v.clone()));
        let bulk = BTree::build_in(&env, env.create_file("bulk").unwrap(), pairs).unwrap();
        let scanned: Vec<(Vec<u8>, Vec<u8>)> = bulk.iter().map(|r| r.unwrap()).collect();
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            entries.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(scanned, want);
        for (k, v) in &entries {
            prop_assert_eq!(bulk.get(k).unwrap(), Some(v.clone()));
        }
    }

    #[test]
    fn external_sort_matches_std_sort(
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..30), 0..300),
        budget in 16usize..2048,
    ) {
        let env = tiny_env();
        let mut sorter = ExternalSorter::lexicographic(&env, budget);
        for r in &records {
            sorter.push(r).unwrap();
        }
        let mut sorted = sorter.finish().unwrap();
        let mut got = Vec::new();
        while let Some(r) = sorted.next_record().unwrap() {
            got.push(r.to_vec());
        }
        let mut want = records;
        want.sort();
        prop_assert_eq!(got, want);
    }
}
