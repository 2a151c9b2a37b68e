//! Concurrency sanity: the buffer pool, environment and B+-trees are
//! shared-state-safe under concurrent readers (the engine is
//! single-writer, but the testbed runs queries on worker threads against
//! clones of the same environment).

use std::sync::Arc;
use std::thread;
use xmldb_storage::{BTree, Env, EnvConfig};

#[test]
fn concurrent_readers_on_shared_tree() {
    let env = Env::memory_with(EnvConfig {
        page_size: 1024,
        pool_bytes: 16 * 1024,
    });
    let n = 2_000u64;
    let entries = (0..n).map(|i| (i.to_be_bytes().to_vec(), format!("v{i}").into_bytes()));
    let tree = BTree::build_in(&env, env.create_file("shared").unwrap(), entries).unwrap();
    let tree = Arc::new(tree);

    let mut handles = Vec::new();
    for t in 0..4 {
        let tree = Arc::clone(&tree);
        handles.push(thread::spawn(move || {
            // Point lookups with a per-thread stride, plus full scans; the
            // tiny pool forces constant eviction contention.
            for i in (t..n).step_by(7) {
                let got = tree.get(&i.to_be_bytes()).unwrap();
                assert_eq!(got, Some(format!("v{i}").into_bytes()));
            }
            let count = tree.iter().count();
            assert_eq!(count, n as usize);
        }));
    }
    for h in handles {
        h.join().expect("reader thread panicked");
    }
}

#[test]
fn concurrent_page_traffic_across_files() {
    let env = Env::memory_with(EnvConfig {
        page_size: 512,
        pool_bytes: 8 * 512,
    });
    // Each thread owns its own file; the pool is shared and smaller than
    // the combined working set.
    let files: Vec<_> = (0..4)
        .map(|i| env.create_file(&format!("f{i}")).unwrap())
        .collect();
    let pages_per_file = 16u64;
    for (t, &f) in files.iter().enumerate() {
        let mut app = env.appender(f).unwrap();
        for p in 0..pages_per_file {
            app.page()[0] = t as u8;
            app.page()[2] = p as u8;
            app.append().unwrap();
        }
    }
    let env = Arc::new(env);
    let mut handles = Vec::new();
    for (t, &file) in files.iter().enumerate() {
        let env = Arc::clone(&env);
        handles.push(thread::spawn(move || {
            for _round in 0..50u64 {
                for p in 0..pages_per_file {
                    let page = xmldb_storage::PageId(p);
                    let data = env.page(file, page).unwrap();
                    let (owner, pp) = (data[0], data[2]);
                    assert_eq!(owner, t as u8, "page leaked between files");
                    assert_eq!(pp, p as u8);
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("worker panicked");
    }
}

#[test]
fn concurrent_queries_through_cloned_envs() {
    // Mirrors the testbed: one env, many reader threads running full scans
    // through btrees while another thread creates and deletes temp files.
    let env = Env::memory_with(EnvConfig {
        page_size: 1024,
        pool_bytes: 32 * 1024,
    });
    let entries = (0..500u64).map(|i| (i.to_be_bytes().to_vec(), vec![1u8; 16]));
    let tree = BTree::build_in(&env, env.create_file("data").unwrap(), entries).unwrap();
    let tree = Arc::new(tree);
    let env2 = env.clone();

    let churn = thread::spawn(move || {
        for _ in 0..50 {
            let tmp = xmldb_storage::TempFile::new(&env2).unwrap();
            let mut app = env2.appender(tmp.id()).unwrap();
            app.page()[0] = 1;
            app.append().unwrap();
            assert_eq!(
                env2.page(tmp.id(), xmldb_storage::PageId(0))
                    .map(|d| d[0])
                    .unwrap(),
                1
            );
        }
    });
    let mut readers = Vec::new();
    for _ in 0..3 {
        let tree = Arc::clone(&tree);
        readers.push(thread::spawn(move || {
            for _ in 0..20 {
                assert_eq!(tree.iter().count(), 500);
            }
        }));
    }
    churn.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
}
