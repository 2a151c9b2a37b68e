//! The files a shred writes, page by page: a golden of page digests for
//! the corpus documents, an ingest-sized DBLP fragment and an edge
//! document, and the same pages and statistics when the sorters spill.

use xmldb_datagen::{
    classroom_document, figure2_document, generate_dblp, generate_treebank, DblpConfig,
    TreebankConfig,
};
use xmldb_storage::{BTree, Env, Governor, PageId};
use xmldb_xasr::store::file_names;
use xmldb_xasr::{shred_document, Statistics};

/// `(name, xml)` for every document of the golden.
fn documents() -> Vec<(&'static str, String)> {
    vec![
        ("handmade", classroom_document()),
        ("fig2", figure2_document().to_string()),
        ("dblp-excerpt", generate_dblp(&DblpConfig::scaled(0.1))),
        ("dblp", generate_dblp(&DblpConfig::scaled(1.0))),
        ("treebank", generate_treebank(&TreebankConfig::scaled(1.0))),
        ("fragment", fragment()),
        ("edge", edge_document()),
    ]
}

/// A DBLP fragment the size of one `ingest-durable` load: 62
/// publications, 13 341 bytes, 818 nodes.
fn fragment() -> String {
    generate_dblp(&DblpConfig {
        articles: 35,
        inproceedings: 27,
        seed: 30,
        ..DblpConfig::default()
    })
}

/// Entities, CDATA, a comment and a processing instruction (neither is
/// stored), repeated text longer than the text-key prefix with a
/// multi-byte character across its end, and values over an eighth of a
/// page, one of them longer than a page, so overflow chains appear; then
/// enough nodes that leaves split with overflow chains between them.
fn edge_document() -> String {
    let long = format!("{}éé tail", "x".repeat(47));
    let big = "big value ".repeat(150);
    let huge = "ü".repeat(6000);
    let mut xml = format!(
        "<?xml version=\"1.0\"?><!-- c --><doc>\
         <p>Tom &amp; Jerry &lt;3 &#x263A;&#65;</p>\
         <c><![CDATA[<not a tag> & raw]]></c>\
         <t>{long}</t><t>{long}</t><t>{long}!</t>\
         <?pi data?><big>{big}</big><huge>{huge}</huge>\
         <m>a<b/>c<d>e</d>f</m><e/>"
    );
    for i in 0..600 {
        match i % 40 {
            39 => xml += &format!("<v>{i}{big}</v>"),
            _ => xml += &format!("<v>{i}</v>"),
        }
    }
    xml + "</doc>"
}

/// One line per file: document, file, page count, and the FNV-1a digest
/// of each page.
fn page_digests(env: &Env, name: &str) -> String {
    let mut out = String::new();
    for file_name in file_names(name).all() {
        let file = env.open_file(file_name).unwrap();
        let pages = env.page_count(file).unwrap();
        let digests: Vec<String> = (0..pages)
            .map(|p| {
                let page = env.page(file, PageId(p)).unwrap();
                format!("{:016x}", xmldb_obs::fnv1a(&page))
            })
            .collect();
        out += &format!("{name}\t{file_name}\t{pages}\t{}\n", digests.join(","));
    }
    out
}

#[test]
fn shredded_files_match_the_golden_page_digests() {
    let env = Env::memory();
    let mut actual = String::new();
    for (name, xml) in documents() {
        shred_document(&env, name, &xml).unwrap();
        actual += &page_digests(&env, name);
    }
    let golden = include_str!("golden/shred_pages.tsv");
    if actual != golden {
        let path = std::env::temp_dir().join("shred_pages.actual.tsv");
        std::fs::write(&path, &actual).unwrap();
        panic!(
            "page digests differ from the golden; actual in {}",
            path.display()
        );
    }
}

/// 9 086 nodes under a 16 KiB governor: every sorter spills
/// hundreds of runs, and the files and statistics equal an unconstrained
/// shred's.
#[test]
fn a_spilling_shred_writes_the_same_files() {
    let xml = generate_dblp(&DblpConfig::scaled(1.0));
    let free = Env::memory();
    let expected: Statistics = shred_document(&free, "d", &xml).unwrap().stats().clone();
    assert_eq!(expected.node_count, 9_086);

    let env = Env::memory();
    let gov = Governor::with_limits(None, Some(16 << 10));
    let store = {
        let _scope = gov.install();
        shred_document(&env, "d", &xml).unwrap()
    };
    let snap = gov.snapshot();
    assert!(snap.spill_count > 100, "{} spills", snap.spill_count);
    assert_eq!(store.stats(), &expected);
    assert_eq!(page_digests(&env, "d"), page_digests(&free, "d"));
    assert_eq!(gov.mem_used(), 0, "every reservation released");
}

/// A DBLP document of 4.5 MB and 271 048 nodes, shredded with no
/// governor: every index's records outgrow the 4 MiB sort budget (the
/// label index's, the smallest, by 1.8 times), so all four sorters spill,
/// and the document and its indexes come out whole.
#[test]
#[ignore = "extended; CI runs it in release with --ignored"]
fn a_shred_spills_at_the_default_sort_budget() {
    const SORT_BUDGET: u64 = 4 << 20;
    let xml = generate_dblp(&DblpConfig::scaled(30.0));
    let env = Env::memory();
    let store = shred_document(&env, "d", &xml).unwrap();
    let spills = env
        .registry()
        .counter("saardb_sort_spills_total", &[])
        .get();
    assert!(spills >= 4, "{spills} spills");
    // What `Database::document_xml` returns: the input's canonical form.
    let canonical = xmldb_xml::serialize_document(&xmldb_xml::parse(&xml).unwrap());
    assert!(store.serialize_subtree(1).unwrap() == canonical);

    let stats = store.stats();
    let names = file_names("d");
    for (file, entries) in [
        (&names.clustered, stats.node_count),
        (&names.label, stats.element_count),
        (&names.parent, stats.node_count),
        (&names.text, stats.text_count),
    ] {
        let tree = BTree::open(&env, file).unwrap();
        assert_eq!(tree.len(), entries, "{file}");
        // The sorter buffered each entry as a length-prefixed record plus
        // a 16-byte index slot: more than the budget means it spilled.
        let mut buffered = 0;
        for entry in tree.iter() {
            let (key, value) = entry.unwrap();
            buffered += (4 + key.len() + value.len() + 16) as u64;
        }
        assert!(
            buffered > SORT_BUDGET,
            "{file}: {buffered} bytes never spilled"
        );
    }
}
