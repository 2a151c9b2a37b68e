//! DBLP-like bibliography generator.

use crate::push_tag;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the DBLP-like generator.
#[derive(Debug, Clone)]
pub struct DblpConfig {
    /// Number of `article` publications.
    pub articles: usize,
    /// Number of `inproceedings` publications.
    pub inproceedings: usize,
    /// Author count per publication is uniform in this inclusive range.
    pub authors: (usize, usize),
    /// Probability that an article carries a `volume` element — the rare
    /// label that makes Example 6's plans differ by orders of magnitude.
    pub volume_probability: f64,
    /// Probability that a publication carries a `cite` list.
    pub cite_probability: f64,
    /// RNG seed (same seed ⇒ byte-identical document).
    pub seed: u64,
}

impl Default for DblpConfig {
    fn default() -> Self {
        DblpConfig {
            articles: 400,
            inproceedings: 300,
            authors: (1, 4),
            volume_probability: 0.08,
            cite_probability: 0.2,
            seed: 0x5AAB,
        }
    }
}

impl DblpConfig {
    /// Scales the default publication counts by `factor` (≈ linear in
    /// output bytes; factor 1.0 is 150 366 bytes and 40 is 6 009 090, so
    /// the paper's 250 MB DBLP is factor ≈ 1 663).
    pub fn scaled(factor: f64) -> DblpConfig {
        let base = DblpConfig::default();
        DblpConfig {
            articles: ((base.articles as f64 * factor) as usize).max(1),
            inproceedings: ((base.inproceedings as f64 * factor) as usize).max(1),
            ..base
        }
    }
}

const FIRST_NAMES: &[&str] = &[
    "Ana",
    "Bob",
    "Carla",
    "Dan",
    "Eva",
    "Frank",
    "Georgiana",
    "Hans",
    "Ioana",
    "Josiane",
    "Katrin",
    "Liviu",
    "Melih",
    "Nadia",
    "Otto",
    "Petra",
];

const LAST_NAMES: &[&str] = &[
    "Koch",
    "Olteanu",
    "Scherzinger",
    "Demir",
    "Ifrim",
    "Moleda",
    "Parreira",
    "Fiebig",
    "Moerkotte",
    "Grust",
    "Weikum",
    "Neumann",
    "Schenkel",
    "Theobald",
];

const TITLE_WORDS: &[&str] = &[
    "Evaluating",
    "Queries",
    "on",
    "Structure",
    "with",
    "Access",
    "Support",
    "Relations",
    "Purely",
    "Relational",
    "Streams",
    "Composition",
    "XQuery",
    "Optimization",
    "Indexes",
    "Storage",
    "Algebra",
    "Cost",
    "Models",
    "Joins",
];

const JOURNALS: &[&str] = &[
    "SIGMOD Record",
    "VLDB Journal",
    "TODS",
    "Informatik Spektrum",
    "WebDB Notes",
];

const BOOKTITLES: &[&str] = &["SIGMOD", "VLDB", "ICDE", "XIME-P", "WebDB", "EDBT"];

/// Generates a DBLP-like document.
///
/// Structure (depth ≤ 3 below the root — shallow, like real DBLP):
///
/// ```text
/// <dblp>
///   <article> <author>…</author>+ <title>…</title> <journal>…</journal>
///             <volume>…</volume>? <year>…</year> <cite>…</cite>* </article>
///   <inproceedings> … <booktitle>…</booktitle> … </inproceedings>
/// </dblp>
/// ```
pub fn generate_dblp(config: &DblpConfig) -> String {
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Interleave kinds deterministically so label positions spread through
    // the document.
    let total = config.articles + config.inproceedings;
    let mut out = String::with_capacity(total * 360 + 16);
    out.push_str("<dblp>");
    let mut articles_left = config.articles;
    let mut inproc_left = config.inproceedings;
    for i in 0..total {
        let is_article = if articles_left == 0 {
            false
        } else if inproc_left == 0 {
            true
        } else {
            rng.gen_bool(config.articles as f64 / total as f64)
        };
        if is_article {
            articles_left -= 1;
            out.push_str("<article>");
            push_publication_body(&mut out, &mut rng, config, i, true);
            out.push_str("</article>");
        } else {
            inproc_left -= 1;
            out.push_str("<inproceedings>");
            push_publication_body(&mut out, &mut rng, config, i, false);
            out.push_str("</inproceedings>");
        }
    }
    out.push_str("</dblp>");
    out
}

fn push_publication_body(
    out: &mut String,
    rng: &mut StdRng,
    config: &DblpConfig,
    index: usize,
    is_article: bool,
) {
    let n_authors = rng.gen_range(config.authors.0..=config.authors.1);
    for _ in 0..n_authors {
        let name = format!(
            "{} {}",
            FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())],
            LAST_NAMES[rng.gen_range(0..LAST_NAMES.len())]
        );
        push_tag(out, "author", &name);
    }
    let title_len = rng.gen_range(3..8);
    let title: Vec<&str> = (0..title_len)
        .map(|_| TITLE_WORDS[rng.gen_range(0..TITLE_WORDS.len())])
        .collect();
    push_tag(out, "title", &format!("{} #{index}", title.join(" ")));
    if is_article {
        push_tag(out, "journal", JOURNALS[rng.gen_range(0..JOURNALS.len())]);
        if rng.gen_bool(config.volume_probability) {
            push_tag(out, "volume", &rng.gen_range(1..60).to_string());
        }
    } else {
        push_tag(
            out,
            "booktitle",
            BOOKTITLES[rng.gen_range(0..BOOKTITLES.len())],
        );
    }
    push_tag(out, "year", &rng.gen_range(1990..2006).to_string());
    if rng.gen_bool(config.cite_probability) {
        for _ in 0..rng.gen_range(1..4) {
            push_tag(out, "cite", &format!("ref-{}", rng.gen_range(0..1000)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let config = DblpConfig::default();
        assert_eq!(generate_dblp(&config), generate_dblp(&config));
        let other = DblpConfig {
            seed: 7,
            ..DblpConfig::default()
        };
        assert_ne!(generate_dblp(&config), generate_dblp(&other));
    }

    #[test]
    fn well_formed_and_shallow() {
        let xml = generate_dblp(&DblpConfig {
            articles: 50,
            inproceedings: 30,
            ..Default::default()
        });
        let doc = xmldb_xml::parse(&xml).expect("generated DBLP must parse");
        let root = doc.root_element().unwrap();
        assert_eq!(doc.name(root), "dblp");
        assert_eq!(doc.children(root).len(), 80);
        // Depth: root(1) → publication(2) → field(3) → text(4).
        let max_depth = doc
            .descendants(doc.root())
            .map(|n| doc.depth(n))
            .max()
            .unwrap();
        assert_eq!(max_depth, 4);
    }

    #[test]
    fn label_skew_holds() {
        let xml = generate_dblp(&DblpConfig::default());
        let authors = xml.matches("<author>").count();
        let volumes = xml.matches("<volume>").count();
        let articles = xml.matches("<article>").count();
        assert_eq!(articles, 400);
        assert!(
            authors > 5 * volumes,
            "authors ({authors}) must dwarf volumes ({volumes})"
        );
        assert!(volumes > 0, "some articles must have volumes");
    }

    #[test]
    fn scaling_is_roughly_linear() {
        let small = generate_dblp(&DblpConfig::scaled(0.1)).len();
        let large = generate_dblp(&DblpConfig::scaled(1.0)).len();
        let ratio = large as f64 / small as f64;
        assert!((6.0..14.0).contains(&ratio), "ratio {ratio}");
    }
}
