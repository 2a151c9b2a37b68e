//! Document statistics — milestone 4's "minimum of information": the
//! selectivity of each element label and the average node depth (the gross
//! measure for ancestor–descendant join selectivities). Persisted in a
//! separate storage structure, as the paper requires.

use crate::Result;
use std::collections::BTreeMap;
use xmldb_storage::{codec, Env, FileId, HeapFile, HeapWriter};

/// Statistics over one shredded document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Statistics {
    /// All nodes, including the virtual root.
    pub node_count: u64,
    /// Element nodes.
    pub element_count: u64,
    /// Text nodes.
    pub text_count: u64,
    /// Sum of node depths (root = depth 0) over all nodes.
    pub depth_sum: u64,
    /// Deepest node.
    pub max_depth: u32,
    /// Total bytes of text content.
    pub text_bytes: u64,
    /// Occurrences per element label.
    pub label_counts: BTreeMap<String, u64>,
    /// Approximate number of distinct text values (distinct indexable
    /// prefixes, counted during the sorted bulk load of the text-value
    /// index). Drives equality-selectivity estimates for value joins.
    pub distinct_text_values: u64,
}

impl Statistics {
    /// Average node depth — the paper's "gross measure for the
    /// selectivities of ancestor-descendant joins".
    pub fn avg_depth(&self) -> f64 {
        if self.node_count == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.node_count as f64
        }
    }

    /// Occurrences of `label` (0 for labels never seen — the Figure 7
    /// Test 4 fast path).
    pub fn label_count(&self, label: &str) -> u64 {
        self.label_counts.get(label).copied().unwrap_or(0)
    }

    /// Fraction of *all nodes* that are elements with this label.
    pub fn label_selectivity(&self, label: &str) -> f64 {
        if self.node_count == 0 {
            0.0
        } else {
            self.label_count(label) as f64 / self.node_count as f64
        }
    }

    /// Expected number of descendants of a random node: with `n` nodes of
    /// average depth `d̄`, each node has `d̄` ancestors on average, so there
    /// are `n·d̄` ancestor–descendant pairs and a random node has `d̄`
    /// expected descendants. Used to estimate descendant-join fanout.
    pub fn avg_descendants(&self) -> f64 {
        self.avg_depth()
    }

    /// Expected matches of a text-equality lookup: text nodes divided by
    /// distinct values (uniformity assumption).
    pub fn text_eq_matches(&self) -> f64 {
        self.text_count as f64 / self.distinct_text_values.max(1) as f64
    }

    /// Number of distinct element labels.
    pub fn distinct_labels(&self) -> usize {
        self.label_counts.len()
    }

    // --- persistence -------------------------------------------------------------

    /// Writes the statistics to the file `<name>` in `env` (one header
    /// record plus one record per label, so arbitrarily many labels fit).
    pub fn save(&self, env: &Env, name: &str) -> Result<()> {
        if env.file_exists(name) {
            let file = env.open_file(name)?;
            env.remove_file(file)?;
        }
        let mut heap = HeapWriter::create(env, name)?;
        let mut header = Vec::new();
        codec::put_u64(&mut header, self.node_count);
        codec::put_u64(&mut header, self.element_count);
        codec::put_u64(&mut header, self.text_count);
        codec::put_u64(&mut header, self.depth_sum);
        codec::put_u64(&mut header, self.max_depth as u64);
        codec::put_u64(&mut header, self.text_bytes);
        codec::put_u64(&mut header, self.label_counts.len() as u64);
        codec::put_u64(&mut header, self.distinct_text_values);
        heap.append(&header)?;
        for (label, count) in &self.label_counts {
            let mut rec = Vec::new();
            codec::put_bytes(&mut rec, label.as_bytes());
            codec::put_u64(&mut rec, *count);
            heap.append(&rec)?;
        }
        heap.finish()?;
        Ok(())
    }

    /// Loads statistics previously [`Self::save`]d into `file`.
    pub fn load(env: &Env, file: FileId) -> Result<Statistics> {
        let heap = HeapFile::open_in(env, file)?;
        let mut scan = heap.scan();
        let header = scan
            .next()
            .ok_or_else(|| crate::Error::Corrupt("empty statistics file".into()))??;
        let mut pos = 0;
        let node_count = codec::get_u64(&header, &mut pos);
        let element_count = codec::get_u64(&header, &mut pos);
        let text_count = codec::get_u64(&header, &mut pos);
        let depth_sum = codec::get_u64(&header, &mut pos);
        let max_depth = codec::get_u64(&header, &mut pos) as u32;
        let text_bytes = codec::get_u64(&header, &mut pos);
        let n_labels = codec::get_u64(&header, &mut pos);
        let distinct_text_values = codec::get_u64(&header, &mut pos);
        let mut label_counts = BTreeMap::new();
        for _ in 0..n_labels {
            let rec = scan
                .next()
                .ok_or_else(|| crate::Error::Corrupt("truncated statistics file".into()))??;
            let mut pos = 0;
            let label = String::from_utf8(codec::get_bytes(&rec, &mut pos).to_vec())
                .map_err(|_| crate::Error::Corrupt("label not UTF-8".into()))?;
            let count = codec::get_u64(&rec, &mut pos);
            label_counts.insert(label, count);
        }
        Ok(Statistics {
            node_count,
            element_count,
            text_count,
            depth_sum,
            max_depth,
            text_bytes,
            label_counts,
            distinct_text_values,
        })
    }

    // --- collection (used by the shredder) ---------------------------------------

    pub(crate) fn record_node(&mut self, depth: u32) {
        self.node_count += 1;
        self.depth_sum += depth as u64;
        self.max_depth = self.max_depth.max(depth);
    }

    pub(crate) fn record_element(&mut self, label: &str, depth: u32) {
        self.record_node(depth);
        self.element_count += 1;
        if let Some(count) = self.label_counts.get_mut(label) {
            *count += 1;
        } else {
            self.label_counts.insert(label.to_string(), 1);
        }
    }

    pub(crate) fn record_text(&mut self, text: &str, depth: u32) {
        self.record_node(depth);
        self.text_count += 1;
        self.text_bytes += text.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Statistics {
        let mut s = Statistics::default();
        s.record_node(0); // root
        s.record_element("journal", 1);
        s.record_element("name", 2);
        s.record_element("name", 2);
        s.record_text("Ana", 3);
        s.record_text("Bob", 3);
        s
    }

    #[test]
    fn counting() {
        let s = sample();
        assert_eq!(s.node_count, 6);
        assert_eq!(s.element_count, 3);
        assert_eq!(s.text_count, 2);
        assert_eq!(s.label_count("name"), 2);
        assert_eq!(s.label_count("journal"), 1);
        assert_eq!(s.label_count("ghost"), 0);
        assert_eq!(s.max_depth, 3);
        assert!((s.avg_depth() - 11.0 / 6.0).abs() < 1e-9);
        assert!((s.label_selectivity("name") - 2.0 / 6.0).abs() < 1e-9);
        assert_eq!(s.text_bytes, 6);
        assert_eq!(s.distinct_labels(), 2);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = Statistics::default();
        assert_eq!(s.avg_depth(), 0.0);
        assert_eq!(s.label_selectivity("x"), 0.0);
    }

    #[test]
    fn save_load_roundtrip() {
        let env = Env::memory();
        let s = sample();
        s.save(&env, "doc.stats").unwrap();
        let loaded = Statistics::load(&env, env.open_file("doc.stats").unwrap()).unwrap();
        assert_eq!(loaded, s);
    }

    #[test]
    fn save_overwrites() {
        let env = Env::memory();
        sample().save(&env, "doc.stats").unwrap();
        let mut s2 = sample();
        s2.record_element("extra", 1);
        s2.save(&env, "doc.stats").unwrap();
        let loaded = Statistics::load(&env, env.open_file("doc.stats").unwrap()).unwrap();
        assert_eq!(loaded, s2);
    }

    #[test]
    fn many_labels_roundtrip() {
        let env = Env::memory();
        let mut s = Statistics::default();
        for i in 0..500 {
            s.record_element(&format!("label-{i:04}"), 1);
        }
        s.save(&env, "big.stats").unwrap();
        assert_eq!(
            Statistics::load(&env, env.open_file("big.stats").unwrap()).unwrap(),
            s
        );
    }
}
