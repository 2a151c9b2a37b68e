//! Rows and their spill codec.

use crate::{Error, Result};
use xmldb_storage::codec;
use xmldb_xasr::NodeTuple;

/// A row: one XASR tuple per joined relation, in plan column order.
pub type Row = Vec<NodeTuple>;

/// Appends a row's spill encoding (materialization, sort runs) to `out`.
pub fn encode_row(row: &[NodeTuple], out: &mut Vec<u8>) {
    codec::put_u64(out, row.len() as u64);
    for tuple in row {
        codec::put_bytes(out, &tuple.encode());
    }
}

/// Inverse of [`encode_row`].
pub fn decode_row(bytes: &[u8]) -> Result<Row> {
    if bytes.len() < 8 {
        return Err(Error::Xasr("row record too short".into()));
    }
    let mut pos = 0;
    let n = codec::get_u64(bytes, &mut pos) as usize;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        let tuple_bytes = codec::get_bytes(bytes, &mut pos);
        row.push(NodeTuple::decode(tuple_bytes)?);
    }
    Ok(row)
}

/// The `in` values of the last row seen — one-pass detection of where the
/// key changes in rows sorted hierarchically on it (adjacent duplicate
/// elimination, grouping), carried across batch seams by whoever owns it.
#[derive(Debug, Clone, Default)]
pub struct LastKey(Option<Vec<u64>>);

impl LastKey {
    /// False if `key` equals the remembered key; otherwise remembers it
    /// and returns true.
    pub fn changes_to(&mut self, key: impl Iterator<Item = u64> + Clone) -> bool {
        if matches!(&self.0, Some(last) if key.clone().eq(last.iter().copied())) {
            return false;
        }
        let last = self.0.get_or_insert_with(Vec::new);
        last.clear();
        last.extend(key);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmldb_xasr::NodeType;

    fn tuple(in_: u64) -> NodeTuple {
        NodeTuple {
            in_,
            out: in_ + 1,
            parent_in: 0,
            kind: NodeType::Element,
            value: Some(format!("e{in_}")),
        }
    }

    #[test]
    fn row_codec_roundtrip() {
        for row in [vec![], vec![tuple(1)], vec![tuple(2), tuple(5), tuple(9)]] {
            let mut bytes = Vec::new();
            encode_row(&row, &mut bytes);
            assert_eq!(decode_row(&bytes).unwrap(), row);
        }
    }

    #[test]
    fn decode_rejects_short() {
        assert!(decode_row(&[1, 2]).is_err());
    }
}
