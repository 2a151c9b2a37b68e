//! `--compare A B`: two sets of runs (the lines `--out` appends), one row
//! per workload and end-to-end metric, and a verdict per row.

use crate::stats::{median, spread};
use crate::workloads::Kind;
use crate::END_TO_END;

/// Just enough JSON to read back what this program writes (and
/// `BENCHMARK.json`): no escapes beyond `\"` and `\\`, no exponents lost.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }
}

pub fn parse_json(text: &str) -> Option<Json> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value()?;
    parser.skip_space();
    (parser.pos == parser.bytes.len()).then_some(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_space();
        let hit = self.bytes[self.pos..].starts_with(token.as_bytes());
        if hit {
            self.pos += token.len();
        }
        hit
    }

    fn value(&mut self) -> Option<Json> {
        self.skip_space();
        match *self.bytes.get(self.pos)? {
            b'{' => self
                .sequence('}', |p| {
                    let Json::String(key) = p.value()? else {
                        return None;
                    };
                    p.eat(":").then_some(())?;
                    Some((key, p.value()?))
                })
                .map(Json::Object),
            b'[' => self.sequence(']', Parser::value).map(Json::Array),
            b'"' => self.string().map(Json::String),
            b't' => self.eat("true").then_some(Json::Bool(true)),
            b'f' => self.eat("false").then_some(Json::Bool(false)),
            b'n' => self.eat("null").then_some(Json::Null),
            _ => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b"+-.eE0123456789".contains(b))
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
                text.parse().ok().map(Json::Number)
            }
        }
    }

    /// Comma-separated items after an opening bracket up to `close`.
    fn sequence<T>(
        &mut self,
        close: char,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        self.pos += 1;
        let mut items = Vec::new();
        let close = close.to_string();
        if self.eat(&close) {
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(&close) {
                return Some(items);
            }
            self.eat(",").then_some(())?;
        }
    }

    fn string(&mut self) -> Option<String> {
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match *self.bytes.get(self.pos)? {
                b'"' => break,
                b'\\' => {
                    self.pos += 1;
                    out.push(match *self.bytes.get(self.pos)? {
                        c @ (b'"' | b'\\' | b'/') => c,
                        _ => return None,
                    });
                }
                c => out.push(c),
            }
            self.pos += 1;
        }
        self.pos += 1;
        String::from_utf8(out).ok()
    }
}

/// Values of one end-to-end metric on one workload, over a set's runs.
fn values(set: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Json::as_f64) == Some(0.0))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn failed(set: &[Json], workload: &str) -> f64 {
    set.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| r.get("failed")?.as_f64())
        .sum()
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

/// `worse_by` is B's median against A's, signed so that positive is
/// worse, as a share of A's. A spread above the bound on either side
/// means the runs cannot resolve a change of that size.
pub fn verdict(worse_by: f64, spread_a: f64, spread_b: f64, bound: f64) -> Verdict {
    if spread_a.max(spread_b) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn read_set(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse_json(l).ok_or(format!("{path}: not a result line: {l}")))
        .collect()
}

pub fn run(path_a: &str, path_b: &str) -> Result<(), String> {
    let (a, b) = (read_set(path_a)?, read_set(path_b)?);
    println!("A = {path_a}, B = {path_b}; spread = quartile distance / median; delta > 0 is worse");
    println!(
        "{:<15} {:<10} {:>3} {:>14} {:>8} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "n", "median A", "spread A", "median B", "spread B", "delta", "bound"
    );
    for kind in Kind::ALL {
        for metric in &END_TO_END {
            let (va, vb) = (
                values(&a, kind.name(), metric.name),
                values(&b, kind.name(), metric.name),
            );
            if va.len() < 2 || vb.len() < 2 {
                println!(
                    "{:<15} {:<10} needs two runs a side (A has {}, B has {})",
                    kind.name(),
                    metric.name,
                    va.len(),
                    vb.len()
                );
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let sign = if metric.higher_is_better { -1.0 } else { 1.0 };
            let worse_by = sign * (mb - ma) / ma;
            let (sa, sb) = (spread(&va), spread(&vb));
            println!(
                "{:<15} {:<10} {:>3} {:>14.4} {:>7.1}% {:>14.4} {:>7.1}% {:>+7.1}% {:>5.0}%  {:?}",
                kind.name(),
                metric.name,
                va.len().min(vb.len()),
                ma,
                sa * 100.0,
                mb,
                sb * 100.0,
                worse_by * 100.0,
                metric.bound * 100.0,
                verdict(worse_by, sa, sb, metric.bound)
            );
        }
        let (fa, fb) = (failed(&a, kind.name()), failed(&b, kind.name()));
        let word = if fb > fa { "Worse" } else { "Same" };
        println!(
            "{:<15} {:<10} failed ops: A {fa}, B {fb} (bound: no increase)  {word}",
            kind.name(),
            "failed"
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_the_program_writes() {
        let line = r#"{"workload": "point-wire", "seed": 3, "trace": 0, "correct": true,
            "attempted": 10, "failed": 0,
            "metrics": {"p50_us": {"value": 13.5, "unit": "us"}, "x": {"value": -1e-3, "unit": "1/s"}}}"#;
        let json = parse_json(line).unwrap();
        assert_eq!(
            json.get("workload").and_then(Json::as_str),
            Some("point-wire")
        );
        let set = vec![json];
        assert_eq!(values(&set, "point-wire", "p50_us"), vec![13.5]);
        assert_eq!(values(&set, "point-wire", "x"), vec![-0.001]);
        assert!(values(&set, "figure7-warm", "p50_us").is_empty());
        assert_eq!(
            parse_json(r#"[1, [], {}, "a\"b", null, false]"#),
            Some(Json::Array(vec![
                Json::Number(1.0),
                Json::Array(vec![]),
                Json::Object(vec![]),
                Json::String("a\"b".into()),
                Json::Null,
                Json::Bool(false),
            ]))
        );
        for broken in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"open"] {
            assert_eq!(parse_json(broken), None, "{broken}");
        }
    }

    #[test]
    fn verdicts() {
        assert_eq!(verdict(0.03, 0.01, 0.02, 0.10), Verdict::Same);
        assert_eq!(verdict(0.12, 0.01, 0.02, 0.10), Verdict::Worse);
        assert_eq!(verdict(-0.12, 0.01, 0.02, 0.10), Verdict::Better);
        assert_eq!(verdict(0.50, 0.01, 0.12, 0.10), Verdict::Unresolved);
    }
}
