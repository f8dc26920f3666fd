//! The daemon's verdict history, one fixed-size row per verdict.
//!
//! `GET /history` and `GET /status` answer from every verdict the daemon
//! has served or replayed, so the history gains a row per verdict and is
//! never trimmed. A row therefore holds no heap data. A spec hash from
//! [`crate::store::spec_hash`] is always 32 lowercase hex characters and
//! is stored as its 16 bytes. Program names are interned. A replayed
//! journal may hold any spec string (a hand-edited or foreign record);
//! such a string is interned too, so every row renders back to exactly
//! the text it was built from.

use std::collections::HashMap;

use unity_mc::prelude::Report;

use crate::proto::HistoryEntry;

/// A spec identity: a canonical hash's bytes, or an interned string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpecKey {
    Hex([u8; 16]),
    Interned(u32),
}

/// One verdict. `program` and an interned `spec` index `History::strings`;
/// `checks` fits `u32` because a report with more checks could not be
/// held in memory.
#[derive(Debug, Clone, Copy)]
struct Row {
    seq: u64,
    spec: SpecKey,
    program: u32,
    checks: u32,
    passed: bool,
}

/// The bytes of a canonical spec hash, `None` for any other string.
fn parse_hex(s: &str) -> Option<[u8; 16]> {
    let digit = |c: u8| match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        _ => None,
    };
    let s = s.as_bytes();
    if s.len() != 32 {
        return None;
    }
    let mut out = [0u8; 16];
    for (byte, pair) in out.iter_mut().zip(s.chunks_exact(2)) {
        *byte = digit(pair[0])? << 4 | digit(pair[1])?;
    }
    Some(out)
}

/// Append-only verdict history (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct History {
    rows: Vec<Row>,
    ids: HashMap<String, u32>,
    strings: Vec<String>,
}

impl History {
    /// Interns `s`. Ids are `u32`: four billion distinct names would
    /// need far more memory than the rows that reference them.
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.ids.insert(s.to_string(), id);
        self.strings.push(s.to_string());
        id
    }

    /// The key a spec string is stored under, if any row could hold it.
    fn lookup(&self, spec: &str) -> Option<SpecKey> {
        match parse_hex(spec) {
            Some(bytes) => Some(SpecKey::Hex(bytes)),
            None => self.ids.get(spec).map(|&id| SpecKey::Interned(id)),
        }
    }

    /// Records the verdict `report` under sequence number `seq`.
    pub(crate) fn push(&mut self, seq: u64, spec: &str, report: &Report) {
        let spec = match parse_hex(spec) {
            Some(bytes) => SpecKey::Hex(bytes),
            None => SpecKey::Interned(self.intern(spec)),
        };
        let program = self.intern(&report.program);
        self.rows.push(Row {
            seq,
            spec,
            program,
            checks: report.checks.len() as u32,
            passed: report.all_passed(),
        });
    }

    /// Number of verdicts recorded.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// The entries in order, optionally only those of one spec string.
    pub(crate) fn entries(&self, spec: Option<&str>) -> Vec<HistoryEntry> {
        let key = match spec.map(|s| self.lookup(s)) {
            Some(None) => return Vec::new(),
            key => key.flatten(),
        };
        self.rows
            .iter()
            .filter(|r| key.is_none_or(|k| r.spec == k))
            .map(|r| HistoryEntry {
                seq: r.seq,
                spec_hash: match r.spec {
                    SpecKey::Hex(bytes) => bytes.iter().map(|b| format!("{b:02x}")).collect(),
                    SpecKey::Interned(id) => self.strings[id as usize].clone(),
                },
                program: self.strings[r.program as usize].clone(),
                passed: r.passed,
                checks: u64::from(r.checks),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(program: &str) -> Report {
        Report {
            program: program.into(),
            vars: Vec::new(),
            engine: unity_mc::prelude::Engine::Compiled,
            universe: unity_mc::prelude::Universe::Reachable,
            checks: Vec::new(),
            sim: Vec::new(),
            elapsed: std::time::Duration::ZERO,
        }
    }

    #[test]
    fn rows_are_small_and_strings_render_back_exactly() {
        assert!(std::mem::size_of::<Row>() <= 40);
        let canonical = crate::store::spec_hash("program P end");
        let specs = [
            canonical.as_str(),
            "0123456789ABCDEF0123456789abcdef", // upper case: not canonical
            "0123456789abcdef0123456789abcde",  // 31 digits
            "0123456789abcdef0123456789abcdeg", // not hex
            "",
        ];
        let mut h = History::default();
        for (k, spec) in specs.iter().enumerate() {
            h.push(k as u64 + 1, spec, &report("P || Q"));
        }
        h.push(9, &canonical, &report("R"));
        let all = h.entries(None);
        assert_eq!(h.len(), 6);
        for (e, spec) in all.iter().zip(specs) {
            assert_eq!(e.spec_hash, spec);
            assert_eq!(e.program, "P || Q");
        }
        assert_eq!(all[5].program, "R");
        assert_eq!(h.entries(Some(&canonical)).len(), 2);
        assert_eq!(h.entries(Some("")).len(), 1);
        assert!(h.entries(Some(&canonical.to_uppercase())).is_empty());
        assert!(h.entries(Some("P || Q")).is_empty(), "names are not specs");
        assert_eq!(h.strings.len(), 6, "four odd spec strings and two names");
    }
}
