//! Exact values each op must reproduce.
//!
//! `perfbench/expected.tsv`, committed with the benchmark and compiled
//! in, holds per (workload, seed) one 32-bit digest of every op's
//! fingerprint, Q, M and T, in pool order (serve: one digest of its
//! request and upstream-bit totals). A key it holds is verified: a
//! mismatch is a failure. A key it lacks (another seed) falls back to a
//! local store under the build directory, where the first run to meet
//! the op records it unverified and later runs must match.
//! `perfbench --print-expected` prints the committed line for a
//! workload and seed.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

/// The committed table.
const COMMITTED: &str = include_str!("../expected.tsv");

/// FNV-1a over `s`, folded to 32 bits.
pub fn digest(s: &str) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h ^ (h >> 32)) as u32
}

/// One committed line: `key \t digests`.
pub fn table_line(key: &str, values: &[String]) -> String {
    let ds: Vec<String> = values
        .iter()
        .map(|v| format!("{:08x}", digest(v)))
        .collect();
    format!("{key}\t{}", ds.join(" "))
}

fn parse_table(text: &str) -> BTreeMap<String, Vec<u32>> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once('\t'))
        .map(|(k, v)| {
            let ds = v
                .split_whitespace()
                .map(|d| u32::from_str_radix(d, 16).expect("expected.tsv: hex digest"))
                .collect();
            (k.to_string(), ds)
        })
        .collect()
}

pub struct Expected {
    committed: BTreeMap<String, Vec<u32>>,
    path: Option<PathBuf>,
    local: BTreeMap<String, String>,
    dirty: bool,
    /// Checks against the committed table.
    pub verified: u64,
    /// Checks against the local store, first sightings included.
    pub unverified: u64,
}

/// Outcome of comparing an op against its expected values.
#[derive(Debug, PartialEq, Eq)]
pub enum Check {
    /// Matches the committed table.
    Verified,
    /// Not in the committed table: recorded locally, or matching an
    /// earlier local record.
    Unverified,
    /// Differs from the expected value (which is described).
    Mismatch(String),
}

impl Expected {
    fn new(committed: &str, path: Option<PathBuf>) -> Self {
        let mut local = BTreeMap::new();
        if let Some(text) = path.as_ref().and_then(|p| fs::read_to_string(p).ok()) {
            for line in text.lines() {
                if let Some((k, v)) = line.split_once('\t') {
                    local.insert(k.to_string(), v.to_string());
                }
            }
        }
        Expected {
            committed: parse_table(committed),
            path,
            local,
            dirty: false,
            verified: 0,
            unverified: 0,
        }
    }

    /// A store over `committed` that persists nothing.
    #[cfg(test)]
    pub fn in_memory(committed: &str) -> Self {
        Expected::new(committed, None)
    }

    /// The committed table plus the local store kept in `dir` (a missing
    /// or unreadable file starts empty).
    pub fn load(dir: PathBuf) -> Self {
        Expected::new(COMMITTED, Some(dir.join("perfbench-expected.tsv")))
    }

    /// Checks item `index` of `key` (an op's place in its pool).
    pub fn check(&mut self, key: &str, index: usize, value: &str) -> Check {
        if let Some(&want) = self.committed.get(key).and_then(|ds| ds.get(index)) {
            self.verified += 1;
            return if digest(value) == want {
                Check::Verified
            } else {
                Check::Mismatch(format!("committed digest {want:08x}"))
            };
        }
        self.unverified += 1;
        let local_key = format!("{key} #{index}");
        match self.local.get(&local_key) {
            Some(v) if v == value => Check::Unverified,
            Some(v) => Check::Mismatch(format!("locally recorded {v}")),
            None => {
                self.local.insert(local_key, value.to_string());
                self.dirty = true;
                Check::Unverified
            }
        }
    }

    /// Writes new local entries back (through a rename, so a reader
    /// never sees half a file).
    pub fn save(&self) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        if !self.dirty {
            return Ok(());
        }
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut text = String::new();
        for (k, v) in &self.local {
            text.push_str(k);
            text.push('\t');
            text.push_str(v);
            text.push('\n');
        }
        let tmp = path.with_extension("tsv.tmp");
        fs::write(&tmp, text)?;
        fs::rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_keys_are_verified_and_others_recorded_locally() {
        let line = table_line("w seed=1", &["fp=1".into(), "fp=2".into()]);
        let mut e = Expected::in_memory(&line);
        assert_eq!(e.check("w seed=1", 0, "fp=1"), Check::Verified);
        assert_eq!(e.check("w seed=1", 1, "fp=2"), Check::Verified);
        assert!(matches!(e.check("w seed=1", 0, "fp=3"), Check::Mismatch(_)));
        // Beyond the committed pool, and another seed: local records.
        assert_eq!(e.check("w seed=1", 2, "fp=9"), Check::Unverified);
        assert_eq!(e.check("w seed=2", 0, "fp=1"), Check::Unverified);
        assert_eq!(e.check("w seed=2", 0, "fp=1"), Check::Unverified);
        assert!(matches!(e.check("w seed=2", 0, "fp=2"), Check::Mismatch(_)));
        assert_eq!((e.verified, e.unverified), (3, 4));
    }

    #[test]
    fn the_committed_table_parses() {
        let t = parse_table(COMMITTED);
        assert!(t.values().all(|ds| !ds.is_empty()));
    }
}
