//! Persisted per-site granularity hints: the profile-guided half of the
//! observe → advise → re-run loop.
//!
//! [`ProfileAgg::advise`] produces one recommendation per *allocation*;
//! applications often allocate many times under one site label (LU's
//! per-block `lu.block` allocations, for instance), so
//! [`ProfileAgg::advise_hints`]
//! merges allocation-level recommendations into one hint per **label** —
//! weighted by touched blocks, with deterministic tie-breaking — and
//! [`HintFile`] serializes the result to a small versioned text format:
//!
//! ```text
//! shasta-hints v1
//! # label  block-bytes  from-bytes  pattern
//! hint lu.matrix 128 64 read-mostly
//! ```
//!
//! The driver's `RunConfig` loads a hint file and installs the label →
//! block-size overrides before application setup, so `malloc_labeled`
//! resolves each site's hint automatically on the re-run. Serialization is
//! deterministic: the same profile always produces a byte-identical file
//! (asserted in CI), and `parse(to_text(f)) == f` round-trips exactly.

use std::collections::BTreeMap;

use crate::profile::{ProfileAgg, SiteReport};

/// Version tag written in the hint-file header.
pub const HINT_FILE_VERSION: u32 = 1;

/// One site label's persisted granularity hint.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SiteHint {
    /// The `malloc_labeled` site label the hint applies to.
    pub label: String,
    /// Recommended coherence-block size in bytes.
    pub block_bytes: u64,
    /// The granularity the profiled run used (provenance, not replayed).
    pub from_bytes: u64,
    /// Dominant sharing-pattern label behind the advice (provenance).
    pub pattern: String,
}

/// Why [`HintFile::parse`] rejected its input.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum HintParseError {
    /// The text has no header line.
    Empty,
    /// The first line is not a `shasta-hints vN` header.
    BadHeader(String),
    /// The header names a version this build cannot read.
    UnsupportedVersion(u32),
    /// A hint line is malformed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending line, trimmed.
        text: String,
    },
}

impl std::fmt::Display for HintParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HintParseError::Empty => write!(f, "empty hint file"),
            HintParseError::BadHeader(header) => write!(f, "bad hint-file header: {header:?}"),
            HintParseError::UnsupportedVersion(v) => {
                write!(f, "hint-file version {v} unsupported (expected {HINT_FILE_VERSION})")
            }
            HintParseError::BadLine { line, text } => write!(f, "bad hint line {line}: {text:?}"),
        }
    }
}

impl std::error::Error for HintParseError {}

/// A versioned set of per-site hints with deterministic text serialization.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct HintFile {
    /// Hints sorted by label (the serialized order).
    pub hints: Vec<SiteHint>,
}

impl HintFile {
    /// Renders the deterministic text form (same hints ⇒ byte-identical
    /// output).
    pub fn to_text(&self) -> String {
        let mut out = format!("shasta-hints v{HINT_FILE_VERSION}\n");
        out.push_str("# label  block-bytes  from-bytes  pattern\n");
        for h in &self.hints {
            out.push_str(&format!(
                "hint {} {} {} {}\n",
                h.label, h.block_bytes, h.from_bytes, h.pattern
            ));
        }
        out
    }

    /// Parses the text form produced by [`to_text`](Self::to_text).
    /// Unknown versions and malformed lines are errors; blank lines and
    /// `#` comments are ignored.
    ///
    /// # Errors
    ///
    /// A [`HintParseError`] naming the first problem found.
    pub fn parse(text: &str) -> Result<HintFile, HintParseError> {
        let mut lines = text.lines();
        let header = lines.next().ok_or(HintParseError::Empty)?;
        let version = header
            .strip_prefix("shasta-hints v")
            .and_then(|v| v.trim().parse::<u32>().ok())
            .ok_or_else(|| HintParseError::BadHeader(header.to_string()))?;
        if version != HINT_FILE_VERSION {
            return Err(HintParseError::UnsupportedVersion(version));
        }
        let mut hints = Vec::new();
        for (i, line) in lines.enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_ascii_whitespace().collect();
            let err = || HintParseError::BadLine { line: i + 2, text: line.to_string() };
            if fields.len() != 5 || fields[0] != "hint" {
                return Err(err());
            }
            hints.push(SiteHint {
                label: fields[1].to_string(),
                block_bytes: fields[2].parse().map_err(|_| err())?,
                from_bytes: fields[3].parse().map_err(|_| err())?,
                pattern: fields[4].to_string(),
            });
        }
        Ok(HintFile { hints })
    }

    /// The label → block-size override map the allocator consumes.
    pub fn overrides(&self) -> BTreeMap<String, u64> {
        self.hints.iter().map(|h| (h.label.clone(), h.block_bytes)).collect()
    }
}

/// Merges allocation-level [`SiteReport`]s into one [`HintFile`] entry per
/// site label. Only reports whose recommendation is a change contribute;
/// when several allocations under one label disagree, the block size with
/// the most touched blocks behind it wins (smallest size on ties, so
/// false-sharing splits are never voted out by a coarser sibling).
pub fn hints_from_reports(reports: &[SiteReport]) -> HintFile {
    // label → recommended bytes → (weight, from_bytes, pattern).
    let mut votes: BTreeMap<&str, BTreeMap<u64, (u64, u64, &'static str)>> = BTreeMap::new();
    for r in reports {
        let Some(bytes) = r.recommendation.hint_bytes() else { continue };
        let weight = r.blocks_touched.max(1);
        let e = votes.entry(r.label).or_default().entry(bytes).or_insert((
            0,
            r.block_bytes,
            r.dominant().label(),
        ));
        e.0 += weight;
    }
    let hints = votes
        .into_iter()
        .map(|(label, by_bytes)| {
            let (&bytes, &(_, from, pattern)) = by_bytes
                .iter()
                .max_by_key(|(&bytes, &(w, _, _))| (w, std::cmp::Reverse(bytes)))
                .expect("at least one vote per label");
            SiteHint {
                label: label.to_string(),
                block_bytes: bytes,
                from_bytes: from,
                pattern: pattern.to_string(),
            }
        })
        .collect();
    HintFile { hints }
}

impl ProfileAgg {
    /// [`advise`](ProfileAgg::advise) rolled up to one persisted hint per
    /// site label (see [`hints_from_reports`]).
    pub fn advise_hints(&self) -> HintFile {
        hints_from_reports(&self.advise())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::profile::{AllocSite, SpaceMap};

    fn hint(label: &str, bytes: u64) -> SiteHint {
        SiteHint {
            label: label.to_string(),
            block_bytes: bytes,
            from_bytes: 64,
            pattern: "false-shared".to_string(),
        }
    }

    #[test]
    fn text_round_trip_is_exact() {
        let f = HintFile { hints: vec![hint("a.x", 256), hint("b.y", 1_024)] };
        let text = f.to_text();
        assert_eq!(HintFile::parse(&text).unwrap(), f);
        assert_eq!(text, HintFile::parse(&text).unwrap().to_text(), "deterministic");
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(HintFile::parse("").is_err());
        assert!(HintFile::parse("shasta-hints v999\n").is_err());
        assert!(HintFile::parse("shasta-hints v1\nhint onlythree 64\n").is_err());
        assert!(HintFile::parse("shasta-hints v1\nnothint a 64 64 private\n").is_err());
        assert!(HintFile::parse("shasta-hints v1\nhint a x 64 private\n").is_err());
        let ok = HintFile::parse("shasta-hints v1\n\n# c\nhint a 64 128 private\n").unwrap();
        assert_eq!(ok.hints.len(), 1);
        assert_eq!(ok.overrides().get("a"), Some(&64));
    }

    #[test]
    fn label_votes_merge_by_touched_weight_with_smallest_on_tie() {
        // Two allocations share a label: the heavier one wins.
        let map = SpaceMap {
            line_bytes: 64,
            proc_phys_node: vec![0, 1],
            proc_coh_node: vec![0, 1],
            allocs: vec![
                AllocSite { start: 0x1000, len: 512, block_bytes: 256, label: "dup" },
                AllocSite { start: 0x2000, len: 2_048, block_bytes: 256, label: "dup" },
            ],
        };
        let mut agg = ProfileAgg::new(map);
        let mut split = |base: u64, count: u64| {
            for b in (base..base + count * 256).step_by(256) {
                for round in 0..4u64 {
                    agg.observe(
                        0,
                        &EventKind::CheckMiss {
                            id: 0,
                            block: b,
                            addr: b + round * 8,
                            len: 8,
                            write: true,
                        },
                    );
                    agg.observe(
                        1,
                        &EventKind::CheckMiss {
                            id: 0,
                            block: b,
                            addr: b + 128 + round * 8,
                            len: 8,
                            write: true,
                        },
                    );
                }
            }
        };
        split(0x1000, 2);
        split(0x2000, 8);
        let f = agg.advise_hints();
        assert_eq!(f.hints.len(), 1);
        assert_eq!(f.hints[0].label, "dup");
        assert_eq!(f.hints[0].block_bytes, 128, "both allocations agree on the split");
        assert_eq!(f.hints[0].pattern, "false-shared");
        // advise → serialize → parse → identical hints, twice.
        let text = f.to_text();
        assert_eq!(HintFile::parse(&text).unwrap(), f);
        assert_eq!(agg.advise_hints().to_text(), text, "advise is deterministic");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 64 })]

        /// Serialize → parse round-trips exactly for arbitrary hint sets:
        /// every field survives, the re-serialized text is byte-identical,
        /// and the allocator override map is unchanged.
        #[test]
        fn hint_file_round_trips_for_arbitrary_hints(
            raw in proptest::collection::vec(
                (0u32..1000, 0u64..1 << 20, 0u64..1 << 20, 0usize..5),
                0..24,
            ),
        ) {
            let patterns =
                ["private", "read-mostly", "migratory", "producer-consumer", "false-shared"];
            let hints: Vec<SiteHint> = raw
                .iter()
                .map(|&(l, bytes, from, p)| SiteHint {
                    label: format!("site{l}.arr"),
                    block_bytes: bytes + 1,
                    from_bytes: from + 1,
                    pattern: patterns[p].to_string(),
                })
                .collect();
            let f = HintFile { hints };
            let text = f.to_text();
            let parsed = HintFile::parse(&text).unwrap();
            proptest::prop_assert_eq!(&parsed, &f);
            proptest::prop_assert_eq!(parsed.to_text(), text);
            proptest::prop_assert_eq!(parsed.overrides(), f.overrides());
        }
    }

    /// The decoder contract for untrusted hint text: every input parses or
    /// yields a [`HintParseError`] (never a panic), a rejected line is
    /// reported by its real line number, and whatever parses re-serializes
    /// to text that parses back to the same hints.
    fn check_parse(text: &str) {
        match HintFile::parse(text) {
            Ok(f) => assert_eq!(HintFile::parse(&f.to_text()).as_ref(), Ok(&f), "{text:?}"),
            Err(HintParseError::BadLine { line, text: bad }) => {
                assert_eq!(text.lines().nth(line - 1).map(str::trim), Some(bad.as_str()));
            }
            Err(_) => {}
        }
    }

    /// Fields a fuzzed hint line is assembled from: valid and invalid
    /// numbers (including `u64::MAX`, one past it, and negatives), stray
    /// keywords, comment markers, and non-ASCII text.
    const TOKENS: [&str; 16] = [
        "hint",
        "lu.matrix",
        "64",
        "0",
        "18446744073709551615",
        "18446744073709551616",
        "-1",
        "0x40",
        "private",
        "#",
        "shasta-hints",
        "v1",
        "\t",
        "é",
        "",
        "1e3",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 256 })]

        #[test]
        fn arbitrary_bytes_parse_or_fail_typed(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..160),
            header in 0u8..2,
        ) {
            let body = String::from_utf8_lossy(&bytes);
            check_parse(&body);
            if header == 1 {
                check_parse(&format!("shasta-hints v1\n{body}"));
            }
        }

        #[test]
        fn token_soup_lines_parse_or_fail_typed(
            lines in proptest::collection::vec(
                proptest::collection::vec(0usize..TOKENS.len(), 0..7),
                0..8,
            ),
        ) {
            let mut text = String::from("shasta-hints v1\n");
            for line in &lines {
                let fields: Vec<&str> = line.iter().map(|&t| TOKENS[t]).collect();
                text.push_str(&fields.join(" "));
                text.push('\n');
            }
            check_parse(&text);
        }

        #[test]
        fn truncated_and_bit_flipped_files_parse_or_fail_typed(
            raw in proptest::collection::vec((0u32..50, 1u64..1 << 40), 1..6),
            flips in proptest::collection::vec(proptest::prelude::any::<u32>(), 1..4),
        ) {
            let hints = raw
                .iter()
                .map(|&(l, bytes)| SiteHint {
                    label: format!("site{l}"),
                    block_bytes: bytes,
                    from_bytes: 64,
                    pattern: "private".to_string(),
                })
                .collect();
            let text = HintFile { hints }.to_text();
            for cut in (0..=text.len()).filter(|&c| text.is_char_boundary(c)) {
                check_parse(&text[..cut]);
            }
            let mut bytes = text.into_bytes();
            for f in flips {
                let bit = f as usize % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            check_parse(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn parse_errors_are_typed() {
        assert_eq!(HintFile::parse(""), Err(HintParseError::Empty));
        assert_eq!(
            HintFile::parse("shasta-hint v1\n"),
            Err(HintParseError::BadHeader("shasta-hint v1".to_string()))
        );
        assert_eq!(
            HintFile::parse("shasta-hints v2\n"),
            Err(HintParseError::UnsupportedVersion(2))
        );
        assert_eq!(
            HintFile::parse("shasta-hints v1\n# c\n hint a 64 -1 private \n"),
            Err(HintParseError::BadLine { line: 3, text: "hint a 64 -1 private".to_string() })
        );
        // A syntactically valid but absurd block size parses; the allocator
        // is what rejects it.
        let huge = HintFile::parse("shasta-hints v1\nhint a 18446744073709551615 64 private\n");
        assert_eq!(huge.unwrap().overrides().get("a"), Some(&u64::MAX));
    }
}
