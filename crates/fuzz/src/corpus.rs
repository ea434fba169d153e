//! The on-disk fuzz corpus: a deterministic text format for
//! `(nest, deps, seq)` inputs, replayed as regressions.
//!
//! Every interesting input the campaign keeps is persisted under
//! `tests/corpus/fuzz/` in a line-oriented format built entirely from
//! the workspace's existing round-trippable renderings:
//!
//! ```text
//! # irlt-fuzz/v1
//! outcome: Agree
//! nest {
//! do i = 1, 5, 1
//!   a(i) = a(i - 1)
//! enddo
//! }
//! deps {
//! (1)
//! }
//! seq {
//! n = 1
//! parallelize flags=[1]
//! }
//! ```
//!
//! * the `nest` section is [`LoopNest`](irlt_ir::LoopNest)'s `Display` / [`parse_nest`]
//!   round trip (the paper's `do`/`enddo` syntax);
//! * the `deps` section is one [`DepVector`] `Display` / `FromStr`
//!   round trip per line;
//! * the `seq` section is [`TransformSeq::to_script`] /
//!   [`TransformSeq::from_script`];
//! * the optional `outcome:` line records the cross-engine
//!   adjudication the input replayed to when it was saved — replaying
//!   a checked-in entry must reproduce it exactly.
//!
//! [`print_case`] is a fixpoint under [`parse_case`] (`print ∘ parse ∘
//! print = print`), so entries can be regenerated byte-identically —
//! verified by a 200-case property test in the facade crate.
//!
//! File names are content-addressed: `fuzz-<fp128 hex>.case` over the
//! input's identity text (nest + deps + seq, *not* the outcome), so a
//! re-run that rediscovers an input overwrites rather than duplicates
//! it, and directory listings are stable under re-generation.

use irlt_core::{CrossCheckOutcome, TransformSeq};
use irlt_dependence::{fp128, DepSet, DepVector};
use irlt_harness::OracleCase;
use irlt_ir::parse_nest;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Leading marker line of every corpus entry.
pub const FORMAT_HEADER: &str = "# irlt-fuzz/v1";

/// One corpus entry: an oracle input plus the adjudication it replayed
/// to when persisted (`None` for entries that were never adjudicated).
#[derive(Clone, Debug)]
pub struct FuzzCase {
    /// The `(nest, deps, seq)` input.
    pub case: OracleCase,
    /// Recorded cross-engine outcome, if any.
    pub outcome: Option<CrossCheckOutcome>,
}

/// A corpus-entry parse failure, with its 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusError {
    /// 1-based line of the offending text (0 when structural).
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corpus entry line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CorpusError {}

fn err(line: usize, message: impl Into<String>) -> CorpusError {
    CorpusError {
        line,
        message: message.into(),
    }
}

/// The identity text of an input: the three sections without the
/// outcome line. Content-addressed file names hash this, so renaming
/// never depends on how an entry was adjudicated.
pub fn identity_text(case: &OracleCase) -> String {
    let seq = case
        .seq
        .to_script()
        .expect("corpus inputs contain only scriptable built-in steps");
    let mut deps = String::new();
    for v in case.deps.iter() {
        deps.push_str(&v.to_string());
        deps.push('\n');
    }
    format!(
        "nest {{\n{}}}\ndeps {{\n{}}}\nseq {{\n{}}}\n",
        case.nest, deps, seq
    )
}

/// Renders a corpus entry in the `# irlt-fuzz/v1` format.
pub fn print_case(entry: &FuzzCase) -> String {
    let outcome = match entry.outcome {
        Some(o) => format!("outcome: {o}\n"),
        None => String::new(),
    };
    format!("{FORMAT_HEADER}\n{outcome}{}", identity_text(&entry.case))
}

/// Content-addressed file name for an entry (stable across re-runs).
pub fn case_file_name(case: &OracleCase) -> String {
    format!("fuzz-{:032x}.case", fp128(&identity_text(case)))
}

/// Parses a corpus entry. Inverse of [`print_case`] on its image;
/// tolerant of blank lines and extra `#` comments between sections.
pub fn parse_case(text: &str) -> Result<FuzzCase, CorpusError> {
    let lines: Vec<&str> = text.lines().collect();
    let mut outcome = None;
    let mut nest = None;
    let mut deps: Option<DepSet> = None;
    let mut seq = None;

    let mut i = 0;
    while i < lines.len() {
        let line = lines[i].trim();
        i += 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("outcome:") {
            let parsed = rest
                .trim()
                .parse::<CrossCheckOutcome>()
                .map_err(|m| err(i, m))?;
            outcome = Some(parsed);
            continue;
        }
        let Some(section) = line.strip_suffix('{').map(str::trim) else {
            return Err(err(i, format!("expected a section header, got `{line}`")));
        };
        let start = i;
        let mut body = String::new();
        loop {
            let Some(raw) = lines.get(i) else {
                return Err(err(start, format!("unterminated `{section}` section")));
            };
            i += 1;
            if raw.trim() == "}" {
                break;
            }
            body.push_str(raw);
            body.push('\n');
        }
        match section {
            "nest" => {
                let parsed = parse_nest(&body).map_err(|e| err(start, format!("nest: {e}")))?;
                nest = Some(parsed);
            }
            "deps" => {
                let mut vectors = Vec::new();
                for (k, vline) in body.lines().enumerate() {
                    let vline = vline.trim();
                    if vline.is_empty() {
                        continue;
                    }
                    let v: DepVector = vline
                        .parse()
                        .map_err(|e| err(start + k + 1, format!("deps: {e}")))?;
                    vectors.push(v);
                }
                let set =
                    DepSet::from_vectors(vectors).map_err(|e| err(start, format!("deps: {e}")))?;
                deps = Some(set);
            }
            "seq" => {
                let parsed = TransformSeq::from_script(&body)
                    .map_err(|e| err(start + e.line, format!("seq: {}", e.message)))?;
                seq = Some(parsed);
            }
            other => return Err(err(start, format!("unknown section `{other}`"))),
        }
    }

    let nest = nest.ok_or_else(|| err(0, "missing `nest` section"))?;
    let deps = deps.ok_or_else(|| err(0, "missing `deps` section"))?;
    let seq = seq.ok_or_else(|| err(0, "missing `seq` section"))?;
    if let Some(arity) = deps.arity() {
        if arity != nest.depth() {
            return Err(err(
                0,
                format!("deps arity {} != nest depth {}", arity, nest.depth()),
            ));
        }
    }
    if seq.input_size() != nest.depth() {
        return Err(err(
            0,
            format!(
                "seq input size {} != nest depth {}",
                seq.input_size(),
                nest.depth()
            ),
        ));
    }
    if let Some(v) = deps.iter().find(|v| v.can_be_lex_negative()) {
        // An original program's dependence set is lex-positive by
        // construction (§3.2); a vector that can be lex-negative is
        // outside every engine's input domain.
        return Err(err(
            0,
            format!("deps: {v} can be lexicographically negative"),
        ));
    }
    nest.validate().map_err(|e| err(0, format!("nest: {e}")))?;
    Ok(FuzzCase {
        case: OracleCase { nest, deps, seq },
        outcome,
    })
}

/// Writes an entry into `dir` under its content-addressed name,
/// creating the directory as needed. Returns the path written.
pub fn save_case(dir: &Path, entry: &FuzzCase) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(case_file_name(&entry.case));
    fs::write(&path, print_case(entry))?;
    Ok(path)
}

/// Loads every `*.case` entry in `dir`, sorted by file name for
/// deterministic replay order. A missing directory is an empty corpus;
/// an unparseable entry is an error (checked-in corpora must replay).
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, FuzzCase)>, String> {
    let mut paths = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", dir.display())),
    };
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.extension().and_then(|x| x.to_str()) == Some("case") {
            paths.push(path);
        }
    }
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let case = parse_case(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((path, case));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use irlt_core::Template;
    use irlt_dependence::DepVector;

    fn sample() -> FuzzCase {
        let nest =
            parse_nest("do i = 1, 5\n  do j = 1, 4\n    a(i, j) = a(i - 1, j)\n  enddo\nenddo")
                .unwrap();
        let deps = DepSet::from_vectors(vec![DepVector::distances(&[1, 0])]).unwrap();
        let seq = TransformSeq::new(2)
            .push(Template::parallelize(vec![false, true]))
            .unwrap();
        FuzzCase {
            case: OracleCase { nest, deps, seq },
            outcome: Some(CrossCheckOutcome::Agree),
        }
    }

    #[test]
    fn print_parse_is_a_fixpoint() {
        let entry = sample();
        let text = print_case(&entry);
        assert!(text.starts_with(FORMAT_HEADER));
        let reparsed = parse_case(&text).unwrap();
        assert_eq!(print_case(&reparsed), text);
        assert_eq!(reparsed.outcome, Some(CrossCheckOutcome::Agree));
        assert_eq!(
            case_file_name(&reparsed.case),
            case_file_name(&entry.case),
            "content address must survive the round trip"
        );
    }

    #[test]
    fn outcome_line_is_optional_and_sections_are_checked() {
        let entry = FuzzCase {
            outcome: None,
            ..sample()
        };
        let text = print_case(&entry);
        assert!(!text.contains("outcome:"));
        assert_eq!(parse_case(&text).unwrap().outcome, None);

        let garbled = text.replace("deps {", "dops {");
        let e = parse_case(&garbled).unwrap_err();
        assert!(e.message.contains("unknown section"), "{e}");

        let missing = text
            .replace("outcome", "")
            .replace("(1, 0)\n", "(1, 0, 0)\n");
        let e = parse_case(&missing).unwrap_err();
        assert!(e.message.contains("deps"), "{e}");
    }

    #[test]
    fn arity_and_input_size_mismatches_are_rejected() {
        let entry = sample();
        let text = print_case(&entry);
        // Swap the 2-deep nest section for a 1-deep nest: the 2-ary
        // deps and 2-input seq no longer fit.
        let one_deep = {
            let start = text.find("nest {").unwrap();
            let end = text.find("}\ndeps").unwrap();
            format!(
                "{}nest {{\ndo i = 1, 5, 1\n  a(i) = 0\nenddo\n{}",
                &text[..start],
                &text[end..]
            )
        };
        let e = parse_case(&one_deep).unwrap_err();
        assert!(e.message.contains("!="), "{e}");
    }

    #[test]
    fn save_and_load_round_trip_through_a_directory() {
        let dir =
            std::env::temp_dir().join(format!("irlt-fuzz-corpus-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let entry = sample();
        let path = save_case(&dir, &entry).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            case_file_name(&entry.case)
        );
        // Saving again overwrites (content-addressed), never duplicates.
        save_case(&dir, &entry).unwrap();
        let loaded = load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(print_case(&loaded[0].1), print_case(&entry));
        fs::remove_dir_all(&dir).unwrap();
        assert!(load_dir(&dir).unwrap().is_empty(), "missing dir is empty");
    }
}
