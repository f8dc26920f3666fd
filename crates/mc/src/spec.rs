//! Specification files: programs plus named property checks.
//!
//! A `.unity` file contains any number of `program ... end` blocks
//! (the [`unity_core::dsl`] syntax) followed by optional `spec ... end`
//! blocks listing properties to check on the *composition* of all
//! programs:
//!
//! ```text
//! program Counter0
//!   var c0 : int 0..2 local
//!   var C : int 0..4
//!   init c0 == 0 && C == 0
//!   fair cmd a0: c0 < 2 -> c0 := c0 + 1, C := C + 1
//! end
//!
//! spec Sys
//!   conservation: invariant C == sum(c0)
//!   progress:     true leadsto C == 2
//! end
//! ```
//!
//! Each spec line is `[name:] <property>` with the paper's property
//! syntax (`init`, `transient`, `stable`, `invariant`, `unchanged`,
//! `p next q`, `p leadsto q`). `//` comments and blank lines are
//! ignored. This is the input format of the `unity-check` binary.

use unity_core::compose::{InitSatCheck, System};
use unity_core::dsl;
use unity_core::error::CoreError;

// The named-check shape lives with the verifier session (spec files
// parse straight into `Verifier::verify_all` input).
pub use crate::verifier::NamedCheck;

/// A parsed specification file: the composed system plus its checks.
#[derive(Debug)]
pub struct SpecFile {
    /// The composition of every `program` block (vocabularies merged by
    /// name).
    pub system: System,
    /// Checks from every `spec` block, in file order.
    pub checks: Vec<NamedCheck>,
}

fn parse_err(line: usize, msg: impl Into<String>) -> CoreError {
    CoreError::Parse {
        line: line.min(u32::MAX as usize) as u32,
        col: 1,
        msg: msg.into(),
    }
}

/// Strips a `//` comment (the DSL has no string literals, so a bare
/// scan is exact).
fn uncomment(line: &str) -> &str {
    match line.find("//") {
        Some(k) => &line[..k],
        None => line,
    }
}

/// Splits `src` into `program` source text and `spec` blocks
/// (`(name, [(line_no, text)])`).
#[allow(clippy::type_complexity)]
fn split_blocks(src: &str) -> Result<(String, Vec<(String, Vec<(usize, String)>)>), CoreError> {
    #[derive(PartialEq)]
    enum Mode {
        Top,
        Program,
        Spec,
    }
    let mut mode = Mode::Top;
    let mut program_src = String::new();
    let mut specs: Vec<(String, Vec<(usize, String)>)> = Vec::new();
    for (k, raw) in src.lines().enumerate() {
        let line_no = k + 1;
        let line = uncomment(raw).trim();
        let first = line.split_whitespace().next().unwrap_or("");
        match mode {
            Mode::Top => match first {
                "" => {}
                "program" => {
                    mode = Mode::Program;
                    program_src.push_str(raw);
                    program_src.push('\n');
                }
                "spec" => {
                    let name = line["spec".len()..].trim();
                    if name.is_empty() {
                        return Err(parse_err(line_no, "spec block needs a name"));
                    }
                    specs.push((name.to_string(), Vec::new()));
                    mode = Mode::Spec;
                }
                other => {
                    return Err(parse_err(
                        line_no,
                        format!("expected `program` or `spec`, found `{other}`"),
                    ))
                }
            },
            Mode::Program => {
                program_src.push_str(raw);
                program_src.push('\n');
                if first == "end" {
                    mode = Mode::Top;
                }
            }
            Mode::Spec => {
                if first == "end" {
                    mode = Mode::Top;
                } else if !line.is_empty() {
                    specs
                        .last_mut()
                        .expect("inside a spec block")
                        .1
                        .push((line_no, line.to_string()));
                }
            }
        }
    }
    if mode != Mode::Top {
        return Err(parse_err(
            src.lines().count(),
            "unterminated block (missing `end`)",
        ));
    }
    Ok((program_src, specs))
}

/// Re-anchors an error in the property text of a check line to the
/// file: the check's line, and the column of the offending token, or
/// of the property's first character when the error carries no
/// position (an unknown name, a type error). `prop_at` is the byte
/// offset of the property text within the trimmed check line. Columns
/// count bytes from 1, like the DSL lexer's. Runs only on the error
/// path.
fn check_error(src: &str, line_no: usize, name: &str, prop_at: usize, e: CoreError) -> CoreError {
    let raw = src.lines().nth(line_no - 1).unwrap_or("");
    let prop = &raw[raw.len() - raw.trim_start().len()..][prop_at..];
    let prop_col = raw.len() - prop.len();
    let (col, msg) = match e {
        // A check line is one line, so the inner line is always 1.
        CoreError::Parse { col, msg, .. } => (prop_col + col as usize, msg),
        other => {
            let lead = prop.len() - prop.trim_start().len();
            (prop_col + lead + 1, other.to_string())
        }
    };
    CoreError::Parse {
        line: line_no.min(u32::MAX as usize) as u32,
        col: col.min(u32::MAX as usize) as u32,
        msg: format!("in check `{name}`: {msg}"),
    }
}

/// Parses a full specification file and composes its programs.
pub fn load_spec(src: &str) -> Result<SpecFile, CoreError> {
    let (program_src, spec_blocks) = split_blocks(src)?;
    let programs = dsl::parse_programs(&program_src)?;
    if programs.is_empty() {
        return Err(parse_err(1, "no `program` blocks in specification"));
    }
    let system = System::compose_merging(&programs, InitSatCheck::BoundedExhaustive(1 << 22))?;
    let vocab = system.vocab().clone();

    let mut checks = Vec::new();
    let mut anon = 0usize;
    for (_block, lines) in &spec_blocks {
        for (line_no, text) in lines {
            // `label: property` — a label is a leading identifier followed
            // by `:` that is NOT a property keyword. (Property syntax never
            // begins `ident:`.)
            let (name, prop_text) = match text.split_once(':') {
                Some((l, rest))
                    if !l.trim().is_empty()
                        && l.trim().chars().all(|c| c.is_alphanumeric() || c == '_') =>
                {
                    (l.trim().to_string(), rest)
                }
                _ => {
                    anon += 1;
                    (format!("check{anon}"), text.as_str())
                }
            };
            let property = dsl::parse_property(prop_text, &vocab)
                .map_err(|e| check_error(src, *line_no, &name, text.len() - prop_text.len(), e))?;
            checks.push(NamedCheck {
                name,
                property,
                line: *line_no,
            });
        }
    }
    Ok(SpecFile { system, checks })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: &str = r#"
// Two counters sharing C.
program Counter0
  var c0 : int 0..2 local
  var C : int 0..4
  init c0 == 0 && C == 0
  fair cmd a0: c0 < 2 -> c0 := c0 + 1, C := C + 1
end

program Counter1
  var c1 : int 0..2 local
  var C : int 0..4
  init c1 == 0 && C == 0
  fair cmd a1: c1 < 2 -> c1 := c1 + 1, C := C + 1
end

spec Sys
  conservation: invariant C == sum(c0, c1)
  // an unlabeled check
  true leadsto C == 4
end
"#;

    #[test]
    fn loads_programs_and_checks() {
        let spec = load_spec(TOY).unwrap();
        assert_eq!(spec.system.len(), 2);
        assert_eq!(spec.checks.len(), 2);
        assert_eq!(spec.checks[0].name, "conservation");
        assert_eq!(spec.checks[0].property.kind(), "invariant");
        assert_eq!(spec.checks[1].name, "check1");
        assert_eq!(spec.checks[1].property.kind(), "leadsto");
    }

    #[test]
    fn checks_reference_merged_vocabulary() {
        let spec = load_spec(TOY).unwrap();
        assert_eq!(spec.system.vocab().len(), 3, "c0, C, c1 merged");
    }

    #[test]
    fn spec_without_name_is_rejected() {
        let src = "program P\n  var x : bool\n  init !x\nend\nspec\n  stable x\nend";
        let err = load_spec(src).unwrap_err();
        assert!(err.to_string().contains("spec block needs a name"));
    }

    #[test]
    fn unterminated_block_is_rejected() {
        let src = "program P\n  var x : bool\n  init !x";
        assert!(load_spec(src).is_err());
    }

    #[test]
    fn bad_property_reports_line_and_name() {
        let src = "program P\n  var x : bool\n  init !x\nend\nspec S\n  mystery: invariant zz\nend";
        let err = load_spec(src).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("mystery"), "{msg}");
    }

    /// Two program blocks, a comment, two spec blocks: the error points
    /// at the check's line and the token's column in the file.
    fn located(check: &str) -> String {
        let src = format!(
            "program A\n  var x : bool\n  init !x\nend\n\nspec S\n  ok: stable x\nend\n\
             program B\n  var y : int 0..3\n  init y == 0\nend\n\
             // the second spec block\nspec T\n  ok2: invariant y <= 3\n{check}\nend\n"
        );
        load_spec(&src).unwrap_err().to_string()
    }

    #[test]
    fn check_errors_point_at_the_token_in_the_file() {
        // Line 16; `&&` at column 16.
        assert_eq!(
            located("  w: stable (x &&"),
            "parse error at 16:16: in check `w`: expected expression, found end of input"
        );
        // An unlabeled check, indented by a tab: `)` at column 14.
        assert_eq!(
            located("\tstable x && )"),
            "parse error at 16:14: in check `check1`: expected expression, found RParen"
        );
        // No token position (an unknown name): the property's first
        // column.
        assert_eq!(
            located("  bad:   invariant zz"),
            "parse error at 16:10: in check `bad`: unknown variable `zz`"
        );
    }

    #[test]
    fn nesting_refusals_point_at_the_token_in_the_file() {
        let depth = unity_core::dsl::parser::MAX_DEPTH;
        // The parser refuses at the parenthesis one level past the
        // limit: column 2 + len("deep: invariant ") + depth + 1.
        let check = format!(
            "  deep: invariant {}x{}",
            "(".repeat(depth + 1),
            ")".repeat(depth + 1)
        );
        let msg = std::thread::Builder::new()
            .stack_size(8 << 20)
            .spawn(move || located(&check))
            .unwrap()
            .join()
            .unwrap();
        let col = 2 + "deep: invariant ".len() + depth + 1;
        assert!(
            msg.starts_with(&format!("parse error at 16:{col}: in check `deep`: ")),
            "{msg}"
        );
        assert!(msg.contains("nested deeper than"), "{msg}");
    }

    #[test]
    fn files_with_no_programs_are_rejected() {
        assert!(load_spec("spec S\nend").is_err());
        assert!(load_spec("").is_err());
    }

    #[test]
    fn stray_toplevel_text_is_rejected() {
        let err = load_spec("banana").unwrap_err();
        assert!(err.to_string().contains("banana"));
    }
}
