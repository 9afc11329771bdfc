//! The `gdlog lint` / `gdlog check --lint` driver.
//!
//! Runs the core static analyses ([`gdlog_core::lint`]) over a parsed
//! scenario — rule safety, weak-acyclicity chase-termination, predicate-level
//! stratifiability, static independence and hygiene — and renders every
//! finding as a caret diagnostic at the offending literal, head argument or
//! variable occurrence, or as a deterministic JSON report for the golden
//! corpus.

use gdlog_core::api::Json;
use gdlog_core::Severity;
use gdlog_parser::parse_source;
use std::cmp::Reverse;

/// One lint finding resolved to a source position.
#[derive(Clone, Debug)]
pub struct SpannedFinding {
    /// Error / warning / note.
    pub severity: Severity,
    /// Stable machine-readable finding code (e.g. `chase-may-not-terminate`).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Index of the program rule the finding is attached to, if any.
    pub rule: Option<usize>,
    /// 1-based line (0 = no position).
    pub line: usize,
    /// 1-based column.
    pub column: usize,
}

/// The result of linting one scenario.
#[derive(Clone, Debug)]
pub struct LintOutcome {
    /// Findings in render order: by source position, then severity
    /// (errors first), then code and message — fully deterministic.
    pub findings: Vec<SpannedFinding>,
    /// Number of static independence components the translated program
    /// splits into (`None` when the program does not validate).
    pub static_components: Option<usize>,
    /// Rule count after constraint desugaring.
    pub rules: usize,
    /// Ground fact count.
    pub facts: usize,
    /// Does the program have stratified negation?
    pub stratified: bool,
}

impl LintOutcome {
    /// Number of findings at a given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// The process exit code: 1 on errors (or, under `--deny-warnings`, on
    /// warnings), 0 otherwise. Notes never affect the exit code.
    pub fn exit_code(&self, deny_warnings: bool) -> i32 {
        let gating =
            self.count(Severity::Error) > 0 || (deny_warnings && self.count(Severity::Warning) > 0);
        i32::from(gating)
    }

    /// One-line human summary.
    pub fn summary(&self, path: &str) -> String {
        let components = match self.static_components {
            Some(k) => format!(", static components: {k}"),
            None => String::new(),
        };
        if self.findings.is_empty() {
            format!("ok: {path}: lint clean{components}")
        } else {
            format!(
                "lint: {path}: {} errors, {} warnings, {} notes{components}",
                self.count(Severity::Error),
                self.count(Severity::Warning),
                self.count(Severity::Note),
            )
        }
    }

    /// The deterministic JSON lint report (golden-file format).
    pub fn render_json(&self, path: &str) -> String {
        Json::obj([
            ("source", Json::str(path)),
            (
                "findings",
                Json::Arr(
                    self.findings
                        .iter()
                        .map(|f| {
                            Json::obj([
                                ("severity", Json::str(f.severity.label())),
                                ("code", Json::str(f.code)),
                                ("message", Json::str(&f.message)),
                                ("line", Json::Int(f.line as i128)),
                                ("column", Json::Int(f.column as i128)),
                                (
                                    "rule",
                                    match f.rule {
                                        Some(r) => Json::Int(r as i128),
                                        None => Json::Null,
                                    },
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("errors", Json::Int(self.count(Severity::Error) as i128)),
            ("warnings", Json::Int(self.count(Severity::Warning) as i128)),
            ("notes", Json::Int(self.count(Severity::Note) as i128)),
            (
                "static_components",
                match self.static_components {
                    Some(k) => Json::Int(k as i128),
                    None => Json::Null,
                },
            ),
        ])
        .render()
    }
}

/// Parse and lint a source text.
///
/// Lexical/syntactic failures come back as an already-rendered diagnostic
/// (`Err`); everything the static analyses find — validation errors included
/// — lands in the returned [`LintOutcome`].
pub fn lint_source(path: &str, source: &str) -> Result<LintOutcome, String> {
    let parsed = parse_source(source).map_err(|e| e.render(path, source))?;
    let (program, facts, spans) = parsed.into_spanned_parts();
    let report = gdlog_core::lint(&program, &facts);
    let mut findings: Vec<SpannedFinding> = report
        .findings
        .into_iter()
        .map(|f| {
            let span = f
                .rule
                .and_then(|r| spans.get(r))
                .map(|rs| rs.locus_span(&f.locus))
                .unwrap_or_default();
            SpannedFinding {
                severity: f.severity,
                code: f.code,
                message: f.message,
                rule: f.rule,
                line: span.line,
                column: span.column,
            }
        })
        .collect();
    // Span order with positionless findings last; errors outrank warnings
    // outrank notes at the same position.
    findings.sort_by(|a, b| {
        let key = |f: &SpannedFinding| {
            (
                if f.line == 0 { usize::MAX } else { f.line },
                f.column,
                Reverse(f.severity),
            )
        };
        key(a)
            .cmp(&key(b))
            .then_with(|| a.code.cmp(b.code))
            .then_with(|| a.message.cmp(&b.message))
    });
    Ok(LintOutcome {
        findings,
        static_components: report.static_components,
        rules: program.len(),
        facts: facts.len(),
        stratified: program.has_stratified_negation(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_are_span_ordered_and_counted() {
        // Two unsafe heads plus a singleton note; order must follow source
        // position regardless of discovery order.
        let source = "A(1).\nA(x) -> B(y).\nA(x) -> C(z).\n";
        let outcome = lint_source("<input>", source).unwrap();
        assert!(
            outcome.count(Severity::Error) >= 2,
            "{:?}",
            outcome.findings
        );
        let error_lines: Vec<usize> = outcome
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .map(|f| f.line)
            .collect();
        let mut sorted = error_lines.clone();
        sorted.sort_unstable();
        assert_eq!(error_lines, sorted);
        assert_eq!(outcome.exit_code(false), 1);
        // Invalid programs have no static component count.
        assert_eq!(outcome.static_components, None);
    }

    #[test]
    fn clean_programs_summarize_and_exit_zero() {
        let source =
            "Edge(1, 2).\nEdge(x, y) -> Path(x, y).\nPath(x, y), Edge(y, z) -> Path(x, z).\n";
        let outcome = lint_source("<input>", source).unwrap();
        let errors: Vec<_> = outcome
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(outcome.exit_code(false), 0);
        assert!(outcome.summary("p.gdl").contains("static components:"));
        let json = outcome.render_json("p.gdl");
        assert!(json.contains("\"static_components\""), "{json}");
        assert!(json.contains("\"errors\": 0"), "{json}");
    }

    #[test]
    fn deny_warnings_gates_the_exit_code() {
        // A weakly-cyclic Δ-recursion is a warning, not an error.
        let source = "Seed(1).\nSeed(x) -> Val(Flip<0.5>[x]).\nVal(v) -> Val(Flip<0.5>[v]).\n";
        let outcome = lint_source("<input>", source).unwrap();
        assert_eq!(outcome.count(Severity::Error), 0, "{:?}", outcome.findings);
        assert!(
            outcome.count(Severity::Warning) >= 1,
            "{:?}",
            outcome.findings
        );
        assert_eq!(outcome.exit_code(false), 0);
        assert_eq!(outcome.exit_code(true), 1);
    }
}
