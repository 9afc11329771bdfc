//! Textual reports for the experiment runner.

use std::fmt;

/// One row of a paper-vs-measured report.
#[derive(Clone, Debug)]
pub struct Row {
    /// The quantity being reported (e.g. "P(dominated), K3, p=0.1").
    pub quantity: String,
    /// The value the paper states (or implies), as text.
    pub paper: String,
    /// The value measured by this implementation, as text.
    pub measured: String,
    /// Whether the measured value matches the paper's claim.
    pub ok: bool,
}

impl Row {
    /// Build a row.
    pub fn new(quantity: &str, paper: &str, measured: &str, ok: bool) -> Self {
        Row {
            quantity: quantity.to_owned(),
            paper: paper.to_owned(),
            measured: measured.to_owned(),
            ok,
        }
    }
}

/// A report: a titled list of rows.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The report title (experiment id and description).
    pub title: String,
    /// The rows.
    pub rows: Vec<Row>,
}

impl Report {
    /// Create an empty report.
    pub fn new(title: &str) -> Self {
        Report {
            title: title.to_owned(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Did every row match?
    pub fn all_ok(&self) -> bool {
        self.rows.iter().all(|r| r.ok)
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        let qw = self
            .rows
            .iter()
            .map(|r| r.quantity.len())
            .chain(std::iter::once("quantity".len()))
            .max()
            .unwrap_or(8);
        let pw = self
            .rows
            .iter()
            .map(|r| r.paper.len())
            .chain(std::iter::once("paper".len()))
            .max()
            .unwrap_or(5);
        let mw = self
            .rows
            .iter()
            .map(|r| r.measured.len())
            .chain(std::iter::once("measured".len()))
            .max()
            .unwrap_or(8);
        writeln!(
            f,
            "{:<qw$}  {:<pw$}  {:<mw$}  status",
            "quantity", "paper", "measured"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<qw$}  {:<pw$}  {:<mw$}  {}",
                r.quantity,
                r.paper,
                r.measured,
                if r.ok { "ok" } else { "MISMATCH" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_formatting_and_status() {
        let mut report = Report::new("E1 — network resilience");
        report.push(Row::new("P(dominated)", "0.19", "19/100", true));
        report.push(Row::new("outcomes", "-", "12", true));
        assert!(report.all_ok());
        let text = report.to_string();
        assert!(text.contains("E1"));
        assert!(text.contains("P(dominated)"));
        assert!(text.contains("ok"));

        report.push(Row::new("bad", "1", "2", false));
        assert!(!report.all_ok());
        assert!(report.to_string().contains("MISMATCH"));
    }
}
