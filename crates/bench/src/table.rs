//! Minimal aligned-column table rendering for experiment output.

/// A titled table with aligned columns, and the claims its rows failed.
#[derive(Clone, Debug)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
    pub notes: Vec<String>,
    /// The claims [`Table::check`] found false: `exp` prints them and
    /// exits non-zero.
    pub violations: Vec<String>,
}

impl Table {
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            violations: Vec::new(),
        }
    }

    pub fn row<S: ToString>(&mut self, cells: Vec<S>) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "row width");
        self.rows
            .push(cells.into_iter().map(|c| c.to_string()).collect());
        self
    }

    pub fn note(&mut self, s: &str) -> &mut Table {
        self.notes.push(s.to_string());
        self
    }

    /// Record `claim` as violated unless it `holds`.
    pub fn check(&mut self, holds: bool, claim: String) -> &mut Table {
        if !holds {
            self.violations.push(claim);
        }
        self
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        for v in &self.violations {
            out.push_str(&format!("VIOLATION: {v}\n"));
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["x", "1"]);
        t.row(vec!["longer-name", "22"]);
        t.note("a note");
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("longer-name  22"));
        assert!(s.contains("note: a note"));
        // aligned: the short row is padded to the long row's width
        assert!(s.contains("x            1"));
    }

    #[test]
    fn renders_only_the_claims_that_fail() {
        let mut t = Table::new("demo", &["a"]);
        t.check(true, "holds".into()).check(false, "fails".into());
        assert_eq!(t.violations, vec!["fails".to_string()]);
        assert!(t.render().ends_with("VIOLATION: fails\n"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one"]);
    }
}
