//! The one shape of a sweep: a list of columns, each written once, and
//! rows of values under them. One function renders a row for the printed
//! [`Table`]; [`SweepResult::to_json`] writes `BENCH_<name>.json`.

use crate::Table;

/// One column of a sweep: its JSON key and its table header, each with
/// the decimals a number is written to there. Either side may be absent.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Column {
    key: Option<&'static str>,
    header: Option<&'static str>,
    json_decimals: usize,
    table_decimals: usize,
}

impl Column {
    /// A column on both sides, written as a whole number.
    pub(crate) const fn new(key: &'static str, header: &'static str) -> Column {
        Column {
            key: Some(key),
            header: Some(header),
            json_decimals: 0,
            table_decimals: 0,
        }
    }

    /// A column only the JSON carries, to `decimals` places.
    pub(crate) const fn json(key: &'static str, decimals: usize) -> Column {
        Column {
            header: None,
            ..Column::new(key, "")
        }
        .decimals(decimals, 0)
    }

    /// The same column, written to `json` places in the JSON and `table`
    /// places in the table.
    pub(crate) const fn decimals(self, json: usize, table: usize) -> Column {
        Column {
            json_decimals: json,
            table_decimals: table,
            ..self
        }
    }
}

/// One cell of a row.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Value {
    Num(f64),
    Text(&'static str),
    /// No value: `null` in the JSON, `none` in the table.
    None,
}

impl Value {
    fn write(self, decimals: usize, json: bool) -> String {
        match self {
            Value::Num(x) => format!("{x:.decimals$}"),
            Value::Text(s) if json => format!("\"{s}\""),
            Value::Text(s) => s.to_string(),
            Value::None if json => "null".to_string(),
            Value::None => "none".to_string(),
        }
    }
}

macro_rules! whole_numbers {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Num(n as f64)
            }
        }
    )*};
}
whole_numbers!(u32, u64, usize);

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Num(x)
    }
}

impl From<&'static str> for Value {
    fn from(s: &'static str) -> Value {
        Value::Text(s)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::None, Into::into)
    }
}

/// What a sweep measured: one row of values per cell under its columns,
/// and the printed table with its notes and the claims it found false.
pub struct SweepResult {
    /// `exp <name>`, and the `experiment` of its JSON.
    name: &'static str,
    columns: &'static [Column],
    rows: Vec<Vec<Value>>,
    /// The table side of every row, the notes, and the claims that
    /// [`Table::check`] found false.
    pub table: Table,
}

impl SweepResult {
    pub(crate) fn new(name: &'static str, title: &str, columns: &'static [Column]) -> SweepResult {
        let headers: Vec<&str> = columns.iter().filter_map(|c| c.header).collect();
        SweepResult {
            name,
            columns,
            rows: Vec::new(),
            table: Table::new(title, &headers),
        }
    }

    /// Add a row: one value per column, in column order.
    pub(crate) fn row(&mut self, values: Vec<Value>) {
        assert_eq!(values.len(), self.columns.len(), "row width");
        let cells: Vec<String> = (self.columns.iter().zip(&values))
            .filter_map(|(c, v)| c.header.map(|_| v.write(c.table_decimals, false)))
            .collect();
        self.table.row(cells);
        self.rows.push(values);
    }

    /// `BENCH_<name>.json`, written by hand (the workspace has no serde):
    /// one object per row, its keys in column order.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"experiment\": \"{}\",\n  \"rows\": [\n", self.name);
        for (i, row) in self.rows.iter().enumerate() {
            let fields: Vec<String> = (self.columns.iter().zip(row))
                .filter_map(|(c, v)| {
                    Some(format!(
                        "\"{}\": {}",
                        c.key?,
                        v.write(c.json_decimals, true)
                    ))
                })
                .collect();
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            out.push_str(&format!("    {{{}}}{comma}\n", fields.join(", ")));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COLUMNS: &[Column] = &[
        Column::new("mix", "mix"),
        Column::new("page", "page"),
        Column::new("tps", "txns/s").decimals(2, 1),
        Column::json("secs", 3),
    ];

    #[test]
    fn one_row_renders_to_both_sides() {
        let mut sweep = SweepResult::new("demo", "demo", COLUMNS);
        sweep.row(vec![
            "95/5".into(),
            None::<usize>.into(),
            12.3456.into(),
            2.5.into(),
        ]);
        sweep.row(vec![
            "read-only".into(),
            Some(64usize).into(),
            3u64.into(),
            0.0.into(),
        ]);
        assert_eq!(sweep.table.headers, ["mix", "page", "txns/s"]);
        assert_eq!(sweep.table.rows[0], ["95/5", "none", "12.3"]);
        assert_eq!(sweep.table.rows[1], ["read-only", "64", "3.0"]);
        assert_eq!(
            sweep.to_json(),
            "{\n  \"experiment\": \"demo\",\n  \"rows\": [\n    \
             {\"mix\": \"95/5\", \"page\": null, \"tps\": 12.35, \"secs\": 2.500},\n    \
             {\"mix\": \"read-only\", \"page\": 64, \"tps\": 3.00, \"secs\": 0.000}\n  ]\n}\n"
        );
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        SweepResult::new("demo", "demo", COLUMNS).row(vec![1u64.into()]);
    }
}
