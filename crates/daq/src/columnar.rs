//! Column-major telemetry storage.
//!
//! The paper's evidence chain — temperature traces, residency tables,
//! power pies, FPS medians — is built by asking *aggregate* questions of
//! dense sampled data. Row-oriented `Vec<TimeSeries>` answers them by
//! re-walking every row per question; a [`ColumnFrame`] stores one run's
//! telemetry column-major instead, so an aggregate touches exactly the
//! channel it needs, exports stream sequentially, and the query layer
//! ([`crate::query`]) can group campaign cells by sweep axis without
//! materializing anything.
//!
//! A frame is a time column plus named, typed channel columns:
//!
//! - `f64` channels (temperatures, powers — `NaN` marks "no sample", the
//!   columnar twin of the CSV empty field);
//! - `u32` channels (counts, indices);
//! - dictionary-encoded string channels (campaign axis values: `u32`
//!   codes into a per-column value table).
//!
//! Rows are appended through [`ColumnFrame::begin_row`] /
//! [`ColumnFrame::end_row`]; columns may appear mid-run (a sensor coming
//! online) and are back-filled, so every column always has exactly one
//! value per row. Everything is driven by simulated time only, so frames
//! are bit-identical across repeats and worker counts.
//!
//! [`CampaignFrame`] assembles per-cell session frames into one queryable
//! view *zero-copy*: it borrows the cell frames and tags each with its
//! sweep-axis values; aggregation iterates the borrowed column slices
//! directly.

use std::collections::BTreeMap;

/// The type of one channel column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit float samples; `NaN` marks "no sample at this row".
    F64,
    /// 32-bit unsigned integers (counts, indices).
    U32,
    /// Dictionary-encoded strings (axis values, labels).
    Str,
}

impl ColumnType {
    /// Lowercase label used in JSON export and error messages.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            ColumnType::F64 => "f64",
            ColumnType::U32 => "u32",
            ColumnType::Str => "str",
        }
    }
}

/// The values of one column.
///
/// Equality compares `f64` values *bitwise* (`NaN == NaN`): the store's
/// contract is bit-identity across worker counts and round trips, and
/// `NaN` is a legitimate stored value (the "no sample" marker).
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Float samples, one per row.
    F64(Vec<f64>),
    /// Unsigned integers, one per row.
    U32(Vec<u32>),
    /// Dictionary-encoded strings: one code per row, indexing `values`
    /// (codes are assigned in order of first appearance, so two frames
    /// built from the same rows are bit-identical).
    Str {
        /// Per-row dictionary codes.
        codes: Vec<u32>,
        /// The dictionary, in order of first appearance.
        values: Vec<String>,
    },
}

impl ColumnData {
    fn column_type(&self) -> ColumnType {
        match self {
            ColumnData::F64(_) => ColumnType::F64,
            ColumnData::U32(_) => ColumnType::U32,
            ColumnData::Str { .. } => ColumnType::Str,
        }
    }

    fn len(&self) -> usize {
        match self {
            ColumnData::F64(v) => v.len(),
            ColumnData::U32(v) => v.len(),
            ColumnData::Str { codes, .. } => codes.len(),
        }
    }
}

impl PartialEq for ColumnData {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ColumnData::F64(a), ColumnData::F64(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (ColumnData::U32(a), ColumnData::U32(b)) => a == b,
            (
                ColumnData::Str {
                    codes: ca,
                    values: va,
                },
                ColumnData::Str {
                    codes: cb,
                    values: vb,
                },
            ) => ca == cb && va == vb,
            _ => false,
        }
    }
}

/// A string column's lookup index: its dictionary codes, sorted by the
/// value each names. It holds no copy of the strings (4 B per distinct
/// value), and it is a pure function of the dictionary, so two columns
/// with equal data have equal indexes.
#[derive(Debug, Clone, Default, PartialEq)]
struct DictIndex(Vec<u32>);

impl DictIndex {
    /// The code of `value` in `values`, appending it on first appearance
    /// (codes stay in first-appearance order). A binary search over the
    /// index finds the code or the insertion point, so N distinct values
    /// cost O(N log N) comparisons; values arriving in ascending order
    /// (a fleet's device names) insert at the end of the index.
    fn code(&mut self, values: &mut Vec<String>, value: &str) -> u32 {
        match self
            .0
            .binary_search_by(|&c| values[c as usize].as_str().cmp(value))
        {
            Ok(i) => self.0[i],
            Err(i) => {
                let code = u32::try_from(values.len()).expect("dictionary exceeds u32 codes");
                values.push(value.to_owned());
                self.0.insert(i, code);
                code
            }
        }
    }
}

/// One named, typed column.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    name: String,
    data: ColumnData,
    /// Lookup index of a string column's dictionary; empty otherwise.
    dict: DictIndex,
}

impl Column {
    /// The column's channel name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The column's type.
    #[must_use]
    pub fn column_type(&self) -> ColumnType {
        self.data.column_type()
    }

    /// The column's values.
    #[must_use]
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Pads the column to `rows` values with the type's "absent" marker
    /// (`NaN`, `0`, or the empty string).
    fn pad_to(&mut self, rows: usize) {
        match &mut self.data {
            ColumnData::F64(v) => v.resize(rows, f64::NAN),
            ColumnData::U32(v) => v.resize(rows, 0),
            ColumnData::Str { codes, values } => {
                if codes.len() < rows {
                    let empty = self.dict.code(values, "");
                    codes.resize(rows, empty);
                }
            }
        }
    }
}

/// Formats an `f64` with the shortest representation that round-trips
/// (`{:?}`), or an empty field for `NaN` — the frame's "no sample"
/// marker. `55.0` stays `55.0`, never the lossy-looking `55`.
#[must_use]
pub fn format_f64(v: f64) -> String {
    let mut out = String::new();
    write_f64(&mut out, v);
    out
}

/// Appends [`format_f64`]'s text for `v` to `out`.
fn write_f64(out: &mut String, v: f64) {
    use std::fmt::Write;
    if !v.is_nan() {
        let _ = write!(out, "{v:?}");
    }
}

/// A column-major telemetry frame: a monotone time column plus named,
/// typed channel columns, every column exactly one value per row.
///
/// # Examples
///
/// ```
/// use mpt_daq::columnar::ColumnFrame;
///
/// let mut frame = ColumnFrame::new();
/// for i in 0..3 {
///     frame.begin_row(f64::from(i) * 0.1);
///     frame.set_f64("temp_big_c", 40.0 + f64::from(i));
///     frame.end_row();
/// }
/// assert_eq!(frame.rows(), 3);
/// assert_eq!(frame.f64_column("temp_big_c").unwrap()[2], 42.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnFrame {
    time: Vec<f64>,
    columns: Vec<Column>,
    index: BTreeMap<String, usize>,
    /// Rows completed by `end_row` (the open row, if any, is not counted).
    rows: usize,
    open: bool,
}

/// The name of the implicit time column every frame carries.
pub const TIME_CHANNEL: &str = "time_s";

impl ColumnFrame {
    /// An empty frame.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Completed rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether the frame has no completed rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The time column.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.time[..self.rows]
    }

    /// Every channel column, in creation order (the time column is
    /// implicit and not included).
    #[must_use]
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The schema: `(name, type)` per channel, time column first.
    #[must_use]
    pub fn schema(&self) -> Vec<(String, ColumnType)> {
        let mut out = vec![(TIME_CHANNEL.to_owned(), ColumnType::F64)];
        out.extend(
            self.columns
                .iter()
                .map(|c| (c.name.clone(), c.column_type())),
        );
        out
    }

    /// Every channel name, time column first.
    #[must_use]
    pub fn channel_names(&self) -> Vec<String> {
        self.schema().into_iter().map(|(n, _)| n).collect()
    }

    /// The named column, or `None` (the time column is reached through
    /// [`times`](Self::times)).
    #[must_use]
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.index.get(name).map(|&i| &self.columns[i])
    }

    /// The named `f64` column's values (`time_s` resolves to the time
    /// column), or `None` if absent or not `f64`.
    #[must_use]
    pub fn f64_column(&self, name: &str) -> Option<&[f64]> {
        if name == TIME_CHANNEL {
            return Some(self.times());
        }
        match self.column(name)?.data() {
            ColumnData::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The named `f64` channel as a [`TimeSeries`](crate::TimeSeries) of
    /// the same name, skipping its `NaN` "no sample" rows, or `None` if
    /// the channel is absent or not `f64`.
    #[must_use]
    pub fn series(&self, name: &str) -> Option<crate::TimeSeries> {
        let mut series = crate::TimeSeries::new(name);
        for (&t, &v) in self.times().iter().zip(self.f64_column(name)?) {
            if !v.is_nan() {
                series.push(mpt_units::Seconds::new(t), v);
            }
        }
        Some(series)
    }

    /// The named column's row values as `f64` — `u32` columns convert,
    /// string columns return `None`. This is the numeric surface the
    /// query aggregates run over.
    #[must_use]
    pub fn numeric_column(&self, name: &str) -> Option<Vec<f64>> {
        if name == TIME_CHANNEL {
            return Some(self.times().to_vec());
        }
        match self.column(name)?.data() {
            ColumnData::F64(v) => Some(v.clone()),
            ColumnData::U32(v) => Some(v.iter().map(|&x| f64::from(x)).collect()),
            ColumnData::Str { .. } => None,
        }
    }

    /// The string value of a dictionary column at `row`, or `None` if
    /// the column is absent or not a string column.
    #[must_use]
    pub fn str_value(&self, name: &str, row: usize) -> Option<&str> {
        match self.column(name)?.data() {
            ColumnData::Str { codes, values } => Some(values[*codes.get(row)? as usize].as_str()),
            _ => None,
        }
    }

    /// Names of the dictionary (string) columns — the group-by axes a
    /// single-frame query accepts.
    #[must_use]
    pub fn str_columns(&self) -> Vec<String> {
        self.columns
            .iter()
            .filter(|c| c.column_type() == ColumnType::Str)
            .map(|c| c.name.clone())
            .collect()
    }

    /// Opens a new row at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if a row is already open or `t` precedes the previous row.
    pub fn begin_row(&mut self, t: f64) {
        assert!(!self.open, "row already open");
        if let Some(&last) = self.time.last() {
            assert!(
                t >= last,
                "rows must be appended in time order: {t} < {last}"
            );
        }
        self.time.push(t);
        self.open = true;
    }

    /// Sets an `f64` channel on the open row, creating (and
    /// back-filling) the column on first touch.
    pub fn set_f64(&mut self, name: &str, value: f64) {
        self.set(name, |rows| ColumnData::F64(Vec::with_capacity(rows + 1)))
            .pad_to_and(|c| match &mut c.data {
                ColumnData::F64(v) => v.push(value),
                _ => panic!("column type mismatch: {name} is not f64"),
            });
    }

    /// Sets a `u32` channel on the open row, creating the column on
    /// first touch.
    pub fn set_u32(&mut self, name: &str, value: u32) {
        self.set(name, |rows| ColumnData::U32(Vec::with_capacity(rows + 1)))
            .pad_to_and(|c| match &mut c.data {
                ColumnData::U32(v) => v.push(value),
                _ => panic!("column type mismatch: {name} is not u32"),
            });
    }

    /// Sets a string channel on the open row, creating the column on
    /// first touch; values are dictionary-encoded per column.
    pub fn set_str(&mut self, name: &str, value: &str) {
        self.set(name, |rows| ColumnData::Str {
            codes: Vec::with_capacity(rows + 1),
            values: Vec::new(),
        })
        .pad_to_and(|c| match &mut c.data {
            ColumnData::Str { codes, values } => codes.push(c.dict.code(values, value)),
            _ => panic!("column type mismatch: {name} is not str"),
        });
    }

    fn set(&mut self, name: &str, make: impl FnOnce(usize) -> ColumnData) -> SetSlot<'_> {
        assert!(self.open, "set outside begin_row/end_row");
        let rows = self.rows;
        // Look up before inserting: only a new column allocates its key.
        let i = match self.index.get(name) {
            Some(&i) => i,
            None => {
                self.columns.push(Column {
                    name: name.to_owned(),
                    data: make(rows),
                    dict: DictIndex::default(),
                });
                self.index.insert(name.to_owned(), self.columns.len() - 1);
                self.columns.len() - 1
            }
        };
        SetSlot {
            column: &mut self.columns[i],
            rows,
        }
    }

    /// Closes the open row, padding untouched columns with their
    /// "absent" marker so every column stays row-aligned.
    ///
    /// # Panics
    ///
    /// Panics if no row is open.
    pub fn end_row(&mut self) {
        assert!(self.open, "end_row without begin_row");
        self.rows += 1;
        self.open = false;
        for c in &mut self.columns {
            c.pad_to(self.rows);
        }
    }

    /// Renders the frame as CSV: `time_s` then every channel, floats in
    /// shortest round-trip form ([`format_f64`]), `NaN` as an explicit
    /// empty field.
    #[must_use]
    pub fn to_csv(&self) -> String {
        use std::fmt::Write;
        // ~20 bytes per field is generous for shortest-round-trip floats;
        // one allocation up front, then every field writes in place.
        let mut out = String::with_capacity((self.columns.len() + 1) * (self.rows + 1) * 20);
        out.push_str(TIME_CHANNEL);
        for c in &self.columns {
            out.push(',');
            out.push_str(&c.name);
        }
        out.push('\n');
        for i in 0..self.rows {
            write_f64(&mut out, self.time[i]);
            for c in &self.columns {
                out.push(',');
                match &c.data {
                    ColumnData::F64(v) => write_f64(&mut out, v[i]),
                    ColumnData::U32(v) => {
                        let _ = write!(out, "{}", v[i]);
                    }
                    ColumnData::Str { codes, values } => {
                        out.push_str(&values[codes[i] as usize]);
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// Parses a frame back from [`to_csv`](Self::to_csv) output.
    ///
    /// Column types are inferred per column: every non-empty field an
    /// unsigned integer → `u32`; every field a float (or empty → `NaN`)
    /// → `f64`; anything else → dictionary string. Because `to_csv`
    /// prints floats with `{:?}` (always a decimal point) and `u32`
    /// without, a round trip preserves both the values and the types
    /// bit-for-bit.
    ///
    /// # Errors
    ///
    /// A message naming the malformed line if the CSV is ragged or has
    /// no `time_s` header.
    pub fn from_csv(csv: &str) -> Result<Self, String> {
        let mut lines = csv.lines();
        let header = lines.next().ok_or_else(|| "empty CSV".to_owned())?;
        let names: Vec<&str> = header.split(',').collect();
        if names.first() != Some(&TIME_CHANNEL) {
            return Err(format!(
                "first column must be {TIME_CHANNEL}, got {header:?}"
            ));
        }
        let mut fields: Vec<Vec<String>> = vec![Vec::new(); names.len()];
        for (lineno, line) in lines.enumerate() {
            let row: Vec<&str> = line.split(',').collect();
            if row.len() != names.len() {
                return Err(format!(
                    "line {}: {} fields, header has {}",
                    lineno + 2,
                    row.len(),
                    names.len()
                ));
            }
            for (col, field) in fields.iter_mut().zip(&row) {
                col.push((*field).to_owned());
            }
        }
        let mut frame = Self::new();
        let rows = fields[0].len();
        let time: Vec<f64> = fields[0]
            .iter()
            .map(|f| f.parse::<f64>().map_err(|e| format!("bad time {f:?}: {e}")))
            .collect::<Result<_, _>>()?;
        let columns: Vec<ColumnData> = fields[1..].iter().map(|col| infer_column(col)).collect();
        for i in 0..rows {
            frame.begin_row(time[i]);
            for (name, data) in names[1..].iter().zip(&columns) {
                match data {
                    ColumnData::F64(v) => frame.set_f64(name, v[i]),
                    ColumnData::U32(v) => frame.set_u32(name, v[i]),
                    ColumnData::Str { codes, values } => {
                        frame.set_str(name, &values[codes[i] as usize]);
                    }
                }
            }
            frame.end_row();
        }
        Ok(frame)
    }

    /// Renders the frame as a JSON document:
    /// `{"rows": n, "columns": [{"name", "type", "values"}, ...]}` with
    /// the time column first and `NaN` as `null`.
    #[must_use]
    pub fn to_json(&self) -> String {
        use serde::Value;
        let f64_values = |v: &[f64]| {
            Value::Array(
                v.iter()
                    .map(|&x| {
                        if x.is_nan() {
                            Value::Null
                        } else {
                            Value::Number(x)
                        }
                    })
                    .collect(),
            )
        };
        let mut columns = vec![Value::Object(vec![
            ("name".to_owned(), Value::String(TIME_CHANNEL.to_owned())),
            ("type".to_owned(), Value::String("f64".to_owned())),
            ("values".to_owned(), f64_values(self.times())),
        ])];
        for c in &self.columns {
            let values = match &c.data {
                ColumnData::F64(v) => f64_values(v),
                ColumnData::U32(v) => {
                    Value::Array(v.iter().map(|&x| Value::Number(f64::from(x))).collect())
                }
                ColumnData::Str { codes, values } => Value::Array(
                    codes
                        .iter()
                        .map(|&code| Value::String(values[code as usize].clone()))
                        .collect(),
                ),
            };
            columns.push(Value::Object(vec![
                ("name".to_owned(), Value::String(c.name.clone())),
                (
                    "type".to_owned(),
                    Value::String(c.column_type().label().to_owned()),
                ),
                ("values".to_owned(), values),
            ]));
        }
        let doc = Value::Object(vec![
            ("rows".to_owned(), Value::Number(self.rows as f64)),
            ("columns".to_owned(), Value::Array(columns)),
        ]);
        value_to_json_pretty(&doc)
    }
}

/// Serializes an already-built [`serde::Value`] tree to pretty JSON (the
/// stub `serde_json` only accepts `Serialize` types, so wrap verbatim).
pub(crate) fn value_to_json_pretty(value: &serde::Value) -> String {
    struct Verbatim<'a>(&'a serde::Value);
    impl serde::Serialize for Verbatim<'_> {
        fn serialize_value(&self) -> serde::Value {
            self.0.clone()
        }
    }
    serde_json::to_string_pretty(&Verbatim(value)).expect("value serialization is infallible")
}

/// A borrowed column slot mid-`set`, so padding and the typed push share
/// one lookup.
struct SetSlot<'a> {
    column: &'a mut Column,
    rows: usize,
}

impl SetSlot<'_> {
    fn pad_to_and(self, push: impl FnOnce(&mut Column)) {
        self.column.pad_to(self.rows);
        assert!(
            self.column.data.len() == self.rows,
            "channel set twice in one row"
        );
        push(self.column);
    }
}

fn infer_column(fields: &[String]) -> ColumnData {
    let all_u32 = !fields.is_empty()
        && fields
            .iter()
            .all(|f| !f.is_empty() && f.parse::<u32>().is_ok());
    if all_u32 {
        return ColumnData::U32(fields.iter().map(|f| f.parse().expect("checked")).collect());
    }
    let as_f64: Option<Vec<f64>> = fields
        .iter()
        .map(|f| {
            if f.is_empty() {
                Some(f64::NAN)
            } else {
                f.parse::<f64>().ok()
            }
        })
        .collect();
    if let Some(v) = as_f64 {
        return ColumnData::F64(v);
    }
    let mut codes = Vec::with_capacity(fields.len());
    let mut values = Vec::new();
    let mut dict = DictIndex::default();
    for f in fields {
        codes.push(dict.code(&mut values, f));
    }
    ColumnData::Str { codes, values }
}

/// One cell of a [`CampaignFrame`]: the cell's sweep-axis values and a
/// borrowed reference to its session frame.
#[derive(Debug, Clone)]
pub struct CellFrameRef<'a> {
    /// `(axis, value)` pairs, e.g. `("platform", "exynos5422")`.
    pub axes: &'a [(String, String)],
    /// The cell's session frame, borrowed — never copied.
    pub frame: &'a ColumnFrame,
}

/// A campaign's worth of session frames, assembled zero-copy: each cell
/// contributes a borrowed [`ColumnFrame`] tagged with its sweep-axis
/// values. Queries group cells by axis value and aggregate straight over
/// the borrowed column slices.
#[derive(Debug, Clone, Default)]
pub struct CampaignFrame<'a> {
    cells: Vec<CellFrameRef<'a>>,
}

impl<'a> CampaignFrame<'a> {
    /// An empty campaign view.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one cell (in expansion order, to keep results deterministic).
    pub fn push_cell(&mut self, axes: &'a [(String, String)], frame: &'a ColumnFrame) {
        self.cells.push(CellFrameRef { axes, frame });
    }

    /// The cells, in insertion (expansion) order.
    #[must_use]
    pub fn cells(&self) -> &[CellFrameRef<'a>] {
        &self.cells
    }

    /// Every axis key present on any cell, sorted and deduplicated.
    #[must_use]
    pub fn axis_keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .cells
            .iter()
            .flat_map(|c| c.axes.iter().map(|(k, _)| k.clone()))
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// Every channel name present on any cell frame, sorted and
    /// deduplicated.
    #[must_use]
    pub fn channel_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .cells
            .iter()
            .flat_map(|c| c.frame.channel_names())
            .collect();
        names.sort();
        names.dedup();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> ColumnFrame {
        let mut f = ColumnFrame::new();
        for i in 0..4 {
            f.begin_row(f64::from(i) * 0.5);
            f.set_f64("temp_big_c", 40.0 + f64::from(i));
            if i >= 2 {
                f.set_f64("temp_late_c", 55.0);
            }
            f.set_u32("events", u32::from(i % 2 == 0));
            f.set_str("phase", if i < 2 { "warm" } else { "hot" });
            f.end_row();
        }
        f
    }

    #[test]
    fn series_skips_no_sample_rows() {
        let f = sample_frame();
        let late = f.series("temp_late_c").unwrap();
        assert_eq!(late.name(), "temp_late_c");
        assert_eq!(late.times(), &[1.0, 1.5]);
        assert_eq!(late.values(), &[55.0, 55.0]);
        assert_eq!(f.series("temp_big_c").unwrap().len(), 4);
        assert!(f.series("events").is_none());
        assert!(f.series("missing").is_none());
    }

    #[test]
    fn late_columns_are_backfilled_with_nan() {
        let f = sample_frame();
        let late = f.f64_column("temp_late_c").unwrap();
        assert!(late[0].is_nan() && late[1].is_nan());
        assert_eq!(late[2], 55.0);
        assert_eq!(f.rows(), 4);
        for c in f.columns() {
            assert_eq!(c.data().len(), 4, "{}", c.name());
        }
    }

    #[test]
    fn schema_lists_time_first() {
        let f = sample_frame();
        let schema = f.schema();
        assert_eq!(schema[0], ("time_s".to_owned(), ColumnType::F64));
        assert!(schema
            .iter()
            .any(|(n, t)| n == "events" && *t == ColumnType::U32));
        assert!(schema
            .iter()
            .any(|(n, t)| n == "phase" && *t == ColumnType::Str));
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn rows_must_be_monotone() {
        let mut f = ColumnFrame::new();
        f.begin_row(1.0);
        f.end_row();
        f.begin_row(0.5);
    }

    #[test]
    fn csv_round_trips_losslessly() {
        let f = sample_frame();
        let csv = f.to_csv();
        // Floats keep a decimal point, u32 stays bare, NaN is empty.
        assert!(csv.contains("40.0"));
        assert!(csv.lines().nth(1).unwrap().ends_with(','), "{csv}");
        let back = ColumnFrame::from_csv(&csv).expect("parses");
        assert_eq!(f, back);
        assert_eq!(back.to_csv(), csv);
    }

    #[test]
    fn csv_round_trips_awkward_floats() {
        // The last two are values a Grisu2 formatter prints one digit
        // longer than `{:?}` (`60.942513431347336`, `3.1722300588172752e16`).
        let values = [
            0.1,
            1.0 / 3.0,
            1e-300,
            6.02e23,
            60.94251343134734,
            3.172230058817275e16,
        ];
        let mut f = ColumnFrame::new();
        for (i, v) in values.iter().enumerate() {
            f.begin_row(i as f64);
            f.set_f64("x", *v);
            f.end_row();
        }
        let csv = f.to_csv();
        for (line, v) in csv.lines().skip(1).zip(values) {
            let field = line.split(',').nth(1).expect("x field");
            assert_eq!(field, format!("{v:?}"), "shortest round-trip text");
        }
        let back = ColumnFrame::from_csv(&csv).expect("parses");
        assert_eq!(f, back, "shortest-repr formatting must round-trip exactly");
    }

    #[test]
    fn ragged_csv_is_rejected() {
        assert!(ColumnFrame::from_csv("time_s,x\n1.0,2.0,3.0\n").is_err());
        assert!(ColumnFrame::from_csv("wrong,x\n").is_err());
    }

    #[test]
    fn json_export_nulls_nan() {
        let f = sample_frame();
        let json = f.to_json();
        let value = serde_json::value_from_str(&json).expect("valid JSON");
        let obj = value.as_object().expect("object");
        assert_eq!(
            serde::__find(obj, "rows").and_then(serde::Value::as_f64),
            Some(4.0)
        );
        assert!(json.contains("null"), "NaN must serialize as null");
    }

    #[test]
    fn dictionary_codes_follow_first_appearance_over_10k_values() {
        // 10k distinct values in a shuffled order (7919 is coprime to
        // 10k), every third row a repeat of an earlier value, every 97th
        // row unset, the column absent for the first 5 rows and one
        // explicit "" late in the run.
        let n = 10_000_usize;
        let mut rows: Vec<Option<String>> = vec![None; 5];
        for i in 0..n {
            rows.push(Some(format!("v{:05}", (i * 7919) % n)));
            if i % 3 == 2 {
                rows.push(Some(format!("v{:05}", ((i / 2) * 7919) % n)));
            }
            if i % 97 == 0 {
                rows.push(None);
            }
            if i == n / 2 {
                rows.push(Some(String::new()));
            }
        }
        let mut f = ColumnFrame::new();
        for (r, value) in rows.iter().enumerate() {
            f.begin_row(r as f64);
            f.set_u32("row", r as u32);
            if let Some(v) = value {
                f.set_str("label", v);
            }
            f.end_row();
        }
        // Linear first-appearance reference; unset rows read "".
        let mut want_values: Vec<String> = Vec::new();
        let mut want_codes = Vec::with_capacity(rows.len());
        for value in &rows {
            let v = value.as_deref().unwrap_or("");
            let code = match want_values.iter().position(|w| w == v) {
                Some(i) => i,
                None => {
                    want_values.push(v.to_owned());
                    want_values.len() - 1
                }
            };
            want_codes.push(code as u32);
        }
        assert_eq!(want_values.len(), n + 1);
        assert_eq!(want_values[0], "");
        match f.column("label").expect("label column").data() {
            ColumnData::Str { codes, values } => {
                assert_eq!(values, &want_values);
                assert_eq!(codes, &want_codes);
            }
            other => panic!("label is not a string column: {other:?}"),
        }
        let back = ColumnFrame::from_csv(&f.to_csv()).expect("parses");
        assert_eq!(f, back);
    }

    #[test]
    fn campaign_frame_collects_axes_and_channels() {
        let f1 = sample_frame();
        let f2 = sample_frame();
        let a1 = vec![("platform".to_owned(), "exynos5422".to_owned())];
        let a2 = vec![("platform".to_owned(), "snapdragon810".to_owned())];
        let mut cf = CampaignFrame::new();
        cf.push_cell(&a1, &f1);
        cf.push_cell(&a2, &f2);
        assert_eq!(cf.axis_keys(), vec!["platform"]);
        assert!(cf.channel_names().contains(&"temp_big_c".to_owned()));
        assert_eq!(cf.cells().len(), 2);
    }
}
