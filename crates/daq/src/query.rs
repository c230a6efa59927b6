//! A small typed query layer over [`ColumnFrame`]s.
//!
//! One query = one aggregate over one channel, optionally grouped by
//! campaign sweep axes and filtered on axis values:
//!
//! ```text
//! p99(max_temp_c) by platform,ambient where thermal=ipa(2.6W)
//! ```
//!
//! Grammar (whitespace-separated clauses, in this order):
//!
//! ```text
//! <agg>(<channel>) [by <axis>[,<axis>...]] [where <axis>(=|!=)<value> ...]
//! <agg> := min | max | mean | sum | count | median | p<number>
//! ```
//!
//! Aggregates reuse the [`crate::stats`] kernels, so `p99(...)` over a
//! frame is *definitionally* the same number as
//! [`crate::stats::percentile`] over the gathered values — a property
//! test pins this. `NaN` samples (the frame's "no sample" marker) are
//! skipped; `count` counts the samples that remain.
//!
//! Queries run over a single [`ColumnFrame`] (group-by keys resolve
//! against its dictionary columns) or over a [`CampaignFrame`] (group-by
//! keys resolve against sweep-axis values, the channel against each
//! cell's columns — falling back per cell, so a sensor missing on one
//! platform of a platform sweep contributes no samples rather than
//! failing the whole query). Result rows are sorted by group key, so
//! output is bit-identical regardless of worker count or cell order.

use std::collections::BTreeMap;

use crate::columnar::{format_f64, CampaignFrame, ColumnFrame};
use crate::stats;

/// The aggregate function of a query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Aggregate {
    /// Smallest sample.
    Min,
    /// Largest sample.
    Max,
    /// Arithmetic mean ([`stats::mean`]).
    Mean,
    /// Sum of samples.
    Sum,
    /// Number of (non-`NaN`) samples.
    Count,
    /// Median ([`stats::median`]).
    Median,
    /// Linear-interpolated percentile ([`stats::percentile`]).
    Percentile(f64),
}

impl Aggregate {
    /// Applies the aggregate to already-gathered samples. `None` only
    /// when `values` is empty and the aggregate has no empty identity
    /// (`count` of nothing is `0`, `sum` of nothing is `0.0`).
    #[must_use]
    pub(crate) fn apply(self, values: &[f64]) -> Option<f64> {
        match self {
            Aggregate::Min => values.iter().copied().reduce(f64::min),
            Aggregate::Max => values.iter().copied().reduce(f64::max),
            Aggregate::Mean => stats::mean(values),
            Aggregate::Sum => Some(values.iter().sum()),
            Aggregate::Count => Some(values.len() as f64),
            Aggregate::Median => stats::median(values),
            Aggregate::Percentile(p) => stats::percentile(values, p),
        }
    }

    fn render(self) -> String {
        match self {
            Aggregate::Min => "min".to_owned(),
            Aggregate::Max => "max".to_owned(),
            Aggregate::Mean => "mean".to_owned(),
            Aggregate::Sum => "sum".to_owned(),
            Aggregate::Count => "count".to_owned(),
            Aggregate::Median => "median".to_owned(),
            Aggregate::Percentile(p) => format!("p{p}"),
        }
    }
}

/// One `where` clause predicate on an axis value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Filter {
    /// The axis key, e.g. `platform`.
    pub key: String,
    /// The value to compare against (string equality).
    pub value: String,
    /// `true` for `!=`, `false` for `=`.
    pub negated: bool,
}

impl Filter {
    fn matches(&self, actual: Option<&str>) -> bool {
        let eq = actual == Some(self.value.as_str());
        eq != self.negated
    }
}

/// A parsed query: aggregate, channel, group-by axes, filters.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The aggregate to apply.
    pub agg: Aggregate,
    /// The channel the aggregate runs over.
    pub channel: String,
    /// Axis keys to group by (result has one row per distinct tuple).
    pub group_by: Vec<String>,
    /// Axis predicates; a row/cell must satisfy all of them.
    pub filters: Vec<Filter>,
}

/// Why a query failed to parse, validate, or run.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The expression text does not match the grammar.
    Parse(String),
    /// The selected channel exists on no frame; `known` lists what does.
    UnknownChannel {
        /// The channel the query asked for.
        name: String,
        /// Channels that exist.
        known: Vec<String>,
    },
    /// A group-by or filter key is not an axis; `known` lists the axes.
    UnknownAxis {
        /// The key the query used.
        name: String,
        /// Axis keys that exist (empty for single-session frames with no
        /// dictionary columns).
        known: Vec<String>,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Parse(msg) => write!(f, "query parse error: {msg}"),
            QueryError::UnknownChannel { name, known } => write!(
                f,
                "query names unknown channel `{name}` (known: {})",
                known.join(", ")
            ),
            QueryError::UnknownAxis { name, known } => {
                if known.is_empty() {
                    write!(f, "query groups/filters on `{name}` but no axes exist here")
                } else {
                    write!(
                        f,
                        "query groups/filters on non-axis key `{name}` (axes: {})",
                        known.join(", ")
                    )
                }
            }
        }
    }
}

impl std::error::Error for QueryError {}

impl Query {
    /// Parses a query expression; see the module docs for the grammar.
    ///
    /// # Errors
    ///
    /// [`QueryError::Parse`] describing the first offending token.
    pub fn parse(expr: &str) -> Result<Self, QueryError> {
        let expr = expr.trim();
        let open = expr
            .find('(')
            .ok_or_else(|| QueryError::Parse(format!("expected `agg(channel)` in {expr:?}")))?;
        let close = expr[open..]
            .find(')')
            .map(|i| open + i)
            .ok_or_else(|| QueryError::Parse(format!("unclosed `(` in {expr:?}")))?;
        let agg = parse_agg(expr[..open].trim())?;
        let channel = expr[open + 1..close].trim();
        if channel.is_empty() || channel.contains(char::is_whitespace) {
            return Err(QueryError::Parse(format!(
                "bad channel name {channel:?} in {expr:?}"
            )));
        }
        let mut query = Query {
            agg,
            channel: channel.to_owned(),
            group_by: Vec::new(),
            filters: Vec::new(),
        };
        let mut rest = expr[close + 1..].split_whitespace().peekable();
        while let Some(tok) = rest.next() {
            match tok {
                "by" => {
                    let keys = rest.next().ok_or_else(|| {
                        QueryError::Parse("`by` needs a comma-separated key list".to_owned())
                    })?;
                    query.group_by = keys
                        .split(',')
                        .map(str::trim)
                        .filter(|k| !k.is_empty())
                        .map(str::to_owned)
                        .collect();
                    if query.group_by.is_empty() {
                        return Err(QueryError::Parse("`by` key list is empty".to_owned()));
                    }
                }
                "where" => {
                    for pred in rest.by_ref() {
                        query.filters.push(parse_filter(pred)?);
                    }
                    if query.filters.is_empty() {
                        return Err(QueryError::Parse(
                            "`where` needs at least one key=value predicate".to_owned(),
                        ));
                    }
                }
                other => {
                    return Err(QueryError::Parse(format!(
                        "unexpected token {other:?} (expected `by` or `where`)"
                    )))
                }
            }
        }
        Ok(query)
    }

    /// The canonical rendering of the query (used as the `query` field of
    /// results and as golden-file headers).
    #[must_use]
    pub(crate) fn render(&self) -> String {
        let mut out = format!("{}({})", self.agg.render(), self.channel);
        if !self.group_by.is_empty() {
            out.push_str(" by ");
            out.push_str(&self.group_by.join(","));
        }
        if !self.filters.is_empty() {
            out.push_str(" where");
            for f in &self.filters {
                out.push(' ');
                out.push_str(&f.key);
                out.push_str(if f.negated { "!=" } else { "=" });
                out.push_str(&f.value);
            }
        }
        out
    }

    /// Statically validates the query against a schema: the channels
    /// that will exist and the axis keys that may be grouped/filtered
    /// on. This is what the MPT401/402 lints run — no frame needed.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownChannel`] / [`QueryError::UnknownAxis`].
    pub fn validate(&self, channels: &[String], axes: &[String]) -> Result<(), QueryError> {
        if !channels.iter().any(|c| c == &self.channel) {
            return Err(QueryError::UnknownChannel {
                name: self.channel.clone(),
                known: channels.to_vec(),
            });
        }
        for key in self
            .group_by
            .iter()
            .chain(self.filters.iter().map(|f| &f.key))
        {
            if !axes.iter().any(|a| a == key) {
                return Err(QueryError::UnknownAxis {
                    name: key.clone(),
                    known: axes.to_vec(),
                });
            }
        }
        Ok(())
    }

    /// Runs the query over one frame. Group-by and filter keys resolve
    /// against the frame's dictionary (string) columns; the channel must
    /// be numeric.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownChannel`] / [`QueryError::UnknownAxis`].
    pub fn run(&self, frame: &ColumnFrame) -> Result<QueryResult, QueryError> {
        let axes = frame.str_columns();
        self.validate(&frame.channel_names(), &axes)?;
        let values =
            frame
                .numeric_column(&self.channel)
                .ok_or_else(|| QueryError::UnknownChannel {
                    name: self.channel.clone(),
                    known: numeric_channels(frame),
                })?;
        let mut groups: BTreeMap<Vec<String>, Vec<f64>> = BTreeMap::new();
        'rows: for (row, &v) in values.iter().enumerate() {
            if v.is_nan() {
                continue;
            }
            for f in &self.filters {
                if !f.matches(frame.str_value(&f.key, row)) {
                    continue 'rows;
                }
            }
            let key: Vec<String> = self
                .group_by
                .iter()
                .map(|k| frame.str_value(k, row).unwrap_or("-").to_owned())
                .collect();
            groups.entry(key).or_default().push(v);
        }
        Ok(self.finish(groups))
    }

    /// Runs the query over a campaign view. Group-by and filter keys
    /// resolve against sweep-axis values; the channel gathers from every
    /// cell frame that has it (cells without it contribute no samples —
    /// only a channel absent from *all* cells is an error).
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownChannel`] / [`QueryError::UnknownAxis`].
    pub fn run_campaign(&self, campaign: &CampaignFrame<'_>) -> Result<QueryResult, QueryError> {
        self.validate(&campaign.channel_names(), &campaign.axis_keys())?;
        let mut groups: BTreeMap<Vec<String>, Vec<f64>> = BTreeMap::new();
        'cells: for cell in campaign.cells() {
            let axis = |k: &str| {
                cell.axes
                    .iter()
                    .find(|(ak, _)| ak == k)
                    .map(|(_, v)| v.as_str())
            };
            for f in &self.filters {
                if !f.matches(axis(&f.key)) {
                    continue 'cells;
                }
            }
            let key: Vec<String> = self
                .group_by
                .iter()
                .map(|k| axis(k).unwrap_or("-").to_owned())
                .collect();
            let bucket = groups.entry(key).or_default();
            if let Some(values) = cell.frame.numeric_column(&self.channel) {
                bucket.extend(values.iter().copied().filter(|v| !v.is_nan()));
            }
        }
        Ok(self.finish(groups))
    }

    fn finish(&self, groups: BTreeMap<Vec<String>, Vec<f64>>) -> QueryResult {
        let rows = groups
            .into_iter()
            .filter_map(|(key, values)| {
                let count = values.len();
                self.agg.apply(&values).map(|value| QueryRow {
                    group: self.group_by.iter().cloned().zip(key).collect(),
                    value,
                    count,
                })
            })
            .collect();
        QueryResult {
            query: self.render(),
            group_by: self.group_by.clone(),
            rows,
        }
    }
}

fn parse_agg(name: &str) -> Result<Aggregate, QueryError> {
    match name {
        "min" => Ok(Aggregate::Min),
        "max" => Ok(Aggregate::Max),
        "mean" => Ok(Aggregate::Mean),
        "sum" => Ok(Aggregate::Sum),
        "count" => Ok(Aggregate::Count),
        "median" => Ok(Aggregate::Median),
        _ => {
            let p = name
                .strip_prefix('p')
                .and_then(|p| p.parse::<f64>().ok())
                .filter(|p| (0.0..=100.0).contains(p))
                .ok_or_else(|| {
                    QueryError::Parse(format!(
                        "unknown aggregate {name:?} (min|max|mean|sum|count|median|p<0..=100>)"
                    ))
                })?;
            Ok(Aggregate::Percentile(p))
        }
    }
}

fn parse_filter(pred: &str) -> Result<Filter, QueryError> {
    let (key, value, negated) = if let Some((k, v)) = pred.split_once("!=") {
        (k, v, true)
    } else if let Some((k, v)) = pred.split_once('=') {
        (k, v, false)
    } else {
        return Err(QueryError::Parse(format!(
            "bad predicate {pred:?} (expected key=value or key!=value)"
        )));
    };
    if key.is_empty() || value.is_empty() {
        return Err(QueryError::Parse(format!("bad predicate {pred:?}")));
    }
    Ok(Filter {
        key: key.to_owned(),
        value: value.to_owned(),
        negated,
    })
}

fn numeric_channels(frame: &ColumnFrame) -> Vec<String> {
    frame
        .schema()
        .into_iter()
        .filter(|(_, t)| *t != crate::columnar::ColumnType::Str)
        .map(|(n, _)| n)
        .collect()
}

/// One result row: the group-key values, the aggregate, and how many
/// samples fed it.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRow {
    /// `(axis, value)` pairs in group-by order; empty when ungrouped.
    pub group: Vec<(String, String)>,
    /// The aggregate value.
    pub value: f64,
    /// Samples aggregated into `value`.
    pub count: usize,
}

/// A query's result: deterministic rows sorted by group key.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Canonical rendering of the query that produced this.
    pub query: String,
    /// The group-by axes (CSV header order).
    pub group_by: Vec<String>,
    /// The rows, sorted by group-key tuple.
    pub rows: Vec<QueryRow>,
}

impl QueryResult {
    /// Renders the result as CSV: group-by axes, then `value,count`.
    /// Floats use shortest round-trip form so goldens are bit-stable.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for k in &self.group_by {
            out.push_str(k);
            out.push(',');
        }
        out.push_str("value,count\n");
        for row in &self.rows {
            for (_, v) in &row.group {
                out.push_str(v);
                out.push(',');
            }
            out.push_str(&format_f64(row.value));
            out.push(',');
            out.push_str(&row.count.to_string());
            out.push('\n');
        }
        out
    }

    /// Renders the result as a JSON document
    /// `{"query", "rows": [{"group", "value", "count"}]}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        use serde::Value;
        let rows = self
            .rows
            .iter()
            .map(|row| {
                Value::Object(vec![
                    (
                        "group".to_owned(),
                        Value::Object(
                            row.group
                                .iter()
                                .map(|(k, v)| (k.clone(), Value::String(v.clone())))
                                .collect(),
                        ),
                    ),
                    (
                        "value".to_owned(),
                        if row.value.is_nan() {
                            Value::Null
                        } else {
                            Value::Number(row.value)
                        },
                    ),
                    ("count".to_owned(), Value::Number(row.count as f64)),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("query".to_owned(), Value::String(self.query.clone())),
            ("rows".to_owned(), Value::Array(rows)),
        ]);
        crate::columnar::value_to_json_pretty(&doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> ColumnFrame {
        let mut f = ColumnFrame::new();
        for i in 0..10 {
            f.begin_row(f64::from(i));
            f.set_f64("temp_c", 40.0 + f64::from(i));
            if i % 2 == 0 {
                f.set_f64("sparse", f64::from(i));
            }
            f.set_str("phase", if i < 5 { "warm" } else { "hot" });
            f.end_row();
        }
        f
    }

    #[test]
    fn parse_full_grammar() {
        let q = Query::parse("p99(max_temp_c) by platform,ambient where thermal=ipa x!=y").unwrap();
        assert_eq!(q.agg, Aggregate::Percentile(99.0));
        assert_eq!(q.channel, "max_temp_c");
        assert_eq!(q.group_by, vec!["platform", "ambient"]);
        assert_eq!(q.filters.len(), 2);
        assert!(q.filters[1].negated);
        assert_eq!(
            q.render(),
            "p99(max_temp_c) by platform,ambient where thermal=ipa x!=y"
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            Query::parse("max_temp_c"),
            Err(QueryError::Parse(_))
        ));
        assert!(matches!(Query::parse("p999(x)"), Err(QueryError::Parse(_))));
        assert!(matches!(Query::parse("frob(x)"), Err(QueryError::Parse(_))));
        assert!(matches!(
            Query::parse("max(x) by"),
            Err(QueryError::Parse(_))
        ));
        assert!(matches!(
            Query::parse("max(x) where"),
            Err(QueryError::Parse(_))
        ));
        assert!(matches!(
            Query::parse("max(x) where k"),
            Err(QueryError::Parse(_))
        ));
        assert!(matches!(
            Query::parse("max(x) extra"),
            Err(QueryError::Parse(_))
        ));
    }

    #[test]
    fn aggregates_match_stats_kernels() {
        let f = frame();
        let run = |expr: &str| Query::parse(expr).unwrap().run(&f).unwrap().rows[0].value;
        assert_eq!(run("min(temp_c)"), 40.0);
        assert_eq!(run("max(temp_c)"), 49.0);
        assert_eq!(run("mean(temp_c)"), 44.5);
        assert_eq!(run("sum(temp_c)"), 445.0);
        assert_eq!(run("count(temp_c)"), 10.0);
        let vals: Vec<f64> = (0..10).map(|i| 40.0 + f64::from(i)).collect();
        assert_eq!(run("median(temp_c)"), stats::median(&vals).unwrap());
        assert_eq!(run("p95(temp_c)"), stats::percentile(&vals, 95.0).unwrap());
    }

    #[test]
    fn nan_samples_are_skipped() {
        let f = frame();
        let r = Query::parse("count(sparse)").unwrap().run(&f).unwrap();
        assert_eq!(r.rows[0].value, 5.0);
        assert_eq!(r.rows[0].count, 5);
    }

    #[test]
    fn group_by_dictionary_column_is_sorted() {
        let f = frame();
        let r = Query::parse("mean(temp_c) by phase")
            .unwrap()
            .run(&f)
            .unwrap();
        // BTreeMap order: "hot" < "warm" regardless of appearance order.
        assert_eq!(
            r.rows[0].group,
            vec![("phase".to_owned(), "hot".to_owned())]
        );
        assert_eq!(r.rows[0].value, 47.0);
        assert_eq!(r.rows[1].value, 42.0);
    }

    #[test]
    fn filters_apply_before_aggregation() {
        let f = frame();
        let r = Query::parse("max(temp_c) where phase=warm")
            .unwrap()
            .run(&f)
            .unwrap();
        assert_eq!(r.rows[0].value, 44.0);
        let r = Query::parse("max(temp_c) where phase!=warm")
            .unwrap()
            .run(&f)
            .unwrap();
        assert_eq!(r.rows[0].value, 49.0);
    }

    #[test]
    fn unknown_channel_and_axis_are_typed_errors() {
        let f = frame();
        assert!(matches!(
            Query::parse("max(nope)").unwrap().run(&f),
            Err(QueryError::UnknownChannel { .. })
        ));
        assert!(matches!(
            Query::parse("max(temp_c) by nope").unwrap().run(&f),
            Err(QueryError::UnknownAxis { .. })
        ));
        assert!(matches!(
            Query::parse("max(temp_c) by temp_c").unwrap().run(&f),
            Err(QueryError::UnknownAxis { .. })
        ));
    }

    #[test]
    fn campaign_groups_by_axis() {
        let f1 = frame();
        let f2 = {
            let mut f = ColumnFrame::new();
            f.begin_row(0.0);
            f.set_f64("temp_c", 100.0);
            f.end_row();
            f
        };
        let a1 = vec![("platform".to_owned(), "a".to_owned())];
        let a2 = vec![("platform".to_owned(), "b".to_owned())];
        let mut cf = CampaignFrame::new();
        cf.push_cell(&a1, &f1);
        cf.push_cell(&a2, &f2);
        let r = Query::parse("max(temp_c) by platform")
            .unwrap()
            .run_campaign(&cf)
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].value, 49.0);
        assert_eq!(r.rows[1].value, 100.0);
        let r = Query::parse("max(temp_c) where platform!=b")
            .unwrap()
            .run_campaign(&cf)
            .unwrap();
        assert_eq!(r.rows[0].value, 49.0);
        // `sparse` exists only on cell 1: cell 2 contributes no samples.
        let r = Query::parse("count(sparse)")
            .unwrap()
            .run_campaign(&cf)
            .unwrap();
        assert_eq!(r.rows[0].value, 5.0);
    }

    #[test]
    fn result_renders_csv_and_json() {
        let f = frame();
        let r = Query::parse("mean(temp_c) by phase")
            .unwrap()
            .run(&f)
            .unwrap();
        let csv = r.to_csv();
        assert_eq!(csv.lines().next().unwrap(), "phase,value,count");
        assert_eq!(csv.lines().nth(1).unwrap(), "hot,47.0,5");
        let json = r.to_json();
        assert!(
            json.contains("\"query\": \"mean(temp_c) by phase\""),
            "{json}"
        );
        let parsed = serde_json::value_from_str(&json).expect("valid JSON");
        assert!(parsed.as_object().is_some());
    }

    proptest::proptest! {
        /// A `p<N>(...)` query over a frame column must match a naive
        /// sort-and-interpolate computed directly from the input values —
        /// the frame round-trip (append, NaN handling, column lookup) may
        /// not perturb the percentile kernel.
        #[test]
        fn prop_frame_percentile_matches_naive_sort(
            values in proptest::collection::vec(-1000.0_f64..1000.0, 1..80),
            p in 0_u32..101,
        ) {
            let mut f = ColumnFrame::new();
            for (i, v) in values.iter().enumerate() {
                f.begin_row(i as f64);
                f.set_f64("chan", *v);
                f.end_row();
            }
            let got = Query::parse(&format!("p{p}(chan)"))
                .unwrap()
                .run(&f)
                .unwrap()
                .rows[0]
                .value;

            let mut sorted = values.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let rank = f64::from(p) / 100.0 * (sorted.len() - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            let frac = rank - lo as f64;
            let naive = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;

            proptest::prop_assert!(
                (got - naive).abs() <= 1e-9 * naive.abs().max(1.0),
                "p{}: query {} vs naive {}", p, got, naive
            );
        }
    }
}
