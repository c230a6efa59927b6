//! The traced run's own spans: one per call into a layer, with its
//! parent and op id, kept in memory and written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a new op: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let span = Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span and returns its duration, seconds.
    pub fn exit(&mut self) -> f64 {
        let end = self.now_ns();
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = end;
        self.spans[i].dur_ns() as f64 * 1e-9
    }

    /// Times `f` inside a span of its own; returns its result and
    /// duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name);
        let out = f();
        (out, self.exit())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the time its children cover (children
    /// run one after another inside their parent).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Total self time per span name, nanoseconds, in first-seen order.
    pub fn self_ns_by_name(&self) -> Vec<(&'static str, u64)> {
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            match totals.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own,
                None => totals.push((s.name, own)),
            }
        }
        totals
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","op":{},"parent":{parent},"start_ns":{},"end_ns":{},"self_ns":{own}}}{sep}"#,
                s.name, s.op, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_children() {
        let mut t = Tracer::new();
        t.next_op();
        t.enter("op");
        t.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("child", || ());
        t.exit();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].op, 1);
        let own = t.self_ns();
        assert_eq!(
            own[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns()
        );
        assert_eq!(own[1], spans[1].dur_ns());
        let by_name = t.self_ns_by_name();
        assert_eq!(by_name[1], ("child", own[1] + own[2]));
        assert!(t.to_json().contains(r#""name":"child","op":1,"parent":0"#));
    }
}
