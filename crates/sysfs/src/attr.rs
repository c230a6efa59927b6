//! Attributes: constants or live handlers.

use std::fmt;
use std::sync::Arc;

type ReadFn = Arc<dyn Fn() -> String + Send + Sync>;
type WriteFn = Arc<dyn Fn(&str) -> std::result::Result<(), String> + Send + Sync>;

/// One file of the sysfs tree.
///
/// An attribute is a constant (like `cpuinfo_max_freq`) or delegates reads
/// and writes to handlers backed by simulator state (like a temperature
/// sensor whose value is computed on demand, or a frequency cap stored in
/// an atomic).
///
/// # Examples
///
/// ```
/// use mpt_sysfs::Attribute;
/// use std::sync::Arc;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// // A live, read-only sensor.
/// let temp_mc = Arc::new(AtomicU64::new(42_000));
/// let sensor = {
///     let temp_mc = Arc::clone(&temp_mc);
///     Attribute::read_only(move || temp_mc.load(Ordering::Relaxed).to_string())
/// };
/// assert_eq!(sensor.read(), "42000");
/// ```
#[derive(Clone)]
pub struct Attribute {
    read: ReadFn,
    write: Option<WriteFn>,
}

impl Attribute {
    /// A read-only attribute storing a fixed string value (e.g.
    /// `cpuinfo_max_freq`).
    #[must_use]
    pub fn constant(value: impl Into<String>) -> Self {
        let value = value.into();
        Self {
            read: Arc::new(move || value.clone()),
            write: None,
        }
    }

    /// A read-only attribute whose value is computed on each read.
    #[must_use]
    pub fn read_only(read: impl Fn() -> String + Send + Sync + 'static) -> Self {
        Self {
            read: Arc::new(read),
            write: None,
        }
    }

    /// A read-write attribute with custom handlers.
    #[must_use]
    pub fn with_handlers(
        read: impl Fn() -> String + Send + Sync + 'static,
        write: impl Fn(&str) -> std::result::Result<(), String> + Send + Sync + 'static,
    ) -> Self {
        Self {
            read: Arc::new(read),
            write: Some(Arc::new(write)),
        }
    }

    /// Whether the attribute supports writes.
    #[must_use]
    pub(crate) fn is_writable(&self) -> bool {
        self.write.is_some()
    }

    /// Reads the attribute.
    #[must_use]
    pub fn read(&self) -> String {
        (self.read)()
    }

    /// Writes the attribute.
    ///
    /// Returns `None` if the attribute is write-protected, `Some(Err)` if
    /// the handler rejected the value.
    pub(crate) fn write(&self, value: &str) -> Option<std::result::Result<(), String>> {
        self.write.as_ref().map(|f| f(value))
    }
}

impl fmt::Debug for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Attribute")
            .field("writable", &self.is_writable())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn constant_rejects_writes() {
        let a = Attribute::constant("600000");
        assert!(!a.is_writable());
        assert!(a.write("1").is_none());
    }

    #[test]
    fn handler_attribute_sees_live_state() {
        let state = Arc::new(AtomicU64::new(0));
        let rd = Arc::clone(&state);
        let wr = Arc::clone(&state);
        let a = Attribute::with_handlers(
            move || rd.load(Ordering::Relaxed).to_string(),
            move |v| {
                let parsed: u64 = v.trim().parse().map_err(|_| "not a number".to_owned())?;
                wr.store(parsed, Ordering::Relaxed);
                Ok(())
            },
        );
        a.write("1800000").unwrap().unwrap();
        assert_eq!(state.load(Ordering::Relaxed), 1_800_000);
        assert_eq!(a.read(), "1800000");
        let err = a.write("abc").unwrap().unwrap_err();
        assert_eq!(err, "not a number");
    }

    #[test]
    fn debug_representation_is_nonempty() {
        let a = Attribute::constant("x");
        assert!(format!("{a:?}").contains("Attribute"));
    }
}
