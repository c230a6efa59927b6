//! The sysfs tree, stored flat: one attribute table keyed by canonical
//! path.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;

use crate::path::canonical;
use crate::{Attribute, Result, SysFsError};

/// A virtual sysfs: every attribute under its canonical path.
///
/// The table keeps a file tree's shape: the directories are the proper
/// prefixes of attribute paths, and no path is both an attribute and a
/// directory. The simulator fills the table once, while it is built
/// ([`register`](Self::register) takes `&mut self`); after that the
/// table serves reads and writes through `&self`. Attributes hold their
/// own state (live handlers over atomics, constants), so a shared
/// `&SysFs` may be read and written from several threads.
///
/// # Examples
///
/// ```
/// use mpt_sysfs::{Attribute, SysFs};
///
/// let mut fs = SysFs::new();
/// fs.register("/sys/class/thermal/thermal_zone0/temp", Attribute::constant("41500"))?;
/// let millideg: i64 = fs.read_parsed("/sys/class/thermal/thermal_zone0/temp")?;
/// assert_eq!(millideg, 41500);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Default)]
pub struct SysFs {
    attrs: BTreeMap<String, Attribute>,
}

impl SysFs {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an attribute at `path`.
    ///
    /// # Errors
    ///
    /// - [`SysFsError::InvalidPath`] if the path is malformed.
    /// - [`SysFsError::AlreadyExists`] if an attribute or a directory is
    ///   already there, or the path lies below an attribute.
    pub fn register(&mut self, path: &str, attr: Attribute) -> Result<()> {
        let path = canonical(path)?;
        let below_attr = path
            .match_indices('/')
            .skip(1)
            .any(|(end, _)| self.attrs.contains_key(&path[..end]));
        if below_attr || self.is_dir(&path) {
            return Err(SysFsError::AlreadyExists {
                path: path.into_owned(),
            });
        }
        match self.attrs.entry(path.into_owned()) {
            Entry::Occupied(taken) => Err(SysFsError::AlreadyExists {
                path: taken.key().clone(),
            }),
            Entry::Vacant(slot) => {
                slot.insert(attr);
                Ok(())
            }
        }
    }

    /// Whether an attribute lies below the canonical path `dir`. The keys
    /// that start with `dir` are adjacent in the table.
    fn is_dir(&self, dir: &str) -> bool {
        self.attrs
            .range::<str, _>((Bound::Excluded(dir), Bound::Unbounded))
            .take_while(|(key, _)| key.starts_with(dir))
            .any(|(key, _)| key.as_bytes()[dir.len()] == b'/')
    }

    fn attr(&self, path: &str) -> Result<&Attribute> {
        let path = canonical(path)?;
        self.attrs
            .get(path.as_ref())
            .ok_or_else(|| SysFsError::NotFound {
                path: path.into_owned(),
            })
    }

    /// Reads the attribute at `path`.
    ///
    /// # Errors
    ///
    /// [`SysFsError::NotFound`] if nothing is registered there, or a path
    /// error.
    pub fn read(&self, path: &str) -> Result<String> {
        Ok(self.attr(path)?.read())
    }

    /// Reads and parses the attribute at `path`.
    ///
    /// # Errors
    ///
    /// As [`read`](Self::read), plus [`SysFsError::InvalidValue`] when the
    /// content does not parse as `T`.
    pub fn read_parsed<T: std::str::FromStr>(&self, path: &str) -> Result<T> {
        let raw = self.read(path)?;
        raw.trim().parse().map_err(|_| SysFsError::InvalidValue {
            path: path.to_owned(),
            value: raw,
            reason: format!("does not parse as {}", std::any::type_name::<T>()),
        })
    }

    /// Writes `value` to the attribute at `path`.
    ///
    /// # Errors
    ///
    /// [`SysFsError::NotFound`], [`SysFsError::ReadOnly`], or
    /// [`SysFsError::InvalidValue`] when the handler rejects the value.
    pub fn write(&self, path: &str, value: &str) -> Result<()> {
        match self.attr(path)?.write(value) {
            None => Err(SysFsError::ReadOnly {
                path: path.to_owned(),
            }),
            Some(Err(reason)) => Err(SysFsError::InvalidValue {
                path: path.to_owned(),
                value: value.to_owned(),
                reason,
            }),
            Some(Ok(())) => Ok(()),
        }
    }

    /// Whether an attribute or directory exists at `path`.
    #[must_use]
    pub fn exists(&self, path: &str) -> bool {
        canonical(path)
            .is_ok_and(|path| self.attrs.contains_key(path.as_ref()) || self.is_dir(&path))
    }
}

impl fmt::Debug for SysFs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SysFs")
            .field("attributes", &self.attrs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const TEMP: &str = "/sys/class/thermal/thermal_zone0/temp";
    const MAX_FREQ: &str = "/sys/devices/system/cpu/cpu0/cpufreq/scaling_max_freq";

    /// A read-write kHz attribute over an atomic, as the simulator's
    /// `scaling_max_freq` files are.
    fn khz_attribute(initial: u64) -> Attribute {
        let cell = Arc::new(AtomicU64::new(initial));
        let read = Arc::clone(&cell);
        Attribute::with_handlers(
            move || read.load(Ordering::Relaxed).to_string(),
            move |v| {
                let khz = v.trim().parse().map_err(|_| "not a kHz frequency")?;
                cell.store(khz, Ordering::Relaxed);
                Ok(())
            },
        )
    }

    fn sample() -> SysFs {
        let mut fs = SysFs::new();
        fs.register(TEMP, Attribute::constant("40000")).unwrap();
        fs.register(MAX_FREQ, khz_attribute(2_000_000)).unwrap();
        fs
    }

    #[test]
    fn read_write_round_trip() {
        let fs = sample();
        fs.write(MAX_FREQ, "1400000").unwrap();
        assert_eq!(fs.read(MAX_FREQ).unwrap(), "1400000");
    }

    #[test]
    fn lookup_is_by_canonical_path() {
        let mut fs = sample();
        fs.write(
            "//sys/devices/system/cpu/cpu0//cpufreq/scaling_max_freq/",
            "900000",
        )
        .unwrap();
        assert_eq!(fs.read(MAX_FREQ).unwrap(), "900000");
        assert!(fs.exists("/sys/class/thermal/thermal_zone0/temp/"));
        fs.register("/sys//kernel/x/", Attribute::constant("1"))
            .unwrap();
        assert_eq!(fs.read("/sys/kernel/x").unwrap(), "1");
        assert_eq!(format!("{fs:?}"), "SysFs { attributes: 3 }");
    }

    #[test]
    fn malformed_paths_are_invalid() {
        let mut fs = sample();
        for path in ["", "sys/class", "/", "/sys/./x", "/sys/../x"] {
            let invalid = SysFsError::InvalidPath {
                path: path.to_owned(),
            };
            assert_eq!(fs.read(path).unwrap_err(), invalid);
            assert_eq!(fs.write(path, "1").unwrap_err(), invalid);
            assert_eq!(
                fs.register(path, Attribute::constant("1")).unwrap_err(),
                invalid
            );
            assert!(!fs.exists(path));
        }
    }

    #[test]
    fn read_missing_is_not_found() {
        let fs = sample();
        let err = fs.read("/sys//nope").unwrap_err();
        assert_eq!(
            err,
            SysFsError::NotFound {
                path: "/sys/nope".into()
            }
        );
        // Nothing is found below an attribute either.
        let err = fs.write(&format!("{TEMP}/sub"), "1").unwrap_err();
        assert!(matches!(err, SysFsError::NotFound { .. }));
    }

    #[test]
    fn writing_read_only_fails() {
        let fs = sample();
        let err = fs.write(TEMP, "0").unwrap_err();
        assert!(matches!(err, SysFsError::ReadOnly { .. }));
        assert_eq!(fs.read(TEMP).unwrap(), "40000");
    }

    #[test]
    fn rejected_value_is_invalid() {
        let fs = sample();
        let err = fs.write(MAX_FREQ, "fast").unwrap_err();
        assert_eq!(
            err,
            SysFsError::InvalidValue {
                path: MAX_FREQ.into(),
                value: "fast".into(),
                reason: "not a kHz frequency".into(),
            }
        );
        assert_eq!(fs.read(MAX_FREQ).unwrap(), "2000000");
    }

    #[test]
    fn duplicate_registration_fails() {
        let mut fs = sample();
        let err = fs
            .register(&format!("{TEMP}//"), Attribute::constant("x"))
            .unwrap_err();
        assert_eq!(err, SysFsError::AlreadyExists { path: TEMP.into() });
        assert_eq!(fs.read(TEMP).unwrap(), "40000");
    }

    #[test]
    fn attribute_cannot_be_a_directory() {
        let mut fs = sample();
        let sub = format!("{TEMP}/sub");
        let err = fs.register(&sub, Attribute::constant("x")).unwrap_err();
        assert_eq!(err, SysFsError::AlreadyExists { path: sub.clone() });
        assert!(!fs.exists(&sub));
        // Nor can a directory become an attribute.
        let err = fs
            .register("/sys/class//thermal/", Attribute::constant("x"))
            .unwrap_err();
        assert_eq!(
            err,
            SysFsError::AlreadyExists {
                path: "/sys/class/thermal".into()
            }
        );
        assert_eq!(
            fs.read("/sys/class/thermal").unwrap_err(),
            SysFsError::NotFound {
                path: "/sys/class/thermal".into()
            }
        );
        // A sibling whose name extends an attribute's is no conflict.
        fs.register(&format!("{TEMP}_crit"), Attribute::constant("95000"))
            .unwrap();
        assert_eq!(fs.read(&format!("{TEMP}_crit")).unwrap(), "95000");
    }

    #[test]
    fn exists_finds_attributes_and_directories() {
        let mut fs = sample();
        assert!(fs.exists(TEMP));
        assert!(fs.exists("/sys/class/thermal"));
        assert!(fs.exists("/sys//class/thermal/"));
        assert!(!fs.exists("/sys/class/thermal/thermal_zone9/temp"));
        // A prefix that ends inside a component names no directory, and a
        // key sorting between a directory and its children ('-' < '/')
        // does not hide them.
        fs.register("/sys/class/thermal-x/y", Attribute::constant("1"))
            .unwrap();
        assert!(!fs.exists("/sys/class/therm"));
        assert!(!fs.exists("/sys/class/thermal/thermal_zone0/te"));
        assert!(fs.exists("/sys/class/thermal"));
    }

    #[test]
    fn read_parsed_values() {
        let mut fs = sample();
        let t: i64 = fs.read_parsed(TEMP).unwrap();
        assert_eq!(t, 40_000);
        fs.register(
            "/sys/class/thermal/thermal_zone0/type",
            Attribute::constant("soc"),
        )
        .unwrap();
        let err = fs
            .read_parsed::<i64>("/sys/class/thermal/thermal_zone0/type")
            .unwrap_err();
        assert!(matches!(err, SysFsError::InvalidValue { .. }));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let fs = sample();
        // All eight threads start their reads and writes together.
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for i in 1..=8u64 {
                let (fs, start) = (&fs, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..100 {
                        assert_eq!(fs.read(TEMP).unwrap(), "40000");
                        fs.write(MAX_FREQ, &(i * 100_000).to_string()).unwrap();
                        let khz: u64 = fs.read_parsed(MAX_FREQ).unwrap();
                        assert!(khz.is_multiple_of(100_000) && (100_000..=800_000).contains(&khz));
                    }
                });
            }
        });
        let khz: u64 = fs.read_parsed(MAX_FREQ).unwrap();
        assert!((100_000..=800_000).contains(&khz));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_register_read_round_trip(
                comps in proptest::collection::vec("[a-z0-9_]{1,8}", 1..5),
                value in "[ -~]{0,32}",
            ) {
                let mut fs = SysFs::new();
                let path = format!("/{}", comps.join("/"));
                fs.register(&path, Attribute::constant(value.clone())).unwrap();
                prop_assert_eq!(fs.read(&path).unwrap(), value);
                prop_assert!(fs.exists(&path));
                for (end, _) in path.match_indices('/').skip(1) {
                    prop_assert!(fs.exists(&path[..end]));
                }
            }
        }
    }
}
