//! The sysfs tree itself.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::{Attribute, Result, SysFsError, SysPath};

#[derive(Debug)]
enum Node {
    Dir(BTreeMap<String, Node>),
    Attr(Attribute),
}

impl Node {
    fn new_dir() -> Self {
        Node::Dir(BTreeMap::new())
    }
}

/// A thread-safe virtual sysfs tree.
///
/// Cloning a `SysFs` is cheap and yields a handle to the same tree, so the
/// simulator, governors and measurement code can all share one control
/// plane.
///
/// # Examples
///
/// ```
/// use mpt_sysfs::{Attribute, SysFs};
///
/// let fs = SysFs::new();
/// fs.register("/sys/class/thermal/thermal_zone0/temp", Attribute::constant("41500"))?;
/// let millideg: i64 = fs.read_parsed("/sys/class/thermal/thermal_zone0/temp")?;
/// assert_eq!(millideg, 41500);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Default)]
pub struct SysFs {
    root: Arc<RwLock<BTreeMap<String, Node>>>,
}

impl SysFs {
    /// Creates an empty tree.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an attribute at `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// - [`SysFsError::InvalidPath`] if the path is malformed.
    /// - [`SysFsError::AlreadyExists`] if an attribute is already present.
    /// - [`SysFsError::NotADirectory`] if a parent component is an
    ///   attribute.
    pub fn register(&self, path: &str, attr: Attribute) -> Result<()> {
        let path = SysPath::parse(path)?;
        let comps: Vec<String> = path.components().map(str::to_owned).collect();
        let mut guard = self.root.write();
        let mut map = &mut *guard;
        for comp in &comps[..comps.len() - 1] {
            let node = map.entry(comp.clone()).or_insert_with(Node::new_dir);
            match node {
                Node::Dir(children) => map = children,
                Node::Attr(_) => {
                    return Err(SysFsError::NotADirectory {
                        path: path.as_str().to_owned(),
                    })
                }
            }
        }
        let leaf = comps
            .last()
            .expect("parsed path has at least one component");
        match map.get(leaf) {
            Some(Node::Attr(_) | Node::Dir(_)) => Err(SysFsError::AlreadyExists {
                path: path.as_str().to_owned(),
            }),
            None => {
                map.insert(leaf.clone(), Node::Attr(attr));
                Ok(())
            }
        }
    }

    /// Replaces (or creates) the attribute at `path`.
    ///
    /// Unlike [`register`](Self::register), an existing attribute is
    /// overwritten; this is how the simulator re-binds live handlers when a
    /// platform is reconfigured.
    ///
    /// # Errors
    ///
    /// Same as [`register`](Self::register), except `AlreadyExists` is
    /// never returned for attributes (a directory at the path is still an
    /// error).
    pub fn bind(&self, path: &str, attr: Attribute) -> Result<()> {
        let parsed = SysPath::parse(path)?;
        {
            let comps: Vec<String> = parsed.components().map(str::to_owned).collect();
            let mut guard = self.root.write();
            let mut map = &mut *guard;
            for comp in &comps[..comps.len() - 1] {
                let node = map.entry(comp.clone()).or_insert_with(Node::new_dir);
                match node {
                    Node::Dir(children) => map = children,
                    Node::Attr(_) => {
                        return Err(SysFsError::NotADirectory {
                            path: parsed.as_str().to_owned(),
                        })
                    }
                }
            }
            let leaf = comps.last().expect("nonempty");
            if let Some(Node::Dir(_)) = map.get(leaf) {
                return Err(SysFsError::NotADirectory {
                    path: parsed.as_str().to_owned(),
                });
            }
            map.insert(leaf.clone(), Node::Attr(attr));
        }
        Ok(())
    }

    fn with_attr<T>(&self, path: &str, f: impl FnOnce(&Attribute) -> Result<T>) -> Result<T> {
        let parsed = SysPath::parse(path)?;
        let guard = self.root.read();
        let mut map = &*guard;
        let comps: Vec<&str> = parsed.components().collect();
        for comp in &comps[..comps.len() - 1] {
            match map.get(*comp) {
                Some(Node::Dir(children)) => map = children,
                Some(Node::Attr(_)) => {
                    return Err(SysFsError::NotADirectory {
                        path: parsed.as_str().to_owned(),
                    })
                }
                None => {
                    return Err(SysFsError::NotFound {
                        path: parsed.as_str().to_owned(),
                    })
                }
            }
        }
        match map.get(*comps.last().expect("nonempty")) {
            Some(Node::Attr(attr)) => f(attr),
            Some(Node::Dir(_)) => Err(SysFsError::NotADirectory {
                path: parsed.as_str().to_owned(),
            }),
            None => Err(SysFsError::NotFound {
                path: parsed.as_str().to_owned(),
            }),
        }
    }

    /// Reads the attribute at `path`.
    ///
    /// # Errors
    ///
    /// [`SysFsError::NotFound`] if nothing is registered there, or a path
    /// error.
    pub fn read(&self, path: &str) -> Result<String> {
        self.with_attr(path, |attr| Ok(attr.read()))
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
        self.with_attr(path, |attr| match attr.write(value) {
            None => Err(SysFsError::ReadOnly {
                path: path.to_owned(),
            }),
            Some(Err(reason)) => Err(SysFsError::InvalidValue {
                path: path.to_owned(),
                value: value.to_owned(),
                reason,
            }),
            Some(Ok(())) => Ok(()),
        })
    }

    /// Whether an attribute or directory exists at `path`.
    #[must_use]
    pub fn exists(&self, path: &str) -> bool {
        let Ok(parsed) = SysPath::parse(path) else {
            return false;
        };
        let guard = self.root.read();
        let mut map = &*guard;
        let comps: Vec<&str> = parsed.components().collect();
        for comp in &comps[..comps.len() - 1] {
            match map.get(*comp) {
                Some(Node::Dir(children)) => map = children,
                _ => return false,
            }
        }
        map.contains_key(*comps.last().expect("nonempty"))
    }

    /// Lists the entries of the directory at `path` (sorted).
    ///
    /// Listing `"/"` yields the top-level entries.
    ///
    /// # Errors
    ///
    /// [`SysFsError::NotFound`] or [`SysFsError::NotADirectory`].
    pub fn list(&self, path: &str) -> Result<Vec<String>> {
        let guard = self.root.read();
        if path == "/" {
            return Ok(guard.keys().cloned().collect());
        }
        let parsed = SysPath::parse(path)?;
        let mut map = &*guard;
        for comp in parsed.components() {
            match map.get(comp) {
                Some(Node::Dir(children)) => map = children,
                Some(Node::Attr(_)) => {
                    return Err(SysFsError::NotADirectory {
                        path: parsed.as_str().to_owned(),
                    })
                }
                None => {
                    return Err(SysFsError::NotFound {
                        path: parsed.as_str().to_owned(),
                    })
                }
            }
        }
        Ok(map.keys().cloned().collect())
    }

    /// Walks the whole tree, invoking `visit` with each attribute path.
    pub(crate) fn walk(&self, mut visit: impl FnMut(&str, &Attribute)) {
        fn rec(
            prefix: &str,
            map: &BTreeMap<String, Node>,
            visit: &mut impl FnMut(&str, &Attribute),
        ) {
            for (name, node) in map {
                let path = format!("{prefix}/{name}");
                match node {
                    Node::Dir(children) => rec(&path, children, visit),
                    Node::Attr(attr) => visit(&path, attr),
                }
            }
        }
        let guard = self.root.read();
        rec("", &guard, &mut visit);
    }
}

impl fmt::Debug for SysFs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut count = 0usize;
        self.walk(|_, _| count += 1);
        f.debug_struct("SysFs").field("attributes", &count).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SysFs {
        let fs = SysFs::new();
        fs.register(
            "/sys/class/thermal/thermal_zone0/temp",
            Attribute::constant("40000"),
        )
        .unwrap();
        fs.register(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor",
            Attribute::value("interactive"),
        )
        .unwrap();
        fs
    }

    #[test]
    fn read_write_round_trip() {
        let fs = sample();
        fs.write(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor",
            "performance",
        )
        .unwrap();
        assert_eq!(
            fs.read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                .unwrap(),
            "performance"
        );
    }

    #[test]
    fn read_missing_is_not_found() {
        let fs = sample();
        let err = fs.read("/sys/nope").unwrap_err();
        assert!(matches!(err, SysFsError::NotFound { .. }));
    }

    #[test]
    fn writing_read_only_fails() {
        let fs = sample();
        let err = fs
            .write("/sys/class/thermal/thermal_zone0/temp", "0")
            .unwrap_err();
        assert!(matches!(err, SysFsError::ReadOnly { .. }));
    }

    #[test]
    fn duplicate_registration_fails() {
        let fs = sample();
        let err = fs
            .register(
                "/sys/class/thermal/thermal_zone0/temp",
                Attribute::value("x"),
            )
            .unwrap_err();
        assert!(matches!(err, SysFsError::AlreadyExists { .. }));
    }

    #[test]
    fn bind_replaces_existing() {
        let fs = sample();
        fs.bind(
            "/sys/class/thermal/thermal_zone0/temp",
            Attribute::constant("55000"),
        )
        .unwrap();
        assert_eq!(
            fs.read("/sys/class/thermal/thermal_zone0/temp").unwrap(),
            "55000"
        );
    }

    #[test]
    fn attribute_cannot_be_a_directory() {
        let fs = sample();
        let err = fs
            .register(
                "/sys/class/thermal/thermal_zone0/temp/sub",
                Attribute::value("x"),
            )
            .unwrap_err();
        assert!(matches!(err, SysFsError::NotADirectory { .. }));
    }

    #[test]
    fn list_directory() {
        let fs = sample();
        let entries = fs.list("/sys/class/thermal").unwrap();
        assert_eq!(entries, vec!["thermal_zone0"]);
        let top = fs.list("/").unwrap();
        assert_eq!(top, vec!["sys"]);
    }

    #[test]
    fn list_attribute_is_error() {
        let fs = sample();
        assert!(matches!(
            fs.list("/sys/class/thermal/thermal_zone0/temp")
                .unwrap_err(),
            SysFsError::NotADirectory { .. }
        ));
    }

    #[test]
    fn exists_finds_attributes_and_directories() {
        let fs = sample();
        assert!(fs.exists("/sys/class/thermal/thermal_zone0/temp"));
        assert!(fs.exists("/sys/class/thermal"));
        assert!(!fs.exists("/sys/class/thermal/thermal_zone9/temp"));
    }

    #[test]
    fn read_parsed_values() {
        let fs = sample();
        let t: i64 = fs
            .read_parsed("/sys/class/thermal/thermal_zone0/temp")
            .unwrap();
        assert_eq!(t, 40_000);
        let err = fs
            .read_parsed::<i64>("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
            .unwrap_err();
        assert!(matches!(err, SysFsError::InvalidValue { .. }));
    }

    #[test]
    fn walk_visits_all_attributes() {
        let fs = sample();
        let mut paths = Vec::new();
        fs.walk(|p, _| paths.push(p.to_owned()));
        assert_eq!(paths.len(), 2);
        assert!(paths.contains(&"/sys/class/thermal/thermal_zone0/temp".to_owned()));
    }

    #[test]
    fn clones_share_state() {
        let fs = sample();
        let clone = fs.clone();
        clone
            .write(
                "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor",
                "powersave",
            )
            .unwrap();
        assert_eq!(
            fs.read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                .unwrap(),
            "powersave"
        );
    }

    #[test]
    fn concurrent_access_is_safe() {
        let fs = sample();
        let mut handles = Vec::new();
        for i in 0..8 {
            let fs = fs.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let _ = fs.read("/sys/class/thermal/thermal_zone0/temp");
                    fs.write(
                        "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor",
                        &format!("gov{i}"),
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let v = fs
            .read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
            .unwrap();
        assert!(v.starts_with("gov"));
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
                let fs = SysFs::new();
                let path = format!("/{}", comps.join("/"));
                fs.register(&path, Attribute::value(value.clone())).unwrap();
                prop_assert_eq!(fs.read(&path).unwrap(), value);
                prop_assert!(fs.exists(&path));
            }

            #[test]
            fn prop_listing_contains_registered_children(
                names in proptest::collection::btree_set("[a-z]{1,6}", 1..6),
            ) {
                let fs = SysFs::new();
                for n in &names {
                    fs.register(&format!("/dir/{n}"), Attribute::value("x")).unwrap();
                }
                let listed = fs.list("/dir").unwrap();
                let expected: Vec<String> = names.into_iter().collect();
                prop_assert_eq!(listed, expected);
            }
        }
    }
}
