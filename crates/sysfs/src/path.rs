//! Normalized absolute sysfs paths.

use std::fmt;

use crate::SysFsError;

/// A normalized, absolute sysfs path such as
/// `/sys/class/thermal/thermal_zone0/temp`.
///
/// Construction validates that the path is absolute and collapses repeated
/// separators; `.` and `..` components are rejected (sysfs consumers in
/// this workspace always use canonical paths).
///
/// # Examples
///
/// ```
/// use mpt_sysfs::SysPath;
///
/// let p = SysPath::parse("/sys//class/thermal/")?;
/// assert_eq!(p.as_str(), "/sys/class/thermal");
/// assert_eq!(p.components().collect::<Vec<_>>(), vec!["sys", "class", "thermal"]);
/// # Ok::<(), mpt_sysfs::SysFsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SysPath(String);

impl SysPath {
    /// Parses and normalizes an absolute path.
    ///
    /// # Errors
    ///
    /// Returns [`SysFsError::InvalidPath`] if the path is empty, relative,
    /// or contains `.`/`..` components.
    pub fn parse(path: &str) -> crate::Result<Self> {
        if path.is_empty() || !path.starts_with('/') {
            return Err(SysFsError::InvalidPath {
                path: path.to_owned(),
            });
        }
        let mut components = Vec::new();
        for comp in path.split('/') {
            match comp {
                "" => {}
                "." | ".." => {
                    return Err(SysFsError::InvalidPath {
                        path: path.to_owned(),
                    });
                }
                other => components.push(other),
            }
        }
        if components.is_empty() {
            return Err(SysFsError::InvalidPath {
                path: path.to_owned(),
            });
        }
        Ok(Self(format!("/{}", components.join("/"))))
    }

    /// The normalized path as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Iterates over the path components, root first.
    pub fn components(&self) -> impl Iterator<Item = &str> {
        self.0.split('/').filter(|c| !c.is_empty())
    }

    /// The final component (the attribute or directory name).
    ///
    /// Never empty for a successfully parsed path.
    #[must_use]
    pub fn file_name(&self) -> &str {
        self.components().last().unwrap_or("")
    }

    /// The parent path, or `None` if this path has a single component.
    #[must_use]
    pub fn parent(&self) -> Option<SysPath> {
        let comps: Vec<&str> = self.components().collect();
        if comps.len() <= 1 {
            None
        } else {
            Some(SysPath(format!("/{}", comps[..comps.len() - 1].join("/"))))
        }
    }
}

impl fmt::Display for SysPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::str::FromStr for SysPath {
    type Err = SysFsError;

    fn from_str(s: &str) -> crate::Result<Self> {
        Self::parse(s)
    }
}

impl AsRef<str> for SysPath {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normalizes_duplicate_separators_and_trailing_slash() {
        let p = SysPath::parse("//sys///devices/").unwrap();
        assert_eq!(p.as_str(), "/sys/devices");
    }

    #[test]
    fn rejects_relative_and_empty_paths() {
        assert!(SysPath::parse("sys/devices").is_err());
        assert!(SysPath::parse("").is_err());
        assert!(SysPath::parse("/").is_err());
    }

    #[test]
    fn rejects_dot_components() {
        assert!(SysPath::parse("/sys/./x").is_err());
        assert!(SysPath::parse("/sys/../x").is_err());
    }

    #[test]
    fn parent_and_file_name() {
        let p = SysPath::parse("/sys/class/thermal/thermal_zone0/temp").unwrap();
        assert_eq!(p.file_name(), "temp");
        assert_eq!(
            p.parent().unwrap().as_str(),
            "/sys/class/thermal/thermal_zone0"
        );
        let root = SysPath::parse("/sys").unwrap();
        assert_eq!(root.parent(), None);
    }

    #[test]
    fn from_str_round_trip() {
        let p: SysPath = "/sys/kernel/debug".parse().unwrap();
        assert_eq!(p.to_string(), "/sys/kernel/debug");
    }

    proptest! {
        #[test]
        fn prop_parse_is_idempotent(comps in proptest::collection::vec("[a-z0-9_]{1,8}", 1..6)) {
            let raw = format!("/{}", comps.join("/"));
            let once = SysPath::parse(&raw).unwrap();
            let twice = SysPath::parse(once.as_str()).unwrap();
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn prop_components_round_trip(comps in proptest::collection::vec("[a-z0-9_]{1,8}", 1..6)) {
            let raw = format!("/{}", comps.join("/"));
            let p = SysPath::parse(&raw).unwrap();
            let parsed: Vec<String> = p.components().map(str::to_owned).collect();
            prop_assert_eq!(parsed, comps);
        }
    }
}
