//! Canonical absolute sysfs paths.

use std::borrow::Cow;

use crate::SysFsError;

/// The canonical form of an absolute sysfs path such as
/// `/sys/class/thermal/thermal_zone0/temp`: repeated separators and a
/// trailing one collapse, so `//sys///class/` names `/sys/class`.
///
/// A path that is already canonical is borrowed, so looking one up
/// allocates nothing.
///
/// # Errors
///
/// [`SysFsError::InvalidPath`] if the path is relative, names no
/// component (empty, `/`), or has a `.` or `..` component (sysfs
/// consumers in this workspace always use canonical paths).
pub(crate) fn canonical(path: &str) -> crate::Result<Cow<'_, str>> {
    let components = || path.split('/').filter(|c| !c.is_empty());
    if !path.starts_with('/')
        || components().next().is_none()
        || components().any(|c| c == "." || c == "..")
    {
        return Err(SysFsError::InvalidPath {
            path: path.to_owned(),
        });
    }
    if path.split('/').skip(1).all(|c| !c.is_empty()) {
        return Ok(Cow::Borrowed(path));
    }
    let mut joined = String::with_capacity(path.len());
    for c in components() {
        joined.push('/');
        joined.push_str(c);
    }
    Ok(Cow::Owned(joined))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normalizes_duplicate_separators_and_trailing_slash() {
        assert_eq!(canonical("//sys///devices/").unwrap(), "/sys/devices");
        assert!(matches!(
            canonical("/sys/devices").unwrap(),
            Cow::Borrowed("/sys/devices")
        ));
    }

    #[test]
    fn rejects_relative_and_empty_paths() {
        for path in ["sys/devices", "", "/", "//"] {
            assert_eq!(
                canonical(path).unwrap_err(),
                SysFsError::InvalidPath {
                    path: path.to_owned()
                }
            );
        }
    }

    #[test]
    fn rejects_dot_components() {
        for path in ["/sys/./x", "/sys/../x", "/sys/x/.", "/.."] {
            assert!(
                matches!(canonical(path), Err(SysFsError::InvalidPath { .. })),
                "{path}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_parse_is_idempotent(comps in proptest::collection::vec("[a-z0-9_]{1,8}", 1..6)) {
            let raw = format!("//{}/", comps.join("//"));
            let once = canonical(&raw).unwrap().into_owned();
            prop_assert_eq!(&once, &format!("/{}", comps.join("/")));
            let twice = canonical(&once).unwrap();
            prop_assert!(matches!(twice, Cow::Borrowed(_)));
            prop_assert_eq!(twice, once.as_str());
        }

        #[test]
        fn prop_components_round_trip(comps in proptest::collection::vec("[a-z0-9_]{1,8}", 1..6)) {
            let raw = format!("/{}", comps.join("//"));
            let path = canonical(&raw).unwrap();
            let parsed: Vec<&str> = path.split('/').skip(1).collect();
            prop_assert_eq!(parsed, comps);
        }
    }
}
