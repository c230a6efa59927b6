//! Error type for sysfs operations.

use std::fmt;

/// Errors returned by [`SysFs`](crate::SysFs) operations.
///
/// Mirrors the errno values a real sysfs access would produce: `ENOENT`,
/// `EACCES`, `EINVAL`, `EEXIST`, `ENOTDIR`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SysFsError {
    /// No attribute or directory exists at the path (`ENOENT`).
    NotFound {
        /// The offending path.
        path: String,
    },
    /// The attribute exists but has no write handler (`EACCES`).
    ReadOnly {
        /// The offending path.
        path: String,
    },
    /// A write handler rejected the value (`EINVAL`).
    InvalidValue {
        /// The offending path.
        path: String,
        /// The rejected input.
        value: String,
        /// Handler-supplied reason.
        reason: String,
    },
    /// An attribute is already registered at the path (`EEXIST`).
    AlreadyExists {
        /// The offending path.
        path: String,
    },
    /// A path component that must be a directory is an attribute
    /// (`ENOTDIR`), or a directory was used where an attribute is required.
    NotADirectory {
        /// The offending path.
        path: String,
    },
    /// The path itself is malformed (empty, or not absolute).
    InvalidPath {
        /// The offending path.
        path: String,
    },
}

impl SysFsError {
    /// The path the operation failed on.
    #[must_use]
    pub fn path(&self) -> &str {
        match self {
            Self::NotFound { path }
            | Self::ReadOnly { path }
            | Self::InvalidValue { path, .. }
            | Self::AlreadyExists { path }
            | Self::NotADirectory { path }
            | Self::InvalidPath { path } => path,
        }
    }
}

impl fmt::Display for SysFsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotFound { path } => write!(f, "no such attribute: {path}"),
            Self::ReadOnly { path } => write!(f, "attribute is read-only: {path}"),
            Self::InvalidValue {
                path,
                value,
                reason,
            } => {
                write!(f, "invalid value {value:?} for {path}: {reason}")
            }
            Self::AlreadyExists { path } => write!(f, "attribute already exists: {path}"),
            Self::NotADirectory { path } => write!(f, "not a directory: {path}"),
            Self::InvalidPath { path } => write!(f, "invalid sysfs path: {path:?}"),
        }
    }
}

impl std::error::Error for SysFsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_without_trailing_punctuation() {
        let errs = [
            SysFsError::NotFound {
                path: "/sys/x".into(),
            },
            SysFsError::ReadOnly {
                path: "/sys/x".into(),
            },
            SysFsError::InvalidValue {
                path: "/sys/x".into(),
                value: "abc".into(),
                reason: "not a number".into(),
            },
            SysFsError::AlreadyExists {
                path: "/sys/x".into(),
            },
            SysFsError::NotADirectory {
                path: "/sys/x".into(),
            },
            SysFsError::InvalidPath { path: "".into() },
        ];
        for e in errs {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'));
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SysFsError>();
    }

    #[test]
    fn path_accessor() {
        let e = SysFsError::NotFound {
            path: "/sys/a/b".into(),
        };
        assert_eq!(e.path(), "/sys/a/b");
    }
}
