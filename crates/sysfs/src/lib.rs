#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! A virtual sysfs attribute tree.
//!
//! Real mobile thermal/DVFS tooling is driven through the Linux sysfs
//! control plane: governors publish knobs like
//! `/sys/devices/system/cpu/cpu4/cpufreq/scaling_max_freq` and
//! `/sys/class/thermal/thermal_zone0/trip_point_0_temp`, and userspace
//! daemons read temperatures and write frequency caps as decimal strings.
//! This crate reproduces that interface over the simulator so that the
//! governors in `mpt-kernel` and `mpt-core` interact with the platform the
//! same way their real counterparts do: by reading and writing small text
//! attributes at well-known paths.
//!
//! The tree is thread-safe ([`SysFs`] is `Send + Sync`) and attributes can
//! be plain stored values or live handlers backed by simulator state.
//!
//! # Examples
//!
//! ```
//! use mpt_sysfs::{Attribute, SysFs};
//!
//! let fs = SysFs::new();
//! fs.register(
//!     "/sys/devices/system/cpu/cpu4/cpufreq/scaling_max_freq",
//!     Attribute::value("2000000"),
//! )?;
//! fs.write("/sys/devices/system/cpu/cpu4/cpufreq/scaling_max_freq", "1400000")?;
//! assert_eq!(
//!     fs.read("/sys/devices/system/cpu/cpu4/cpufreq/scaling_max_freq")?,
//!     "1400000"
//! );
//! # Ok::<(), mpt_sysfs::SysFsError>(())
//! ```

mod attr;
mod error;
mod path;
mod tree;

pub use attr::Attribute;
pub use error::SysFsError;
pub use path::SysPath;
pub use tree::SysFs;

/// Result alias for sysfs operations.
pub(crate) type Result<T> = std::result::Result<T, SysFsError>;
