#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! A virtual sysfs: the Linux cpufreq/thermal control plane as one table
//! of attributes keyed by path.
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
//! The simulator registers every attribute while it is built; after that
//! [`SysFs`] serves reads and writes through `&self` (it is
//! `Send + Sync`), and each attribute is a constant or a live handler
//! backed by simulator state.
//!
//! # Examples
//!
//! ```
//! use mpt_sysfs::{Attribute, SysFs};
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! const MAX_FREQ: &str = "/sys/devices/system/cpu/cpu4/cpufreq/scaling_max_freq";
//! let cap_khz = Arc::new(AtomicU64::new(2_000_000));
//! let (read, write) = (Arc::clone(&cap_khz), Arc::clone(&cap_khz));
//! let mut fs = SysFs::new();
//! fs.register(
//!     MAX_FREQ,
//!     Attribute::with_handlers(
//!         move || read.load(Ordering::Relaxed).to_string(),
//!         move |v| {
//!             let khz = v.trim().parse().map_err(|_| "not a kHz frequency")?;
//!             write.store(khz, Ordering::Relaxed);
//!             Ok(())
//!         },
//!     ),
//! )?;
//! fs.write(MAX_FREQ, "1400000")?;
//! assert_eq!(fs.read(MAX_FREQ)?, "1400000");
//! assert_eq!(cap_khz.load(Ordering::Relaxed), 1_400_000);
//! # Ok::<(), mpt_sysfs::SysFsError>(())
//! ```

mod attr;
mod error;
mod path;
mod tree;

pub use attr::Attribute;
pub use error::SysFsError;
pub use tree::SysFs;

/// Result alias for sysfs operations.
pub(crate) type Result<T> = std::result::Result<T, SysFsError>;
