//! Canonical sysfs path layout for the simulated control plane.
//!
//! Mirrors the Linux cpufreq / thermal-zone / hwmon layout so governors
//! and tooling written against the virtual sysfs read like their real
//! counterparts. CPU clusters are addressed by their first CPU (policy
//! convention: `cpu0` = little, `cpu4` = big on both of the paper's
//! platforms); the GPU uses the devfreq-style node.

use mpt_soc::ComponentId;

/// Directory of a component's frequency-scaling policy.
#[must_use]
pub(crate) fn cpufreq_dir(id: ComponentId) -> &'static str {
    match id {
        ComponentId::LittleCluster => "/sys/devices/system/cpu/cpu0/cpufreq",
        ComponentId::BigCluster => "/sys/devices/system/cpu/cpu4/cpufreq",
        ComponentId::Gpu => "/sys/class/devfreq/gpu",
        ComponentId::Memory => "/sys/class/devfreq/mem",
    }
}

/// `scaling_cur_freq` attribute (kHz, read-only).
#[must_use]
pub fn cur_freq(id: ComponentId) -> String {
    format!("{}/scaling_cur_freq", cpufreq_dir(id))
}

/// `scaling_max_freq` attribute (kHz, writable: thermal caps land here).
#[must_use]
pub fn max_freq(id: ComponentId) -> String {
    format!("{}/scaling_max_freq", cpufreq_dir(id))
}

/// `scaling_min_freq` attribute (kHz, read-only: the lowest OPP).
#[must_use]
pub fn min_freq(id: ComponentId) -> String {
    format!("{}/scaling_min_freq", cpufreq_dir(id))
}

/// `scaling_governor` attribute (read-only: the policy's governor name).
#[must_use]
pub fn governor(id: ComponentId) -> String {
    format!("{}/scaling_governor", cpufreq_dir(id))
}

/// `scaling_available_frequencies` attribute (kHz list, read-only).
#[must_use]
pub fn available_frequencies(id: ComponentId) -> String {
    format!("{}/scaling_available_frequencies", cpufreq_dir(id))
}

/// A thermal zone's temperature attribute (millidegrees, read-only).
#[must_use]
pub fn thermal_zone_temp(zone: usize) -> String {
    format!("/sys/class/thermal/thermal_zone{zone}/temp")
}

/// A thermal zone's type attribute.
#[must_use]
pub fn thermal_zone_type(zone: usize) -> String {
    format!("/sys/class/thermal/thermal_zone{zone}/type")
}

/// An INA231-style power-rail sensor attribute (microwatts, read-only),
/// as exposed on the Odroid-XU3.
#[must_use]
pub fn power_rail_uw(rail: &str) -> String {
    format!("/sys/bus/i2c/drivers/INA231/{rail}/sensor_w")
}

/// A process's cpuset attribute: write `"little"` or `"big"` to move the
/// process between clusters, read to see its current placement — the
/// cgroup/cpuset mechanism real Android thermal daemons use for
/// big.LITTLE task placement.
#[must_use]
pub fn cpuset_cluster(pid: u32) -> String {
    format!("/sys/fs/cgroup/cpuset/pid_{pid}/cpus")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_paths_follow_policy_convention() {
        assert_eq!(
            cur_freq(ComponentId::LittleCluster),
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq"
        );
        assert_eq!(
            max_freq(ComponentId::BigCluster),
            "/sys/devices/system/cpu/cpu4/cpufreq/scaling_max_freq"
        );
        assert_eq!(
            governor(ComponentId::Gpu),
            "/sys/class/devfreq/gpu/scaling_governor"
        );
    }

    #[test]
    fn thermal_paths() {
        assert_eq!(
            thermal_zone_temp(0),
            "/sys/class/thermal/thermal_zone0/temp"
        );
    }

    #[test]
    fn rail_paths() {
        assert_eq!(
            power_rail_uw("vdd_arm"),
            "/sys/bus/i2c/drivers/INA231/vdd_arm/sensor_w"
        );
    }

    #[test]
    fn cpuset_paths() {
        assert_eq!(cpuset_cluster(7), "/sys/fs/cgroup/cpuset/pid_7/cpus");
    }

    #[test]
    fn all_components_have_distinct_dirs() {
        let mut dirs: Vec<&str> = ComponentId::ALL.iter().map(|&id| cpufreq_dir(id)).collect();
        dirs.sort();
        dirs.dedup();
        assert_eq!(dirs.len(), 4);
    }
}
