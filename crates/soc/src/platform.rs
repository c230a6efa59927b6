//! Complete platform descriptions and their builder.

use serde::{Deserialize, Serialize};

use crate::{Component, ComponentId, PowerRail, Result, SocError, TemperatureSensor, ThermalSpec};

/// A complete mobile platform: its components, thermal network and sensor
/// inventory.
///
/// Use one of the presets in [`platforms`](crate::platforms).
///
/// # Examples
///
/// ```
/// use mpt_soc::{platforms, ComponentId};
///
/// let odroid = platforms::exynos_5422();
/// assert_eq!(odroid.name(), "Exynos 5422 (Odroid-XU3)");
/// assert_eq!(odroid.components().len(), 4);
/// assert!(!odroid.power_rails().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    name: String,
    components: Vec<Component>,
    thermal: ThermalSpec,
    temperature_sensors: Vec<TemperatureSensor>,
    power_rails: Vec<PowerRail>,
}

impl Platform {
    /// Starts building a platform.
    #[must_use]
    pub(crate) fn builder(name: impl Into<String>) -> PlatformBuilder {
        PlatformBuilder {
            name: name.into(),
            components: Vec::new(),
            thermal: None,
            temperature_sensors: Vec::new(),
            power_rails: Vec::new(),
        }
    }

    /// The platform name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All components.
    #[must_use]
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Looks up one component.
    ///
    /// # Errors
    ///
    /// [`SocError::UnknownComponent`] if the platform lacks it.
    pub fn component(&self, id: ComponentId) -> Result<&Component> {
        self.components
            .iter()
            .find(|c| c.id() == id)
            .ok_or(SocError::UnknownComponent { id })
    }

    /// The thermal-network parameters.
    #[must_use]
    pub const fn thermal_spec(&self) -> &ThermalSpec {
        &self.thermal
    }

    /// The on-chip thermal sensors.
    #[must_use]
    pub fn temperature_sensors(&self) -> &[TemperatureSensor] {
        &self.temperature_sensors
    }

    /// The power rails with current sensors (empty on phones like the
    /// Nexus 6P, which require an external DAQ).
    #[must_use]
    pub fn power_rails(&self) -> &[PowerRail] {
        &self.power_rails
    }
}

/// Builder for [`Platform`] (C-BUILDER).
#[derive(Debug)]
pub struct PlatformBuilder {
    name: String,
    components: Vec<Component>,
    thermal: Option<ThermalSpec>,
    temperature_sensors: Vec<TemperatureSensor>,
    power_rails: Vec<PowerRail>,
}

impl PlatformBuilder {
    /// Adds a component.
    #[must_use]
    pub fn component(mut self, component: Component) -> Self {
        self.components.push(component);
        self
    }

    /// Sets the thermal network.
    #[must_use]
    pub(crate) fn thermal(mut self, spec: ThermalSpec) -> Self {
        self.thermal = Some(spec);
        self
    }

    /// Adds a temperature sensor.
    #[must_use]
    pub(crate) fn temperature_sensor(mut self, sensor: TemperatureSensor) -> Self {
        self.temperature_sensors.push(sensor);
        self
    }

    /// Adds a power rail.
    #[must_use]
    pub(crate) fn power_rail(mut self, rail: PowerRail) -> Self {
        self.power_rails.push(rail);
        self
    }

    /// Finalizes the platform, validating cross-references.
    ///
    /// # Errors
    ///
    /// [`SocError::InvalidThermalSpec`] if the thermal network is missing
    /// or inconsistent (bad parameters, sensors referencing unknown nodes,
    /// component nodes referencing missing components, duplicate component
    /// ids), or [`SocError::UnknownComponent`] if a power rail references a
    /// component the platform lacks.
    pub(crate) fn build(self) -> Result<Platform> {
        let thermal = self.thermal.ok_or_else(|| SocError::InvalidThermalSpec {
            reason: "platform has no thermal network".into(),
        })?;
        thermal.validate()?;
        // Each component appears at most once.
        for id in ComponentId::ALL {
            if self.components.iter().filter(|c| c.id() == id).count() > 1 {
                return Err(SocError::InvalidThermalSpec {
                    reason: format!("duplicate component {id}"),
                });
            }
        }
        // Thermal nodes must reference existing components.
        for node in &thermal.nodes {
            if let Some(id) = node.component {
                if !self.components.iter().any(|c| c.id() == id) {
                    return Err(SocError::InvalidThermalSpec {
                        reason: format!(
                            "thermal node {:?} references missing component {id}",
                            node.name
                        ),
                    });
                }
            }
        }
        // Sensors must reference existing thermal nodes.
        for sensor in &self.temperature_sensors {
            if thermal.node_index(sensor.thermal_node()).is_none() {
                return Err(SocError::InvalidThermalSpec {
                    reason: format!(
                        "sensor {:?} references unknown thermal node {:?}",
                        sensor.name(),
                        sensor.thermal_node()
                    ),
                });
            }
        }
        // Rails must reference existing components.
        for rail in &self.power_rails {
            if !self.components.iter().any(|c| c.id() == rail.component()) {
                return Err(SocError::UnknownComponent {
                    id: rail.component(),
                });
            }
        }
        Ok(Platform {
            name: self.name,
            components: self.components,
            thermal,
            temperature_sensors: self.temperature_sensors,
            power_rails: self.power_rails,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LeakageParams, OppTable, PowerParams, ThermalCoupling, ThermalNodeSpec};
    use mpt_units::{Celsius, Hertz, Volts, Watts};

    fn tiny_component(id: ComponentId) -> Component {
        Component::new(
            id,
            "test",
            1,
            OppTable::from_points([(Hertz::from_mhz(100), Volts::new(0.9))]).unwrap(),
            PowerParams::new(1e-10, LeakageParams::new(1.0, 8000.0).unwrap(), Watts::ZERO).unwrap(),
            1.0,
        )
    }

    fn tiny_thermal() -> ThermalSpec {
        ThermalSpec {
            nodes: vec![
                ThermalNodeSpec {
                    name: "gpu".into(),
                    component: Some(ComponentId::Gpu),
                    heat_capacity: 1.0,
                    ambient_conductance: 0.0,
                },
                ThermalNodeSpec {
                    name: "package".into(),
                    component: None,
                    heat_capacity: 4.0,
                    ambient_conductance: 0.1,
                },
            ],
            couplings: vec![ThermalCoupling {
                a: 0,
                b: 1,
                conductance: 0.3,
            }],
            ambient: Celsius::new(25.0),
        }
    }

    #[test]
    fn builds_valid_platform() {
        let p = Platform::builder("test")
            .component(tiny_component(ComponentId::Gpu))
            .thermal(tiny_thermal())
            .temperature_sensor(TemperatureSensor::new("pkg", "package"))
            .build()
            .unwrap();
        assert_eq!(p.name(), "test");
        assert!(p.component(ComponentId::Gpu).is_ok());
        assert!(matches!(
            p.component(ComponentId::BigCluster).unwrap_err(),
            SocError::UnknownComponent { .. }
        ));
        assert!(p.power_rails().is_empty());
    }

    #[test]
    fn missing_thermal_is_rejected() {
        let err = Platform::builder("t")
            .component(tiny_component(ComponentId::Gpu))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("thermal"));
    }

    #[test]
    fn sensor_with_unknown_node_is_rejected() {
        let err = Platform::builder("t")
            .component(tiny_component(ComponentId::Gpu))
            .thermal(tiny_thermal())
            .temperature_sensor(TemperatureSensor::new("x", "nonexistent"))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("unknown thermal node"));
    }

    #[test]
    fn thermal_node_with_missing_component_is_rejected() {
        let err = Platform::builder("t")
            // No GPU component, but the thermal node references it.
            .component(tiny_component(ComponentId::BigCluster))
            .thermal(tiny_thermal())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("missing component"));
    }

    #[test]
    fn rail_with_missing_component_is_rejected() {
        let err = Platform::builder("t")
            .component(tiny_component(ComponentId::Gpu))
            .thermal(tiny_thermal())
            .power_rail(PowerRail::new("vdd_arm", ComponentId::BigCluster))
            .build()
            .unwrap_err();
        assert!(matches!(err, SocError::UnknownComponent { .. }));
    }

    #[test]
    fn duplicate_component_is_rejected() {
        let err = Platform::builder("t")
            .component(tiny_component(ComponentId::Gpu))
            .component(tiny_component(ComponentId::Gpu))
            .thermal(tiny_thermal())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("duplicate component"));
    }
}
