//! Run telemetry: the simulator's measurement products.

use std::collections::BTreeMap;

use mpt_daq::{ColumnFrame, Residency, TimeSeries};
use mpt_soc::{ComponentId, PowerBreakdown};
use mpt_units::{Celsius, Hertz, Seconds, Watts};

/// Everything recorded during a simulation run: temperature traces
/// (Figures 1/3/5/8), frequency residency (Figures 2/4/6), rail power and
/// energy (Figure 9).
///
/// Time series are decimated to `sample_period` to bound memory;
/// residency and energy are integrated every tick at full resolution.
///
/// Sampled rows live in one column-major [`ColumnFrame`] with channels
/// `time_s`, `temp_<sensor>_c`, `max_temp_c`, `power_<rail>_w`,
/// `total_power_w`, `freq_<domain>_mhz` and `fps` — the export, query
/// and trace surface. The [`TimeSeries`] accessors read their channel
/// out of it.
#[derive(Debug, Clone)]
pub struct Telemetry {
    sample_period: f64,
    next_sample: f64,
    elapsed: f64,
    residency: BTreeMap<ComponentId, Residency>,
    energy: BTreeMap<ComponentId, f64>,
    total_energy: f64,
    frame: ColumnFrame,
    /// `(sensor, temp_<sensor>_c)` for every sensor seen so far: channel
    /// names are formatted once per run, not once per row.
    temp_names: Vec<(String, String)>,
    /// `power_<c>_w` per component, indexed by `ComponentId as usize`.
    power_names: [String; 4],
    /// `freq_<c>_mhz` per component, indexed by `ComponentId as usize`.
    freq_names: [String; 4],
}

/// The frame's keyed channel families: one channel per sensor, power
/// rail or frequency domain.
#[derive(Debug, Clone, Copy)]
enum Keyed {
    Temp,
    Power,
    Freq,
}

impl Keyed {
    /// The channel of `key` in this family — the one naming rule behind
    /// both [`Telemetry::record`] and [`Telemetry::channel_names_for`].
    fn channel(self, key: &str) -> String {
        match self {
            Keyed::Temp => format!("temp_{key}_c"),
            Keyed::Power => format!("power_{key}_w"),
            Keyed::Freq => format!("freq_{key}_mhz"),
        }
    }
}

impl Telemetry {
    /// Creates an empty recorder with the given series sampling period.
    ///
    /// # Panics
    ///
    /// Panics if `sample_period` is not positive.
    #[must_use]
    pub fn new(sample_period: Seconds) -> Self {
        assert!(
            sample_period.value() > 0.0,
            "sample period must be positive"
        );
        Self {
            sample_period: sample_period.value(),
            next_sample: 0.0,
            elapsed: 0.0,
            residency: BTreeMap::new(),
            energy: BTreeMap::new(),
            total_energy: 0.0,
            frame: ColumnFrame::new(),
            temp_names: Vec::new(),
            power_names: ComponentId::ALL.map(|id| Keyed::Power.channel(id.key())),
            freq_names: ComponentId::ALL.map(|id| Keyed::Freq.channel(id.key())),
        }
    }

    /// Records one tick. `fps` is the worst frame pipeline's rate, `None`
    /// when no workload renders (an `fps` of `NaN` in the frame).
    pub fn record(
        &mut self,
        now: Seconds,
        dt: Seconds,
        sensor_temps: &[(String, Celsius)],
        freqs: &[(ComponentId, Hertz)],
        powers: &BTreeMap<ComponentId, PowerBreakdown>,
        fps: Option<f64>,
    ) {
        let t = now.value();
        self.elapsed = t + dt.value();
        // Residency and energy integrate at full rate.
        for &(id, f) in freqs {
            self.residency.entry(id).or_default().record(f, dt);
        }
        let mut total = 0.0;
        for (&id, b) in powers {
            let p = b.total().value();
            *self.energy.entry(id).or_insert(0.0) += p * dt.value();
            total += p;
        }
        self.total_energy += total * dt.value();
        // The sampled channels decimate into the frame.
        if t + 1e-12 >= self.next_sample {
            self.next_sample = t + self.sample_period;
            self.frame.begin_row(t);
            let mut max_c = f64::NEG_INFINITY;
            for (name, c) in sensor_temps {
                let i = match self.temp_names.iter().position(|(s, _)| s == name) {
                    Some(i) => i,
                    None => {
                        let channel = Keyed::Temp.channel(name);
                        self.temp_names.push((name.clone(), channel));
                        self.temp_names.len() - 1
                    }
                };
                self.frame.set_f64(&self.temp_names[i].1, c.value());
                max_c = max_c.max(c.value());
            }
            if max_c.is_finite() {
                self.frame.set_f64("max_temp_c", max_c);
            }
            for (&id, b) in powers {
                self.frame
                    .set_f64(&self.power_names[id as usize], b.total().value());
            }
            self.frame.set_f64("total_power_w", total);
            for &(id, f) in freqs {
                self.frame
                    .set_f64(&self.freq_names[id as usize], f.as_khz() as f64 / 1000.0);
            }
            self.frame.set_f64("fps", fps.unwrap_or(f64::NAN));
            self.frame.end_row();
        }
    }

    /// Total simulated time observed.
    #[must_use]
    pub fn elapsed(&self) -> Seconds {
        Seconds::new(self.elapsed)
    }

    /// The next time-series sample point: the first pass *starting* at
    /// or after this time records a sample. The event-driven engine
    /// wakes here so decimated series keep their cadence across macro
    /// steps.
    #[must_use]
    pub fn next_sample_time(&self) -> Seconds {
        Seconds::new(self.next_sample)
    }

    /// The temperature trace of a named sensor, read out of the frame:
    /// only the rows where the sensor reported.
    #[must_use]
    pub fn temperature(&self, sensor: &str) -> Option<TimeSeries> {
        self.frame.series(&Keyed::Temp.channel(sensor))
    }

    /// The maximum-over-sensors temperature trace (the paper's Figure 8
    /// y-axis is "Max. Temperature"), read out of the frame.
    #[must_use]
    pub fn max_temperature(&self) -> TimeSeries {
        self.frame
            .series("max_temp_c")
            .unwrap_or_else(|| TimeSeries::new("max_temp_c"))
    }

    /// Frequency residency of a component.
    #[must_use]
    pub fn residency(&self, id: ComponentId) -> Option<&Residency> {
        self.residency.get(&id)
    }

    /// Energy consumed by a component so far (joules).
    #[must_use]
    pub fn energy(&self, id: ComponentId) -> f64 {
        self.energy.get(&id).copied().unwrap_or(0.0)
    }

    /// Total energy so far (joules).
    #[must_use]
    pub fn total_energy(&self) -> f64 {
        self.total_energy
    }

    /// Average power of a component over the whole run — the numbers
    /// behind the paper's Figure 9 pie charts.
    #[must_use]
    pub fn average_power(&self, id: ComponentId) -> Watts {
        if self.elapsed <= 0.0 {
            Watts::ZERO
        } else {
            Watts::new(self.energy(id) / self.elapsed)
        }
    }

    /// Average total power over the run.
    #[must_use]
    pub fn average_total_power(&self) -> Watts {
        if self.elapsed <= 0.0 {
            Watts::ZERO
        } else {
            Watts::new(self.total_energy / self.elapsed)
        }
    }

    /// Per-component average power as `(key, watts)` rows in rail order —
    /// ready for [`mpt_daq::chart::share_table`].
    #[must_use]
    pub fn power_shares(&self) -> Vec<(&'static str, f64)> {
        ComponentId::ALL
            .iter()
            .map(|&id| (id.key(), self.average_power(id).value()))
            .collect()
    }

    /// The column-major view of the sampled telemetry: channels
    /// `time_s`, `temp_<sensor>_c`, `max_temp_c`, `power_<rail>_w`,
    /// `total_power_w`, `freq_<domain>_mhz`, `fps`, one row per sample
    /// point. Exports, queries and trace counter tracks run over this.
    #[must_use]
    pub fn frame(&self) -> &ColumnFrame {
        &self.frame
    }

    /// The channel names, in column order, a run over the given sensors
    /// and components (each a power rail and a frequency domain) will
    /// produce — the static schema the MPT401 lint validates query
    /// expressions against before anything runs.
    #[must_use]
    pub fn channel_names_for(sensors: &[String], components: &[&str]) -> Vec<String> {
        let mut names = vec!["time_s".to_owned()];
        names.extend(sensors.iter().map(|s| Keyed::Temp.channel(s)));
        names.push("max_temp_c".to_owned());
        names.extend(components.iter().map(|c| Keyed::Power.channel(c)));
        names.push("total_power_w".to_owned());
        names.extend(components.iter().map(|c| Keyed::Freq.channel(c)));
        names.push("fps".to_owned());
        names
    }

    /// Exports every recorded time series as one wide CSV (columns:
    /// `time_s`, each sensor temperature, the max-over-sensors
    /// temperature, each rail power, the total power, each domain
    /// frequency, the FPS), resampled onto the telemetry sampling grid.
    /// Intended for plotting the paper figures with external tools.
    ///
    /// Streams straight out of the columnar [`frame`](Self::frame):
    /// floats are formatted with the shortest representation that parses
    /// back to the same bits, and a channel with no sample at a row
    /// (e.g. a sensor that came online mid-run) contributes an explicit
    /// empty field, keeping every row the same width as the header.
    #[must_use]
    pub fn to_csv(&self) -> String {
        self.frame.to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn powers(w: f64) -> BTreeMap<ComponentId, PowerBreakdown> {
        let mut m = BTreeMap::new();
        m.insert(
            ComponentId::BigCluster,
            PowerBreakdown::new(Watts::new(w), Watts::ZERO, Watts::ZERO),
        );
        m
    }

    #[test]
    fn records_and_decimates() {
        let mut t = Telemetry::new(Seconds::new(0.1));
        let dt = Seconds::new(0.01);
        for i in 0..100 {
            t.record(
                Seconds::new(i as f64 * 0.01),
                dt,
                &[("big".to_owned(), Celsius::new(40.0))],
                &[(ComponentId::BigCluster, Hertz::from_mhz(2000))],
                &powers(2.0),
                None,
            );
        }
        // 1 s at 10 Hz sampling: ~10 points, not 100.
        let series = t.temperature("big").unwrap();
        assert!(series.len() >= 9 && series.len() <= 11, "{}", series.len());
        // Energy integrates at full rate: 2 W for 1 s = 2 J.
        assert!((t.energy(ComponentId::BigCluster) - 2.0).abs() < 1e-9);
        assert!((t.average_total_power().value() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn residency_accumulates_fully() {
        let mut t = Telemetry::new(Seconds::new(1.0));
        let dt = Seconds::new(0.01);
        for i in 0..200 {
            let f = if i < 100 { 1000 } else { 2000 };
            t.record(
                Seconds::new(i as f64 * 0.01),
                dt,
                &[],
                &[(ComponentId::BigCluster, Hertz::from_mhz(f))],
                &BTreeMap::new(),
                None,
            );
        }
        let r = t.residency(ComponentId::BigCluster).unwrap();
        let pct = r.percentages();
        assert!((pct[&Hertz::from_mhz(1000)] - 50.0).abs() < 1.0);
        assert!((pct[&Hertz::from_mhz(2000)] - 50.0).abs() < 1.0);
    }

    #[test]
    fn max_temperature_takes_the_hottest_sensor() {
        let mut t = Telemetry::new(Seconds::new(0.01));
        t.record(
            Seconds::ZERO,
            Seconds::new(0.01),
            &[
                ("big".to_owned(), Celsius::new(60.0)),
                ("gpu".to_owned(), Celsius::new(72.0)),
            ],
            &[],
            &BTreeMap::new(),
            None,
        );
        assert_eq!(t.max_temperature().last(), Some(72.0));
    }

    #[test]
    fn empty_telemetry_defaults() {
        let t = Telemetry::new(Seconds::new(0.1));
        assert_eq!(t.energy(ComponentId::Gpu), 0.0);
        assert_eq!(t.average_power(ComponentId::Gpu), Watts::ZERO);
        assert!(t.temperature("big").is_none());
        assert_eq!(t.elapsed(), Seconds::ZERO);
    }

    #[test]
    fn power_shares_are_in_rail_order() {
        let t = Telemetry::new(Seconds::new(0.1));
        let shares = t.power_shares();
        let keys: Vec<&str> = shares.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec!["little", "big", "gpu", "mem"]);
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let mut t = Telemetry::new(Seconds::new(0.1));
        for i in 0..20 {
            t.record(
                Seconds::new(i as f64 * 0.1),
                Seconds::new(0.1),
                &[("big".to_owned(), Celsius::new(40.0 + i as f64))],
                &[(ComponentId::BigCluster, Hertz::from_mhz(2000))],
                &powers(2.0),
                None,
            );
        }
        let csv = t.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("time_s,"));
        assert!(header.contains("big"));
        assert!(header.contains("total_power_w"));
        assert_eq!(csv.lines().count(), 21);
        // Every data row has the same number of fields as the header.
        let fields = header.split(',').count();
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), fields, "row {line:?}");
        }
    }

    #[test]
    fn csv_export_pads_misaligned_series_with_empty_fields() {
        let mut t = Telemetry::new(Seconds::new(0.1));
        for i in 0..20 {
            // The "late" sensor only reports from t = 1.0 s on, so its
            // column has no samples for the first half of the run.
            let mut temps = vec![("big".to_owned(), Celsius::new(40.0))];
            if i >= 10 {
                temps.push(("late".to_owned(), Celsius::new(55.0)));
            }
            t.record(
                Seconds::new(i as f64 * 0.1),
                Seconds::new(0.1),
                &temps,
                &[(ComponentId::BigCluster, Hertz::from_mhz(2000))],
                &powers(2.0),
                None,
            );
        }
        let csv = t.to_csv();
        let header = csv.lines().next().unwrap();
        assert!(header.contains("temp_late_c"));
        let fields = header.split(',').count();
        let late_col = header.split(',').position(|c| c == "temp_late_c").unwrap();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        for row in &rows {
            assert_eq!(row.split(',').count(), fields, "row {row:?}");
        }
        // Early rows carry an explicit empty field in the late column...
        assert_eq!(rows[0].split(',').nth(late_col).unwrap(), "");
        // ...and the value appears (round-trippable, not the lossy "55")
        // once the sensor comes online.
        assert_eq!(rows[19].split(',').nth(late_col).unwrap(), "55.0");
    }

    #[test]
    fn csv_round_trips_into_an_identical_frame() {
        let mut t = Telemetry::new(Seconds::new(0.1));
        for i in 0..20 {
            // Irrational-ish temperatures exercise shortest-repr
            // formatting; the late sensor exercises NaN back-fill.
            let mut temps = vec![("big".to_owned(), Celsius::new(40.0 + (i as f64) / 3.0))];
            if i >= 10 {
                temps.push(("late".to_owned(), Celsius::new(55.5)));
            }
            t.record(
                Seconds::new(i as f64 * 0.1),
                Seconds::new(0.1),
                &temps,
                &[(ComponentId::BigCluster, Hertz::from_mhz(2000))],
                &powers(2.0 + (i as f64) * 0.01),
                None,
            );
        }
        let csv = t.to_csv();
        let parsed = ColumnFrame::from_csv(&csv).expect("telemetry CSV parses");
        assert_eq!(&parsed, t.frame(), "CSV export must be lossless");
        assert_eq!(parsed.to_csv(), csv);
    }

    #[test]
    fn frame_matches_series_content() {
        let mut t = Telemetry::new(Seconds::new(0.1));
        for i in 0..20 {
            // The "late" sensor comes online at t = 1.0 s.
            let mut temps = vec![("big".to_owned(), Celsius::new(40.0 + i as f64))];
            if i >= 10 {
                temps.push(("late".to_owned(), Celsius::new(60.0 + i as f64)));
            }
            t.record(
                Seconds::new(i as f64 * 0.1),
                Seconds::new(0.1),
                &temps,
                &[(ComponentId::BigCluster, Hertz::from_mhz(2000))],
                &powers(2.0),
                None,
            );
        }
        let frame = t.frame();
        let big = t.temperature("big").unwrap();
        assert_eq!(big.name(), "temp_big_c");
        assert_eq!(frame.rows(), big.len());
        assert_eq!(frame.f64_column("temp_big_c").unwrap(), big.values());
        assert_eq!(frame.times(), big.times());
        // The late sensor's trace holds only its real samples, not the
        // frame's back-filled "no sample" rows.
        let late = t.temperature("late").unwrap();
        assert_eq!(late.times(), &frame.times()[10..]);
        let want: Vec<f64> = (10..20).map(|i| 60.0 + f64::from(i)).collect();
        assert_eq!(late.values(), want.as_slice());
        let max: Vec<f64> = (0..20)
            .map(|i| f64::from(i) + if i < 10 { 40.0 } else { 60.0 })
            .collect();
        assert_eq!(t.max_temperature().values(), max.as_slice());
        assert!(t.temperature("absent").is_none());
        assert_eq!(
            Telemetry::channel_names_for(&["big".to_owned()], &["big"]),
            vec![
                "time_s",
                "temp_big_c",
                "max_temp_c",
                "power_big_w",
                "total_power_w",
                "freq_big_mhz",
                "fps"
            ]
        );
    }
}
