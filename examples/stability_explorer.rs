//! Explore the power–temperature stability analysis (paper Section IV-A,
//! Figure 7): sweep the power level and report fixed points, the critical
//! power, and time-to-violation estimates.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example stability_explorer
//! ```

use mobile_thermal::thermal::{LumpedModel, Stability};
use mobile_thermal::units::{Kelvin, Seconds, Watts};

fn main() {
    let model = LumpedModel::odroid_xu3();
    println!(
        "Odroid-XU3 lumped model: T_amb {:.1}, R {:.1} K/W, beta {:.0} K, tau {:.0} s",
        model.t_ambient().to_celsius(),
        model.r_th(),
        model.beta(),
        model.tau().value()
    );
    println!("critical power: {:.2}\n", model.critical_power());

    println!(
        "{:>7} | {:>14} | {:>16} | {:>12}",
        "power", "stable point", "unstable point", "class"
    );
    println!("{}", "-".repeat(60));
    let mut p = 0.5;
    while p <= 8.01 {
        let power = Watts::new(p);
        match model.stability(power) {
            Stability::Stable(fp) => println!(
                "{:>6.1} W | {:>12.1} C | {:>14.1} C | stable",
                p,
                fp.stable.to_celsius().value(),
                fp.unstable.to_celsius().value()
            ),
            Stability::CriticallyStable { point } => println!(
                "{:>6.1} W | {:>12.1} C | {:>14} | critical",
                p,
                point.to_celsius().value(),
                "(merged)"
            ),
            Stability::Runaway => {
                println!("{:>6.1} W | {:>12} | {:>14} | RUNAWAY", p, "-", "-");
            }
        }
        p += 0.5;
    }

    // Time-to-violation: how long until a 95 C limit is crossed, per
    // power level, starting from a warm 60 C board — the quantity the
    // application-aware governor compares with its horizon.
    println!("\ntime for a 60 C board to cross 95 C:");
    let start = Kelvin::new(273.15 + 60.0);
    let limit = Kelvin::new(273.15 + 95.0);
    for p in [3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0] {
        let power = Watts::new(p);
        let stability = model.stability(power);
        match model.time_to_reach(start, limit, power, &stability, Seconds::new(3600.0)) {
            Some(t) => println!("  {p:.1} W -> {:.0} s", t.value()),
            None => println!("  {p:.1} W -> never (fixed point below the limit)"),
        }
    }
}
