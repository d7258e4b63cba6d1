//! CSV output helpers shared by the figure binaries.

use simcore::SimTime;

/// Figure metadata printed as a comment header.
pub struct Figure {
    pub id: &'static str,
    pub title: &'static str,
    pub x_label: &'static str,
    /// Insert an `arch` column after the x column (multi-arch sweeps).
    /// Off for default-arch runs so their CSVs stay byte-identical to
    /// the committed `results/` files.
    pub arch_column: bool,
    pub series: Vec<String>,
}

/// Print the figure header: a `#` comment block plus the CSV column row.
pub fn print_header(fig: &Figure) {
    println!("# {} — {}", fig.id, fig.title);
    print!("{}", fig.x_label);
    if fig.arch_column {
        print!(",arch");
    }
    for s in &fig.series {
        print!(",{s}");
    }
    println!();
}

/// Print one CSV row: x value, the arch name when the sweep carries the
/// arch column, one f64 per series (NaN prints empty, matching points
/// the paper's figures omit as off-scale), then the text `labels`.
pub fn print_row(x: u64, arch: Option<&str>, values: &[f64], labels: &[&str]) {
    print!("{x}");
    if let Some(arch) = arch {
        print!(",{arch}");
    }
    for v in values {
        if v.is_nan() {
            print!(",");
        } else {
            print!(",{v:.4}");
        }
    }
    for label in labels {
        print!(",{label}");
    }
    println!();
}

/// Milliseconds for CSV cells.
pub fn ms(t: SimTime) -> f64 {
    t.as_millis_f64()
}

/// Effective bandwidth in GB/s moving `bytes` in `t`.
pub fn gbps(bytes: u64, t: SimTime) -> f64 {
    bytes as f64 / t.as_secs_f64() / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbps_math() {
        let t = SimTime::from_micros(100);
        // 1 MB in 100 us = 10 GB/s.
        assert!((gbps(1_000_000, t) - 10.0).abs() < 1e-9);
        assert!((ms(SimTime::from_micros(1500)) - 1.5).abs() < 1e-12);
    }
}
