//! Ratchet on the tuner's residuals: reads the committed
//! `results/model_residuals.csv` (the golden check proves it equals a
//! fresh `model_residuals` run) and holds every cell to its bound.
//!
//! * A cell with no kernel to price — a dense layout, or a zero-copy,
//!   NIC or stream-triggered class — must be exact: `error = 0.0000`.
//! * The strided `sm1` / `sm2` / `ib-staged` cells run a pack or unpack
//!   kernel whose traffic `KernelTraffic::estimate` prices; they may
//!   over-predict by at most [`KERNEL_BOUND`] and never under-predict.
//!
//! A change that prices kernels exactly tightens the bound here; a
//! change that needs it looser has to say so in this file.

const KERNEL_BOUND: f64 = 0.17;

/// Whether the cell's transfer runs no kernel the tuner estimates.
fn exact(class: &str, layout: &str) -> bool {
    layout == "dense" || matches!(class, "ib-zero-copy" | "nic" | "stream")
}

#[test]
fn every_residual_stays_inside_its_bound() {
    let csv = include_str!("../results/model_residuals.csv");
    let mut lines = csv.lines().filter(|l| !l.starts_with('#'));
    let header: Vec<&str> = lines.next().expect("a header row").split(',').collect();
    let col = |name: &str| {
        (header.iter().position(|h| *h == name)).unwrap_or_else(|| panic!("no `{name}` column"))
    };
    let (class, layout, error) = (col("class"), col("layout"), col("error"));
    let (mut exact_cells, mut kernel_cells) = (0, 0);
    for line in lines {
        let cells: Vec<&str> = line.split(',').collect();
        let (c, l, e) = (cells[class], cells[layout], cells[error]);
        if exact(c, l) {
            assert_eq!(e, "0.0000", "{line}: a cell with no kernel must be exact");
            exact_cells += 1;
        } else {
            let e: f64 = e.parse().expect("a numeric error");
            assert!(
                (0.0..=KERNEL_BOUND).contains(&e),
                "{line}: a kernel cell must over-predict by at most {KERNEL_BOUND}"
            );
            kernel_cells += 1;
        }
    }
    assert_eq!(
        (exact_cells, kernel_cells),
        (144, 72),
        "the residual grid changed shape"
    );
}
