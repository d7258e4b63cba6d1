//! Ratchet on the tuner's residuals: reads the committed
//! `results/model_residuals.csv` (the golden check proves it equals a
//! fresh `model_residuals` run) and holds every cell to its bound, exact:
//! `error = 0.0000`. The tuner prices every stage — a kernel on the
//! exact traffic of its launch — with the function its charge calls,
//! and every fragment of the grid's layouts repeats the first one's
//! traffic, so the prediction is the run.

#[test]
fn every_residual_stays_inside_its_bound() {
    let csv = include_str!("../results/model_residuals.csv");
    let mut lines = csv.lines().filter(|l| !l.starts_with('#'));
    let header: Vec<&str> = lines.next().expect("a header row").split(',').collect();
    let col = |name: &str| {
        (header.iter().position(|h| *h == name)).unwrap_or_else(|| panic!("no `{name}` column"))
    };
    let (predicted, realised, error) = (col("predicted_ns"), col("realised_ns"), col("error"));
    let mut cells = 0;
    for line in lines {
        let row: Vec<&str> = line.split(',').collect();
        assert_eq!(row[error], "0.0000", "{line}: every cell must be exact");
        assert_eq!(
            row[predicted], row[realised],
            "{line}: predicted vs realised"
        );
        cells += 1;
    }
    assert_eq!(cells, 216, "the residual grid changed shape");
}
