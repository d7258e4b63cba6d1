#[test]
fn cpupack_and_file_parse() {
    faultsim::FaultPlan::parse("cpupack:transient:0.5").unwrap();
    // There is no file charge point: `file` names no op.
    for plan in ["file:transient:0.5", "file:degrade:2"] {
        assert!(faultsim::FaultPlan::parse(plan).is_err(), "{plan}");
    }
}
