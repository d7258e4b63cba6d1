//! The figure binaries' one reader of the environment.
//!
//! Library `Default`s are pure: a run is a function of its arguments.
//! The `GPU_DDT_*` variables are read here, at the binary boundary, and
//! mapped onto plain [`MpiConfig`] fields — the way Open MPI's MCA base
//! reads `OMPI_MCA_*` once and hands its components values.
//!
//! | variable | field |
//! |---|---|
//! | `GPU_DDT_OPT` | every [`OptimizerConfig`] pass; `off` starts from [`OptimizerConfig::disabled`] |
//! | `GPU_DDT_COALESCE` / `GPU_DDT_TUNE` | one pass each, applied after `GPU_DDT_OPT` |
//! | `GPU_DDT_NIC_OFFLOAD` / `GPU_DDT_STREAM_TRIGGER` | `nic_offload` / `stream_trigger` |
//! | `GPU_DDT_FAULT_PLAN` / `GPU_DDT_FAULT_SEED` | `fault_plan` (rule DSL, [`FaultPlan::parse`]) and its seed |
//!
//! An optimizer variable set to `0`/`false`/`off`/`no` switches its
//! pass off and any other value on; an offload variable offers its
//! path class only for `1`/`true`/`on`. A seed that does not parse is
//! 0; plan text that does not parse is an error.

use devengine::OptimizerConfig;
use faultsim::FaultPlan;
use mpirt::MpiConfig;

/// [`config_from`] over the process environment. A malformed variable
/// is a command-line error: the binary prints it and exits with
/// status 2.
#[expect(
    clippy::disallowed_methods,
    reason = "the figure binaries' one boundary with the environment"
)]
pub fn config() -> MpiConfig {
    config_from(|name| std::env::var(name).ok()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// [`MpiConfig::default`] with the `GPU_DDT_*` variables `lookup`
/// returns applied (module docs). `Err` names the malformed variable.
pub fn config_from(lookup: impl Fn(&str) -> Option<String>) -> Result<MpiConfig, String> {
    let pass = |name| {
        lookup(name).map(|v| {
            !matches!(
                v.to_ascii_lowercase().as_str(),
                "0" | "false" | "off" | "no"
            )
        })
    };
    let offer = |name| {
        lookup(name)
            .is_some_and(|v| matches!(v.trim().to_ascii_lowercase().as_str(), "1" | "true" | "on"))
    };
    let mut opt = match pass("GPU_DDT_OPT") {
        Some(false) => OptimizerConfig::disabled(),
        _ => OptimizerConfig::enabled(),
    };
    for (name, field) in [
        ("GPU_DDT_COALESCE", &mut opt.coalesce),
        ("GPU_DDT_TUNE", &mut opt.autotune),
    ] {
        if let Some(on) = pass(name) {
            *field = on;
        }
    }
    let plan = match lookup("GPU_DDT_FAULT_PLAN") {
        Some(text) if !text.trim().is_empty() => {
            FaultPlan::parse(&text).map_err(|e| format!("GPU_DDT_FAULT_PLAN: {e}"))?
        }
        _ => FaultPlan::empty(),
    };
    let seed = lookup("GPU_DDT_FAULT_SEED")
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    let mut config = MpiConfig {
        nic_offload: offer("GPU_DDT_NIC_OFFLOAD"),
        stream_trigger: offer("GPU_DDT_STREAM_TRIGGER"),
        fault_plan: FaultPlan { seed, ..plan },
        ..MpiConfig::default()
    };
    config.engine.optimizer = opt;
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultsim::{FaultKind, FaultOp};

    fn from(vars: &[(&str, &str)]) -> Result<MpiConfig, String> {
        config_from(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    fn optimizer(vars: &[(&str, &str)]) -> OptimizerConfig {
        from(vars).unwrap().engine.optimizer
    }

    #[test]
    fn empty_lookup_is_the_default() {
        let (got, want) = (from(&[]).unwrap(), MpiConfig::default());
        assert_eq!(got.engine.optimizer, OptimizerConfig::enabled());
        assert_eq!(got.engine.optimizer, want.engine.optimizer);
        assert_eq!(got.fault_plan, want.fault_plan);
        assert!(got.fault_plan.is_empty());
        assert!(!got.nic_offload && !got.stream_trigger);
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    #[test]
    fn opt_off_disables_every_pass() {
        assert_eq!(
            optimizer(&[("GPU_DDT_OPT", "off")]),
            OptimizerConfig::disabled()
        );
    }

    #[test]
    fn per_pass_override_wins_over_opt() {
        let opt = optimizer(&[("GPU_DDT_OPT", "off"), ("GPU_DDT_TUNE", "on")]);
        assert_eq!(
            opt,
            OptimizerConfig {
                autotune: true,
                ..OptimizerConfig::disabled()
            }
        );
        let opt = optimizer(&[("GPU_DDT_COALESCE", "0")]);
        assert_eq!(
            opt,
            OptimizerConfig {
                coalesce: false,
                ..OptimizerConfig::enabled()
            }
        );
    }

    #[test]
    fn boolean_spellings() {
        for off in ["0", "false", "off", "no", "OFF", "No"] {
            assert_eq!(
                optimizer(&[("GPU_DDT_OPT", off)]),
                OptimizerConfig::disabled(),
                "{off}"
            );
        }
        for on in ["1", "true", "on", "yes", "anything"] {
            assert_eq!(
                optimizer(&[("GPU_DDT_OPT", on)]),
                OptimizerConfig::enabled(),
                "{on}"
            );
        }
        for on in ["1", "true", "on", "TRUE", " On "] {
            let c = from(&[("GPU_DDT_NIC_OFFLOAD", on), ("GPU_DDT_STREAM_TRIGGER", on)]).unwrap();
            assert!(c.nic_offload && c.stream_trigger, "{on:?}");
        }
        for off in ["0", "false", "off", "no", "yes", ""] {
            let c = from(&[
                ("GPU_DDT_NIC_OFFLOAD", off),
                ("GPU_DDT_STREAM_TRIGGER", off),
            ])
            .unwrap();
            assert!(!c.nic_offload && !c.stream_trigger, "{off:?}");
        }
    }

    #[test]
    fn fault_seed_with_plan() {
        let c = from(&[
            ("GPU_DDT_FAULT_SEED", " 42 "),
            (
                "GPU_DDT_FAULT_PLAN",
                "am:transient:0.05;ipc_open:lost@2ms..",
            ),
        ])
        .unwrap();
        let want = FaultPlan::parse("am:transient:0.05;ipc_open:lost@2ms..")
            .unwrap()
            .with_seed(42);
        assert_eq!(c.fault_plan, want);
        assert_eq!(c.fault_plan.rules[0].op, Some(FaultOp::AmDeliver));
        assert_eq!(c.fault_plan.rules[1].kind, FaultKind::PermanentLoss);
        // An unparsable seed is 0; blank plan text is the empty plan.
        let c = from(&[("GPU_DDT_FAULT_SEED", "x"), ("GPU_DDT_FAULT_PLAN", " ")]).unwrap();
        assert_eq!(c.fault_plan, FaultPlan::empty());
    }

    #[test]
    fn malformed_plan_names_the_variable() {
        let err = from(&[("GPU_DDT_FAULT_PLAN", "not a plan")]).unwrap_err();
        assert!(err.starts_with("GPU_DDT_FAULT_PLAN: "), "{err}");
    }
}
