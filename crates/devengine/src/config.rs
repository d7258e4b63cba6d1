//! Engine tuning knobs.

use datatype::TypeError;

/// Toggles for the commit-time optimizer layer. Each pass is
/// switchable so ablation benches can reproduce the pre-optimizer
/// numbers, except that strided layouts keep the arithmetic kernel.
/// [`OptimizerConfig::default`] is
/// [`OptimizerConfig::enabled`]; the figure binaries map the
/// `GPU_DDT_OPT` / `_COALESCE` / `_TUNE` variables onto these fields
/// (`bench::env`). Strided layouts take the arithmetic kernel under
/// every config ([`datatype::DataType::strided`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OptimizerConfig {
    /// Merge adjacent `<src, dst, len>` work units instead of splitting
    /// contiguous runs at `unit_size` boundaries.
    pub coalesce: bool,
    /// Pick unit size / pipeline granularity analytically from the
    /// gpusim cost model instead of using the static defaults.
    pub autotune: bool,
}

impl OptimizerConfig {
    /// Every optimization on (the shipping default).
    pub fn enabled() -> OptimizerConfig {
        OptimizerConfig {
            coalesce: true,
            autotune: true,
        }
    }

    /// Every optimization off: pre-optimizer behaviour, except that
    /// strided layouts keep the arithmetic kernel.
    pub fn disabled() -> OptimizerConfig {
        OptimizerConfig {
            coalesce: false,
            autotune: false,
        }
    }
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig::enabled()
    }
}

/// Configuration of one pack/unpack job.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// CUDA-DEV work-unit size S in bytes. The paper requires a
    /// multiple of 256 (8 bytes × warp size) and uses 1–4 KB to give
    /// the unrolled kernel loop ILP headroom.
    pub unit_size: u64,
    /// Packed bytes converted per CPU pipeline step. Each step's units
    /// are handed to a kernel launch while the CPU converts the next
    /// step.
    pub pipeline_chunk: u64,
    /// Overlap CPU DEV preparation with kernel execution. Disabled
    /// reproduces the paper's non-pipelined baseline in Figure 7.
    pub pipeline: bool,
    /// Thread-block cap forwarded to kernel launches (None = full GPU).
    pub blocks: Option<u32>,
    /// Commit-time optimizer toggles (coalescing, auto-tuning).
    pub optimizer: OptimizerConfig,
}

impl EngineConfig {
    /// Check the unit size constraint from §3.2, and that a pipeline
    /// step holds at least one unit.
    pub fn validated(self) -> Result<Self, TypeError> {
        if self.unit_size == 0 || !self.unit_size.is_multiple_of(256) {
            return Err(TypeError::InvalidArgument(
                "EngineConfig::unit_size must be a positive multiple of 256 bytes",
            ));
        }
        if self.pipeline_chunk < self.unit_size {
            return Err(TypeError::InvalidArgument(
                "EngineConfig::pipeline_chunk must be at least unit_size",
            ));
        }
        Ok(self)
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            unit_size: 1024,
            pipeline_chunk: 1 << 20,
            pipeline: true,
            blocks: None,
            optimizer: OptimizerConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let c = EngineConfig::default().validated().unwrap();
        assert_eq!(c.unit_size, 1024);
        assert!(c.pipeline);
        assert_eq!(c.optimizer, OptimizerConfig::enabled());
    }

    #[test]
    #[should_panic(expected = "multiple of 256")]
    fn rejects_unaligned_unit() {
        let _ = EngineConfig {
            unit_size: 1000,
            ..Default::default()
        }
        .validated()
        .unwrap();
    }

    #[test]
    fn validated_names_the_bad_field() {
        let field = |c: EngineConfig| match c.validated() {
            Err(TypeError::InvalidArgument(what)) => what,
            other => panic!("expected InvalidArgument, got {other:?}"),
        };
        for unit_size in [0, 1000] {
            let c = EngineConfig {
                unit_size,
                ..Default::default()
            };
            assert!(field(c).contains("unit_size"), "unit_size {unit_size}");
        }
        let short = EngineConfig {
            pipeline_chunk: 512,
            ..Default::default()
        };
        assert!(field(short).contains("pipeline_chunk"));
    }

    #[test]
    fn optimizer_presets() {
        let on = OptimizerConfig::enabled();
        assert!(on.coalesce && on.autotune);
        let off = OptimizerConfig::disabled();
        assert!(!off.coalesce && !off.autotune);
        assert_ne!(on, off);
    }
}
