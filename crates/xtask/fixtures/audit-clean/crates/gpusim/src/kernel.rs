//! Fixture charge site, reached only below a fault consult.

pub fn charge(spec: &GpuSpec, r: &mut Fifo, now: u64) {
    r.reserve(now, spec.cost);
}
