//! The interface between workload models and the core simulator.

use crate::uop::MicroOp;

/// A source of dynamic micro-ops for one hardware thread.
///
/// Workload generators (the `workloads` crate) implement this trait; the SMT
/// core model pulls micro-ops from it as the front-end fetches instructions.
/// Implementations must be deterministic given their construction seed so
/// that paired experiments observe identical instruction streams.
///
/// The stream is conceptually infinite: generators wrap around their synthetic
/// program rather than terminating, mirroring steady-state server execution.
pub trait TraceGenerator {
    /// Produces the next micro-op in program order.
    fn next_op(&mut self) -> MicroOp;
}

/// A boxed trace generator, convenient for heterogeneous collections.
pub type BoxedTrace = Box<dyn TraceGenerator + Send>;

/// A reusable recipe for spawning [`TraceGenerator`]s: the only way a
/// workload reaches a run.
///
/// Where [`TraceGenerator`] is one live instruction stream, a `TraceSource`
/// can mint arbitrarily many streams from different seeds — it is the
/// scenario-level handle for "the web-search workload" as opposed to "this
/// particular replay of web-search". The `workloads` crate implements it for
/// `WorkloadProfile`; the `cpu-sim` `Scenario` builder consumes it so that
/// seed derivation (paired experiments must see identical streams) lives in
/// one place instead of at every call site. A caller that wants one fixed
/// stream passes a source that ignores the seed.
pub trait TraceSource {
    /// Stable workload name, used for seed derivation and result labelling.
    fn source_name(&self) -> &str;

    /// Spawns a fresh deterministic trace for `seed`.
    fn spawn_trace(&self, seed: u64) -> BoxedTrace;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uop::OpKind;

    /// A minimal generator used to check the trait is object-safe and usable
    /// through `BoxedTrace`.
    struct Counter {
        pc: u64,
    }

    impl TraceGenerator for Counter {
        fn next_op(&mut self) -> MicroOp {
            self.pc += 4;
            MicroOp::alu(self.pc, OpKind::IntAlu, [None, None], Some(1))
        }
    }

    #[test]
    fn boxed_trace_delegates() {
        let mut t: BoxedTrace = Box::new(Counter { pc: 0 });
        assert_eq!(t.next_op().pc, 4);
        assert_eq!(t.next_op().pc, 8);
    }
}
