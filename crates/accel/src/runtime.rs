//! Resilient multi-invocation execution on the SoC.
//!
//! [`Soc::run_trajectory`] drives a compiled program through a sequence of
//! invocations the way the host manager would: before each invocation it
//! *checkpoints every state edge at the domain boundary* (the `state`
//! modifier marks exactly the data that persists across invocations —
//! paper §II.A), dispatches the schedule under fault injection, and, when
//! faults hit, discards the faulted invocation's partial effects by
//! restoring the checkpoint and replaying the invocation on the repaired
//! schedule. Persistent outages re-lower the downed device's fragments
//! onto the host mid-trajectory; the checkpoint carries the live state
//! tensors onto the re-lowered graph, so degradation never loses model
//! state.
//!
//! Because fault draws are deterministic per `(seed, invocation)` and the
//! re-lowered graph computes node-for-node identical values, a chaos
//! trajectory's outputs are *bit-identical* to the fault-free run — the
//! property the checkpoint/replay determinism test and the fuzz chaos
//! route pin down.

use crate::error::SocError;
use crate::fault::ChaosConfig;
use crate::model::{PerfEstimate, WorkloadHints};
use crate::soc::{ChaosOutcome, FallbackRecord, Soc, SocReport};
use pm_lower::{CompiledProgram, TargetMap};
use pmlang::Domain;
use srdfg::{Machine, SrDfg, Tensor};
use std::collections::HashMap;

/// Inputs of one trajectory run.
#[derive(Debug, Clone)]
pub struct TrajectoryInputs<'a> {
    /// Boundary `input`/`param` feeds, reused for every invocation.
    pub feeds: &'a HashMap<String, Tensor>,
    /// Initial values for `state` variables (unset states start at zero).
    pub state_seeds: &'a [(String, Tensor)],
    /// How many invocations to run (0 is treated as 1).
    pub invocations: u64,
}

/// The account of a full trajectory.
#[derive(Debug, Clone)]
pub struct TrajectoryOutcome {
    /// Outputs of the final invocation.
    pub outputs: HashMap<String, Tensor>,
    /// The SoC report of the final invocation's dispatch.
    pub last: SocReport,
    /// Aggregate cost across all invocations.
    pub total: PerfEstimate,
    /// Invocations executed.
    pub invocations: u64,
    /// Invocations that faulted, were rolled back to their checkpoint and
    /// replayed.
    pub replayed_invocations: u64,
    /// State-edge checkpoints taken (one per invocation).
    pub checkpoints: u64,
    /// Total faults injected across the trajectory.
    pub faults_injected: u64,
    /// Total retry dispatches across the trajectory.
    pub retries: u64,
    /// Total DMA bytes re-transferred after faults.
    pub retried_dma_bytes: u64,
    /// Total virtual manager time across the trajectory.
    pub virtual_ns: u64,
    /// Devices taken down and re-lowered onto the host (across all
    /// invocations, in failure order).
    pub fallbacks: Vec<FallbackRecord>,
}

/// The effective pre-invocation value of every state edge: the live
/// tensor when one exists, else the zero tensor the interpreter would
/// fabricate. Capturing zeros explicitly makes restore-after-rollback
/// correct even before the first invocation has populated the state map.
fn checkpoint_states(machine: &Machine) -> Vec<(String, Tensor)> {
    let graph: &SrDfg = machine.graph();
    graph
        .boundary_inputs
        .iter()
        .filter(|&&e| graph.edge(e).meta.modifier == srdfg::Modifier::State)
        .map(|&e| {
            let meta = &graph.edge(e).meta;
            let value = machine
                .state(&meta.name)
                .cloned()
                .unwrap_or_else(|| Tensor::zeros(meta.dtype, meta.shape.clone()));
            (meta.name.clone(), value)
        })
        .collect()
}

fn restore_states(machine: &mut Machine, checkpoint: &[(String, Tensor)]) {
    for (name, value) in checkpoint {
        machine.set_state(name, value.clone());
    }
}

impl Soc {
    /// Runs `inputs.invocations` invocations of `compiled` under the given
    /// chaos configuration, with state-edge checkpointing and
    /// deterministic replay of faulted invocations.
    ///
    /// `targets` enables host-fallback re-lowering when a device goes
    /// down; with `None`, persistent faults surface as structured errors.
    ///
    /// # Errors
    ///
    /// Everything [`Soc::run_chaos`] returns, plus
    /// [`SocError::Execution`] when the interpreter rejects an invocation
    /// (missing feeds, shape mismatches).
    pub fn run_trajectory(
        &self,
        compiled: &CompiledProgram,
        hints: &HashMap<Option<Domain>, WorkloadHints>,
        cfg: &ChaosConfig,
        targets: Option<&TargetMap>,
        inputs: &TrajectoryInputs<'_>,
    ) -> Result<TrajectoryOutcome, SocError> {
        let invocations = inputs.invocations.max(1);
        let mut current: Option<CompiledProgram> = None;
        let mut machine = Machine::new((*compiled.graph).clone());
        for (name, value) in inputs.state_seeds {
            machine.set_state(name, value.clone());
        }

        let mut outputs = HashMap::new();
        let mut last: Option<SocReport> = None;
        let mut total = PerfEstimate::default();
        let mut replayed = 0u64;
        let mut checkpoints = 0u64;
        let mut faults_injected = 0u64;
        let mut retries = 0u64;
        let mut retried_dma_bytes = 0u64;
        let mut virtual_ns = 0u64;
        let mut fallbacks: Vec<FallbackRecord> = Vec::new();

        for k in 0..invocations {
            cfg.budget.charge("invoke", 1).map_err(SocError::BudgetExhausted)?;
            // Checkpoint the state edges at the domain boundary before
            // dispatching, so a faulted invocation can be rolled back and
            // replayed deterministically.
            let checkpoint = checkpoint_states(&machine);
            checkpoints += 1;

            let inv_cfg = cfg.for_invocation(k);
            let prog = current.as_ref().unwrap_or(compiled);
            let ChaosOutcome { report, relowered } =
                self.run_chaos(prog, hints, &inv_cfg, targets)?;

            if let Some(re) = relowered {
                // A device went down mid-trajectory: move execution onto
                // the re-lowered graph, carrying the checkpointed state
                // across the substitution.
                machine = Machine::new((*re.graph).clone());
                restore_states(&mut machine, &checkpoint);
                current = Some(re);
            }

            let exec_err =
                |e: srdfg::ExecError| SocError::Execution { invocation: k, detail: e.to_string() };
            if report.faults_injected > 0 {
                // The faulted dispatch's partial effects are discarded:
                // run the doomed invocation, roll its state back to the
                // checkpoint, and replay it clean.
                let _ = machine.invoke(inputs.feeds).map_err(exec_err)?;
                restore_states(&mut machine, &checkpoint);
                replayed += 1;
            }
            outputs = machine.invoke(inputs.feeds).map_err(exec_err)?;

            total = total.then(&report.total);
            faults_injected += report.faults_injected;
            retries += report.retries;
            retried_dma_bytes += report.retried_dma_bytes;
            virtual_ns = virtual_ns.saturating_add(report.virtual_ns);
            for f in &report.fallbacks {
                if !fallbacks.iter().any(|seen| seen.target == f.target) {
                    fallbacks.push(f.clone());
                }
            }
            last = Some(report);
        }

        let last = last.ok_or(SocError::Execution {
            invocation: 0,
            detail: "trajectory ran zero invocations (internal error)".to_string(),
        })?;
        Ok(TrajectoryOutcome {
            outputs,
            last,
            total,
            invocations,
            replayed_invocations: replayed,
            checkpoints,
            faults_injected,
            retries,
            retried_dma_bytes,
            virtual_ns,
            fallbacks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::deco::Deco;
    use crate::fault::ChaosProfile;
    use crate::tabla::Tabla;
    use pm_lower::{compile_program, lower};
    use srdfg::Budget;
    use std::sync::Arc;

    /// A stateful two-domain program: a DSP smoother feeding a DA
    /// accumulator whose `state` persists across invocations.
    fn stateful_compiled() -> (CompiledProgram, TargetMap) {
        let src = "main(input float sig[8], param float taps[2], state float acc[7],
              output float out[7]) {
             index i[0:6], k[0:1];
             float feat[7];
             DSP: feat[i] = sum[k](taps[k]*sig[i+k]);
             DA: acc[i] = acc[i] + feat[i];
             DA: out[i] = acc[i];
         }";
        let prog = pmlang::parse(src).unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let host = crate::cpu::Cpu::default().accel_spec();
        let mut targets = TargetMap::host_only(host);
        targets.set(Deco::default().accel_spec());
        targets.set(Tabla::default().accel_spec());
        lower(&mut g, &targets, None, &Budget::unlimited()).unwrap();
        (compile_program(Arc::new(g), &targets, &Budget::unlimited()).unwrap(), targets)
    }

    fn soc() -> Soc {
        let mut s = Soc::new();
        s.attach(Deco::default());
        s.attach(Tabla::default());
        s
    }

    fn feeds() -> HashMap<String, Tensor> {
        use pmlang::DType;
        let mut f = HashMap::new();
        f.insert(
            "sig".to_string(),
            Tensor::from_vec(DType::Float, vec![8], (0..8).map(|i| 0.5 + i as f64).collect())
                .unwrap(),
        );
        f.insert(
            "taps".to_string(),
            Tensor::from_vec(DType::Float, vec![2], vec![0.75, 0.25]).unwrap(),
        );
        f
    }

    fn run_with(cfg: &ChaosConfig) -> TrajectoryOutcome {
        let (compiled, targets) = stateful_compiled();
        let f = feeds();
        let inputs = TrajectoryInputs { feeds: &f, state_seeds: &[], invocations: 4 };
        soc().run_trajectory(&compiled, &HashMap::new(), cfg, Some(&targets), &inputs).unwrap()
    }

    #[test]
    fn checkpoint_replay_keeps_chaos_outputs_identical_to_clean_run() {
        let clean = run_with(&ChaosConfig::off());
        assert_eq!(clean.replayed_invocations, 0);
        assert_eq!(clean.checkpoints, 4);

        // Find a transient seed that actually faults, then require the
        // replayed trajectory to match the clean one bit-for-bit.
        let mut faulted = None;
        for seed in 0..64u64 {
            let out = run_with(&ChaosConfig::new(seed, ChaosProfile::Transient));
            if out.faults_injected > 0 {
                faulted = Some(out);
                break;
            }
        }
        let faulted = faulted.expect("no transient fault in 64 seeds");
        assert!(faulted.replayed_invocations > 0, "faulted invocations must be replayed");
        assert_eq!(faulted.fallbacks.len(), 0, "transient faults never down a device");
        assert_eq!(clean.outputs.len(), faulted.outputs.len());
        for (name, t) in &clean.outputs {
            assert_eq!(Some(t), faulted.outputs.get(name), "output `{name}` diverged");
        }
    }

    #[test]
    fn trajectory_is_deterministic_per_seed() {
        let cfg = ChaosConfig::new(11, ChaosProfile::Transient);
        let a = run_with(&cfg);
        let b = run_with(&cfg);
        assert_eq!(a.last, b.last);
        assert_eq!(a.faults_injected, b.faults_injected);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.virtual_ns, b.virtual_ns);
        assert_eq!(a.outputs.len(), b.outputs.len());
        for (name, t) in &a.outputs {
            assert_eq!(Some(t), b.outputs.get(name));
        }
    }

    #[test]
    fn mid_trajectory_outage_carries_state_onto_the_host() {
        let clean = run_with(&ChaosConfig::off());
        let out = run_with(&ChaosConfig::off().with_down("TABLA").with_down("DECO"));
        assert_eq!(out.fallbacks.len(), 2);
        assert!(out.last.partitions.iter().all(|p| p.target == "Xeon E-2176G"));
        // The accumulator state survived the substitution: outputs match
        // the healthy run exactly.
        for (name, t) in &clean.outputs {
            assert_eq!(Some(t), out.outputs.get(name), "output `{name}` diverged");
        }
    }

    #[test]
    fn state_seeds_are_applied() {
        use pmlang::DType;
        let (compiled, targets) = stateful_compiled();
        let f = feeds();
        let seed = vec![(
            "acc".to_string(),
            Tensor::from_vec(DType::Float, vec![7], vec![100.0; 7]).unwrap(),
        )];
        let inputs = TrajectoryInputs { feeds: &f, state_seeds: &seed, invocations: 1 };
        let out = soc()
            .run_trajectory(
                &compiled,
                &HashMap::new(),
                &ChaosConfig::off(),
                Some(&targets),
                &inputs,
            )
            .unwrap();
        let o = out.outputs.get("out").unwrap().as_real_slice().unwrap().to_vec();
        assert!(o.iter().all(|v| *v > 100.0), "seeded state must be visible: {o:?}");
    }
}
