//! The multi-acceleration SoC (paper §V.A.3, "Multi-acceleration").
//!
//! "All accelerators are cascaded as a single System On Chip, comprised of
//! memory and a host. A light-weight manager executes on the host, ensuring
//! data dependencies between different accelerators and initiating DMA
//! transfers between DRAM and local accelerator memory."
//!
//! [`Soc::run`] executes one invocation of a compiled multi-domain program:
//! each partition runs on its backend (or on the host), every `load`/
//! `store` fragment becomes a DMA transfer, and the host manager adds its
//! own dispatch overhead. Kernels of an end-to-end application are
//! data-dependent (sense → perceive → act), so partitions execute
//! sequentially — which is precisely why Amdahl's law bites when only some
//! domains are accelerated (paper Fig. 10-12).
//!
//! The dispatch loop is *resilient* (DESIGN.md §10): a [`ChaosConfig`]
//! threads a deterministic fault plan through every backend, fragments are
//! retried under exponential backoff on a virtual clock, and a device that
//! keeps failing is marked down and its work re-lowered onto the host via
//! Algorithm 1 ([`pm_lower::relower_without`]). With
//! [`ChaosConfig::off()`] — the default for [`Soc::run`] — the account is
//! identical to a fault-free run.

use crate::backend::{Backend, DmaModel};
use crate::cpu::Cpu;
use crate::error::SocError;
use crate::fault::{ChaosConfig, ChaosProfile, FaultEvent, FaultKind, VirtualClock};
use crate::model::{PerfEstimate, WorkloadHints};
use pm_lower::{CompiledProgram, FragmentKind, TargetMap};
use pmlang::Domain;
use std::collections::HashMap;

/// Host-manager dispatch overhead per fragment, virtual nanoseconds.
const DISPATCH_NS: u64 = 2_000;
/// Fault events recorded verbatim per partition; beyond this only the
/// counters grow (`faults_seen` stays exact).
const MAX_RECORDED_FAULTS: usize = 32;

/// Per-partition result within a SoC run.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionReport {
    /// Target name that executed the partition.
    pub target: String,
    /// The partition's domain (`None` = host glue).
    pub domain: Option<Domain>,
    /// Compute estimate.
    pub compute: PerfEstimate,
    /// DMA estimate for this partition's transfers (including re-issued
    /// transfers after DMA faults).
    pub dma: PerfEstimate,
    /// Total fragment dispatch attempts (0 for host partitions, which the
    /// manager does not dispatch over the fabric).
    pub attempts: u64,
    /// Dispatches beyond the first attempt of each fragment.
    pub retries: u64,
    /// Faults injected into this partition (exact count; `faults` below
    /// records at most the first [`MAX_RECORDED_FAULTS`] verbatim).
    pub faults_seen: u64,
    /// The recorded fault events.
    pub faults: Vec<FaultEvent>,
    /// DMA bytes re-transferred after corruption/truncation faults.
    pub retried_dma_bytes: u64,
    /// Virtual time the manager spent dispatching this partition
    /// (transfers, stall deadlines, backoff).
    pub virtual_ns: u64,
}

/// One accelerator taken out of the run and re-lowered onto the host.
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackRecord {
    /// The downed target.
    pub target: String,
    /// The fault that took it down.
    pub fault: FaultKind,
    /// Fragment index that exhausted its budget (0 for outages declared
    /// before dispatch).
    pub fragment: usize,
    /// The fragment's operation (`<declared>` for pre-dispatch outages).
    pub op: String,
    /// Dispatch attempts made before giving up (0 for declared outages).
    pub attempts: u32,
}

/// The end-to-end account of one program invocation on the SoC.
#[derive(Debug, Clone, PartialEq)]
pub struct SocReport {
    /// Per-partition breakdown.
    pub partitions: Vec<PartitionReport>,
    /// Total wall-clock/energy for the invocation.
    pub total: PerfEstimate,
    /// Share of total time spent in communication (DMA).
    pub comm_fraction: f64,
    /// The chaos profile this run executed under.
    pub profile: ChaosProfile,
    /// The chaos seed (0 when chaos is off).
    pub chaos_seed: u64,
    /// Total faults injected, including those on partitions that were
    /// subsequently re-lowered away.
    pub faults_injected: u64,
    /// Total retry dispatches.
    pub retries: u64,
    /// Total DMA bytes re-transferred after faults.
    pub retried_dma_bytes: u64,
    /// Total virtual manager time (dispatch + stalls + backoff).
    pub virtual_ns: u64,
    /// Accelerators taken down and re-lowered onto the host, in the order
    /// they failed.
    pub fallbacks: Vec<FallbackRecord>,
}

/// Result of a chaos run: the report plus the re-lowered program, when
/// host fallback had to rewrite the partitioning.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The account of the (final, successful) dispatch schedule.
    pub report: SocReport,
    /// The host-fallback recompilation, if any device went down. Its
    /// graph computes bit-identical results to the original.
    pub relowered: Option<CompiledProgram>,
}

/// A fragment that exhausted its retry/deadline budget (internal).
#[derive(Debug, Clone)]
struct DownInfo {
    target: String,
    fragment: usize,
    op: String,
    attempts: u32,
    fault: FaultKind,
    spent_ns: u64,
    budget_exceeded: bool,
    /// Counters from the aborted partition, carried into the final report.
    faults_seen: u64,
    retries: u64,
    retried_dma_bytes: u64,
}

impl DownInfo {
    fn record(&self) -> FallbackRecord {
        FallbackRecord {
            target: self.target.clone(),
            fault: self.fault,
            fragment: self.fragment,
            op: self.op.clone(),
            attempts: self.attempts,
        }
    }

    fn as_error(&self, budget_ns: u64) -> SocError {
        if self.budget_exceeded {
            SocError::DeadlineExceeded {
                target: self.target.clone(),
                fragment: self.fragment,
                op: self.op.clone(),
                budget_ns,
                spent_ns: self.spent_ns,
            }
        } else {
            SocError::RetriesExhausted {
                target: self.target.clone(),
                fragment: self.fragment,
                op: self.op.clone(),
                attempts: self.attempts,
                fault: self.fault,
            }
        }
    }
}

enum PartSim {
    Done(PartitionReport),
    Down(DownInfo),
}

enum Round {
    Done(Vec<PartitionReport>),
    Downs(Vec<DownInfo>),
}

/// Counters carried across fallback rounds (internal).
#[derive(Debug, Clone, Copy, Default)]
struct Carry {
    faults_seen: u64,
    retries: u64,
    retried_dma_bytes: u64,
    virtual_ns: u64,
}

impl Carry {
    fn absorb(&mut self, info: &DownInfo) {
        self.faults_seen += info.faults_seen;
        self.retries += info.retries;
        self.retried_dma_bytes += info.retried_dma_bytes;
        self.virtual_ns += info.spent_ns;
    }
}

/// A host plus a set of cascaded accelerator backends.
pub struct Soc {
    backends: Vec<Box<dyn Backend>>,
    host: Cpu,
    dma: DmaModel,
    /// Energy per DMA byte (interconnect + DRAM access), joules.
    dma_energy_per_byte: f64,
    /// Host-manager power draw while orchestrating, watts.
    manager_power_w: f64,
    /// Optional lowering template cache for fault-recovery re-lowering.
    /// When set (usually to the compiling driver's cache handle), a
    /// device-down re-lower instantiates the templates the original
    /// compilation populated instead of re-expanding under recovery
    /// latency pressure.
    template_cache: Option<srdfg::TemplateCache>,
}

impl std::fmt::Debug for Soc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Soc")
            .field("backends", &self.backends.iter().map(|b| b.name()).collect::<Vec<_>>())
            .finish()
    }
}

impl Default for Soc {
    fn default() -> Self {
        Soc::new()
    }
}

impl Soc {
    /// Creates a SoC with only the host CPU.
    pub fn new() -> Self {
        Soc {
            backends: Vec::new(),
            host: Cpu::default(),
            dma: DmaModel::default(),
            dma_energy_per_byte: 5.0e-11, // 50 pJ/byte
            manager_power_w: 5.0,
            template_cache: None,
        }
    }

    /// Shares a lowering template cache (typically the compiler driver's)
    /// with the fault-recovery path; see [`pm_lower::relower_without`].
    pub fn with_template_cache(&mut self, cache: srdfg::TemplateCache) -> &mut Self {
        self.template_cache = Some(cache);
        self
    }

    /// Attaches an accelerator backend (replacing any previous backend of
    /// the same name).
    pub fn attach(&mut self, backend: impl Backend + 'static) -> &mut Self {
        let name = backend.accel_spec().name;
        self.backends.retain(|b| b.accel_spec().name != name);
        self.backends.push(Box::new(backend));
        self
    }

    /// The first backend serving `domain`, if attached.
    pub fn backend(&self, domain: Domain) -> Option<&dyn Backend> {
        self.backends.iter().find(|b| b.domain() == domain).map(|b| b.as_ref())
    }

    /// The backend with the given target name, if attached.
    pub fn backend_by_name(&self, name: &str) -> Option<&dyn Backend> {
        self.backends.iter().find(|b| b.accel_spec().name == name).map(|b| b.as_ref())
    }

    /// The host CPU model.
    pub fn host(&self) -> &Cpu {
        &self.host
    }

    /// Names of the attached backends (target-spec names, attach order).
    pub fn attached_names(&self) -> Vec<String> {
        self.backends.iter().map(|b| b.accel_spec().name).collect()
    }

    /// Estimates one invocation of `compiled`, with per-domain workload
    /// hints (sparse sizes etc.): the [`Soc::run_chaos`] path under
    /// [`ChaosConfig::off()`], which injects nothing.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::MissingBackend`] when a partition was compiled
    /// for an accelerator that is not attached (with a "did you mean"
    /// suggestion), or [`SocError::MalformedFragment`] when a fragment
    /// violates the DMA marshalling contract.
    pub fn run(
        &self,
        compiled: &CompiledProgram,
        hints: &HashMap<Option<Domain>, WorkloadHints>,
    ) -> Result<SocReport, SocError> {
        self.execute(compiled, hints, &ChaosConfig::off(), None, false).map(|o| o.report)
    }

    /// Like [`Soc::run`] but pricing each accelerated partition at its
    /// hand-optimized ("expert") implementation — the paper's Fig. 9/12
    /// optimal baseline. Host partitions are unchanged (the CPU baseline
    /// is already the native stack).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Soc::run`].
    pub fn run_expert(
        &self,
        compiled: &CompiledProgram,
        hints: &HashMap<Option<Domain>, WorkloadHints>,
    ) -> Result<SocReport, SocError> {
        self.execute(compiled, hints, &ChaosConfig::off(), None, true).map(|o| o.report)
    }

    /// Runs one invocation under fault injection with host-fallback
    /// re-lowering.
    ///
    /// Devices declared down (via [`ChaosConfig::force_down`] or the
    /// hostile profile's persistent-outage draw) are re-lowered away
    /// before dispatch; devices that exhaust a fragment's retry or
    /// deadline budget are marked down and re-lowered mid-run. `targets`
    /// is the map the program was compiled against — required for
    /// fallback; pass `None` to turn exhaustion into a structured error
    /// instead.
    ///
    /// The whole schedule is deterministic: the same `compiled`, config
    /// and attached backends produce an identical [`SocReport`].
    ///
    /// # Errors
    ///
    /// All [`Soc::run`] conditions, plus [`SocError::RetriesExhausted`] /
    /// [`SocError::DeadlineExceeded`] / [`SocError::FallbackUnavailable`]
    /// when a device fails without `targets`, and [`SocError::Relower`]
    /// if fallback recompilation fails.
    pub fn run_chaos(
        &self,
        compiled: &CompiledProgram,
        hints: &HashMap<Option<Domain>, WorkloadHints>,
        cfg: &ChaosConfig,
        targets: Option<&TargetMap>,
    ) -> Result<ChaosOutcome, SocError> {
        self.execute(compiled, hints, cfg, targets, false)
    }

    /// The one dispatch path behind [`Soc::run`], [`Soc::run_expert`] and
    /// [`Soc::run_chaos`]: declared outages, then dispatch rounds that
    /// re-lower a failed device onto the host until one completes.
    fn execute(
        &self,
        compiled: &CompiledProgram,
        hints: &HashMap<Option<Domain>, WorkloadHints>,
        cfg: &ChaosConfig,
        targets: Option<&TargetMap>,
        expert: bool,
    ) -> Result<ChaosOutcome, SocError> {
        let mut down: Vec<String> = Vec::new();
        let mut fallbacks: Vec<FallbackRecord> = Vec::new();
        let mut carry = Carry::default();

        // Persistent outages known before dispatch: forced downs and the
        // hostile profile's device-down draw. Only targets the program
        // actually uses matter.
        for b in &self.backends {
            let name = b.accel_spec().name;
            let declared = cfg.force_down.contains(&name) || cfg.plan.device_down(&name);
            if declared && compiled.partitions.iter().any(|p| p.target == name) {
                fallbacks.push(FallbackRecord {
                    target: name.clone(),
                    fault: FaultKind::DeviceDown { persistent: true },
                    fragment: 0,
                    op: "<declared>".to_string(),
                    attempts: 0,
                });
                down.push(name);
            }
        }
        let mut relowered: Option<CompiledProgram> = None;
        if let Some(first) = down.first() {
            let fail = SocError::FallbackUnavailable {
                target: first.clone(),
                detail: "no target map provided for host re-lowering".to_string(),
            };
            relowered = Some(self.relower_or(compiled, targets, &down, fail)?);
        }

        // Each round either completes or marks at least one more target
        // down, so the loop is bounded by the number of backends; the
        // counter is a defensive backstop.
        for _ in 0..=self.backends.len() + 1 {
            cfg.budget.charge("dispatch", 1).map_err(SocError::BudgetExhausted)?;
            let prog = relowered.as_ref().unwrap_or(compiled);
            match self.dispatch(prog, hints, expert, cfg)? {
                Round::Done(parts) => {
                    let report = Self::assemble(
                        parts,
                        cfg.plan.profile(),
                        cfg.plan.seed(),
                        fallbacks,
                        carry,
                    );
                    return Ok(ChaosOutcome { report, relowered });
                }
                Round::Downs(infos) => {
                    let fail = infos
                        .first()
                        .map(|i| i.as_error(cfg.fragment_budget_ns))
                        .unwrap_or(SocError::Relower { detail: "empty down set".into() });
                    for info in infos {
                        carry.absorb(&info);
                        if !down.contains(&info.target) {
                            down.push(info.target.clone());
                        }
                        fallbacks.push(info.record());
                    }
                    relowered = Some(self.relower_or(compiled, targets, &down, fail)?);
                }
            }
        }
        Err(SocError::Relower { detail: "host-fallback loop did not converge".to_string() })
    }

    fn relower_or(
        &self,
        compiled: &CompiledProgram,
        targets: Option<&TargetMap>,
        down: &[String],
        fail: SocError,
    ) -> Result<CompiledProgram, SocError> {
        match targets {
            None => Err(fail),
            Some(t) => pm_lower::relower_without(compiled, t, down, self.template_cache.as_ref())
                .map_err(|e| SocError::Relower { detail: e.to_string() }),
        }
    }

    fn assemble(
        partitions: Vec<PartitionReport>,
        profile: ChaosProfile,
        chaos_seed: u64,
        fallbacks: Vec<FallbackRecord>,
        carry: Carry,
    ) -> SocReport {
        let mut total = PerfEstimate::default();
        let mut dma_seconds = 0.0f64;
        let mut faults_injected = carry.faults_seen;
        let mut retries = carry.retries;
        let mut retried_dma_bytes = carry.retried_dma_bytes;
        let mut virtual_ns = carry.virtual_ns;
        for report in &partitions {
            total = total.then(&report.compute).then(&report.dma);
            dma_seconds += report.dma.seconds;
            faults_injected += report.faults_seen;
            retries += report.retries;
            retried_dma_bytes += report.retried_dma_bytes;
            virtual_ns = virtual_ns.saturating_add(report.virtual_ns);
        }
        let comm_fraction = if total.seconds > 0.0 { dma_seconds / total.seconds } else { 0.0 };
        SocReport {
            partitions,
            total,
            comm_fraction,
            profile,
            chaos_seed,
            faults_injected,
            retries,
            retried_dma_bytes,
            virtual_ns,
            fallbacks,
        }
    }

    /// Simulates every partition of one dispatch schedule, in partition
    /// order.
    fn dispatch(
        &self,
        compiled: &CompiledProgram,
        hints: &HashMap<Option<Domain>, WorkloadHints>,
        expert: bool,
        cfg: &ChaosConfig,
    ) -> Result<Round, SocError> {
        let mut parts = Vec::with_capacity(compiled.partitions.len());
        let mut downs = Vec::new();
        for part in &compiled.partitions {
            match self.simulate_partition(part, compiled, hints, expert, cfg)? {
                PartSim::Done(p) => parts.push(p),
                PartSim::Down(info) => downs.push(info),
            }
        }
        if downs.is_empty() {
            Ok(Round::Done(parts))
        } else {
            Ok(Round::Downs(downs))
        }
    }

    fn simulate_partition(
        &self,
        part: &pm_lower::AccProgram,
        compiled: &CompiledProgram,
        hints: &HashMap<Option<Domain>, WorkloadHints>,
        expert: bool,
        cfg: &ChaosConfig,
    ) -> Result<PartSim, SocError> {
        let default_hints = WorkloadHints::default();
        let h = hints.get(&part.domain).unwrap_or(&default_hints);
        // The partition records which target its fragments were compiled
        // for; pick the matching backend, else the host (an unaccelerated
        // domain compiles against the host spec).
        let backend = self.backends.iter().find(|b| b.accel_spec().name == part.target);
        let host_spec_name = self.host.accel_spec().name;
        if backend.is_none() && part.target != host_spec_name {
            return Err(SocError::missing_backend(
                part.target.clone(),
                part.domain,
                self.attached_names(),
            ));
        }
        let (target, compute) = match backend {
            Some(backend) if expert => {
                (backend.name().to_string(), backend.estimate_expert(part, &compiled.graph, h))
            }
            Some(backend) => {
                (backend.name().to_string(), backend.estimate(part, &compiled.graph, h))
            }
            None => {
                // Unaccelerated domains and host glue run on the CPU.
                let mut est = self.host.estimate(part, &compiled.graph, h);
                if expert {
                    // The hand-tuned reference is native C against the
                    // vendor libraries, ~15% tighter than the code the
                    // generic stack emits for the host.
                    est.seconds *= 0.85;
                    est.energy_j *= 0.85;
                    est.cycles = (est.cycles as f64 * 0.85) as u64;
                }
                (self.host.name().to_string(), est)
            }
        };
        let mut r = PartitionReport {
            target,
            domain: part.domain,
            compute,
            dma: PerfEstimate::default(),
            attempts: 0,
            retries: 0,
            faults_seen: 0,
            faults: Vec::new(),
            retried_dma_bytes: 0,
            virtual_ns: 0,
        };
        // DMA transfers and fragment dispatch: only real when the
        // partition runs on an accelerator (host-resident data needs no
        // DMA, and the host manager does not dispatch to itself).
        let Some(backend) = backend else {
            return Ok(PartSim::Done(r));
        };
        let mut clock = VirtualClock::new();
        for (idx, frag) in part.fragments.iter().enumerate() {
            let is_dma = frag.kind != FragmentKind::Compute;
            if is_dma && frag.inputs.is_empty() && frag.outputs.is_empty() {
                return Err(SocError::MalformedFragment {
                    target: part.target.clone(),
                    fragment: idx,
                    detail: "load/store fragment has no operands to marshal".to_string(),
                });
            }
            // `param` and `state` data are resident in the accelerator's
            // local memory (loaded once, amortized across the run) — this
            // is precisely what PMLang's type modifiers tell the stack
            // (paper §II.A). Only `input`/`output`/intermediate flows
            // cross the DMA per invocation, and only per-invocation
            // dispatches are fault-injected.
            let resident = is_dma
                && frag.inputs.iter().chain(&frag.outputs).all(|a| {
                    matches!(a.modifier(), srdfg::Modifier::Param | srdfg::Modifier::State)
                });
            if resident {
                continue;
            }
            let (bytes, transfer_ns) = if is_dma {
                let bytes = frag.bytes();
                let secs = self.dma.transfer_seconds(bytes);
                r.dma.seconds += secs;
                r.dma.energy_j +=
                    bytes as f64 * self.dma_energy_per_byte + secs * self.manager_power_w;
                r.dma.dma_bytes += bytes;
                (bytes, (secs * 1e9) as u64)
            } else {
                (0, DISPATCH_NS)
            };
            // Resilient dispatch: retry faulting fragments under
            // exponential backoff until success, retry exhaustion, or the
            // per-fragment virtual-time budget runs out.
            let mut attempt: u32 = 1;
            let mut spent: u64 = 0;
            loop {
                // Every dispatch charge names the `dispatch` stage, so the
                // wire error reads the same whichever fragment's charge
                // crosses the limit.
                cfg.budget.charge("dispatch", 1).map_err(SocError::BudgetExhausted)?;
                r.attempts += 1;
                let Some(kind) = backend.inject_fault(&cfg.plan, idx, frag.kind, attempt) else {
                    clock.advance(transfer_ns);
                    break;
                };
                r.faults_seen += 1;
                if r.faults.len() < MAX_RECORDED_FAULTS {
                    r.faults.push(FaultEvent {
                        target: part.target.clone(),
                        fragment: idx,
                        op: frag.op.to_string(),
                        attempt,
                        kind,
                    });
                }
                let cost = match kind {
                    FaultKind::FragmentStall => cfg.fragment_deadline_ns,
                    _ => transfer_ns,
                };
                clock.advance(cost);
                spent += cost;
                let budget_exceeded = spent > cfg.fragment_budget_ns;
                if !kind.retryable() || attempt > cfg.max_retries || budget_exceeded {
                    r.virtual_ns = clock.now_ns();
                    return Ok(PartSim::Down(DownInfo {
                        target: part.target.clone(),
                        fragment: idx,
                        op: frag.op.to_string(),
                        attempts: attempt,
                        fault: kind,
                        spent_ns: clock.now_ns(),
                        budget_exceeded: budget_exceeded && kind.retryable(),
                        faults_seen: r.faults_seen,
                        retries: r.retries,
                        retried_dma_bytes: r.retried_dma_bytes,
                    }));
                }
                // A corrupted or truncated transfer is re-issued in full:
                // the retry pays the DMA cost again.
                if matches!(kind, FaultKind::DmaCorruption | FaultKind::DmaTruncation) {
                    let secs = self.dma.transfer_seconds(bytes);
                    r.dma.seconds += secs;
                    r.dma.energy_j +=
                        bytes as f64 * self.dma_energy_per_byte + secs * self.manager_power_w;
                    r.dma.dma_bytes += bytes;
                    r.retried_dma_bytes += bytes;
                }
                let delay = cfg.backoff.delay_ns(attempt);
                clock.advance(delay);
                spent += delay;
                r.retries += 1;
                attempt += 1;
            }
        }
        r.virtual_ns = clock.now_ns();
        Ok(PartSim::Done(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deco::Deco;
    use crate::tabla::Tabla;
    use pm_lower::{compile_program, lower, TargetMap};
    use srdfg::Budget;
    use std::sync::Arc;

    /// A two-domain pipeline: DSP filter feeding a DA classifier.
    fn compiled_two_domain(accelerate: &[Domain]) -> (CompiledProgram, TargetMap) {
        let src = "filt(input float x[1024], param float h[16], output float y[1009]) {
             index i[0:1008], k[0:15];
             y[i] = sum[k](h[k]*x[i+k]);
         }
         clas(input float f[1009], param float W[64][1009], param float v[64],
              output float c) {
             index i[0:1008], j[0:63];
             float hid[64];
             hid[j] = sigmoid(sum[i](W[j][i]*f[i]));
             c = sigmoid(sum[j](v[j]*hid[j]));
         }
         main(input float sig[1024], param float taps[16],
              param float W[64][1009], param float v[64], output float cls) {
             float feat[1009];
             DSP: filt(sig, taps, feat);
             DA: clas(feat, W, v, cls);
         }";
        let prog = pmlang::parse(src).unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let host = Cpu::default().accel_spec();
        let mut targets = TargetMap::host_only(host);
        if accelerate.contains(&Domain::Dsp) {
            targets.set(Deco::default().accel_spec());
        }
        if accelerate.contains(&Domain::DataAnalytics) {
            targets.set(Tabla::default().accel_spec());
        }
        lower(&mut g, &targets, None, &Budget::unlimited()).unwrap();
        pm_passes::Pass::run(&pm_passes::ElideMarshalling, &mut g);
        (compile_program(Arc::new(g), &targets, &Budget::unlimited()).unwrap(), targets)
    }

    fn soc() -> Soc {
        let mut s = Soc::new();
        s.attach(Deco::default());
        s.attach(Tabla::default());
        s
    }

    #[test]
    fn accelerating_both_beats_one() {
        let s = soc();
        let hints = HashMap::new();
        let none = s.run(&compiled_two_domain(&[]).0, &hints).unwrap();
        let dsp_only = s.run(&compiled_two_domain(&[Domain::Dsp]).0, &hints).unwrap();
        let both =
            s.run(&compiled_two_domain(&[Domain::Dsp, Domain::DataAnalytics]).0, &hints).unwrap();
        // Fully accelerated is fastest in energy (the paper's headline
        // cross-domain claim).
        assert!(both.total.energy_j < none.total.energy_j);
        assert!(both.total.energy_j < dsp_only.total.energy_j);
    }

    #[test]
    fn unaccelerated_partition_falls_back_to_host() {
        let s = soc();
        let report = s.run(&compiled_two_domain(&[Domain::Dsp]).0, &HashMap::new()).unwrap();
        let da =
            report.partitions.iter().find(|p| p.domain == Some(Domain::DataAnalytics)).unwrap();
        assert_eq!(da.target, "Xeon E-2176G");
        assert_eq!(da.dma.dma_bytes, 0, "host partitions need no DMA");
        let dsp = report.partitions.iter().find(|p| p.domain == Some(Domain::Dsp)).unwrap();
        assert_eq!(dsp.target, "DECO");
        assert!(dsp.dma.dma_bytes > 0);
    }

    #[test]
    fn expert_run_is_never_slower() {
        let s = soc();
        let (compiled, _) = compiled_two_domain(&[Domain::Dsp, Domain::DataAnalytics]);
        let normal = s.run(&compiled, &HashMap::new()).unwrap();
        let expert = s.run_expert(&compiled, &HashMap::new()).unwrap();
        assert!(expert.total.seconds <= normal.total.seconds * 1.0001);
        assert!(expert.total.energy_j <= normal.total.energy_j * 1.0001);
    }

    #[test]
    fn resident_param_and_state_data_skip_dma() {
        // A kernel whose only large operand is a `param` weight matrix:
        // the per-invocation DMA must only move the small input/output.
        let src = "clas(input float x[64], param float W[256][64], output float y[256]) {
             index i[0:63], j[0:255];
             y[j] = sum[i](W[j][i]*x[i]);
         }
         main(input float x[64], param float W[256][64], output float y[256]) {
             DA: clas(x, W, y);
         }";
        let prog = pmlang::parse(src).unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let mut targets = TargetMap::host_only(Cpu::default().accel_spec());
        targets.set(Tabla::default().accel_spec());
        lower(&mut g, &targets, None, &Budget::unlimited()).unwrap();
        pm_passes::Pass::run(&pm_passes::ElideMarshalling, &mut g);
        let compiled = compile_program(Arc::new(g), &targets, &Budget::unlimited()).unwrap();
        let s = soc();
        let report = s.run(&compiled, &HashMap::new()).unwrap();
        let da =
            report.partitions.iter().find(|p| p.domain == Some(Domain::DataAnalytics)).unwrap();
        // x (256 B) + y (1 KiB) cross the DMA; W (64 KiB) must not.
        assert!(da.dma.dma_bytes <= 2048, "moved {} bytes", da.dma.dma_bytes);
        assert!(da.dma.dma_bytes >= 256 + 1024, "moved {} bytes", da.dma.dma_bytes);
    }

    #[test]
    fn communication_fraction_is_reported() {
        let s = soc();
        let report = s
            .run(&compiled_two_domain(&[Domain::Dsp, Domain::DataAnalytics]).0, &HashMap::new())
            .unwrap();
        assert!(report.comm_fraction > 0.0 && report.comm_fraction < 1.0);
    }

    #[test]
    fn missing_backend_is_an_error_with_a_suggestion() {
        // Compile against a typo'd spec name; the SoC has the real TABLA
        // attached, so the error should suggest it.
        let src = "main(input float x[4], param float w[4], output float y) {
             index i[0:3];
             DA: y = sum[i](w[i]*x[i]);
         }";
        let prog = pmlang::parse(src).unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let mut spec = Tabla::default().accel_spec();
        spec.name = "TABAL".to_string();
        let mut targets = TargetMap::host_only(Cpu::default().accel_spec());
        targets.set(spec);
        lower(&mut g, &targets, None, &Budget::unlimited()).unwrap();
        let compiled = compile_program(Arc::new(g), &targets, &Budget::unlimited()).unwrap();
        let err = soc().run(&compiled, &HashMap::new()).unwrap_err();
        match &err {
            SocError::MissingBackend { target, suggestion, attached, .. } => {
                assert_eq!(target, "TABAL");
                assert_eq!(suggestion.as_deref(), Some("TABLA"));
                assert!(attached.contains(&"TABLA".to_string()));
            }
            other => panic!("expected MissingBackend, got {other:?}"),
        }
        assert!(err.to_string().contains("did you mean `TABLA`?"));
    }

    #[test]
    fn off_chaos_matches_plain_run_exactly() {
        let s = soc();
        let (compiled, targets) = compiled_two_domain(&[Domain::Dsp, Domain::DataAnalytics]);
        let plain = s.run(&compiled, &HashMap::new()).unwrap();
        let chaos =
            s.run_chaos(&compiled, &HashMap::new(), &ChaosConfig::off(), Some(&targets)).unwrap();
        assert!(chaos.relowered.is_none());
        assert_eq!(plain, chaos.report);
        assert_eq!(plain.faults_injected, 0);
        assert_eq!(plain.retries, 0);
    }

    #[test]
    fn transient_chaos_retries_and_is_deterministic() {
        let s = soc();
        let (compiled, targets) = compiled_two_domain(&[Domain::Dsp, Domain::DataAnalytics]);
        // The draw is deterministic; scan a few seeds for one that faults.
        let mut hit = None;
        for seed in 0..64u64 {
            let cfg = ChaosConfig::new(seed, ChaosProfile::Transient);
            let out = s.run_chaos(&compiled, &HashMap::new(), &cfg, Some(&targets)).unwrap();
            assert!(out.relowered.is_none(), "transient profile must never force fallback");
            if out.report.faults_injected > 0 {
                hit = Some((cfg, out));
                break;
            }
        }
        let (cfg, out) = hit.expect("no transient fault in 64 seeds");
        assert!(out.report.retries > 0, "faults must be retried");
        let again = s.run_chaos(&compiled, &HashMap::new(), &cfg, Some(&targets)).unwrap();
        assert_eq!(out.report, again.report, "same seed must reproduce the same report");
        // Compute estimates are untouched by chaos; only DMA grows.
        let plain = s.run(&compiled, &HashMap::new()).unwrap();
        for (a, b) in plain.partitions.iter().zip(&out.report.partitions) {
            assert_eq!(a.compute, b.compute);
            assert!(b.dma.dma_bytes >= a.dma.dma_bytes);
        }
    }

    #[test]
    fn forced_outage_falls_back_to_host() {
        let s = soc();
        let (compiled, targets) = compiled_two_domain(&[Domain::Dsp, Domain::DataAnalytics]);
        let cfg = ChaosConfig::off().with_down("DECO").with_down("TABLA");
        let out = s.run_chaos(&compiled, &HashMap::new(), &cfg, Some(&targets)).unwrap();
        assert_eq!(out.report.fallbacks.len(), 2);
        let re = out.relowered.expect("fallback must produce a re-lowered program");
        for p in &re.partitions {
            assert_eq!(p.target, "CPU", "all work must land on the host");
        }
        for p in &out.report.partitions {
            assert_eq!(p.target, "Xeon E-2176G");
            assert_eq!(p.dma.dma_bytes, 0, "host execution needs no DMA");
        }
    }

    #[test]
    fn forced_outage_without_target_map_is_a_structured_error() {
        let s = soc();
        let (compiled, _) = compiled_two_domain(&[Domain::Dsp, Domain::DataAnalytics]);
        let cfg = ChaosConfig::off().with_down("DECO");
        let err = s.run_chaos(&compiled, &HashMap::new(), &cfg, None).unwrap_err();
        assert!(
            matches!(err, SocError::FallbackUnavailable { ref target, .. } if target == "DECO"),
            "got {err:?}"
        );
    }
}
